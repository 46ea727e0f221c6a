#include "src/sqlmeta/transform.h"

#include "src/interp/eval.h"

namespace pqs {
namespace sqlmeta {

namespace {

// where ∧ extra, or just extra when the query had no WHERE.
ExprPtr AndWhere(const ExprPtr& base, ExprPtr extra) {
  if (base == nullptr) return extra;
  return MakeBinary(BinaryOp::kAnd, base->Clone(), std::move(extra));
}

bool IsBareAggregate(const Expr* e) {
  return e != nullptr && e->kind == ExprKind::kAggregate;
}

}  // namespace

std::unique_ptr<SelectStmt> NorecOptimized(const std::string& table,
                                           const Expr& predicate) {
  auto q = std::make_unique<SelectStmt>();
  q->select_list.push_back(MakeCountStar());
  q->from_tables.push_back(table);
  q->where = predicate.Clone();
  return q;
}

std::unique_ptr<SelectStmt> NorecUnoptimized(const std::string& table,
                                             const Expr& predicate) {
  auto q = std::make_unique<SelectStmt>();
  q->select_list.push_back(predicate.Clone());
  q->from_tables.push_back(table);
  return q;
}

std::vector<ExprPtr> TlpPartitionPredicates(const Expr& predicate) {
  std::vector<ExprPtr> out;
  out.push_back(predicate.Clone());
  out.push_back(MakeUnary(UnaryOp::kNot, predicate.Clone()));
  out.push_back(MakeIsNull(predicate.Clone(), /*negated=*/false));
  return out;
}

const char* TlpShapeName(TlpShape shape) {
  switch (shape) {
    case TlpShape::kRows:
      return "rows";
    case TlpShape::kAggregate:
      return "aggregate";
    case TlpShape::kCountDistinct:
      return "count-distinct";
    case TlpShape::kGroupBy:
      return "group-by";
  }
  return "?";
}

bool BuildTlpPlan(const SelectStmt& query, const Expr& predicate,
                  TlpPlan* plan, std::string* error) {
  plan->group_cols = 0;
  plan->aggs.clear();
  plan->partitions.clear();
  auto fail = [error](const char* why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (query.from_tables.size() != 1 || !query.joins.empty()) {
    return fail("TLP requires a single-table query");
  }
  if (query.distinct || !query.order_by.empty() || query.limit >= 0) {
    return fail("TLP query must not use DISTINCT/ORDER BY/LIMIT");
  }
  std::vector<ExprPtr> preds = TlpPartitionPredicates(predicate);

  if (!query.HasAggregates()) {
    // Plain row-set query: partitions are the same query with the
    // partition predicate ANDed onto any existing WHERE; recombination is
    // multiset union.
    plan->shape = TlpShape::kRows;
    for (ExprPtr& p : preds) {
      auto part = std::unique_ptr<SelectStmt>(
          static_cast<SelectStmt*>(query.Clone().release()));
      part->where = AndWhere(query.where, std::move(p));
      plan->partitions.push_back(std::move(part));
    }
    return true;
  }

  if (query.having != nullptr && query.group_by.empty()) {
    return fail("TLP does not model HAVING without GROUP BY");
  }

  // COUNT(DISTINCT c) is special: summing per-partition COUNT(DISTINCT)
  // partials is unsound (one value may appear in several partitions), so
  // its partitions project the DISTINCT value sets and the oracle dedups
  // their union itself.
  if (query.group_by.empty() && query.select_list.size() == 1 &&
      IsBareAggregate(query.select_list[0].get()) &&
      query.select_list[0]->agg == AggFunc::kCount &&
      query.select_list[0]->agg_distinct) {
    plan->shape = TlpShape::kCountDistinct;
    for (ExprPtr& p : preds) {
      auto part = std::make_unique<SelectStmt>();
      part->distinct = true;
      part->select_list.push_back(query.select_list[0]->args[0]->Clone());
      part->from_tables = query.from_tables;
      part->where = AndWhere(query.where, std::move(p));
      plan->partitions.push_back(std::move(part));
    }
    return true;
  }

  // Aggregate / GROUP BY shape: partition select lists carry the group
  // keys followed by decomposed partials of every unique aggregate node
  // (AVG → SUM + COUNT); HAVING is stripped — the oracle re-applies it on
  // the recombined aggregates.
  plan->shape =
      query.group_by.empty() ? TlpShape::kAggregate : TlpShape::kGroupBy;
  plan->group_cols = static_cast<int>(query.group_by.size());
  for (const ExprPtr& g : query.group_by) {
    if (g == nullptr || g->kind != ExprKind::kColumnRef) {
      return fail("TLP GROUP BY keys must be column references");
    }
  }
  std::vector<const Expr*> agg_nodes;
  for (const ExprPtr& item : query.select_list) {
    if (item == nullptr) return fail("null select item");
    CollectAggregates(*item, &agg_nodes);
    // Non-aggregate select items must be group-key references so the
    // recombined output row can be reconstructed from the group key.
    if (item->kind != ExprKind::kAggregate &&
        item->ContainsKind(ExprKind::kAggregate) == false &&
        item->kind != ExprKind::kColumnRef) {
      return fail("TLP select items must be aggregates or group keys");
    }
  }
  if (query.having != nullptr) CollectAggregates(*query.having, &agg_nodes);
  if (agg_nodes.empty()) return fail("aggregate shape without aggregates");

  int next_col = plan->group_cols;
  for (const Expr* node : agg_nodes) {
    if (node->agg_distinct) {
      // DISTINCT partials do not recombine soundly across partitions.
      return fail("TLP cannot decompose DISTINCT aggregates in this shape");
    }
    TlpAggTerm term;
    term.original = node;
    term.value_index = next_col++;
    if (node->agg == AggFunc::kAvg) term.count_index = next_col++;
    plan->aggs.push_back(term);
  }

  for (ExprPtr& p : preds) {
    auto part = std::make_unique<SelectStmt>();
    part->from_tables = query.from_tables;
    for (const ExprPtr& g : query.group_by) {
      part->select_list.push_back(g->Clone());
      part->group_by.push_back(g->Clone());
    }
    for (const TlpAggTerm& term : plan->aggs) {
      const Expr& node = *term.original;
      if (node.agg == AggFunc::kAvg) {
        part->select_list.push_back(
            MakeAggregate(AggFunc::kSum, node.args[0]->Clone(), false));
        part->select_list.push_back(
            MakeAggregate(AggFunc::kCount, node.args[0]->Clone(), false));
      } else if (node.agg_star) {
        part->select_list.push_back(MakeCountStar());
      } else {
        part->select_list.push_back(
            MakeAggregate(node.agg, node.args[0]->Clone(), false));
      }
    }
    part->where = AndWhere(query.where, std::move(p));
    plan->partitions.push_back(std::move(part));
  }
  return true;
}

}  // namespace sqlmeta
}  // namespace pqs
