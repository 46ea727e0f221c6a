#include "src/sqlmeta/oracle.h"

#include <string>

#include "src/interp/eval.h"
#include "src/obs/telemetry.h"
#include "src/sqlast/ast.h"
#include "src/sqlvalue/value.h"

namespace pqs {
namespace sqlmeta {

namespace {

MetaVerdict ClassifyStatus(StatementStatus s) {
  switch (s) {
    case StatementStatus::kOk:
      return MetaVerdict::kOk;
    case StatementStatus::kConstraintViolation:
    case StatementStatus::kError:
    case StatementStatus::kTxnConflict:
      return MetaVerdict::kEngineError;
    case StatementStatus::kCrash:
      return MetaVerdict::kEngineCrash;
  }
  return MetaVerdict::kEngineError;
}

// Executes `q`, logging its clone into outcome->executed first (so a crash
// still leaves the provoking statement last). Returns true on success;
// otherwise the outcome's verdict and message are final.
bool Run(Connection& conn, const SelectStmt& q, MetaOutcome* outcome,
         StatementResult* result) {
  outcome->executed.push_back(q.Clone());
  {
    obs::ScopedPhase span(obs::Phase::kEngineExecute);
    *result = conn.Execute(q);
    obs::CountStatement(static_cast<uint32_t>(StmtKind::kSelect),
                        !result->ok());
  }
  if (result->ok()) return true;
  outcome->verdict = ClassifyStatus(result->status);
  outcome->message = result->error;
  return false;
}

void Mismatch(MetaOutcome* out, std::string message) {
  out->verdict = MetaVerdict::kMismatch;
  out->message = std::move(message);
}

}  // namespace

MetaOutcome RunNorecCheck(Connection& conn, const std::string& table,
                          const Expr& predicate) {
  MetaOutcome out;
  auto optimized = NorecOptimized(table, predicate);
  auto unoptimized = NorecUnoptimized(table, predicate);
  StatementResult opt_result;
  StatementResult unopt_result;
  if (!Run(conn, *unoptimized, &out, &unopt_result)) return out;
  if (!Run(conn, *optimized, &out, &opt_result)) return out;
  if (opt_result.rows.size() != 1 || opt_result.rows[0].size() != 1) {
    Mismatch(&out, "NoREC optimized COUNT(*) did not return a single cell");
    return out;
  }
  int64_t truthy = 0;
  for (const auto& row : unopt_result.rows) {
    if (!row.empty() && Truthiness(row[0], conn.dialect()) == Bool3::kTrue) {
      ++truthy;
    }
  }
  const SqlValue& count = opt_result.rows[0][0];
  if (!ValueEquals(count, SqlValue::Int(truthy))) {
    Mismatch(&out, "NoREC mismatch: optimized COUNT(*) = " +
                       count.ToDisplay() +
                       ", unoptimized truthy projection count = " +
                       std::to_string(truthy));
  }
  return out;
}

MetaOutcome RunTlpCheck(Connection& conn, const SelectStmt& query,
                        const Expr& predicate) {
  MetaOutcome out;
  TlpPlan plan;
  std::string why;
  if (!BuildTlpPlan(query, predicate, &plan, &why)) {
    out.verdict = MetaVerdict::kSkipped;
    out.message = why;
    return out;
  }

  std::vector<StatementResult> parts(plan.partitions.size());
  for (size_t i = 0; i < plan.partitions.size(); ++i) {
    if (!Run(conn, *plan.partitions[i], &out, &parts[i])) return out;
  }
  StatementResult full;
  if (!Run(conn, query, &out, &full)) return out;

  const std::string tag =
      std::string("TLP(") + TlpShapeName(plan.shape) + ") mismatch: ";

  if (plan.shape == TlpShape::kRows) {
    std::vector<std::vector<SqlValue>> expected;
    for (const StatementResult& pr : parts) {
      for (const auto& row : pr.rows) expected.push_back(row);
    }
    if (!SameRowMultiset(expected, full.rows)) {
      Mismatch(&out, tag + "partition union has " +
                         std::to_string(expected.size()) +
                         " row(s), full query returned " +
                         std::to_string(full.rows.size()));
    }
    return out;
  }

  if (plan.shape == TlpShape::kCountDistinct) {
    // Dedup the union of the per-partition DISTINCT value sets ourselves
    // (summing per-partition counts would be unsound: one value can sit in
    // several partitions). NULL never counts.
    std::vector<SqlValue> values;
    for (const StatementResult& pr : parts) {
      for (const auto& row : pr.rows) {
        if (row.empty() || row[0].is_null()) continue;
        bool seen = false;
        for (const SqlValue& v : values) {
          if (ValueEquals(v, row[0])) {
            seen = true;
            break;
          }
        }
        if (!seen) values.push_back(row[0]);
      }
    }
    int64_t expected = static_cast<int64_t>(values.size());
    if (full.rows.size() != 1 || full.rows[0].size() != 1) {
      Mismatch(&out, tag + "full query did not return a single cell");
      return out;
    }
    if (!ValueEquals(full.rows[0][0], SqlValue::Int(expected))) {
      Mismatch(&out, tag + "recombined distinct count = " +
                         std::to_string(expected) +
                         ", full COUNT(DISTINCT) = " +
                         full.rows[0][0].ToDisplay());
    }
    return out;
  }

  // kAggregate / kGroupBy: merge the partition groups by group key,
  // recombine each aggregate from its partials with a *clean* accumulator,
  // re-apply HAVING on the recombined values, and compare the rebuilt rows
  // against the full query's result.
  EvalContext ref{conn.dialect(), nullptr};
  const size_t gcols = static_cast<size_t>(plan.group_cols);
  size_t partial_width = gcols;
  for (const TlpAggTerm& term : plan.aggs) {
    partial_width += term.count_index >= 0 ? 2 : 1;
  }

  std::vector<std::vector<SqlValue>> keys;
  std::vector<std::vector<const std::vector<SqlValue>*>> group_partials;
  for (const StatementResult& pr : parts) {
    for (const auto& row : pr.rows) {
      if (row.size() != partial_width) {
        Mismatch(&out, tag + "partition row arity " +
                           std::to_string(row.size()) + ", expected " +
                           std::to_string(partial_width));
        return out;
      }
      size_t slot = keys.size();
      for (size_t k = 0; k < keys.size(); ++k) {
        bool same = true;
        for (size_t c = 0; c < gcols; ++c) {
          if (ValueCompare(keys[k][c], row[c]) != 0) {
            same = false;
            break;
          }
        }
        if (same) {
          slot = k;
          break;
        }
      }
      if (slot == keys.size()) {
        keys.emplace_back(row.begin(), row.begin() + static_cast<long>(gcols));
        group_partials.emplace_back();
      }
      group_partials[slot].push_back(&row);
    }
  }

  RowSchema key_schema;
  for (const ExprPtr& g : query.group_by) {
    key_schema.Add(g->table, g->column);
  }
  std::vector<const Expr*> agg_nodes;
  for (const TlpAggTerm& term : plan.aggs) {
    agg_nodes.push_back(term.original);
  }

  std::vector<std::vector<SqlValue>> expected_rows;
  for (size_t g = 0; g < keys.size(); ++g) {
    std::vector<SqlValue> agg_values;
    for (const TlpAggTerm& term : plan.aggs) {
      const size_t value_col = static_cast<size_t>(term.value_index);
      std::string err;
      if (term.original->agg == AggFunc::kAvg) {
        AggAccumulator sum_acc(AggFunc::kSum, false, ref);
        AggAccumulator cnt_acc(AggFunc::kSum, false, ref);
        const size_t count_col = static_cast<size_t>(term.count_index);
        for (const std::vector<SqlValue>* row : group_partials[g]) {
          if (!sum_acc.Add((*row)[value_col], &err) ||
              !cnt_acc.Add((*row)[count_col], &err)) {
            Mismatch(&out, tag + "unexpected AVG partial: " + err);
            return out;
          }
        }
        SqlValue sum = sum_acc.Final();
        SqlValue cnt = cnt_acc.Final();
        if (cnt.is_null() || cnt.AsReal() == 0.0 || sum.is_null()) {
          agg_values.push_back(SqlValue::Null());
        } else {
          agg_values.push_back(SqlValue::Real(sum.AsReal() / cnt.AsReal()));
        }
        continue;
      }
      // COUNT partials recombine by summation; SUM by summation; MIN/MAX
      // by taking the extreme of the extremes.
      AggFunc recombine = term.original->agg;
      if (recombine == AggFunc::kCount) recombine = AggFunc::kSum;
      AggAccumulator acc(recombine, false, ref);
      for (const std::vector<SqlValue>* row : group_partials[g]) {
        if (!acc.Add((*row)[value_col], &err)) {
          Mismatch(&out, tag + "unexpected partial: " + err);
          return out;
        }
      }
      SqlValue v = acc.Final();
      // A COUNT over a group every partition starved of rows cannot
      // happen (the group would not exist), but a NULL sum of counts is
      // the engine's junk, not ours — surface it as the recombined value.
      if (term.original->agg == AggFunc::kCount && v.is_null()) {
        v = SqlValue::Int(0);
      }
      agg_values.push_back(std::move(v));
    }

    RowView key_view{&key_schema, &keys[g]};
    if (query.having != nullptr) {
      ExprPtr hav =
          SubstituteAggregates(*query.having, agg_nodes, agg_values);
      EvalResult r = Evaluate(*hav, key_view, ref);
      if (r.error) {
        out.verdict = MetaVerdict::kSkipped;
        out.message = "recombined HAVING evaluation failed: " + r.message;
        return out;
      }
      if (Truthiness(r.value, conn.dialect()) != Bool3::kTrue) continue;
    }

    std::vector<SqlValue> row_out;
    row_out.reserve(query.select_list.size());
    for (const ExprPtr& item : query.select_list) {
      ExprPtr sub = SubstituteAggregates(*item, agg_nodes, agg_values);
      EvalResult r = Evaluate(*sub, key_view, ref);
      if (r.error) {
        out.verdict = MetaVerdict::kSkipped;
        out.message = "recombined select item evaluation failed: " + r.message;
        return out;
      }
      row_out.push_back(std::move(r.value));
    }
    expected_rows.push_back(std::move(row_out));
  }

  if (!SameRowMultiset(expected_rows, full.rows)) {
    std::string detail = tag + "recombined " +
                         std::to_string(expected_rows.size()) +
                         " group row(s), full query returned " +
                         std::to_string(full.rows.size());
    if (expected_rows.size() == 1 && full.rows.size() == 1) {
      detail += " (";
      for (size_t i = 0; i < expected_rows[0].size(); ++i) {
        if (i > 0) detail += ", ";
        detail += expected_rows[0][i].ToDisplay() + " vs " +
                  (i < full.rows[0].size() ? full.rows[0][i].ToDisplay()
                                           : std::string("<missing>"));
      }
      detail += ")";
    }
    Mismatch(&out, detail);
  }
  return out;
}

}  // namespace sqlmeta
}  // namespace pqs
