#include "src/pqs/generator.h"

#include <memory>
#include <utility>

#include "src/sqlexpr/registry.h"
#include "src/sqlstmt/stmt.h"

namespace pqs {

namespace {

const char* DeclaredTypeFor(Affinity affinity) {
  switch (affinity) {
    case Affinity::kInteger:
      return "INT";
    case Affinity::kReal:
      return "REAL";
    case Affinity::kText:
      return "TEXT";
  }
  return "TEXT";
}

BinaryOp RandomComparison(Rng* rng) {
  switch (rng->Below(6)) {
    case 0:
      return BinaryOp::kEq;
    case 1:
      return BinaryOp::kNe;
    case 2:
      return BinaryOp::kLt;
    case 3:
      return BinaryOp::kLe;
    case 4:
      return BinaryOp::kGt;
    default:
      return BinaryOp::kGe;
  }
}

bool IsNumericAffinity(Affinity a) {
  return a == Affinity::kInteger || a == Affinity::kReal;
}

// Generation constants no caller varies (GeneratorOptions holds the ones
// some caller does, and the eval corpus's; DESIGN §1).
constexpr int kMaxTables = 3;
constexpr int kMaxColumns = 4;
constexpr double kIndexProbability = 0.7;         // ≥1 CREATE INDEX per table
constexpr double kPartialIndexProbability = 0.4;  // ...of which partial
constexpr double kNullProbability = 0.18;         // NULL cell values
constexpr double kMultiTableQueryProbability = 0.35;
constexpr double kLeftJoinProbability = 0.35;   // join step is LEFT ...
constexpr double kCrossJoinProbability = 0.15;  // ... or CROSS (else INNER)
// Query shape (GenerateQueryShape). Probability a multi-table query uses
// explicit JOIN syntax (INNER / LEFT / CROSS chain) rather than the
// comma-list cross product...
constexpr double kExplicitJoinProbability = 0.55;
// ...and that an explicit join chain grows to a third table.
constexpr double kThirdTableProbability = 0.5;
constexpr double kDistinctProbability = 0.3;
constexpr double kOrderByProbability = 0.45;
constexpr int kMaxOrderKeys = 2;
// LIMIT attach probability, given an ORDER BY (LIMIT without ORDER BY is
// generated more rarely; its sound bound is the whole result).
constexpr double kLimitProbability = 0.5;
// Aggregate query space (GenerateAggregateQuery, TLP checks only).
// Probability an aggregate query is the dedicated COUNT(DISTINCT c) shape
// (its partials recombine by value-set union, not summation).
constexpr double kCountDistinctProbability = 0.2;
// Probability an aggregate query groups by one column.
constexpr double kGroupByProbability = 0.45;
// Probability a grouped query carries a HAVING clause (a numeric aggregate
// compared against a small integer literal).
constexpr double kHavingProbability = 0.5;

}  // namespace

std::string GeneratorOptions::Validate() const {
  const std::pair<const char*, int> counts[] = {
      {"min_rows", min_rows},
      {"max_rows", max_rows},
      {"max_predicate_depth", max_predicate_depth},
  };
  for (const auto& [name, v] : counts) {
    if (v < 0) return std::string(name) + " must be non-negative";
  }
  if (min_rows > max_rows) return "min_rows must not exceed max_rows";
  const std::pair<const char*, double> probs[] = {
      {"function_probability", function_probability},
      {"cast_probability", cast_probability},
      {"case_probability", case_probability},
      {"collate_probability", collate_probability},
      {"like_escape_probability", like_escape_probability},
      {"in_list_null_probability", in_list_null_probability},
  };
  for (const auto& [name, p] : probs) {
    if (!(p >= 0.0 && p <= 1.0)) {
      return std::string(name) + " must be within [0, 1]";
    }
  }
  if (txn_sessions < 1 || txn_sessions > 8) {
    return "txn_sessions must be within [1, 8]";
  }
  return "";
}

JoinKind Generator::RandomJoinKind(Rng* rng) const {
  double roll = rng->Unit();
  if (roll < kLeftJoinProbability) return JoinKind::kLeft;
  if (roll < kLeftJoinProbability + kCrossJoinProbability) {
    return JoinKind::kCross;
  }
  return JoinKind::kInner;
}

Generator::Generator(const GeneratorOptions& options, Dialect dialect)
    : options_(options),
      dialect_(dialect),
      strict_(dialect == Dialect::kPostgresStrict) {
  // Availability is the registry's call; the NULL-handling family
  // (COALESCE / NULLIF / IFNULL) is listed twice so the bug classes living
  // in those code paths are reached at a useful rate.
  for (const FunctionSig* sig : FunctionsForDialect(dialect_)) {
    function_pool_.push_back(sig);
    if (sig->null_rule == NullRule::kCustom) function_pool_.push_back(sig);
  }
}

std::string Generator::RandomText(Rng* rng) const {
  // Includes strings carrying literal SQL wildcards ('a%b', '_x', ...) so
  // LIKE ... ESCAPE patterns have something to distinguish: an escaped
  // wildcard matches these, an unescaped one matches almost anything.
  return rng->Pick<std::string>({"", "a", "A", "B", "ab", "aB", "Ab", "ba",
                                 "12", "12ab", "-3", "xyz", "x", "aa", "a%b",
                                 "a_", "100%", "_x", "%"});
}

SqlValue Generator::RandomLiteralNear(Affinity affinity, Rng* rng) const {
  switch (affinity) {
    case Affinity::kInteger:
      return SqlValue::Int(rng->IntIn(-10, 10));
    case Affinity::kReal:
      return SqlValue::Real(rng->Pick<double>(
          {-3.25, -0.5, 0.0, 0.5, 1.5, 2.0, 7.25}));
    case Affinity::kText:
      return SqlValue::Text(RandomText(rng));
  }
  return SqlValue::Null();
}

SqlValue Generator::RandomValueFor(Affinity affinity, Rng* rng) const {
  switch (affinity) {
    case Affinity::kInteger:
      // Flexible dialects occasionally insert numeric-looking text to
      // exercise affinity coercion; strict typing forbids it.
      if (!strict_ && rng->Chance(0.1)) {
        return SqlValue::Text(std::to_string(rng->IntIn(-9, 9)));
      }
      return SqlValue::Int(rng->IntIn(-9, 9));
    case Affinity::kReal:
      if (rng->Chance(0.3)) return SqlValue::Real(rng->IntIn(-9, 9));
      return SqlValue::Real(rng->Pick<double>(
          {-3.25, -0.5, 0.0, 0.5, 1.5, 2.0, 7.25}));
    case Affinity::kText:
      return SqlValue::Text(RandomText(rng));
  }
  return SqlValue::Null();
}

std::string DatabasePlan::IndexName(int later) const {
  int n = later;
  for (const StmtPtr& s : statements) {
    if (s->kind() == StmtKind::kCreateIndex) ++n;
  }
  return "i" + std::to_string(n);
}

DatabasePlan Generator::GenerateDatabase(Rng* rng) const {
  DatabasePlan plan;
  int table_count = static_cast<int>(rng->IntIn(1, kMaxTables));
  int column_counter = 0;
  for (int t = 0; t < table_count; ++t) {
    TableSchema table;
    table.name = "t" + std::to_string(t);
    int column_count = static_cast<int>(rng->IntIn(1, kMaxColumns));
    bool has_pk = false;
    for (int c = 0; c < column_count; ++c) {
      ColumnDef col;
      // Column names are globally unique across tables so joined rows never
      // need disambiguation.
      col.name = "c" + std::to_string(column_counter++);
      double roll = rng->Unit();
      col.affinity = roll < 0.45 ? Affinity::kInteger
                                 : (roll < 0.65 ? Affinity::kReal
                                                : Affinity::kText);
      col.declared_type = DeclaredTypeFor(col.affinity);
      if (!has_pk && rng->Chance(0.15)) {
        col.primary_key = true;
        has_pk = true;
      } else if (rng->Chance(0.2)) {
        col.unique = true;
      }
      if (rng->Chance(0.12)) col.not_null = true;
      table.columns.push_back(std::move(col));
    }
    auto create = std::make_unique<CreateTableStmt>();
    create->table_name = table.name;
    create->columns = table.columns;
    plan.statements.push_back(std::move(create));
    plan.tables.push_back(std::move(table));
  }

  // Indexes, before data so unique indexes constrain the inserts.
  for (const TableSchema& table : plan.tables) {
    for (int i = 0; i < 2 && rng->Chance(kIndexProbability); ++i) {
      plan.statements.push_back(GenerateIndex(table, plan.IndexName(), rng));
    }
  }

  // Data: min_rows..max_rows rows per table, split into 1-3-row INSERTs so
  // delta debugging has statement-level granularity.
  for (const TableSchema& table : plan.tables) {
    int rows = static_cast<int>(
        rng->IntIn(options_.min_rows, options_.max_rows));
    while (rows > 0) {
      int in_stmt = static_cast<int>(rng->IntIn(1, rows < 3 ? rows : 3));
      auto insert = std::make_unique<InsertStmt>();
      insert->table_name = table.name;
      for (int r = 0; r < in_stmt; ++r) {
        insert->rows.push_back(GenerateRowValues(table, rng));
      }
      rows -= in_stmt;
      plan.statements.push_back(std::move(insert));
    }
  }
  return plan;
}

std::unique_ptr<CreateIndexStmt> Generator::GenerateIndex(
    const TableSchema& table, std::string index_name, Rng* rng) const {
  auto index = std::make_unique<CreateIndexStmt>();
  index->index_name = std::move(index_name);
  index->table_name = table.name;
  size_t first = rng->Below(table.columns.size());
  index->columns.push_back(table.columns[first].name);
  if (table.columns.size() > 1 && rng->Chance(0.3)) {
    size_t second = rng->Below(table.columns.size());
    if (second != first) {
      index->columns.push_back(table.columns[second].name);
    }
  }
  index->unique = rng->Chance(0.25);
  if (rng->Chance(kPartialIndexProbability)) {
    const ColumnDef& col = table.columns[rng->Below(table.columns.size())];
    double form = rng->Unit();
    if (form < 0.5) {
      index->where = MakeIsNull(MakeColumnRef(table.name, col.name),
                                /*negated=*/true);
    } else if (form < 0.75) {
      index->where = MakeIsNull(MakeColumnRef(table.name, col.name),
                                /*negated=*/false);
    } else {
      index->where = MakeBinary(
          BinaryOp::kGt, MakeColumnRef(table.name, col.name),
          MakeLiteral(RandomLiteralNear(col.affinity, rng)));
    }
  }
  return index;
}

std::vector<ExprPtr> Generator::GenerateRowValues(const TableSchema& table,
                                                  Rng* rng) const {
  std::vector<ExprPtr> row;
  row.reserve(table.columns.size());
  for (const ColumnDef& col : table.columns) {
    double null_p = col.not_null ? 0.02 : kNullProbability;
    if (rng->Chance(null_p)) {
      row.push_back(MakeNullLiteral());
      continue;
    }
    SqlValue v = RandomValueFor(col.affinity, rng);
    if ((col.unique || col.primary_key) &&
        col.affinity == Affinity::kInteger &&
        v.cls == StorageClass::kInteger) {
      // Wider range keeps most unique inserts from colliding.
      v = SqlValue::Int(rng->IntIn(-99, 99));
    }
    row.push_back(MakeLiteral(std::move(v)));
  }
  return row;
}

std::unique_ptr<InsertStmt> Generator::GenerateInsertRows(
    const TableSchema& table, Rng* rng) const {
  auto insert = std::make_unique<InsertStmt>();
  insert->table_name = table.name;
  int rows = rng->Chance(0.3) ? 2 : 1;
  for (int r = 0; r < rows; ++r) {
    insert->rows.push_back(GenerateRowValues(table, rng));
  }
  return insert;
}

std::unique_ptr<UpdateStmt> Generator::GenerateUpdate(
    const TableSchema& table,
    const std::vector<std::string>& literal_only_columns,
    const std::vector<std::string>& hot_columns, Rng* rng) const {
  auto update = std::make_unique<UpdateStmt>();
  update->table_name = table.name;

  size_t first = rng->Below(table.columns.size());
  if (!hot_columns.empty() && rng->Chance(0.5)) {
    const std::string& hot = hot_columns[rng->Below(hot_columns.size())];
    for (size_t c = 0; c < table.columns.size(); ++c) {
      if (table.columns[c].name == hot) {
        first = c;
        break;
      }
    }
  }
  std::vector<size_t> targets{first};
  if (table.columns.size() > 1 && rng->Chance(0.35)) {
    size_t second = rng->Below(table.columns.size());
    if (second != first) targets.push_back(second);
  }

  auto literal_only = [&](const ColumnDef& col) {
    if (col.unique || col.primary_key) return true;
    for (const std::string& name : literal_only_columns) {
      if (name == col.name) return true;
    }
    return false;
  };
  // Same-type-class source columns for column-ref / arithmetic values.
  // Value expressions are evaluated against the row's pre-update values
  // and coerced with the same insert-position affinity rules, so the
  // restrictions below (no REAL sources for INTEGER targets, text targets
  // take text sources only) keep the model's stored values byte-identical
  // to real SQLite's.
  auto same_class_source = [&](const ColumnDef& target) -> const ColumnDef* {
    std::vector<const ColumnDef*> pool;
    for (const ColumnDef& col : table.columns) {
      if (target.affinity == Affinity::kInteger &&
          col.affinity != Affinity::kInteger) {
        continue;  // a REAL source would defeat integer-affinity rounding
      }
      if (target.affinity == Affinity::kReal &&
          col.affinity == Affinity::kText) {
        continue;
      }
      if (target.affinity == Affinity::kText &&
          col.affinity != Affinity::kText) {
        continue;
      }
      pool.push_back(&col);
    }
    if (pool.empty()) return nullptr;
    return pool[rng->Below(pool.size())];
  };

  for (size_t t : targets) {
    const ColumnDef& col = table.columns[t];
    UpdateStmt::Assignment assign;
    assign.column = col.name;
    bool nullable =
        !col.not_null &&
        !(col.primary_key && dialect_ != Dialect::kSqliteFlex);
    if (nullable && rng->Chance(0.12)) {
      // NULL assignments flip IS [NOT] NULL partial-index membership —
      // the data movement the partial-index bug classes need.
      assign.value = MakeNullLiteral();
    } else if (literal_only(col)) {
      SqlValue v = RandomValueFor(col.affinity, rng);
      if (col.affinity == Affinity::kInteger &&
          v.cls == StorageClass::kInteger) {
        v = SqlValue::Int(rng->IntIn(-99, 99));
      }
      assign.value = MakeLiteral(std::move(v));
    } else {
      double roll = rng->Unit();
      const ColumnDef* source =
          roll >= 0.45 ? same_class_source(col) : nullptr;
      if (source == nullptr || roll < 0.45) {
        assign.value = MakeLiteral(RandomValueFor(col.affinity, rng));
      } else if (roll < 0.7 || col.affinity == Affinity::kText) {
        if (col.affinity == Affinity::kText &&
            dialect_ == Dialect::kSqliteFlex && rng->Chance(0.25)) {
          assign.value =
              MakeBinary(BinaryOp::kConcat,
                         MakeColumnRef(table.name, source->name),
                         MakeTextLiteral(RandomText(rng)));
        } else {
          assign.value = MakeColumnRef(table.name, source->name);
        }
      } else {
        // col ± small literal over a numeric source.
        assign.value = MakeBinary(
            rng->Chance(0.5) ? BinaryOp::kAdd : BinaryOp::kSub,
            MakeColumnRef(table.name, source->name),
            MakeIntLiteral(rng->IntIn(1, 3)));
      }
    }
    update->assignments.push_back(std::move(assign));
  }

  if (rng->Chance(0.9)) {
    std::vector<const TableSchema*> tables{&table};
    update->where = GeneratePredicate(tables, rng);
  }
  return update;
}

std::unique_ptr<DeleteStmt> Generator::GenerateDelete(
    const TableSchema& table, Rng* rng) const {
  auto del = std::make_unique<DeleteStmt>();
  del->table_name = table.name;
  std::vector<const TableSchema*> tables{&table};
  del->where = GeneratePredicate(tables, rng);
  return del;
}

QueryShape Generator::GenerateQueryShape(const DatabasePlan& plan,
                                         Rng* rng) const {
  QueryShape shape;
  size_t first = rng->Below(plan.tables.size());
  shape.tables.push_back(&plan.tables[first]);

  if (plan.tables.size() > 1 &&
      rng->Chance(kMultiTableQueryProbability)) {
    // Remaining tables, in declaration order, for growing the FROM list.
    std::vector<const TableSchema*> remaining;
    for (size_t t = 0; t < plan.tables.size(); ++t) {
      if (t != first) remaining.push_back(&plan.tables[t]);
    }
    const TableSchema* second = remaining[rng->Below(remaining.size())];
    shape.tables.push_back(second);
    if (rng->Chance(kExplicitJoinProbability)) {
      shape.join_kinds.push_back(RandomJoinKind(rng));
      if (remaining.size() > 1 && rng->Chance(kThirdTableProbability)) {
        std::vector<const TableSchema*> rest;
        for (const TableSchema* t : remaining) {
          if (t != second) rest.push_back(t);
        }
        shape.tables.push_back(rest[rng->Below(rest.size())]);
        shape.join_kinds.push_back(RandomJoinKind(rng));
      }
    }
  }

  shape.distinct = rng->Chance(kDistinctProbability);
  if (rng->Chance(kOrderByProbability)) {
    int keys = static_cast<int>(rng->IntIn(1, kMaxOrderKeys));
    for (int k = 0; k < keys; ++k) {
      const TableSchema* table = nullptr;
      const ColumnDef* col = PickColumn(shape.tables, &table, rng);
      OrderByItem item;
      item.expr = MakeColumnRef(table->name, col->name);
      item.descending = rng->Chance(0.5);
      shape.order_by.push_back(std::move(item));
    }
  }
  // LIMIT without an ORDER BY is only sound when it spans the whole result
  // (any row order is legal), so it is generated more rarely.
  shape.want_limit = rng->Chance(
      shape.order_by.empty() ? kLimitProbability * 0.3 : kLimitProbability);
  return shape;
}

ExprPtr Generator::GenerateJoinCondition(
    const std::vector<const TableSchema*>& earlier, const TableSchema* joined,
    Rng* rng) const {
  const ColumnDef* col = &joined->columns[rng->Below(joined->columns.size())];
  ExprPtr lhs = MakeColumnRef(joined->name, col->name);
  // Half equi-joins, half range joins (range joins multiply matches, which
  // stresses the duplicate-right-row paths).
  BinaryOp op = rng->Chance(0.5) ? BinaryOp::kEq : RandomComparison(rng);
  if (!earlier.empty() && rng->Chance(0.65)) {
    const TableSchema* other = earlier[rng->Below(earlier.size())];
    const ColumnDef* ocol = &other->columns[rng->Below(other->columns.size())];
    // Same type-class restriction as column-vs-column leaves in
    // GenLeaf: keeps the model aligned with real SQLite affinity rules.
    if (IsNumericAffinity(col->affinity) == IsNumericAffinity(ocol->affinity)) {
      return MakeBinary(op, std::move(lhs),
                        MakeColumnRef(other->name, ocol->name));
    }
  }
  return MakeBinary(op, std::move(lhs),
                    MakeLiteral(RandomLiteralNear(col->affinity, rng)));
}

const ColumnDef* Generator::PickColumn(
    const std::vector<const TableSchema*>& tables, const TableSchema** table,
    Rng* rng) const {
  const TableSchema* t = tables[rng->Below(tables.size())];
  const ColumnDef* col = &t->columns[rng->Below(t->columns.size())];
  if (table != nullptr) *table = t;
  return col;
}

ExprPtr Generator::MaybeCollate(ExprPtr text_operand, Rng* rng,
                                bool* collated) const {
  if (collated != nullptr) *collated = false;
  if (dialect_ != Dialect::kSqliteFlex ||
      !rng->Chance(options_.collate_probability)) {
    return text_operand;
  }
  if (collated != nullptr) *collated = true;
  // NOCASE dominates: BINARY is the default anyway, so an explicit BINARY
  // only exercises the operator plumbing, not new orderings.
  Collation collation =
      rng->Chance(0.75) ? Collation::kNocase : Collation::kBinary;
  return MakeCollate(std::move(text_operand), collation);
}

ExprPtr Generator::GenFunctionExpr(
    const std::vector<const TableSchema*>& tables, Rng* rng,
    Affinity* result_affinity) const {
  // Columns of each type class, for building statically typed arguments.
  std::vector<std::pair<const TableSchema*, const ColumnDef*>> numeric;
  std::vector<std::pair<const TableSchema*, const ColumnDef*>> text;
  for (const TableSchema* table : tables) {
    for (const ColumnDef& col : table->columns) {
      (IsNumericAffinity(col.affinity) ? numeric : text)
          .emplace_back(table, &col);
    }
  }

  const FunctionSig& sig =
      *function_pool_[rng->Below(function_pool_.size())];

  auto column_arg =
      [&](const std::vector<std::pair<const TableSchema*, const ColumnDef*>>&
              candidates) -> std::pair<ExprPtr, Affinity> {
    const auto& [table, col] = candidates[rng->Below(candidates.size())];
    return {MakeColumnRef(table->name, col->name), col->affinity};
  };

  switch (sig.arg_class) {
    case ArgClass::kNumeric: {
      ExprPtr arg;
      Affinity affinity = Affinity::kInteger;
      if (!numeric.empty()) {
        auto [expr, a] = column_arg(numeric);
        arg = std::move(expr);
        affinity = a;
      } else {
        arg = MakeIntLiteral(rng->IntIn(-9, 9));
      }
      *result_affinity = affinity;
      std::vector<ExprPtr> args;
      args.push_back(std::move(arg));
      return MakeFunctionCall(sig.id, std::move(args));
    }
    case ArgClass::kText: {
      ExprPtr arg = !text.empty()
                        ? column_arg(text).first
                        : MakeTextLiteral(RandomText(rng));
      *result_affinity =
          sig.id == FuncId::kLength ? Affinity::kInteger : Affinity::kText;
      std::vector<ExprPtr> args;
      args.push_back(std::move(arg));
      return MakeFunctionCall(sig.id, std::move(args));
    }
    case ArgClass::kUniform: {
      // Anchor on one column; every further argument stays in its type
      // class (a same-class column or a literal near it), which is what
      // keeps kPostgresStrict calls statically well-typed.
      const TableSchema* anchor_table = nullptr;
      const ColumnDef* anchor = PickColumn(tables, &anchor_table, rng);
      const auto& same_class =
          IsNumericAffinity(anchor->affinity) ? numeric : text;
      int argc = static_cast<int>(rng->IntIn(sig.min_args, sig.max_args));
      std::vector<ExprPtr> args;
      // First argument: the anchor column — or, for the NULL-handling
      // family, occasionally NULLIF(anchor, lit) nested inside, so the
      // custom NULL paths see NULL first arguments from non-NULL data too.
      if (sig.null_rule == NullRule::kCustom && rng->Chance(0.3)) {
        std::vector<ExprPtr> inner;
        inner.push_back(MakeColumnRef(anchor_table->name, anchor->name));
        inner.push_back(
            MakeLiteral(RandomLiteralNear(anchor->affinity, rng)));
        args.push_back(MakeFunctionCall(FuncId::kNullif, std::move(inner)));
      } else {
        args.push_back(MakeColumnRef(anchor_table->name, anchor->name));
      }
      for (int i = 1; i < argc; ++i) {
        if (!same_class.empty() && rng->Chance(0.35)) {
          args.push_back(column_arg(same_class).first);
        } else {
          args.push_back(
              MakeLiteral(RandomLiteralNear(anchor->affinity, rng)));
        }
      }
      *result_affinity = anchor->affinity;
      return MakeFunctionCall(sig.id, std::move(args));
    }
  }
  *result_affinity = Affinity::kInteger;
  return MakeIntLiteral(0);
}

ExprPtr Generator::GenCastExpr(const std::vector<const TableSchema*>& tables,
                               Rng* rng, Affinity* result_affinity,
                               bool* operand_numeric) const {
  const TableSchema* table = nullptr;
  const ColumnDef* col = PickColumn(tables, &table, rng);
  *operand_numeric = IsNumericAffinity(col->affinity);
  // Bias toward REAL → INTEGER: the truncation-toward-zero rule is where
  // CAST semantics actually diverge between engines (and where the
  // cast-trunc-affinity bug class lives).
  if (rng->Chance(0.6)) {
    for (const TableSchema* t : tables) {
      for (const ColumnDef& c : t->columns) {
        if (c.affinity == Affinity::kReal) {
          *result_affinity = Affinity::kInteger;
          *operand_numeric = true;
          return MakeCast(MakeColumnRef(t->name, c.name),
                          Affinity::kInteger);
        }
      }
    }
  }
  Affinity target;
  if (strict_ && !IsNumericAffinity(col->affinity)) {
    // PostgreSQL rejects text→numeric casts of arbitrary text at runtime
    // (invalid input syntax), so the strict dialect only casts text to
    // TEXT — the numeric targets come from numeric sources.
    target = Affinity::kText;
  } else {
    target = rng->Pick<Affinity>(
        {Affinity::kInteger, Affinity::kReal, Affinity::kText});
  }
  *result_affinity = target;
  return MakeCast(MakeColumnRef(table->name, col->name), target);
}

ExprPtr Generator::GenCasePredicate(
    const std::vector<const TableSchema*>& tables, Rng* rng) const {
  std::vector<std::pair<ExprPtr, ExprPtr>> arms;
  int arm_count = static_cast<int>(rng->IntIn(1, 2));
  for (int i = 0; i < arm_count; ++i) {
    arms.emplace_back(GenLeaf(tables, rng), GenLeaf(tables, rng));
  }
  ExprPtr else_value =
      rng->Chance(0.75) ? GenLeaf(tables, rng) : nullptr;
  return MakeCase(std::move(arms), std::move(else_value));
}

ExprPtr Generator::GenLeaf(const std::vector<const TableSchema*>& tables,
                           Rng* rng) const {
  const TableSchema* table = nullptr;
  const ColumnDef* col = PickColumn(tables, &table, rng);
  ExprPtr col_ref = MakeColumnRef(table->name, col->name);
  double roll = rng->Unit();

  if (roll < 0.30) {
    // Comparison leaf. The left operand is a registry function call, a
    // CAST, or the plain column (with an occasional explicit COLLATE on
    // text); the literal follows the operand's result affinity.
    if (rng->Chance(options_.function_probability)) {
      Affinity result = Affinity::kInteger;
      ExprPtr call = GenFunctionExpr(tables, rng, &result);
      return MakeBinary(RandomComparison(rng), std::move(call),
                        MakeLiteral(RandomLiteralNear(result, rng)));
    }
    if (rng->Chance(options_.cast_probability)) {
      Affinity result = Affinity::kInteger;
      bool operand_numeric = false;
      ExprPtr cast = GenCastExpr(tables, rng, &result, &operand_numeric);
      // Half the integer casts of a numeric column compare against their
      // own operand (CAST(x AS INTEGER) <= x — the metamorphic shape whose
      // outcome hinges entirely on the conversion rule); the rest compare
      // against a literal kept inside the cast image. Text operands never
      // self-compare: see GenCastExpr on CAST affinity.
      if (result == Affinity::kInteger && operand_numeric &&
          cast->args[0]->kind == ExprKind::kColumnRef &&
          rng->Chance(0.5)) {
        ExprPtr operand = cast->args[0]->Clone();
        return MakeBinary(RandomComparison(rng), std::move(cast),
                          std::move(operand));
      }
      ExprPtr lit = result == Affinity::kInteger
                        ? MakeIntLiteral(rng->IntIn(-3, 3))
                        : MakeLiteral(RandomLiteralNear(result, rng));
      return MakeBinary(RandomComparison(rng), std::move(cast),
                        std::move(lit));
    }
    // Column vs literal comparison.
    SqlValue lit = RandomLiteralNear(col->affinity, rng);
    if (!strict_) {
      if (dialect_ == Dialect::kMysqlLike && rng->Chance(0.3)) {
        // MySQL-like numeric coercion of text.
        lit = IsNumericAffinity(col->affinity)
                  ? SqlValue::Text(rng->Pick<std::string>(
                        {"12ab", "-3", "2", "0x", "abc"}))
                  : SqlValue::Int(rng->IntIn(-5, 5));
      } else if (dialect_ == Dialect::kSqliteFlex && rng->Chance(0.12) &&
                 IsNumericAffinity(col->affinity)) {
        // Cross-storage-class comparison; non-numeric text only, so the
        // model agrees with real SQLite's affinity rules.
        lit = SqlValue::Text(rng->Pick<std::string>({"abc", "x", "zz"}));
      }
    }
    if (col->affinity == Affinity::kText && lit.cls == StorageClass::kText) {
      bool collated = false;
      col_ref = MaybeCollate(std::move(col_ref), rng, &collated);
      // Collation only matters for case-variant text, so collated
      // comparisons draw their literal from the case-rich subset.
      if (collated) {
        lit = SqlValue::Text(rng->Pick<std::string>(
            {"A", "B", "a", "ab", "aB", "Ab", "ba", "aa"}));
      }
    }
    return MakeBinary(RandomComparison(rng), std::move(col_ref),
                      MakeLiteral(std::move(lit)));
  }
  if (roll < 0.40) {
    // Column vs column comparison, restricted to the same type class in
    // every dialect: SQLite applies numeric affinity across such a
    // comparison ('12' TEXT vs INT compares numerically), which the
    // storage-class model deliberately does not reproduce.
    const TableSchema* other_table = nullptr;
    const ColumnDef* other = PickColumn(tables, &other_table, rng);
    bool compatible = IsNumericAffinity(col->affinity) ==
                      IsNumericAffinity(other->affinity);
    if (compatible) {
      if (col->affinity == Affinity::kText &&
          other->affinity == Affinity::kText) {
        col_ref = MaybeCollate(std::move(col_ref), rng);
      }
      return MakeBinary(RandomComparison(rng), std::move(col_ref),
                        MakeColumnRef(other_table->name, other->name));
    }
    return MakeBinary(RandomComparison(rng), std::move(col_ref),
                      MakeLiteral(RandomLiteralNear(col->affinity, rng)));
  }
  if (roll < 0.55) {
    // Arithmetic comparison: (col op operand) cmp literal.
    if (!IsNumericAffinity(col->affinity)) {
      if (strict_) {
        return MakeBinary(RandomComparison(rng), std::move(col_ref),
                          MakeLiteral(RandomLiteralNear(col->affinity, rng)));
      }
      // Flexible dialects define arithmetic on text (numeric prefix).
    }
    BinaryOp op = rng->Pick<BinaryOp>(
        {BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul, BinaryOp::kDiv});
    ExprPtr rhs;
    if (op == BinaryOp::kDiv) {
      if (strict_) {
        rhs = MakeIntLiteral(rng->IntIn(1, 4));  // never a zero divisor
      } else if (rng->Chance(0.5)) {
        const TableSchema* div_table = nullptr;
        const ColumnDef* divisor = PickColumn(tables, &div_table, rng);
        rhs = MakeColumnRef(div_table->name, divisor->name);
      } else {
        rhs = MakeIntLiteral(rng->IntIn(0, 4));  // zero divisor → NULL
      }
    } else if (rng->Chance(0.5)) {
      const TableSchema* rhs_table = nullptr;
      const ColumnDef* rhs_col = PickColumn(tables, &rhs_table, rng);
      if (strict_ && !IsNumericAffinity(rhs_col->affinity)) {
        rhs = MakeIntLiteral(rng->IntIn(-9, 9));
      } else {
        rhs = MakeColumnRef(rhs_table->name, rhs_col->name);
      }
    } else {
      rhs = MakeIntLiteral(rng->IntIn(-9, 9));
    }
    ExprPtr arith = MakeBinary(op, std::move(col_ref), std::move(rhs));
    return MakeBinary(RandomComparison(rng), std::move(arith),
                      MakeIntLiteral(rng->IntIn(-9, 9)));
  }
  if (roll < 0.68) {
    // IS [NOT] NULL over a column or (for NULL-propagation coverage) an
    // arithmetic expression.
    ExprPtr operand;
    if (rng->Chance(0.3) &&
        (IsNumericAffinity(col->affinity) || !strict_)) {
      const TableSchema* rhs_table = nullptr;
      const ColumnDef* rhs_col = PickColumn(tables, &rhs_table, rng);
      ExprPtr rhs = (strict_ && !IsNumericAffinity(rhs_col->affinity))
                        ? MakeIntLiteral(rng->IntIn(-9, 9))
                        : MakeColumnRef(rhs_table->name, rhs_col->name);
      operand = MakeBinary(
          rng->Pick<BinaryOp>({BinaryOp::kAdd, BinaryOp::kSub,
                               BinaryOp::kMul}),
          std::move(col_ref), std::move(rhs));
    } else {
      operand = std::move(col_ref);
    }
    return MakeIsNull(std::move(operand), rng->Chance(0.5));
  }
  if (roll < 0.78) {
    // IN list (small literal pools make duplicates reasonably likely). A
    // NULL element turns a miss into UNKNOWN — the three-valued corner
    // the in-list-null-semantics bug class lives in.
    std::vector<ExprPtr> list;
    int n = static_cast<int>(rng->IntIn(2, 4));
    for (int i = 0; i < n; ++i) {
      list.push_back(MakeLiteral(RandomLiteralNear(col->affinity, rng)));
    }
    if (rng->Chance(options_.in_list_null_probability)) {
      list[rng->Below(list.size())] = MakeNullLiteral();
    }
    return MakeInList(std::move(col_ref), std::move(list),
                      rng->Chance(0.25));
  }
  if (roll < 0.88) {
    // BETWEEN with bounds in random order (an inverted range is valid SQL;
    // it just selects nothing). A text BETWEEN may collate explicitly —
    // BETWEEN desugars to two range comparisons, the exact spot the
    // collate-nocase-range bug class corrupts.
    ExprPtr lo = MakeLiteral(RandomLiteralNear(col->affinity, rng));
    ExprPtr hi = MakeLiteral(RandomLiteralNear(col->affinity, rng));
    if (col->affinity == Affinity::kText) {
      col_ref = MaybeCollate(std::move(col_ref), rng);
    }
    return MakeBetween(std::move(col_ref), std::move(lo), std::move(hi),
                       rng->Chance(0.25));
  }
  // LIKE over a text column; fall back to a plain comparison when the
  // chosen column is not text (or, in flexible dialects, allow the
  // engine-defined text conversion occasionally).
  if (col->affinity == Affinity::kText || (!strict_ && rng->Chance(0.3))) {
    if (rng->Chance(options_.like_escape_probability)) {
      // Escaped-wildcard patterns ('!' is the ESCAPE character): they only
      // match values carrying a literal % or _, which the text pool
      // deliberately contains.
      std::string pattern = rng->Pick<std::string>(
          {"%!%%", "a!%%", "!_%", "%a!%%", "%!__"});
      return MakeLikeEscape(std::move(col_ref), MakeTextLiteral(pattern),
                            MakeTextLiteral("!"), rng->Chance(0.3));
    }
    std::string pattern = rng->Pick<std::string>(
        {"%a%", "a%", "%b", "_", "%12%", "%ab%", "ab%", "%xy%", "%"});
    if (dialect_ == Dialect::kSqliteFlex && rng->Chance(0.1)) {
      // Concat feeding LIKE: exercises || (and the sqlite concat bug).
      const TableSchema* rhs_table = nullptr;
      const ColumnDef* rhs_col = PickColumn(tables, &rhs_table, rng);
      col_ref = MakeBinary(BinaryOp::kConcat, std::move(col_ref),
                           MakeColumnRef(rhs_table->name, rhs_col->name));
    }
    return MakeLike(std::move(col_ref), MakeTextLiteral(pattern),
                    rng->Chance(0.3));
  }
  return MakeBinary(RandomComparison(rng), std::move(col_ref),
                    MakeLiteral(RandomLiteralNear(col->affinity, rng)));
}

ExprPtr Generator::GenPredicate(const std::vector<const TableSchema*>& tables,
                                int depth, Rng* rng) const {
  if (depth <= 0 || rng->Chance(0.4)) return GenLeaf(tables, rng);
  // Searched CASE in predicate position: WHEN/THEN/ELSE arms are leaf
  // predicates, so the whole node stays boolean-shaped for rectification.
  if (rng->Chance(options_.case_probability)) {
    return GenCasePredicate(tables, rng);
  }
  double roll = rng->Unit();
  if (roll < 0.42) {
    return MakeBinary(BinaryOp::kAnd, GenPredicate(tables, depth - 1, rng),
                      GenPredicate(tables, depth - 1, rng));
  }
  if (roll < 0.84) {
    return MakeBinary(BinaryOp::kOr, GenPredicate(tables, depth - 1, rng),
                      GenPredicate(tables, depth - 1, rng));
  }
  return MakeUnary(UnaryOp::kNot, GenPredicate(tables, depth - 1, rng));
}

ExprPtr Generator::GeneratePredicate(
    const std::vector<const TableSchema*>& tables, Rng* rng) const {
  return GenPredicate(tables, options_.max_predicate_depth, rng);
}

std::unique_ptr<SelectStmt> Generator::GenerateAggregateQuery(
    const TableSchema& table, Rng* rng) const {
  auto q = std::make_unique<SelectStmt>();
  q->from_tables.push_back(table.name);

  std::vector<const ColumnDef*> numeric;
  for (const ColumnDef& c : table.columns) {
    if (c.affinity != Affinity::kText) numeric.push_back(&c);
  }

  // Dedicated COUNT(DISTINCT c) shape: exactly one item, no grouping.
  if (rng->Chance(kCountDistinctProbability)) {
    const ColumnDef& col = table.columns[rng->Below(table.columns.size())];
    q->select_list.push_back(MakeAggregate(
        AggFunc::kCount, MakeColumnRef(table.name, col.name),
        /*distinct=*/true));
    return q;
  }

  // Random aggregate call. `numeric_only` restricts the result to calls
  // whose value is numeric in every dialect (what HAVING comparisons need
  // under strict typing); SUM/AVG are numeric-argument-only regardless.
  auto gen_agg = [&](bool numeric_only) -> ExprPtr {
    for (;;) {
      switch (rng->Below(6)) {
        case 0:
          return MakeCountStar();
        case 1: {
          const ColumnDef& col =
              table.columns[rng->Below(table.columns.size())];
          return MakeAggregate(AggFunc::kCount,
                               MakeColumnRef(table.name, col.name), false);
        }
        case 2:
        case 3: {
          if (numeric.empty()) break;  // redraw
          const ColumnDef& col = *numeric[rng->Below(numeric.size())];
          AggFunc func = rng->Chance(0.5) ? AggFunc::kSum : AggFunc::kAvg;
          return MakeAggregate(func, MakeColumnRef(table.name, col.name),
                               false);
        }
        default: {
          const ColumnDef* col = nullptr;
          if (numeric_only) {
            if (numeric.empty()) break;  // redraw (COUNT always lands)
            col = numeric[rng->Below(numeric.size())];
          } else {
            col = &table.columns[rng->Below(table.columns.size())];
          }
          AggFunc func = rng->Chance(0.5) ? AggFunc::kMin : AggFunc::kMax;
          return MakeAggregate(func, MakeColumnRef(table.name, col->name),
                               false);
        }
      }
    }
  };

  const bool grouped = rng->Chance(kGroupByProbability);
  if (grouped) {
    const ColumnDef& key = table.columns[rng->Below(table.columns.size())];
    q->group_by.push_back(MakeColumnRef(table.name, key.name));
    q->select_list.push_back(MakeColumnRef(table.name, key.name));
  }

  const int aggs = 1 + static_cast<int>(rng->Below(2));
  for (int i = 0; i < aggs; ++i) {
    q->select_list.push_back(gen_agg(/*numeric_only=*/false));
  }

  if (grouped && rng->Chance(kHavingProbability)) {
    // HAVING: a numeric aggregate against a small integer bound, so the
    // comparison is statically typed in every dialect. AVG yields REAL;
    // numeric-vs-numeric comparisons are legal even under strict typing.
    BinaryOp op = rng->Chance(0.5) ? BinaryOp::kGe : BinaryOp::kLt;
    q->having = MakeBinary(op, gen_agg(/*numeric_only=*/true),
                           MakeIntLiteral(static_cast<int64_t>(rng->Below(4))));
  }
  return q;
}

}  // namespace pqs
