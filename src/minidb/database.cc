#include "src/minidb/database.h"

#include <algorithm>

namespace pqs {
namespace minidb {

namespace {

// Splits a WHERE tree into its top-level AND conjuncts (a non-AND node is
// its own single conjunct). The scan planner matches index probes and
// partial-index predicates against these.
void FlattenConjuncts(const Expr& expr, std::vector<const Expr*>* out) {
  if (expr.kind == ExprKind::kBinary && expr.bop == BinaryOp::kAnd &&
      expr.args.size() == 2 && expr.args[0] && expr.args[1]) {
    FlattenConjuncts(*expr.args[0], out);
    FlattenConjuncts(*expr.args[1], out);
    return;
  }
  out->push_back(&expr);
}

// Lexicographic total order of index key tuples (ValueCompare per cell:
// NULL < numeric < TEXT), with the row position as the tie-break — the
// "B-tree page order" the ordered entry lists maintain.
bool KeyEntryLess(const std::pair<std::vector<SqlValue>, size_t>& a,
                  const std::pair<std::vector<SqlValue>, size_t>& b) {
  size_t n = a.first.size() < b.first.size() ? a.first.size() : b.first.size();
  for (size_t i = 0; i < n; ++i) {
    int c = ValueCompare(a.first[i], b.first[i]);
    if (c != 0) return c < 0;
  }
  if (a.first.size() != b.first.size()) {
    return a.first.size() < b.first.size();
  }
  return a.second < b.second;
}

// True if `conjunct` is a `col <cmp> literal` (either side) comparison over
// one of the index's key columns — the probe shape the planner can answer
// from the ordered entries alone.
bool IsIndexProbe(const std::vector<std::string>& index_columns,
                  const std::string& table_name, const Expr& conjunct) {
  if (conjunct.kind != ExprKind::kBinary || !IsComparisonOp(conjunct.bop) ||
      conjunct.args.size() != 2 || !conjunct.args[0] || !conjunct.args[1]) {
    return false;
  }
  for (int side = 0; side < 2; ++side) {
    const Expr& col = *conjunct.args[side];
    const Expr& lit = *conjunct.args[1 - side];
    if (col.kind != ExprKind::kColumnRef || lit.kind != ExprKind::kLiteral) {
      continue;
    }
    if (!col.table.empty() && col.table != table_name) continue;
    for (const std::string& key_col : index_columns) {
      if (key_col == col.column) return true;
    }
  }
  return false;
}

// Finds the first column=column comparison node in the expression, if any
// (used by the join-predicate-pushdown bug to pick its victim term).
const Expr* FirstColumnColumnCompare(const Expr& expr) {
  if (expr.kind == ExprKind::kBinary && IsComparisonOp(expr.bop) &&
      expr.args.size() == 2 && expr.args[0] && expr.args[1] &&
      expr.args[0]->kind == ExprKind::kColumnRef &&
      expr.args[1]->kind == ExprKind::kColumnRef) {
    return &expr;
  }
  for (const ExprPtr& a : expr.args) {
    if (a == nullptr) continue;
    if (const Expr* found = FirstColumnColumnCompare(*a)) return found;
  }
  return nullptr;
}

// True if some comparison mixes a text literal with a numeric-affinity
// column or a numeric literal with a text-affinity column (the
// cross-type-comparison coverage feature).
bool HasCrossTypeCompare(
    const Expr& expr,
    const std::vector<std::pair<std::string, Affinity>>& column_affinity) {
  if (expr.kind == ExprKind::kBinary && IsComparisonOp(expr.bop) &&
      expr.args.size() == 2 && expr.args[0] && expr.args[1]) {
    for (int side = 0; side < 2; ++side) {
      const Expr& lit = *expr.args[side];
      const Expr& col = *expr.args[1 - side];
      if (lit.kind != ExprKind::kLiteral || col.kind != ExprKind::kColumnRef) {
        continue;
      }
      for (const auto& [name, affinity] : column_affinity) {
        if (name != col.column) continue;
        bool text_col = affinity == Affinity::kText;
        bool text_lit = lit.literal.cls == StorageClass::kText;
        if (!lit.literal.is_null() && text_col != text_lit) return true;
      }
    }
  }
  for (const ExprPtr& a : expr.args) {
    if (a != nullptr && HasCrossTypeCompare(*a, column_affinity)) return true;
  }
  return false;
}

bool ContainsLongWildcardLike(const Expr& expr) {
  if (expr.kind == ExprKind::kLike && expr.args.size() == 2 &&
      expr.args[1] != nullptr && expr.args[1]->kind == ExprKind::kLiteral &&
      expr.args[1]->literal.cls == StorageClass::kText) {
    const std::string& p = expr.args[1]->literal.t;
    if (p.size() >= 4 && p.front() == '%' && p.back() == '%') return true;
  }
  for (const ExprPtr& a : expr.args) {
    if (a != nullptr && ContainsLongWildcardLike(*a)) return true;
  }
  return false;
}

// True if the (nullable) partial-index predicate covers `row`.
bool RowCoveredByPartial(const Expr* where, const RowSchema& schema,
                         const EvalContext& ctx,
                         const std::vector<SqlValue>& row) {
  if (where == nullptr) return true;
  RowView view{&schema, &row};
  bool error = false;
  return EvaluatePredicate(*where, view, ctx, &error) == Bool3::kTrue &&
         !error;
}

// True if two rows collide on the key columns: every key value non-NULL
// (SQL NULLs are distinct under UNIQUE) and pairwise equal.
bool KeyColumnsCollide(const std::vector<int>& key_indexes,
                       const std::vector<SqlValue>& a,
                       const std::vector<SqlValue>& b) {
  for (int idx : key_indexes) {
    const SqlValue& va = a[static_cast<size_t>(idx)];
    const SqlValue& vb = b[static_cast<size_t>(idx)];
    if (va.is_null() || vb.is_null() || !ValueEquals(va, vb)) return false;
  }
  return true;
}

// Visits a DML statement's row source until `visit(i, row)` returns false:
// the store's rows by position when `image` is null, else the read image's
// rows by index. The store is walked page by page, so a constraint scan
// fetches the same pages in the same order on every caller.
template <typename ImageRows, typename Visit>
void ForEachSourceRow(const TableStore& store, const ImageRows* image,
                      Visit&& visit) {
  if (image != nullptr) {
    for (size_t i = 0; i < image->size(); ++i) {
      if (!visit(i, (*image)[i].data)) return;
    }
    return;
  }
  store.ForEachBatch(
      [&](size_t base, const std::vector<SqlValue>* rows, size_t n) {
        for (size_t r = 0; r < n; ++r) {
          if (!visit(base + r, rows[r])) return false;
        }
        return true;
      });
}

// The (key tuple, row position) entry an index over `key_cols` keeps for
// `row` at `pos`.
std::pair<std::vector<SqlValue>, size_t> KeyEntry(
    const std::vector<int>& key_cols, const std::vector<SqlValue>& row,
    size_t pos) {
  std::pair<std::vector<SqlValue>, size_t> entry;
  entry.first.reserve(key_cols.size());
  for (int c : key_cols) entry.first.push_back(row[static_cast<size_t>(c)]);
  entry.second = pos;
  return entry;
}

// When a storage-layer bug class is armed, a paged engine runs on tiny
// pages and a tiny pool so generator-scale tables (3-12 rows) reach page
// splits and eviction pressure within HuntBug's default budget.
StorageOptions ArmStorage(StorageOptions opts, const BugConfig& bugs) {
  if (opts.paged && HasStorageBug(bugs)) opts = StorageOptions::Stress();
  return opts;
}

// Every engine's pool derives its clock-hand start from this one seed, so
// identically configured engines evict in the same order.
constexpr uint64_t kPoolSeed = 0x9e3779b97f4a7c15ull;

}  // namespace

Database::Database(Dialect dialect, BugConfig bugs, StorageOptions storage)
    : dialect_(dialect),
      bugs_(bugs),
      storage_opts_(ArmStorage(storage, bugs)),
      pool_(storage_opts_.pool_frames, kPoolSeed, &bugs_) {}

std::string Database::EngineName() const {
  return std::string("minidb-") + DialectName(dialect_);
}

bool Database::Reset() {
  // Frames point into the tables' disk pages; drop them (no write-back)
  // before the pages are destroyed. Table ids are NOT recycled, so a
  // frame of a dead table could never be mistaken for a new table's page
  // even if one survived — but its write-back pointer would dangle.
  pool_.Reset();
  tables_.clear();
  indexes_.clear();
  // An aborted session may leave open transactions behind; a reset rolls
  // them back implicitly with everything else.
  txns_.clear();
  active_session_ = 0;
  commit_clock_ = 0;
  in_epoch_ = false;
  last_write_ts_.clear();
  rollback_corrupted_.clear();
  alive_ = true;
  return true;
}

StatementResult Database::Crash(const std::string& why) {
  alive_ = false;
  return StatementResult::Failure(StatementStatus::kCrash,
                                  "simulated SEGFAULT: " + why);
}

StatementResult Database::Execute(const Stmt& stmt) {
  if (!alive_) {
    return StatementResult::Failure(StatementStatus::kCrash,
                                    "connection died earlier");
  }
  StatementResult result;
  switch (stmt.kind()) {
    case StmtKind::kCreateTable:
      result = ExecuteCreateTable(static_cast<const CreateTableStmt&>(stmt));
      break;
    case StmtKind::kCreateIndex:
      result = ExecuteCreateIndex(static_cast<const CreateIndexStmt&>(stmt));
      break;
    case StmtKind::kDropIndex:
      result = ExecuteDropIndex(static_cast<const DropIndexStmt&>(stmt));
      break;
    case StmtKind::kInsert: {
      // During the MVCC epoch all DML is diverted through the versioned
      // write path; outside it the classic single-user path is untouched.
      const auto& insert = static_cast<const InsertStmt&>(stmt);
      result = in_epoch_ ? ExecuteTxnDml(insert, &Database::TxnInsertInto)
                         : ExecuteInsert(insert);
      break;
    }
    case StmtKind::kSelect:
      result = ExecuteSelect(static_cast<const SelectStmt&>(stmt));
      break;
    case StmtKind::kUpdate: {
      const auto& update = static_cast<const UpdateStmt&>(stmt);
      result = in_epoch_ ? ExecuteTxnDml(update, &Database::TxnUpdateInto)
                         : ExecuteUpdate(update);
      break;
    }
    case StmtKind::kDelete: {
      const auto& del = static_cast<const DeleteStmt&>(stmt);
      result = in_epoch_ ? ExecuteTxnDml(del, &Database::TxnDeleteInto)
                         : ExecuteDelete(del);
      break;
    }
    case StmtKind::kMaintenance:
      result = ExecuteMaintenance(static_cast<const MaintenanceStmt&>(stmt));
      break;
    case StmtKind::kBegin:
      result = ExecuteBegin();
      break;
    case StmtKind::kCommit:
      result = ExecuteCommit();
      break;
    case StmtKind::kRollback:
      result = ExecuteRollback();
      break;
    case StmtKind::kSetSession:
      active_session_ = static_cast<const SetSessionStmt&>(stmt).session;
      result = StatementResult::Ok();
      break;
  }
  if (result.status == StatementStatus::kError) Mark(Feature::kStatementError);
  return result;
}

StatementResult Database::ExecuteCreateTable(const CreateTableStmt& stmt) {
  if (FindTable(stmt.table_name) != nullptr) {
    return StatementResult::Failure(StatementStatus::kError,
                                    "table already exists: " +
                                        stmt.table_name);
  }
  if (stmt.columns.empty()) {
    return StatementResult::Failure(StatementStatus::kError,
                                    "table without columns");
  }
  Mark(Feature::kCreateTable);
  for (const ColumnDef& col : stmt.columns) {
    switch (col.affinity) {
      case Affinity::kInteger:
        Mark(Feature::kColumnInteger);
        break;
      case Affinity::kReal:
        Mark(Feature::kColumnReal);
        break;
      case Affinity::kText:
        Mark(Feature::kColumnText);
        break;
    }
    if (col.unique) Mark(Feature::kConstraintUnique);
    if (col.primary_key) Mark(Feature::kConstraintPrimaryKey);
    if (col.not_null) Mark(Feature::kConstraintNotNull);
  }
  TableData table;
  table.name = stmt.table_name;
  table.columns = stmt.columns;
  for (const ColumnDef& def : table.columns) {
    table.schema.Add(table.name, def.name);
  }
  table.store.Configure(&pool_, next_table_id_++, &storage_opts_, &bugs_);
  tables_.push_back(std::move(table));
  return StatementResult::Ok();
}

StatementResult Database::ExecuteCreateIndex(const CreateIndexStmt& stmt) {
  TableData* table = FindTable(stmt.table_name);
  if (table == nullptr) {
    return StatementResult::Failure(StatementStatus::kError,
                                    "no such table: " + stmt.table_name);
  }
  if (FindIndex(stmt.index_name) != nullptr) {
    return StatementResult::Failure(
        StatementStatus::kError, "index already exists: " + stmt.index_name);
  }
  for (const std::string& col : stmt.columns) {
    bool found = false;
    for (const ColumnDef& def : table->columns) found |= def.name == col;
    if (!found) {
      return StatementResult::Failure(StatementStatus::kError,
                                      "no such column: " + col);
    }
  }
  Mark(Feature::kCreateIndex);
  if (stmt.unique) Mark(Feature::kUniqueIndex);
  if (stmt.where != nullptr) Mark(Feature::kPartialIndex);

  if (stmt.unique) {
    // A unique index over existing duplicate data is a constraint
    // violation, not an engine error; the index is not created.
    const RowSchema& schema = table->schema;
    EvalContext ctx{dialect_, &bugs_};
    std::vector<int> key_indexes;
    for (const std::string& col : stmt.columns) {
      key_indexes.push_back(schema.IndexOf(stmt.table_name, col));
    }
    // Pairwise check over a materialized snapshot: CREATE INDEX is rare,
    // and the O(n²) scan through page cursors would thrash a tiny pool.
    // During the epoch the store still holds committed DELETEs' tombstones,
    // so the snapshot is the creating session's read image instead.
    std::vector<std::vector<SqlValue>> image_rows;
    if (in_epoch_) {
      for (ImageRow& ir : BuildReadImage(table, CurrentTxn(), false)) {
        image_rows.push_back(std::move(ir.data));
      }
    }
    const std::vector<std::vector<SqlValue>>& rows =
        in_epoch_ ? image_rows : table->store.Materialized();
    for (size_t i = 0; i < rows.size(); ++i) {
      if (!RowCoveredByPartial(stmt.where.get(), schema, ctx, rows[i])) {
        continue;
      }
      for (size_t j = i + 1; j < rows.size(); ++j) {
        if (!RowCoveredByPartial(stmt.where.get(), schema, ctx, rows[j])) {
          continue;
        }
        if (KeyColumnsCollide(key_indexes, rows[i], rows[j])) {
          Mark(Feature::kConstraintViolationRejected);
          return StatementResult::Failure(
              StatementStatus::kConstraintViolation,
              "unique index over duplicate rows");
        }
      }
    }
  }

  IndexData index;
  index.name = stmt.index_name;
  index.table_name = stmt.table_name;
  index.columns = stmt.columns;
  index.unique = stmt.unique;
  index.where = stmt.where ? stmt.where->Clone() : nullptr;
  for (const std::string& col : stmt.columns) {
    index.key_cols.push_back(table->schema.IndexOf(stmt.table_name, col));
  }
  indexes_.push_back(std::move(index));
  RebuildIndex(&indexes_.back(), *table);
  if (in_epoch_) RefreshIndexVis(&indexes_.back(), *table);
  return StatementResult::Ok();
}

StatementResult Database::ExecuteDropIndex(const DropIndexStmt& stmt) {
  IndexData* index = FindIndex(stmt.index_name);
  if (index == nullptr) {
    return StatementResult::Failure(StatementStatus::kError,
                                    "no such index: " + stmt.index_name);
  }
  Mark(Feature::kDropIndex);
  indexes_.erase(indexes_.begin() + (index - indexes_.data()));
  return StatementResult::Ok();
}

void Database::AddIndexEntry(IndexData* index, const TableData& table,
                             size_t pos) {
  TableStore::Cursor cursor(table.store);
  const std::vector<SqlValue>* row = cursor.TryRow(pos);
  if (row == nullptr) return;  // vanished under an injected storage bug
  EvalContext ctx{dialect_, &bugs_};
  if (!RowCoveredByPartial(index->where.get(), table.schema, ctx, *row)) {
    return;
  }
  auto entry = KeyEntry(index->key_cols, *row, pos);
  auto at = std::upper_bound(index->entries.begin(), index->entries.end(),
                             entry, KeyEntryLess);
  index->entries.insert(at, std::move(entry));
}

void Database::RebuildIndex(IndexData* index, const TableData& table) {
  // Bulk build: collect every covered row's key, then one sort. Produces
  // the same order the incremental upper_bound inserts would (KeyEntryLess
  // tie-breaks on row position, so the order is total) without the
  // per-row shifting that dominated UPDATE/DELETE profiles.
  index->entries.clear();
  index->entries.reserve(table.store.size());
  EvalContext ctx{dialect_, &bugs_};
  table.store.ForEachBatch([&](size_t base, const std::vector<SqlValue>* rows,
                               size_t n) {
    for (size_t i = 0; i < n; ++i) {
      if (!RowCoveredByPartial(index->where.get(), table.schema, ctx,
                               rows[i])) {
        continue;
      }
      index->entries.push_back(KeyEntry(index->key_cols, rows[i], base + i));
    }
    return true;
  });
  std::sort(index->entries.begin(), index->entries.end(), KeyEntryLess);
}


bool Database::CoerceForInsert(const ColumnDef& col, SqlValue* value,
                               StatementResult* failure) {
  if (value->is_null()) {
    Mark(Feature::kInsertNullValue);
    return true;  // NOT NULL is checked later as a constraint
  }
  bool strict = dialect_ == Dialect::kPostgresStrict;
  switch (col.affinity) {
    case Affinity::kInteger:
      if (value->cls == StorageClass::kInteger) return true;
      if (value->cls == StorageClass::kReal) {
        if (strict) {
          double t = value->r;
          if (t != static_cast<double>(static_cast<int64_t>(t))) {
            *failure = StatementResult::Failure(
                StatementStatus::kError, "invalid input for integer column");
            return false;
          }
        }
        *value = SqlValue::Int(static_cast<int64_t>(value->r));
        Mark(Feature::kInsertAffinityCoercion);
        return true;
      }
      // Text into an integer column.
      if (strict) {
        *failure = StatementResult::Failure(
            StatementStatus::kError, "invalid input for integer column");
        return false;
      }
      {
        SqlValue parsed;
        if (ParseFullNumeric(value->t, &parsed)) {
          if (parsed.cls == StorageClass::kReal) {
            parsed = SqlValue::Int(static_cast<int64_t>(parsed.r));
          }
          *value = parsed;
          Mark(Feature::kInsertAffinityCoercion);
        } else if (dialect_ == Dialect::kMysqlLike) {
          *value = SqlValue::Int(
              static_cast<int64_t>(ParseNumericPrefix(value->t)));
          Mark(Feature::kInsertAffinityCoercion);
        }
        // kSqliteFlex keeps unparseable text as-is (flexible typing).
      }
      return true;
    case Affinity::kReal:
      if (value->cls == StorageClass::kReal) return true;
      if (value->cls == StorageClass::kInteger) {
        *value = SqlValue::Real(static_cast<double>(value->i));
        Mark(Feature::kInsertAffinityCoercion);
        return true;
      }
      if (strict) {
        *failure = StatementResult::Failure(
            StatementStatus::kError, "invalid input for real column");
        return false;
      }
      {
        SqlValue parsed;
        if (ParseFullNumeric(value->t, &parsed)) {
          *value = SqlValue::Real(parsed.AsReal());
          Mark(Feature::kInsertAffinityCoercion);
        } else if (dialect_ == Dialect::kMysqlLike) {
          *value = SqlValue::Real(ParseNumericPrefix(value->t));
          Mark(Feature::kInsertAffinityCoercion);
        }
      }
      return true;
    case Affinity::kText:
      if (value->cls == StorageClass::kText) return true;
      if (strict) {
        *failure = StatementResult::Failure(
            StatementStatus::kError, "invalid input for text column");
        return false;
      }
      *value = SqlValue::Text(value->ToDisplay());
      Mark(Feature::kInsertAffinityCoercion);
      return true;
  }
  return true;
}

StatementResult Database::CheckConstraints(
    const TableData& table, const std::vector<SqlValue>& candidate,
    const std::vector<ImageRow>* image,
    const std::vector<std::vector<SqlValue>>& pending, int exclude_row) {
  // True if a source row other than `exclude_row`, or a pending row,
  // satisfies `collides`.
  auto any_collides = [&](const auto& collides) {
    bool hit = false;
    ForEachSourceRow(table.store, image,
                     [&](size_t i, const std::vector<SqlValue>& row) {
                       hit = static_cast<int>(i) != exclude_row &&
                             collides(row);
                       return !hit;
                     });
    return hit || std::any_of(pending.begin(), pending.end(), collides);
  };
  auto violation = [&](const std::string& what) {
    Mark(Feature::kConstraintViolationRejected);
    return StatementResult::Failure(StatementStatus::kConstraintViolation,
                                    what);
  };
  for (size_t c = 0; c < table.columns.size(); ++c) {
    const ColumnDef& col = table.columns[c];
    // SQLite quirk, preserved for fidelity with the real engine: a
    // non-INTEGER PRIMARY KEY column admits NULLs (historic bug, kept for
    // compatibility), and the generator declares PKs as "INT". The strict
    // dialects enforce PK ⇒ NOT NULL.
    bool needs_value =
        col.not_null ||
        (col.primary_key && dialect_ != Dialect::kSqliteFlex);
    if (needs_value && candidate[c].is_null()) {
      return violation("NOT NULL constraint failed: " + col.name);
    }
    bool must_be_distinct = col.unique || col.primary_key;
    if (!must_be_distinct || candidate[c].is_null()) continue;
    if (any_collides([&](const std::vector<SqlValue>& other) {
          return !other[c].is_null() && ValueEquals(other[c], candidate[c]);
        })) {
      return violation("UNIQUE constraint failed: " + col.name);
    }
  }

  // Unique indexes (including partial ones) also enforce uniqueness.
  const RowSchema& schema = table.schema;
  EvalContext ctx{dialect_, &bugs_};
  for (const IndexData& index : indexes_) {
    if (!index.unique || index.table_name != table.name) continue;
    if (!RowCoveredByPartial(index.where.get(), schema, ctx, candidate)) {
      continue;
    }
    if (any_collides([&](const std::vector<SqlValue>& other) {
          return RowCoveredByPartial(index.where.get(), schema, ctx, other) &&
                 KeyColumnsCollide(index.key_cols, other, candidate);
        })) {
      return violation("unique index constraint failed: " + index.name);
    }
  }
  return StatementResult::Ok();
}

StatementResult Database::BuildInsertRows(
    const InsertStmt& stmt, const TableData& table,
    const std::vector<ImageRow>* image,
    std::vector<std::vector<SqlValue>>* accepted) {
  Mark(Feature::kInsert);
  if (stmt.rows.size() > 1) Mark(Feature::kMultiRowInsert);

  EvalContext ctx{dialect_, &bugs_};
  RowView no_row;  // literal rows cannot reference columns
  for (const auto& row_exprs : stmt.rows) {
    if (row_exprs.size() != table.columns.size()) {
      return StatementResult::Failure(
          StatementStatus::kError,
          "value count does not match column count");
    }
    std::vector<SqlValue> row;
    row.reserve(row_exprs.size());
    for (size_t c = 0; c < row_exprs.size(); ++c) {
      if (row_exprs[c] == nullptr) {
        return StatementResult::Failure(StatementStatus::kError,
                                        "missing value expression");
      }
      SqlValue& value = row.emplace_back();
      std::string error;
      if (!EvaluateInto(*row_exprs[c], no_row, ctx, &value, &error)) {
        return StatementResult::Failure(StatementStatus::kError, error);
      }
      StatementResult failure;
      if (!CoerceForInsert(table.columns[c], &value, &failure)) {
        return failure;
      }
    }
    StatementResult violation =
        CheckConstraints(table, row, image, *accepted, -1);
    if (!violation.ok()) return violation;
    accepted->push_back(std::move(row));
  }
  return StatementResult::Ok();
}

StatementResult Database::ResolveAssignments(const UpdateStmt& stmt,
                                             const TableData& table,
                                             Assignments* targets) {
  for (const UpdateStmt::Assignment& a : stmt.assignments) {
    int c = table.schema.IndexOf(table.name, a.column);
    if (c < 0) {
      return StatementResult::Failure(StatementStatus::kError,
                                      "no such column: " + a.column);
    }
    if (a.value == nullptr) {
      return StatementResult::Failure(StatementStatus::kError,
                                      "missing assignment expression");
    }
    targets->emplace_back(static_cast<size_t>(c), a.value.get());
  }
  if (targets->empty()) {
    return StatementResult::Failure(StatementStatus::kError,
                                    "UPDATE without assignments");
  }

  Mark(Feature::kUpdate);
  if (stmt.where == nullptr) {
    Mark(Feature::kUpdateAllRows);
  } else {
    MarkExprFeatures(*stmt.where);
  }
  for (const auto& [c, value_expr] : *targets) MarkExprFeatures(*value_expr);
  return StatementResult::Ok();
}

StatementResult Database::BuildUpdatedRow(const TableData& table,
                                          const Assignments& targets,
                                          const std::vector<SqlValue>& pre,
                                          const std::vector<ImageRow>* image,
                                          int exclude_row,
                                          std::vector<SqlValue>* updated) {
  EvalContext ctx{dialect_, &bugs_};
  RowView view{&table.schema, &pre};
  *updated = pre;
  for (const auto& [c, value_expr] : targets) {
    std::string error;
    if (!EvaluateInto(*value_expr, view, ctx, &(*updated)[c], &error)) {
      return StatementResult::Failure(StatementStatus::kError, error);
    }
    StatementResult failure;
    if (!CoerceForInsert(table.columns[c], &(*updated)[c], &failure)) {
      return failure;
    }
  }
  return CheckConstraints(table, *updated, image, {}, exclude_row);
}

bool Database::MatchRows(const TableData& table,
                         const std::vector<ImageRow>* image, const Expr* where,
                         std::vector<size_t>* matched) const {
  EvalContext ctx{dialect_, &bugs_};
  bool failed = false;
  ForEachSourceRow(table.store, image,
                   [&](size_t i, const std::vector<SqlValue>& row) {
                     if (where != nullptr &&
                         EvaluatePredicate(*where,
                                           RowView{&table.schema, &row}, ctx,
                                           &failed) != Bool3::kTrue) {
                       return !failed;
                     }
                     matched->push_back(i);
                     return true;
                   });
  return !failed;
}

StatementResult Database::ExecuteInsert(const InsertStmt& stmt) {
  TableData* table = FindTable(stmt.table_name);
  if (table == nullptr) {
    return StatementResult::Failure(StatementStatus::kError,
                                    "no such table: " + stmt.table_name);
  }
  std::vector<std::vector<SqlValue>> accepted;
  StatementResult built = BuildInsertRows(stmt, *table, nullptr, &accepted);
  if (!built.ok()) {
    // Statement-level abort: no row of a failing INSERT is applied,
    // matching SQLite's default ON CONFLICT ABORT with a statement
    // journal.
    return built;
  }
  std::vector<size_t> new_positions;
  new_positions.reserve(accepted.size());
  for (auto& row : accepted) {
    new_positions.push_back(table->store.Append(std::move(row)));
  }
  for (IndexData& index : indexes_) {
    if (index.table_name != table->name) continue;
    for (size_t pos : new_positions) {
      AddIndexEntry(&index, *table, pos);
    }
  }
  return StatementResult::Ok();
}

StatementResult Database::ExecuteUpdate(const UpdateStmt& stmt) {
  TableData* table = FindTable(stmt.table_name);
  if (table == nullptr) {
    return StatementResult::Failure(StatementStatus::kError,
                                    "no such table: " + stmt.table_name);
  }
  Assignments targets;
  StatementResult resolved = ResolveAssignments(stmt, *table, &targets);
  if (!resolved.ok()) return resolved;

  if (BugOn(BugId::kUpdateSetOrCrash) && stmt.assignments.size() >= 2 &&
      stmt.where != nullptr &&
      stmt.where->ContainsBinaryOp(BinaryOp::kOr)) {
    return Crash("update trigger recursion");
  }

  // Pass 1: decide the matched set on the pre-update snapshot (SQL UPDATE
  // semantics: the WHERE never observes this statement's own writes).
  std::vector<size_t> matched_pos;
  if (!MatchRows(*table, nullptr, stmt.where.get(), &matched_pos)) {
    return StatementResult::Failure(StatementStatus::kError,
                                    "UPDATE WHERE evaluation failed");
  }
  if (matched_pos.empty()) {
    // Nothing to write: skip the statement journal and the index rebuild
    // (random WHEREs miss often, and UPDATE sits in the fuzzing hot loop).
    return StatementResult::Ok();
  }

  // Pass 2: apply in row order with immediate per-row constraint checks
  // (the SQLite visit-and-check model: a violation aborts the statement
  // and rolls every earlier row back). The statement journal is sparse:
  // (row, pre-image) pairs for written rows only, undone in reverse —
  // the former full-table copy dominated the UPDATE profile.
  std::vector<std::pair<size_t, std::vector<SqlValue>>> undo;
  undo.reserve(matched_pos.size());
  TableStore::Cursor cursor(table->store);
  for (size_t pos : matched_pos) {
    // Each matched row is written at most once, so the cursor still reads
    // this row's pre-update values here. A position a storage bug made
    // vanish between the passes is skipped, like a bounds-guarded index
    // candidate.
    const std::vector<SqlValue>* current = cursor.TryRow(pos);
    if (current == nullptr) continue;
    // Copy the pre-image out of the frame before anything below touches
    // the pool again (the nested constraint scan can revalidate or evict
    // around the pinned page and reallocate its row vectors).
    std::vector<SqlValue> pre = *current;
    std::vector<SqlValue> updated;
    StatementResult row_result = BuildUpdatedRow(
        *table, targets, pre, nullptr, static_cast<int>(pos), &updated);
    if (!row_result.ok()) {
      for (size_t u = undo.size(); u-- > 0;) {
        table->store.Overwrite(undo[u].first, std::move(undo[u].second));
      }
      return row_result;
    }
    undo.emplace_back(pos, std::move(pre));
    table->store.Overwrite(pos, std::move(updated));
  }

  // Index maintenance: the clean path rebuilds every index of the table.
  // kUpdateIndexStale skips the rebuild wholesale (keys go stale);
  // kPartialIndexUpdateMiss rebuilds only the non-partial indexes, so
  // partial-index membership reflects the pre-update rows.
  if (!BugOn(BugId::kUpdateIndexStale)) {
    for (IndexData& index : indexes_) {
      if (index.table_name != table->name) continue;
      if (BugOn(BugId::kPartialIndexUpdateMiss) && index.where != nullptr) {
        continue;
      }
      RebuildIndex(&index, *table);
    }
  }
  return StatementResult::Ok();
}

StatementResult Database::ExecuteDelete(const DeleteStmt& stmt) {
  TableData* table = FindTable(stmt.table_name);
  if (table == nullptr) {
    return StatementResult::Failure(StatementStatus::kError,
                                    "no such table: " + stmt.table_name);
  }
  Mark(Feature::kDelete);
  if (stmt.where != nullptr) MarkExprFeatures(*stmt.where);

  const RowSchema& schema = table->schema;
  EvalContext ctx{dialect_, &bugs_};
  // One page-batched pass copies every surviving row out (the compaction
  // rewrites the heap wholesale) and records doomed flags in scan order.
  std::vector<std::vector<SqlValue>> scanned;
  std::vector<size_t> positions;
  std::vector<char> doomed;
  scanned.reserve(table->store.size());
  positions.reserve(table->store.size());
  doomed.reserve(table->store.size());
  size_t doomed_count = 0;
  size_t last_doomed = 0;  // index into the scan-order arrays
  bool where_failed = false;
  table->store.ForEachBatch([&](size_t base, const std::vector<SqlValue>* rows,
                                size_t n) {
    for (size_t r = 0; r < n; ++r) {
      bool hit = true;
      if (stmt.where != nullptr) {
        hit = EvaluatePredicate(*stmt.where, RowView{&schema, &rows[r]}, ctx,
                                &where_failed) == Bool3::kTrue;
        if (where_failed) return false;
      }
      scanned.push_back(rows[r]);
      positions.push_back(base + r);
      doomed.push_back(hit ? 1 : 0);
      if (hit) {
        ++doomed_count;
        last_doomed = scanned.size() - 1;
      }
    }
    return true;
  });
  if (where_failed) {
    return StatementResult::Failure(StatementStatus::kError,
                                    "DELETE WHERE evaluation failed");
  }
  if (BugOn(BugId::kDeleteOverrun) && doomed_count >= 2) {
    // Off-by-one in the delete cursor: the row following the last match is
    // swept up as well.
    for (size_t r = last_doomed + 1; r < scanned.size(); ++r) {
      if (!doomed[r]) {
        doomed[r] = 1;
        break;
      }
    }
  }
  if (doomed_count > 0 || stmt.where == nullptr) {
    // kIndexHeapDesync: on a multi-page table, the DELETE's index rebuild
    // is driven by a "pages dirtied" bitmap that only covers the doomed
    // pages — but the compaction below shifts every surviving row after
    // the first doomed position across page boundaries, so the rebuild is
    // skipped wholesale here and the index keeps pre-compaction positions.
    // Probes then resolve to the wrong row (filtered out by the WHERE
    // re-check) or to nothing (bounds-guarded), and rows go missing from
    // index-assisted scans only; the heap itself — and with it the bare
    // state comparison — stays correct.
    bool skip_rebuild = BugOn(BugId::kIndexHeapDesync) && doomed_count > 0 &&
                        table->store.paged() &&
                        table->store.page_count() >= 2;
    std::vector<std::vector<SqlValue>> kept;
    kept.reserve(scanned.size());
    for (size_t r = 0; r < scanned.size(); ++r) {
      if (!doomed[r]) kept.push_back(std::move(scanned[r]));
    }
    table->store.ReplaceAll(std::move(kept));
    // kPartialIndexUpdateMiss: partial-index membership is not recomputed
    // on row mutations — after a DELETE its entries keep pre-delete keys
    // and positions (dangling ones are bounds-guarded at scan time).
    for (IndexData& index : indexes_) {
      if (index.table_name != table->name) continue;
      if (skip_rebuild) continue;
      if (BugOn(BugId::kPartialIndexUpdateMiss) && index.where != nullptr) {
        continue;
      }
      RebuildIndex(&index, *table);
    }
  }
  return StatementResult::Ok();
}

StatementResult Database::ExecuteMaintenance(const MaintenanceStmt& stmt) {
  TableData* table = FindTable(stmt.table_name);
  if (table == nullptr) {
    return StatementResult::Failure(StatementStatus::kError,
                                    "no such table: " + stmt.table_name);
  }
  if (BugOn(BugId::kReindexPartialError)) {
    for (const IndexData& index : indexes_) {
      if (index.table_name == table->name && index.where != nullptr) {
        return StatementResult::Failure(
            StatementStatus::kError,
            "could not reindex: partial index predicate mismatch "
            "(spurious)");
      }
    }
  }
  Mark(Feature::kMaintenance);
  for (IndexData& index : indexes_) {
    if (index.table_name != table->name) continue;
    RebuildIndex(&index, *table);
    if (BugOn(BugId::kReindexTruncate) && index.entries.size() >= 2) {
      // The rebuild "runs out of page budget" and silently keeps only the
      // first half of the entries.
      index.entries.resize((index.entries.size() + 1) / 2);
    }
    if (in_epoch_) RefreshIndexVis(&index, *table);
  }
  return StatementResult::Ok();
}

void Database::MarkExprFeatures(const Expr& expr) {
  if (coverage_ == nullptr) return;
  switch (expr.kind) {
    case ExprKind::kLiteral:
      break;
    case ExprKind::kColumnRef:
      Mark(Feature::kExprColumnRef);
      break;
    case ExprKind::kUnary:
      if (expr.uop == UnaryOp::kNot) Mark(Feature::kExprNot);
      break;
    case ExprKind::kBinary:
      if (IsComparisonOp(expr.bop)) Mark(Feature::kExprComparison);
      if (expr.bop == BinaryOp::kAnd) Mark(Feature::kExprLogicalAnd);
      if (expr.bop == BinaryOp::kOr) Mark(Feature::kExprLogicalOr);
      if (IsArithmeticOp(expr.bop)) Mark(Feature::kExprArithmetic);
      if (expr.bop == BinaryOp::kDiv) Mark(Feature::kExprDivision);
      if (expr.bop == BinaryOp::kConcat) Mark(Feature::kExprConcat);
      break;
    case ExprKind::kIsNull:
      Mark(Feature::kExprIsNull);
      break;
    case ExprKind::kInList:
      Mark(Feature::kExprInList);
      for (size_t i = 1; i < expr.args.size(); ++i) {
        if (expr.args[i] != nullptr &&
            expr.args[i]->kind == ExprKind::kLiteral &&
            expr.args[i]->literal.is_null()) {
          Mark(Feature::kExprInListNull);
          break;
        }
      }
      break;
    case ExprKind::kBetween:
      Mark(Feature::kExprBetween);
      break;
    case ExprKind::kLike:
      Mark(Feature::kExprLike);
      if (expr.args.size() > 2 && expr.args[2] != nullptr) {
        Mark(Feature::kExprLikeEscape);
      }
      break;
    case ExprKind::kFunctionCall:
      Mark(Feature::kExprFunction);
      if (expr.args.size() >= 3) Mark(Feature::kExprFunctionVariadic);
      break;
    case ExprKind::kCast:
      Mark(Feature::kExprCast);
      break;
    case ExprKind::kCase:
      Mark(Feature::kExprCase);
      if (expr.case_has_else) Mark(Feature::kExprCaseElse);
      break;
    case ExprKind::kCollate:
      Mark(Feature::kExprCollate);
      break;
    case ExprKind::kAggregate:
      Mark(Feature::kExprAggregate);
      if (expr.agg_distinct) Mark(Feature::kAggregateDistinct);
      break;
  }
  for (const ExprPtr& a : expr.args) {
    if (a != nullptr) MarkExprFeatures(*a);
  }
}

StatementResult Database::ExecuteSelect(const SelectStmt& stmt) {
  if (stmt.from_tables.empty()) {
    return StatementResult::Failure(StatementStatus::kError,
                                    "SELECT without FROM");
  }
  if (!stmt.joins.empty() && stmt.from_tables.size() != 1) {
    return StatementResult::Failure(
        StatementStatus::kError,
        "explicit joins require a single base table");
  }
  const bool has_agg = stmt.HasAggregates();
  if (has_agg) {
    if (stmt.select_list.empty()) {
      return StatementResult::Failure(
          StatementStatus::kError,
          "aggregate query requires an explicit select list");
    }
    if (stmt.distinct || !stmt.order_by.empty() || stmt.limit >= 0) {
      return StatementResult::Failure(
          StatementStatus::kError,
          "DISTINCT/ORDER BY/LIMIT on an aggregate query is outside the "
          "modeled query space");
    }
  }
  std::vector<TableData*> from;
  for (const std::string& name : stmt.AllTables()) {
    TableData* table = FindTable(name);
    if (table == nullptr) {
      return StatementResult::Failure(StatementStatus::kError,
                                      "no such table: " + name);
    }
    from.push_back(table);
  }

  // Bare single-table `SELECT *` — the pivot-fetch / state-comparison hot
  // path. With no injected bug armed, no statement- or scan-level hook can
  // observe this shape, so the result is a straight copy of the stored
  // rows; the general path below produces exactly the same rows via
  // JoinRows + star projection. Marks stay identical: this shape only ever
  // marks kSelect.
  if (!bugs_.any() && !in_epoch_ && from.size() == 1 && stmt.joins.empty() &&
      stmt.where == nullptr && !has_agg && stmt.select_list.empty() &&
      stmt.group_by.empty() && stmt.having == nullptr &&
      stmt.order_by.empty() && !stmt.distinct && stmt.limit < 0) {
    Mark(Feature::kSelect);
    StatementResult fast;
    fast.rows = from[0]->store.Materialized();
    return fast;
  }

  Mark(Feature::kSelect);
  if (stmt.where != nullptr) Mark(Feature::kSelectWhere);
  if (from.size() > 1) Mark(Feature::kSelectJoin);
  if (!stmt.select_list.empty()) Mark(Feature::kSelectProjection);
  if (stmt.distinct) Mark(Feature::kSelectDistinct);
  if (!stmt.order_by.empty()) Mark(Feature::kSelectOrderBy);
  if (stmt.limit >= 0) Mark(Feature::kSelectLimit);
  for (const JoinClause& join : stmt.joins) {
    switch (join.kind) {
      case JoinKind::kInner:
        Mark(Feature::kJoinInner);
        break;
      case JoinKind::kLeft:
        Mark(Feature::kJoinLeft);
        break;
      case JoinKind::kCross:
        Mark(Feature::kJoinCross);
        break;
    }
    if (join.on != nullptr) MarkExprFeatures(*join.on);
  }
  for (const OrderByItem& item : stmt.order_by) {
    if (item.expr != nullptr) MarkExprFeatures(*item.expr);
  }
  if (stmt.where != nullptr) MarkExprFeatures(*stmt.where);
  for (const ExprPtr& e : stmt.select_list) {
    if (e != nullptr) MarkExprFeatures(*e);
  }
  if (!stmt.group_by.empty()) Mark(Feature::kSelectGroupBy);
  for (const ExprPtr& g : stmt.group_by) {
    if (g != nullptr) MarkExprFeatures(*g);
  }
  if (stmt.having != nullptr) {
    Mark(Feature::kSelectHaving);
    MarkExprFeatures(*stmt.having);
  }
  if (coverage_ != nullptr && stmt.where != nullptr) {
    std::vector<std::pair<std::string, Affinity>> column_affinity;
    for (const TableData* table : from) {
      for (const ColumnDef& def : table->columns) {
        column_affinity.emplace_back(def.name, def.affinity);
      }
    }
    if (HasCrossTypeCompare(*stmt.where, column_affinity)) {
      Mark(Feature::kCrossTypeComparison);
    }
  }

  // --- Statement-level injected bugs (spurious errors and crashes). ------
  if (stmt.where != nullptr) {
    const Expr& where = *stmt.where;
    if (BugOn(BugId::kOrTermLimit) &&
        where.CountBinaryOp(BinaryOp::kOr) >= 2) {
      return StatementResult::Failure(
          StatementStatus::kError,
          "too many OR terms for the WHERE optimizer (spurious)");
    }
    if (BugOn(BugId::kParallelWorkerError) && from.size() >= 2 &&
        where.ContainsBinaryOp(BinaryOp::kAnd)) {
      return StatementResult::Failure(
          StatementStatus::kError,
          "could not start background parallel worker (spurious)");
    }
    if (BugOn(BugId::kDeepExprCrash) && where.Depth() >= 6) {
      return Crash("expression stack overflow");
    }
    if (BugOn(BugId::kLikeWildcardCrash) && ContainsLongWildcardLike(where)) {
      return Crash("pattern buffer overread");
    }
    if (BugOn(BugId::kBetweenNullCrash) &&
        where.ContainsKind(ExprKind::kBetween) &&
        where.ContainsKind(ExprKind::kIsNull)) {
      return Crash("null range plan dereference");
    }
  }
  if (BugOn(BugId::kMultiJoinOrderError) && stmt.joins.size() >= 2 &&
      !stmt.order_by.empty()) {
    return StatementResult::Failure(
        StatementStatus::kError,
        "could not devise a query plan for the ordered multi-join "
        "(spurious)");
  }
  if (BugOn(BugId::kDistinctOrderCrash) && stmt.distinct &&
      !stmt.order_by.empty()) {
    return Crash("sort-dedup buffer overflow");
  }

  // --- Scan-level injected bugs: decide per-row drop predicates. ---------
  const Expr* partial_index_where = nullptr;
  std::string partial_index_table;
  if (BugOn(BugId::kPartialIndexIsNotInference) && stmt.where != nullptr &&
      stmt.where->ContainsIsNull(/*negated_form=*/true)) {
    for (const IndexData& index : indexes_) {
      if (index.where == nullptr) continue;
      for (const TableData* table : from) {
        if (index.table_name == table->name) {
          partial_index_where = index.where.get();
          partial_index_table = index.table_name;
          break;
        }
      }
      if (partial_index_where != nullptr) break;
    }
  }
  bool indexed_or_skip = false;
  if (BugOn(BugId::kIndexedOrSkip) && stmt.where != nullptr &&
      stmt.where->ContainsBinaryOp(BinaryOp::kOr)) {
    for (const IndexData& index : indexes_) {
      for (const TableData* table : from) {
        indexed_or_skip |= index.table_name == table->name;
      }
    }
  }
  int unique_null_col = -1;
  const Expr* join_pushdown_term = nullptr;
  if (BugOn(BugId::kJoinPredicatePushdown) && from.size() >= 2 &&
      stmt.where != nullptr) {
    join_pushdown_term = FirstColumnColumnCompare(*stmt.where);
  }

  // Combined (joined) schema in FROM order. Single-table statements (the
  // pivot-fetch hot path) borrow the table's cached schema outright.
  RowSchema joined_schema_storage;
  int column_offset = 0;
  for (const TableData* table : from) {
    if (from.size() > 1) {
      const RowSchema& part = table->schema;
      joined_schema_storage.cols.insert(joined_schema_storage.cols.end(),
                                        part.cols.begin(), part.cols.end());
    }
    for (size_t c = 0; c < table->columns.size(); ++c, ++column_offset) {
      if (unique_null_col < 0 && BugOn(BugId::kUniqueNullLost) &&
          stmt.where != nullptr &&
          stmt.where->ContainsIsNull(/*negated_form=*/false) &&
          table->columns[c].unique) {
        unique_null_col = column_offset;
      }
    }
  }
  const RowSchema& schema =
      from.size() == 1 ? from[0]->schema : joined_schema_storage;

  EvalContext ctx{dialect_, &bugs_};

  // Materialize the (joined) FROM rows through the shared relational core:
  // comma-list FROM is the cross product, explicit join clauses run
  // INNER/LEFT/CROSS steps (with the join-path injected bugs hooked
  // inside). A single-table FROM — the pivot-fetch hot path — streams the
  // table's pages directly instead of materializing a copy.
  std::vector<std::vector<SqlValue>> joined;
  std::string relational_error;
  const TableStore* scan_store = nullptr;
  // Single-table scans may be answered through a secondary index (the
  // planner below); candidates are re-checked against the full WHERE, so
  // on a consistent index the result is identical to the full scan — which
  // is exactly why corrupted entries (the index and storage bug classes)
  // surface as missing rows.
  std::vector<size_t> index_positions;
  bool used_index = false;
  // During the MVCC epoch the raw store is not the truth (it holds
  // tombstoned rows and none of the open transactions' buffered writes), so
  // every FROM table is read through its snapshot image instead. The image
  // is where the read-path transaction bugs hook in.
  const Transaction* cur_txn = in_epoch_ ? CurrentTxn() : nullptr;
  std::vector<std::vector<std::vector<SqlValue>>> epoch_rows;
  const std::vector<std::vector<SqlValue>>* direct_rows = nullptr;
  if (in_epoch_) {
    if (cur_txn != nullptr) Mark(Feature::kTxnSnapshotRead);
    epoch_rows.reserve(from.size());
    for (TableData* table : from) {
      std::vector<ImageRow> image =
          BuildReadImage(table, cur_txn, /*for_select=*/true);
      std::vector<std::vector<SqlValue>> data;
      data.reserve(image.size());
      for (ImageRow& ir : image) data.push_back(std::move(ir.data));
      epoch_rows.push_back(std::move(data));
    }
  }
  if (from.size() == 1 && stmt.joins.empty()) {
    // In-transaction reads always scan the snapshot image. Autocommit
    // reads in the epoch (snapshot = latest committed state) may still go
    // through the planner: index entries carry version visibility windows,
    // and the current store row at a visible entry's position *is* the
    // latest committed version.
    if (stmt.where != nullptr && cur_txn == nullptr) {
      bool used_partial = false;
      used_index = PlanIndexScan(*from[0], *stmt.where, ctx,
                                 &index_positions, &used_partial);
      if (used_index) {
        Mark(Feature::kIndexScan);
        if (used_partial) Mark(Feature::kPartialIndexScan);
      }
    }
    if (used_index || !in_epoch_) {
      scan_store = &from[0]->store;
    } else {
      direct_rows = &epoch_rows[0];
    }
  } else {
    std::vector<JoinInput> inputs;
    inputs.reserve(from.size());
    for (size_t t = 0; t < from.size(); ++t) {
      const TableData* table = from[t];
      JoinInput input;
      input.schema = &table->schema;
      input.rows =
          in_epoch_ ? &epoch_rows[t] : &table->store.Materialized();
      inputs.push_back(input);
    }
    size_t null_padded = 0;
    if (!JoinRows(inputs, stmt.joins, ctx, &joined, &relational_error,
                  &null_padded)) {
      return StatementResult::Failure(StatementStatus::kError,
                                      relational_error);
    }
    if (null_padded > 0) Mark(Feature::kLeftJoinNullPad);
  }

  // WHERE filter + scan-level injected bugs, then projection. `kept`
  // retains the surviving pre-projection rows as the ORDER BY key source;
  // unordered queries never need it.
  bool need_kept = !stmt.order_by.empty();
  std::vector<std::vector<SqlValue>> kept;
  // Aggregate queries route the surviving rows into the shared grouping
  // core instead of the per-row projection below.
  std::vector<std::vector<SqlValue>> agg_input;
  // Injected: an aggregate query whose WHERE is a bare top-level IS NULL
  // loses every matching row — exactly the shape of TLP's third partition.
  const bool tlp_null_drop =
      has_agg && BugOn(BugId::kTlpNullPartitionDrop) &&
      stmt.where != nullptr && stmt.where->kind == ExprKind::kIsNull &&
      !stmt.where->negated;
  // The scan runs batch-at-a-time: the WHERE and the per-row bug hooks
  // walk the batch in row order, then the survivors are projected in row
  // order, so within a batch a WHERE error wins over an earlier row's
  // projection error. `movable` is the batch itself when its rows belong
  // to this statement (the joined set, the snapshot image): surviving rows
  // are then moved out of it instead of copied.
  StatementResult result;
  StatementResult scan_failure;
  bool scan_failed = false;
  SqlValue where_value;
  std::string eval_error;
  std::vector<size_t> survivors;
  auto fail_scan = [&]() {
    scan_failed = true;
    scan_failure =
        StatementResult::Failure(StatementStatus::kError, eval_error);
    return false;
  };
  auto process_batch = [&](const std::vector<SqlValue>* rows, size_t n,
                           std::vector<SqlValue>* movable) -> bool {
    auto take = [&](size_t i) -> std::vector<SqlValue> {
      if (movable != nullptr) return std::move(movable[i]);
      return rows[i];
    };
    survivors.clear();
    for (size_t i = 0; i < n; ++i) {
      const std::vector<SqlValue>& combined = rows[i];
      RowView view{&schema, &combined};

      bool keep = true;
      if (stmt.where != nullptr) {
        const SqlValue* evaluated =
            EvaluateRef(*stmt.where, view, ctx, &where_value, &eval_error);
        if (evaluated == nullptr) return fail_scan();
        Bool3 match = Truthiness(*evaluated, dialect_);
        keep = match == Bool3::kTrue;
        Mark(keep ? Feature::kRowMatched : Feature::kRowFiltered);
        if (coverage_ != nullptr && match == Bool3::kNull) {
          Mark(Feature::kNullComparison);
        }
      }
      if (keep && partial_index_where != nullptr) {
        // Wrongly re-filter rows through the partial index predicate, as if
        // the index were usable for IS NOT NULL inference.
        size_t offset = 0;
        for (const TableData* table : from) {
          if (table->name == partial_index_table) break;
          offset += table->columns.size();
        }
        RowSchema sub;
        std::vector<SqlValue> slice;
        for (const TableData* table : from) {
          if (table->name != partial_index_table) continue;
          for (const ColumnDef& def : table->columns) {
            sub.cols.emplace_back(table->name, def.name);
          }
          slice.assign(combined.begin() + static_cast<long>(offset),
                       combined.begin() +
                           static_cast<long>(offset + table->columns.size()));
          break;
        }
        RowView sub_view{&sub, &slice};
        bool error = false;
        if (EvaluatePredicate(*partial_index_where, sub_view, ctx, &error) !=
                Bool3::kTrue ||
            error) {
          keep = false;
        }
      }
      if (keep && indexed_or_skip && stmt.where != nullptr &&
          stmt.where->kind == ExprKind::kBinary &&
          stmt.where->bop == BinaryOp::kOr) {
        // Rows satisfying the first OR arm "come from the corrupted index
        // scan" and are dropped.
        bool error = false;
        if (EvaluatePredicate(*stmt.where->args[0], view, ctx, &error) ==
                Bool3::kTrue &&
            !error) {
          keep = false;
        }
      }
      if (keep && unique_null_col >= 0 &&
          combined[static_cast<size_t>(unique_null_col)].is_null()) {
        keep = false;
      }
      if (keep && join_pushdown_term != nullptr) {
        bool error = false;
        if (EvaluatePredicate(*join_pushdown_term, view, ctx, &error) ==
                Bool3::kTrue &&
            !error) {
          keep = false;
        }
      }

      if (keep && tlp_null_drop) keep = false;

      if (!keep) continue;
      if (has_agg) {
        agg_input.push_back(take(i));
        continue;
      }
      survivors.push_back(i);
    }

    if (stmt.select_list.empty()) {
      for (size_t i : survivors) {
        if (need_kept) kept.push_back(rows[i]);
        result.rows.push_back(take(i));
      }
      return true;
    }
    for (size_t i : survivors) {
      RowView view{&schema, &rows[i]};
      std::vector<SqlValue> projected(stmt.select_list.size());
      for (size_t k = 0; k < projected.size(); ++k) {
        if (!EvaluateInto(*stmt.select_list[k], view, ctx, &projected[k],
                          &eval_error)) {
          return fail_scan();
        }
      }
      result.rows.push_back(std::move(projected));
    }
    if (need_kept) {
      for (size_t i : survivors) kept.push_back(take(i));
    }
    return true;
  };

  if (scan_store != nullptr && !used_index) {
    scan_store->ForEachBatch(
        [&](size_t, const std::vector<SqlValue>* rows, size_t n) {
          return process_batch(rows, n, nullptr);
        });
  } else if (direct_rows != nullptr) {
    process_batch(direct_rows->data(), direct_rows->size(),
                  epoch_rows[0].data());
  } else if (used_index) {
    // Candidate positions are ascending (page-coherent), so the cursor
    // pins each page once; a position a storage bug invalidated resolves
    // to null and is dropped, like any other bounds-guarded candidate.
    TableStore::Cursor cursor(*scan_store);
    for (size_t pos : index_positions) {
      const std::vector<SqlValue>* row = cursor.TryRow(pos);
      if (row == nullptr) continue;
      if (!process_batch(row, 1, nullptr)) break;
    }
  } else {
    process_batch(joined.data(), joined.size(), joined.data());
  }
  if (scan_failed) return scan_failure;

  if (has_agg) {
    if (stmt.group_by.empty() && agg_input.empty()) {
      Mark(Feature::kAggregateEmptyInput);
    }
    if (!AggregateSelect(stmt, schema, agg_input, ctx, &result.rows,
                         &relational_error)) {
      return StatementResult::Failure(StatementStatus::kError,
                                      relational_error);
    }
    return result;
  }

  // DISTINCT dedups the projected rows (set semantics; first occurrence
  // survives), then ORDER BY sorts by keys evaluated on the pre-projection
  // rows, then LIMIT truncates — the SQL pipeline order.
  if (stmt.distinct) {
    std::vector<const std::vector<SqlValue>*> out_rows;
    out_rows.reserve(result.rows.size());
    for (const std::vector<SqlValue>& row : result.rows) {
      out_rows.push_back(&row);
    }
    std::vector<size_t> keep_idx = DistinctKeepIndexes(out_rows, ctx);
    std::vector<std::vector<SqlValue>> deduped_out;
    std::vector<std::vector<SqlValue>> deduped_kept;
    deduped_out.reserve(keep_idx.size());
    deduped_kept.reserve(need_kept ? keep_idx.size() : 0);
    for (size_t idx : keep_idx) {
      deduped_out.push_back(std::move(result.rows[idx]));
      if (need_kept) deduped_kept.push_back(std::move(kept[idx]));
    }
    result.rows = std::move(deduped_out);
    kept = std::move(deduped_kept);
  }
  if (!stmt.order_by.empty()) {
    std::vector<size_t> perm;
    if (!SortIndexesByOrder(schema, kept, stmt.order_by, ctx, &perm,
                            &relational_error)) {
      return StatementResult::Failure(StatementStatus::kError,
                                      relational_error);
    }
    std::vector<std::vector<SqlValue>> sorted;
    sorted.reserve(perm.size());
    for (size_t idx : perm) sorted.push_back(std::move(result.rows[idx]));
    result.rows = std::move(sorted);
  }
  ApplyLimit(stmt.limit, !stmt.order_by.empty(), ctx, &result.rows);
  return result;
}

bool Database::PlanIndexScan(const TableData& table, const Expr& where,
                             const EvalContext& ctx,
                             std::vector<size_t>* positions,
                             bool* used_partial) {
  std::vector<const Expr*> conjuncts;
  FlattenConjuncts(where, &conjuncts);
  for (IndexData& index : indexes_) {
    if (index.table_name != table.name) continue;
    const Expr* probe = nullptr;
    for (const Expr* c : conjuncts) {
      if (IsIndexProbe(index.columns, table.name, *c)) {
        probe = c;
        break;
      }
    }
    if (index.where != nullptr) {
      // A partial index is only sound when the WHERE provably implies its
      // predicate; the decidable case this planner accepts is the
      // predicate appearing verbatim as a top-level conjunct.
      bool predicate_is_conjunct = false;
      for (const Expr* c : conjuncts) {
        if (c->StructurallyEquals(*index.where)) {
          predicate_is_conjunct = true;
          break;
        }
      }
      if (!predicate_is_conjunct) continue;
    } else if (probe == nullptr) {
      continue;  // an unprobed full index is never better than the scan
    }

    // Candidate rows from the ordered entries: the probe is evaluated on
    // the stored *key tuple* (that is the point of an index — and why a
    // stale or truncated entry list changes answers), then every candidate
    // row is still re-checked against the full WHERE by the scan loop.
    RowSchema key_schema;
    for (const std::string& col : index.columns) {
      key_schema.Add(table.name, col);
    }
    std::vector<size_t> candidates;
    bool eval_failed = false;
    // Only autocommit statements reach the planner during the MVCC epoch,
    // so the reading snapshot is the latest committed state.
    const uint64_t snap = commit_clock_;
    for (size_t ei = 0; ei < index.entries.size(); ++ei) {
      const auto& [key, pos] = index.entries[ei];
      if (in_epoch_ && ei < index.vis.size()) {
        const IndexData::EntryVis& v = index.vis[ei];
        if (!(v.begin_ts <= snap && snap < v.end_ts)) continue;
      }
      if (probe != nullptr) {
        bool error = false;
        Bool3 hit =
            EvaluatePredicate(*probe, RowView{&key_schema, &key}, ctx, &error);
        if (error) {
          eval_failed = true;
          break;
        }
        if (hit != Bool3::kTrue) continue;
      }
      candidates.push_back(pos);
    }
    if (eval_failed) continue;  // defensive: fall back to the full scan
    if (BugOn(BugId::kIndexLookupSkipLast) && candidates.size() >= 2) {
      // Entries are key-ordered, so the last candidate is the
      // greatest-key match — the one the off-by-one upper bound loses.
      candidates.pop_back();
    }
    // Table order (and bounds-guard against corrupted positions), so an
    // index scan is row-for-row identical to the full scan when healthy.
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    positions->clear();
    for (size_t pos : candidates) {
      // Positions past the current heap extent (possible only when an
      // injected index/storage bug left stale entries) are dropped here;
      // in-extent positions that no longer resolve to a row are dropped
      // later by the page cursor.
      size_t extent = table.store.paged()
                          ? table.store.page_count() * table.store.page_rows()
                          : table.store.size();
      if (pos < extent) positions->push_back(pos);
    }
    *used_partial = index.where != nullptr;
    return true;
  }
  return false;
}

// --- MVCC transaction layer (DESIGN §14). --------------------------------

Database::Transaction* Database::CurrentTxn() {
  auto it = txns_.find(active_session_);
  if (it == txns_.end()) return nullptr;
  return &it->second;
}

void Database::EnterEpoch() {
  if (in_epoch_) return;
  in_epoch_ = true;
  for (TableData& table : tables_) {
    table.meta.clear();
    table.store.ForEachBatch(
        [&](size_t base, const std::vector<SqlValue>* rows, size_t n) {
          (void)rows;
          for (size_t r = 0; r < n; ++r) table.meta[base + r];
          return true;
        });
  }
  for (IndexData& index : indexes_) {
    TableData* table = FindTable(index.table_name);
    if (table != nullptr) RefreshIndexVis(&index, *table);
  }
}

void Database::PruneIfQuiescent() {
  if (txns_.empty()) PruneHistory();
}

void Database::PruneHistory() {
  if (!in_epoch_) return;
  // Materialize the latest committed version of every table back into a
  // flat heap: tombstoned rows drop out, version chains are garbage. The
  // relative order of surviving rows is preserved, so a table reads in the
  // same order just before the prune and just after it.
  for (TableData& table : tables_) {
    std::vector<std::vector<SqlValue>> kept;
    kept.reserve(table.store.size());
    table.store.ForEachBatch(
        [&](size_t base, const std::vector<SqlValue>* rows, size_t n) {
          for (size_t r = 0; r < n; ++r) {
            auto mit = table.meta.find(base + r);
            if (mit != table.meta.end() && mit->second.end_ts != kTsInf) {
              continue;  // deleted
            }
            kept.push_back(rows[r]);
          }
          return true;
        });
    table.store.ReplaceAll(std::move(kept));
    table.meta.clear();
  }
  in_epoch_ = false;  // commit_clock_ stays monotonic for the next epoch
  for (IndexData& index : indexes_) {
    index.vis.clear();
    if (rollback_corrupted_.count(index.table_name) != 0) {
      // kTxnRollbackStaleIndex: the aborted transaction's entries survive
      // the prune unrepaired; probes through them now miss real rows.
      continue;
    }
    TableData* table = FindTable(index.table_name);
    if (table != nullptr) RebuildIndex(&index, *table);
  }
  rollback_corrupted_.clear();
}

void Database::RefreshIndexVis(IndexData* index, const TableData& table) {
  index->vis.clear();
  if (!in_epoch_) return;
  index->vis.reserve(index->entries.size());
  for (const auto& [key, pos] : index->entries) {
    (void)key;
    IndexData::EntryVis v;
    auto mit = table.meta.find(pos);
    if (mit != table.meta.end()) {
      v.begin_ts = mit->second.begin_ts;
      v.end_ts = mit->second.end_ts;
    }
    index->vis.push_back(v);
  }
}

StatementResult Database::ExecuteBegin() {
  if (CurrentTxn() != nullptr) {
    return StatementResult::Failure(
        StatementStatus::kError,
        "cannot start a transaction within a transaction");
  }
  EnterEpoch();
  Transaction txn;
  txn.begin_ts = commit_clock_;
  txns_[active_session_] = std::move(txn);
  Mark(Feature::kTxnBegin);
  return StatementResult::Ok();
}

bool Database::CommitConflicts(const Transaction& txn) const {
  for (const auto& [tname, w] : txn.writes) {
    if (w.Empty()) continue;
    // kTxnLostUpdate: the conflict check "optimizes away" for update-only
    // write sets, so a stale-snapshot UPDATE clobbers a concurrent commit.
    if (bugs_.enabled(BugId::kTxnLostUpdate) && w.UpdatesOnly()) continue;
    if (bugs_.enabled(BugId::kTxnWriteSkew)) {
      // kTxnWriteSkew: conflict detection weakened from table to row
      // granularity — only rows this transaction itself updated or deleted
      // are checked, so a concurrent INSERT the snapshot never saw slips
      // past (UPDATE matched-set phantoms under claimed SI).
      for (const TableData& table : tables_) {
        if (table.name != tname) continue;
        auto touched = [&](size_t pos) {
          auto mit = table.meta.find(pos);
          if (mit == table.meta.end()) return true;
          return mit->second.begin_ts > txn.begin_ts ||
                 mit->second.end_ts != kTsInf;
        };
        for (const auto& [pos, row] : w.updated) {
          (void)row;
          if (touched(pos)) return true;
        }
        for (size_t pos : w.deleted) {
          if (touched(pos)) return true;
        }
      }
      continue;
    }
    // First-committer-wins at table granularity: sound because generated
    // DML is single-table, so "no other commit wrote any table I wrote"
    // implies my snapshot of every written table is still current.
    auto lit = last_write_ts_.find(tname);
    if (lit != last_write_ts_.end() && lit->second > txn.begin_ts) {
      return true;
    }
  }
  return false;
}

void Database::ApplyCommit(Transaction* txn) {
  bool any = false;
  for (const auto& [tname, w] : txn->writes) {
    (void)tname;
    if (!w.Empty()) {
      any = true;
      break;
    }
  }
  if (!any) return;  // read-only commit: no new timestamp
  const uint64_t c = ++commit_clock_;
  for (auto& [tname, w] : txn->writes) {
    if (w.Empty()) continue;
    TableData* table = FindTable(tname);
    if (table == nullptr) continue;
    {
      TableStore::Cursor cursor(table->store);
      for (auto& [pos, row] : w.updated) {
        RowMeta& m = table->meta[pos];
        const std::vector<SqlValue>* current = cursor.TryRow(pos);
        if (current != nullptr) {
          RowVersion v;
          v.begin_ts = m.begin_ts;
          v.end_ts = c;
          v.data = *current;
          m.older.push_back(std::move(v));
        }
        table->store.Overwrite(pos, std::move(row));
        m.begin_ts = c;
      }
    }
    for (size_t pos : w.deleted) {
      // Position-stable tombstone: the row stays in the heap (older
      // snapshots still read it) until PruneHistory compacts.
      table->meta[pos].end_ts = c;
    }
    for (size_t i = 0; i < w.inserted.size(); ++i) {
      if (!w.inserted_alive[i]) continue;
      size_t pos = table->store.Append(std::move(w.inserted[i]));
      table->meta[pos].begin_ts = c;
    }
    last_write_ts_[tname] = c;
    for (IndexData& index : indexes_) {
      if (index.table_name != tname) continue;
      RebuildIndex(&index, *table);
      RefreshIndexVis(&index, *table);
    }
  }
}

StatementResult Database::ExecuteCommit() {
  auto it = txns_.find(active_session_);
  if (it == txns_.end()) {
    return StatementResult::Failure(
        StatementStatus::kError, "cannot commit - no transaction is active");
  }
  Transaction txn = std::move(it->second);
  txns_.erase(it);
  if (CommitConflicts(txn)) {
    Mark(Feature::kTxnConflict);
    PruneIfQuiescent();
    return StatementResult::Failure(
        StatementStatus::kTxnConflict,
        "could not serialize access due to concurrent update "
        "(first-committer-wins)");
  }
  ApplyCommit(&txn);
  Mark(Feature::kTxnCommit);
  PruneIfQuiescent();
  return StatementResult::Ok();
}

StatementResult Database::ExecuteRollback() {
  auto it = txns_.find(active_session_);
  if (it == txns_.end()) {
    return StatementResult::Failure(
        StatementStatus::kError,
        "cannot rollback - no transaction is active");
  }
  Transaction txn = std::move(it->second);
  txns_.erase(it);
  if (BugOn(BugId::kTxnRollbackStaleIndex)) {
    for (const auto& [tname, w] : txn.writes) {
      if (w.Empty()) continue;
      TableData* table = FindTable(tname);
      if (table != nullptr) CorruptIndexesFromAbort(table, txn);
    }
  }
  Mark(Feature::kTxnRollback);
  PruneIfQuiescent();
  return StatementResult::Ok();
}

std::vector<Database::ImageRow> Database::BuildReadImage(TableData* table,
                                                         const Transaction* txn,
                                                         bool for_select) {
  const uint64_t snap = txn != nullptr ? txn->begin_ts : commit_clock_;
  const TxnWrites* own = nullptr;
  if (txn != nullptr) {
    auto wit = txn->writes.find(table->name);
    if (wit != txn->writes.end()) own = &wit->second;
  }
  std::vector<ImageRow> image;
  image.reserve(table->store.size());
  auto push = [&](const std::vector<SqlValue>& data, size_t pos,
                  int own_insert) {
    ImageRow ir;
    ir.data = data;
    ir.pos = pos;
    ir.own_insert = own_insert;
    image.push_back(std::move(ir));
  };
  table->store.ForEachBatch(
      [&](size_t base, const std::vector<SqlValue>* rows, size_t n) {
        for (size_t r = 0; r < n; ++r) {
          const size_t pos = base + r;
          if (own != nullptr) {
            if (own->deleted.count(pos) != 0) continue;
            auto uit = own->updated.find(pos);
            if (uit != own->updated.end()) {
              push(uit->second, pos, -1);
              continue;
            }
          }
          // kTxnSnapshotUncommittedRead: the snapshot read resolves to the
          // newest *pending* version when some other open transaction has
          // updated this row — its write buffer leaks into our reads.
          if (for_select && BugOn(BugId::kTxnSnapshotUncommittedRead)) {
            bool substituted = false;
            for (const auto& [sid, other] : txns_) {
              (void)sid;
              if (&other == txn) continue;
              auto owit = other.writes.find(table->name);
              if (owit == other.writes.end()) continue;
              auto ouit = owit->second.updated.find(pos);
              if (ouit != owit->second.updated.end()) {
                push(ouit->second, pos, -1);
                substituted = true;
                break;
              }
            }
            if (substituted) continue;
          }
          auto mit = table->meta.find(pos);
          if (mit == table->meta.end()) {
            push(rows[r], pos, -1);  // predates the epoch: always visible
            continue;
          }
          const RowMeta& m = mit->second;
          if (m.begin_ts <= snap && snap < m.end_ts) {
            push(rows[r], pos, -1);
            continue;
          }
          // The current version is too new (or deleted): walk the
          // superseded versions, oldest first, for the one covering snap.
          for (const RowVersion& v : m.older) {
            if (v.begin_ts <= snap && snap < v.end_ts) {
              push(v.data, pos, -1);
              break;
            }
          }
        }
        return true;
      });
  if (own != nullptr) {
    for (size_t i = 0; i < own->inserted.size(); ++i) {
      if (!own->inserted_alive[i]) continue;
      push(own->inserted[i], 0, static_cast<int>(i));
    }
  }
  // kTxnDirtyRead: SELECTs also see rows *inserted* by other transactions
  // that have not committed (and may never commit). DML matched sets are
  // exempt so the corruption stays read-only.
  if (for_select && BugOn(BugId::kTxnDirtyRead)) {
    for (const auto& [sid, other] : txns_) {
      (void)sid;
      if (&other == txn) continue;
      auto owit = other.writes.find(table->name);
      if (owit == other.writes.end()) continue;
      const TxnWrites& ow = owit->second;
      for (size_t i = 0; i < ow.inserted.size(); ++i) {
        if (!ow.inserted_alive[i]) continue;
        push(ow.inserted[i], 0, -1);
      }
    }
  }
  return image;
}

void Database::CorruptIndexesFromAbort(TableData* table,
                                       const Transaction& txn) {
  // Rebuild the table's indexes from the aborted transaction's overlay
  // image — as if index maintenance had been done eagerly per-statement and
  // ROLLBACK forgot to undo it. Own-insert rows get positions past the
  // heap; discarded updates keep real positions under discarded keys.
  std::vector<ImageRow> image =
      BuildReadImage(table, &txn, /*for_select=*/false);
  EvalContext ctx{dialect_, &bugs_};
  for (IndexData& index : indexes_) {
    if (index.table_name != table->name) continue;
    index.entries.clear();
    for (const ImageRow& ir : image) {
      if (!RowCoveredByPartial(index.where.get(), table->schema, ctx,
                               ir.data)) {
        continue;
      }
      size_t pos = ir.own_insert >= 0 ? table->store.size() +
                                            static_cast<size_t>(ir.own_insert)
                                      : ir.pos;
      index.entries.push_back(KeyEntry(index.key_cols, ir.data, pos));
    }
    std::sort(index.entries.begin(), index.entries.end(), KeyEntryLess);
    index.vis.assign(index.entries.size(), IndexData::EntryVis{});
  }
  rollback_corrupted_.insert(table->name);
}

template <typename S>
StatementResult Database::ExecuteTxnDml(
    const S& stmt,
    StatementResult (Database::*into)(const S&, TableData*, Transaction*)) {
  TableData* table = FindTable(stmt.table_name);
  if (table == nullptr) {
    return StatementResult::Failure(StatementStatus::kError,
                                    "no such table: " + stmt.table_name);
  }
  if (Transaction* txn = CurrentTxn()) {
    return (this->*into)(stmt, table, txn);
  }
  // Autocommit during the epoch: an implicit single-statement transaction
  // at the latest snapshot, committed immediately. It can never conflict —
  // no other commit can interleave within one statement.
  Transaction local;
  local.begin_ts = commit_clock_;
  StatementResult r = (this->*into)(stmt, table, &local);
  if (r.ok()) ApplyCommit(&local);
  return r;
}

StatementResult Database::TxnInsertInto(const InsertStmt& stmt,
                                        TableData* table, Transaction* txn) {
  std::vector<ImageRow> image =
      BuildReadImage(table, txn, /*for_select=*/false);
  std::vector<std::vector<SqlValue>> accepted;
  StatementResult built = BuildInsertRows(stmt, *table, &image, &accepted);
  if (!built.ok()) return built;  // statement-level rollback
  // Nothing reached the write set until every row passed; apply now.
  TxnWrites& w = txn->writes[table->name];
  for (auto& row : accepted) {
    w.inserted.push_back(std::move(row));
    w.inserted_alive.push_back(1);
  }
  return StatementResult::Ok();
}

StatementResult Database::TxnUpdateInto(const UpdateStmt& stmt,
                                        TableData* table, Transaction* txn) {
  Assignments targets;
  StatementResult resolved = ResolveAssignments(stmt, *table, &targets);
  if (!resolved.ok()) return resolved;

  std::vector<ImageRow> image =
      BuildReadImage(table, txn, /*for_select=*/false);
  // Pass 1: the matched set, decided on the pre-update snapshot image.
  std::vector<size_t> matched;
  if (!MatchRows(*table, &image, stmt.where.get(), &matched)) {
    return StatementResult::Failure(StatementStatus::kError,
                                    "UPDATE WHERE evaluation failed");
  }
  if (matched.empty()) return StatementResult::Ok();

  // Pass 2: apply in image order with immediate per-row constraint checks
  // (the SQLite visit-and-check model). Everything is buffered locally —
  // the write set is only touched once all matched rows pass, which is the
  // statement-level rollback.
  std::vector<std::pair<size_t, std::vector<SqlValue>>> changes;
  changes.reserve(matched.size());
  for (size_t i : matched) {
    std::vector<SqlValue> updated;
    StatementResult row_result =
        BuildUpdatedRow(*table, targets, image[i].data, &image,
                        static_cast<int>(i), &updated);
    if (!row_result.ok()) return row_result;
    image[i].data = updated;  // later checks see this statement's writes
    changes.emplace_back(i, std::move(updated));
  }
  TxnWrites& w = txn->writes[table->name];
  for (auto& [i, row] : changes) {
    if (image[i].own_insert >= 0) {
      w.inserted[static_cast<size_t>(image[i].own_insert)] = std::move(row);
    } else {
      w.updated[image[i].pos] = std::move(row);
    }
  }
  return StatementResult::Ok();
}

StatementResult Database::TxnDeleteInto(const DeleteStmt& stmt,
                                        TableData* table, Transaction* txn) {
  Mark(Feature::kDelete);
  if (stmt.where != nullptr) MarkExprFeatures(*stmt.where);

  std::vector<ImageRow> image =
      BuildReadImage(table, txn, /*for_select=*/false);
  std::vector<size_t> matched;
  if (!MatchRows(*table, &image, stmt.where.get(), &matched)) {
    return StatementResult::Failure(StatementStatus::kError,
                                    "DELETE WHERE evaluation failed");
  }
  TxnWrites& w = txn->writes[table->name];
  for (size_t i : matched) {
    if (image[i].own_insert >= 0) {
      w.inserted_alive[static_cast<size_t>(image[i].own_insert)] = 0;
    } else {
      w.updated.erase(image[i].pos);
      w.deleted.insert(image[i].pos);
    }
  }
  return StatementResult::Ok();
}

const std::vector<std::vector<SqlValue>>* Database::TableRows(
    const std::string& name) {
  TableData* table = FindTable(name);
  if (table == nullptr) return nullptr;
  if (!in_epoch_) return &table->store.Materialized();
  table->committed_image.clear();
  for (ImageRow& ir : BuildReadImage(table, nullptr, /*for_select=*/false)) {
    table->committed_image.push_back(std::move(ir.data));
  }
  return &table->committed_image;
}

Database::TableData* Database::FindTable(const std::string& name) {
  for (TableData& table : tables_) {
    if (table.name == name) return &table;
  }
  return nullptr;
}

Database::IndexData* Database::FindIndex(const std::string& name) {
  for (IndexData& index : indexes_) {
    if (index.name == name) return &index;
  }
  return nullptr;
}

}  // namespace minidb
}  // namespace pqs
