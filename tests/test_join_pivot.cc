// PR-3 query-space widening: join-aware pivot rectification property test
// plus direct engine semantics checks for the new SELECT features.
//
// The property (paper §3.2/§3.3, extended to multi-table pivots): for every
// seeded generation, the rectified query — joins, DISTINCT, ORDER BY and
// pivot-safe LIMIT included — evaluated on a clean MiniDB engine must
// contain the pivot row, i.e. a clean engine yields zero findings. The
// same sessions' coverage maps prove each new AST node (INNER/LEFT/CROSS
// join, DISTINCT, ORDER BY, LIMIT) was actually exercised.
//
// Accepts `--workers N` (the CI ThreadSanitizer job passes 4); the
// property is worker-count-invariant.
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/interp/eval.h"
#include "src/minidb/database.h"
#include "src/pqs/runner.h"
#include "src/sqlite3db/sqlite_connection.h"
#include "tests/test_util.h"

namespace pqs {
namespace {

int property_workers = 1;

void TestRectifiedJoinQueriesContainPivot() {
  uint64_t total_checked = 0;
  for (Dialect dialect : {Dialect::kSqliteFlex, Dialect::kMysqlLike,
                          Dialect::kPostgresStrict}) {
    RunnerOptions opts;
    opts.seed = 0x9a1b2c3d + static_cast<uint64_t>(dialect);
    opts.databases = 50;
    opts.queries_per_database = 10;
    opts.workers = property_workers;
    int workers = property_workers > 0 ? property_workers : 1;
    std::vector<minidb::CoverageMap> per_worker(
        static_cast<size_t>(workers));
    WorkerEngineFactory factory = [dialect, &per_worker](int worker)
        -> ConnectionPtr {
      auto db = std::make_unique<minidb::Database>(dialect);
      db->set_coverage_sink(&per_worker[static_cast<size_t>(worker)]);
      return db;
    };
    PqsRunner runner(std::move(factory), opts);
    RunReport report = runner.Run();

    // The containment property: a clean engine never trips any oracle.
    CHECK_MSG(report.findings.empty(),
              "dialect %s: %zu false finding(s) on a clean engine",
              DialectName(dialect), report.findings.size());
    total_checked += report.stats.queries_checked;

    // The widened grammar is actually reached: every new AST node shows up
    // in the session's feature coverage.
    minidb::CoverageMap merged;
    for (const minidb::CoverageMap& m : per_worker) merged.Merge(m);
    for (minidb::Feature f :
         {minidb::Feature::kJoinInner, minidb::Feature::kJoinLeft,
          minidb::Feature::kJoinCross, minidb::Feature::kLeftJoinNullPad,
          minidb::Feature::kSelectDistinct, minidb::Feature::kSelectOrderBy,
          minidb::Feature::kSelectLimit}) {
      CHECK_MSG(merged.Hits(f) > 0, "dialect %s: feature %s never exercised",
                DialectName(dialect), minidb::FeatureName(f));
    }
    CHECK(report.stats.join_conditions_rectified > 0);
    CHECK(report.stats.limited_queries > 0);
  }
  CHECK_MSG(total_checked >= 1000,
            "only %llu rectified queries checked across dialects",
            static_cast<unsigned long long>(total_checked));
}

// When real libsqlite3 is linked in, the same property must hold against
// the genuine engine: rendered join/DISTINCT/ORDER/LIMIT queries replayed
// through sqlite3 never lose the pivot.
void TestRealSqliteSweepHasNoFalseFindings() {
  RunnerOptions opts;
  opts.seed = 0xCAFE2020;
  opts.databases = 60;
  opts.queries_per_database = 10;
  opts.workers = property_workers;
  EngineFactory factory = []() -> ConnectionPtr {
    return std::make_unique<SqliteConnection>();
  };
  PqsRunner runner(factory, opts);
  RunReport report = runner.Run();
  CHECK_MSG(report.findings.empty(),
            "real sqlite: %zu false finding(s) in %llu checked queries",
            report.findings.size(),
            static_cast<unsigned long long>(report.stats.queries_checked));
  CHECK(report.stats.queries_checked > 300);
}

std::unique_ptr<CreateTableStmt> IntTable(const std::string& table,
                                          const std::string& column) {
  auto ct = std::make_unique<CreateTableStmt>();
  ct->table_name = table;
  ColumnDef def;
  def.name = column;
  def.declared_type = "INT";
  def.affinity = Affinity::kInteger;
  ct->columns.push_back(def);
  return ct;
}

void InsertInts(minidb::Database* db, const std::string& table,
                std::initializer_list<int64_t> values) {
  for (int64_t v : values) {
    InsertStmt ins;
    ins.table_name = table;
    ins.rows.emplace_back();
    ins.rows.back().push_back(MakeIntLiteral(v));
    CHECK(db->Execute(ins).ok());
  }
}

JoinClause EqJoin(JoinKind kind, const std::string& right,
                  const std::string& lt, const std::string& lc,
                  const std::string& rc) {
  JoinClause join;
  join.kind = kind;
  join.table = right;
  join.on = MakeBinary(BinaryOp::kEq, MakeColumnRef(lt, lc),
                       MakeColumnRef(right, rc));
  return join;
}

void TestEngineJoinSemantics() {
  minidb::Database db(Dialect::kSqliteFlex);
  CHECK(db.Execute(*IntTable("t0", "c0")).ok());
  CHECK(db.Execute(*IntTable("t1", "c1")).ok());
  InsertInts(&db, "t0", {1, 2});
  InsertInts(&db, "t1", {1, 3});

  // INNER: only the matching combination.
  SelectStmt inner;
  inner.from_tables = {"t0"};
  inner.joins.push_back(EqJoin(JoinKind::kInner, "t1", "t0", "c0", "c1"));
  StatementResult r = db.Execute(inner);
  CHECK(r.ok());
  CHECK_EQ(r.rows.size(), static_cast<size_t>(1));

  // LEFT: the unmatched left row survives null-padded.
  SelectStmt left;
  left.from_tables = {"t0"};
  left.joins.push_back(EqJoin(JoinKind::kLeft, "t1", "t0", "c0", "c1"));
  r = db.Execute(left);
  CHECK(r.ok());
  CHECK_EQ(r.rows.size(), static_cast<size_t>(2));
  bool saw_padded = false;
  for (const auto& row : r.rows) {
    CHECK_EQ(row.size(), static_cast<size_t>(2));
    saw_padded |= !row[0].is_null() && row[1].is_null();
  }
  CHECK(saw_padded);

  // CROSS: full product, no ON.
  SelectStmt cross;
  cross.from_tables = {"t0"};
  JoinClause cj;
  cj.kind = JoinKind::kCross;
  cj.table = "t1";
  cross.joins.push_back(std::move(cj));
  r = db.Execute(cross);
  CHECK(r.ok());
  CHECK_EQ(r.rows.size(), static_cast<size_t>(4));
}

void TestEngineDistinctOrderLimit() {
  minidb::Database db(Dialect::kSqliteFlex);
  CHECK(db.Execute(*IntTable("t0", "c0")).ok());
  InsertInts(&db, "t0", {3, 1, 3, 2, 1});

  SelectStmt select;
  select.from_tables = {"t0"};
  select.distinct = true;
  OrderByItem key;
  key.expr = MakeColumnRef("t0", "c0");
  key.descending = true;
  select.order_by.push_back(std::move(key));
  StatementResult r = db.Execute(select);
  CHECK(r.ok());
  CHECK_EQ(r.rows.size(), static_cast<size_t>(3));  // DISTINCT dedup
  CHECK(ValueEquals(r.rows[0][0], SqlValue::Int(3)));  // DESC order
  CHECK(ValueEquals(r.rows[1][0], SqlValue::Int(2)));
  CHECK(ValueEquals(r.rows[2][0], SqlValue::Int(1)));

  select.limit = 2;
  r = db.Execute(select);
  CHECK(r.ok());
  CHECK_EQ(r.rows.size(), static_cast<size_t>(2));
  CHECK(ValueEquals(r.rows[1][0], SqlValue::Int(2)));

  // NULLs sort first ascending (the model all dialect renderings pin).
  InsertStmt null_row;
  null_row.table_name = "t0";
  null_row.rows.emplace_back();
  null_row.rows.back().push_back(MakeNullLiteral());
  CHECK(db.Execute(null_row).ok());
  SelectStmt asc;
  asc.from_tables = {"t0"};
  OrderByItem asc_key;
  asc_key.expr = MakeColumnRef("t0", "c0");
  asc.order_by.push_back(std::move(asc_key));
  r = db.Execute(asc);
  CHECK(r.ok());
  CHECK(!r.rows.empty() && r.rows[0][0].is_null());
}

// ---------------------------------------------------------------------------
// Join differential: the row-index join against a materializing reference
// ---------------------------------------------------------------------------
// MiniDB and the runner join in row-index form (JoinRowIndexes) and
// assemble one combination at a time, copying only the rows the WHERE
// keeps. The reference below is the plain materialize-then-filter nested
// loop: every combination is built as a row of its own, each step's ON
// runs over the rows accumulated so far, then the WHERE runs over the
// joined rows. Both must give the same rows in the same order, or the same
// first error text.

using Rows = std::vector<std::vector<SqlValue>>;

struct Outcome {
  bool ok = true;
  std::string error;
  Rows rows;
};

Outcome ReferenceJoin(const std::vector<JoinInput>& inputs,
                      const std::vector<JoinClause>& joins, const Expr* where,
                      const EvalContext& ctx) {
  Outcome out;
  Rows acc = *inputs[0].rows;
  RowSchema schema = *inputs[0].schema;
  for (size_t t = 1; t < inputs.size(); ++t) {
    const JoinClause* join = joins.empty() ? nullptr : &joins[t - 1];
    schema.Append(*inputs[t].schema);
    Rows next;
    for (const std::vector<SqlValue>& left : acc) {
      bool matched = false;
      for (const std::vector<SqlValue>& right : *inputs[t].rows) {
        std::vector<SqlValue> combined = left;
        combined.insert(combined.end(), right.begin(), right.end());
        if (join != nullptr && join->on != nullptr) {
          EvalResult on = Evaluate(*join->on, RowView{&schema, &combined}, ctx);
          if (on.error) return {false, on.message, {}};
          if (Truthiness(on.value, ctx.dialect) != Bool3::kTrue) continue;
        }
        next.push_back(std::move(combined));
        matched = true;
      }
      if (!matched && join != nullptr && join->kind == JoinKind::kLeft) {
        std::vector<SqlValue> padded = left;
        padded.resize(left.size() + inputs[t].schema->size());
        next.push_back(std::move(padded));
      }
    }
    acc = std::move(next);
  }
  for (std::vector<SqlValue>& row : acc) {
    if (where != nullptr) {
      EvalResult hit = Evaluate(*where, RowView{&schema, &row}, ctx);
      if (hit.error) return {false, hit.message, {}};
      if (Truthiness(hit.value, ctx.dialect) != Bool3::kTrue) continue;
    }
    out.rows.push_back(std::move(row));
  }
  return out;
}

bool SameRowsInOrder(const Rows& a, const Rows& b) {
  if (a.size() != b.size()) return false;
  for (size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) return false;
    for (size_t c = 0; c < a[r].size(); ++c) {
      if (a[r][c].cls != b[r][c].cls || !ValueEquals(a[r][c], b[r][c])) {
        return false;
      }
    }
  }
  return true;
}

// A predicate over tables t0..t{tables-1}, each with an INT column `i` and
// a TEXT column `s`. In the strict dialect `k / ti.i` fails on a zero and
// `-ti.s` on any text, so whether and where evaluation fails depends on
// the rows, and ON and WHERE failures carry different messages.
ExprPtr JoinPredicate(size_t tables, int depth, Rng* rng) {
  auto column = [&](const char* name) {
    return MakeColumnRef("t" + std::to_string(rng->Below(tables)), name);
  };
  if (depth > 0 && rng->Chance(0.4)) {
    if (rng->Chance(0.2)) {
      return MakeUnary(UnaryOp::kNot, JoinPredicate(tables, depth - 1, rng));
    }
    return MakeBinary(rng->Chance(0.5) ? BinaryOp::kAnd : BinaryOp::kOr,
                      JoinPredicate(tables, depth - 1, rng),
                      JoinPredicate(tables, depth - 1, rng));
  }
  switch (rng->Below(5)) {
    case 0:
      return MakeBinary(rng->Pick({BinaryOp::kEq, BinaryOp::kLt,
                                   BinaryOp::kGe}),
                        column("i"), MakeIntLiteral(rng->IntIn(0, 2)));
    case 1:
      return MakeBinary(BinaryOp::kEq, column("i"), column("i"));
    case 2:
      return MakeBinary(BinaryOp::kGt,
                        MakeBinary(BinaryOp::kDiv, MakeIntLiteral(4),
                                   column("i")),
                        MakeIntLiteral(1));
    case 3:
      return MakeIsNull(MakeUnary(UnaryOp::kNeg, column("s")),
                        rng->Chance(0.5));
    default:
      return MakeIsNull(column(rng->Chance(0.5) ? "i" : "s"),
                        rng->Chance(0.5));
  }
}

void TestJoinMatchesMaterializingReference() {
  Rng rng(0x701d1ff);
  size_t compared = 0, errors = 0, left_pads = 0;
  for (int db_index = 0; db_index < 120; ++db_index) {
    const Dialect dialect = db_index % 2 == 0 ? Dialect::kPostgresStrict
                                              : Dialect::kSqliteFlex;
    const EvalContext ctx{dialect, nullptr};
    minidb::Database db(dialect);
    const size_t tables = 2 + rng.Below(2);
    std::vector<RowSchema> schemas(tables);
    std::vector<Rows> rows(tables);
    auto insert = [&](size_t t) {
      InsertStmt ins;
      ins.table_name = "t" + std::to_string(t);
      ins.rows.emplace_back();
      SqlValue i = rng.Chance(0.2) ? SqlValue::Null()
                                   : SqlValue::Int(rng.IntIn(0, 2));
      SqlValue s = rng.Chance(0.5) ? SqlValue::Null()
                                   : SqlValue::Text(rng.Chance(0.5) ? "a"
                                                                    : "1");
      ins.rows.back().push_back(MakeLiteral(i));
      ins.rows.back().push_back(MakeLiteral(s));
      CHECK(db.Execute(ins).ok());
      rows[t].push_back({i, s});
    };
    for (size_t t = 0; t < tables; ++t) {
      CreateTableStmt ct;
      ct.table_name = "t" + std::to_string(t);
      for (const char* name : {"i", "s"}) {
        ColumnDef def;
        def.name = name;
        def.declared_type = name[0] == 'i' ? "INT" : "TEXT";
        def.affinity = name[0] == 'i' ? Affinity::kInteger : Affinity::kText;
        ct.columns.push_back(def);
        schemas[t].Add(ct.table_name, name);
      }
      CHECK(db.Execute(ct).ok());
      for (uint64_t n = rng.Below(5); n > 0; --n) insert(t);
    }

    for (int q = 0; q < 8; ++q) {
      // Mutations between queries rebuild the engine's cached table copy.
      if (rng.Chance(0.5)) insert(rng.Below(tables));
      SelectStmt select;
      const bool comma_list = rng.Chance(0.2);
      select.from_tables.push_back("t0");
      for (size_t t = 1; t < tables; ++t) {
        if (comma_list) {
          select.from_tables.push_back("t" + std::to_string(t));
          continue;
        }
        JoinClause join;
        join.kind = rng.Pick({JoinKind::kInner, JoinKind::kLeft,
                              JoinKind::kCross});
        join.table = "t" + std::to_string(t);
        if (join.kind != JoinKind::kCross) {
          join.on = JoinPredicate(t + 1, 2, &rng);
        }
        select.joins.push_back(std::move(join));
      }
      if (rng.Chance(0.8)) select.where = JoinPredicate(tables, 2, &rng);

      std::vector<JoinInput> inputs(tables);
      for (size_t t = 0; t < tables; ++t) inputs[t] = {&schemas[t], &rows[t]};
      Outcome want = ReferenceJoin(inputs, select.joins, select.where.get(),
                                   ctx);
      StatementResult got = db.Execute(select);
      CHECK_MSG(got.ok() == want.ok && got.error == want.error,
                "db %d query %d: engine %s '%s', reference %s '%s'",
                db_index, q, got.ok() ? "ok" : "failed", got.error.c_str(),
                want.ok ? "ok" : "failed", want.error.c_str());
      if (got.ok() && want.ok) {
        CHECK_MSG(SameRowsInOrder(got.rows, want.rows),
                  "db %d query %d: engine %zu row(s), reference %zu",
                  db_index, q, got.rows.size(), want.rows.size());
      }

      // The shared core on its own: the joined rows before any WHERE.
      Outcome want_join = ReferenceJoin(inputs, select.joins, nullptr, ctx);
      JoinedRows joined;
      std::string error;
      size_t padded = 0;
      bool ok = JoinRowIndexes(inputs, select.joins, ctx, &joined, &error,
                               &padded);
      CHECK(ok == want_join.ok && error == want_join.error);
      if (ok && want_join.ok) {
        Rows assembled(joined.size());
        for (size_t r = 0; r < joined.size(); ++r) {
          AssembleJoinedRow(inputs, joined, r, &assembled[r]);
        }
        CHECK_MSG(SameRowsInOrder(assembled, want_join.rows),
                  "db %d query %d: core join %zu row(s), reference %zu",
                  db_index, q, assembled.size(), want_join.rows.size());
      }
      ++compared;
      errors += want.ok ? 0 : 1;
      left_pads += padded;
    }
  }
  // The generated space reaches every outcome the comparison is about.
  CHECK(compared == 960);
  CHECK_MSG(errors >= 30, "only %zu erroring queries", errors);
  CHECK_MSG(left_pads >= 30, "only %zu LEFT-join padded rows", left_pads);
}

}  // namespace
}  // namespace pqs

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      pqs::property_workers = std::atoi(argv[i + 1]);
      ++i;
    }
  }
  pqs::TestRectifiedJoinQueriesContainPivot();
  pqs::TestRealSqliteSweepHasNoFalseFindings();
  pqs::TestEngineJoinSemantics();
  pqs::TestEngineDistinctOrderLimit();
  pqs::TestJoinMatchesMaterializingReference();
  return pqs::test::Summary("test_join_pivot");
}
