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
#include <vector>

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
  return pqs::test::Summary("test_join_pivot");
}
