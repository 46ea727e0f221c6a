// PR-5 statement-level state mutation engine: per-statement unit checks,
// the index-consistency property (a session answered through the scan
// planner's secondary indexes must equal the same session with the planner
// disabled), default-budget detection of the new index/mutation bug
// classes, mutation visibility on SqliteConnection's literal-SQL path, and
// an always-on differential sweep of mutating sessions against real
// sqlite3.
//
// Accepts `--workers N` (the CI ThreadSanitizer job passes 4); every
// property is worker-count-invariant.
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/minidb/bug_registry.h"
#include "src/minidb/database.h"
#include "src/obs/telemetry.h"
#include "src/pqs/campaign.h"
#include "src/pqs/runner.h"
#include "src/pqs/scheduler.h"
#include "src/sqlite3db/sqlite_connection.h"
#include "src/sqlparser/render.h"
#include "tests/test_util.h"

namespace pqs {
namespace {

int property_workers = 1;

// ---------------------------------------------------------------------------
// Hand-built statement helpers
// ---------------------------------------------------------------------------

ColumnDef Column(const std::string& name, Affinity affinity,
                 bool unique = false) {
  ColumnDef def;
  def.name = name;
  def.affinity = affinity;
  def.declared_type = affinity == Affinity::kInteger
                          ? "INT"
                          : (affinity == Affinity::kReal ? "REAL" : "TEXT");
  def.unique = unique;
  return def;
}

void MakeTable(minidb::Database* db, const std::string& name,
               std::vector<ColumnDef> columns) {
  CreateTableStmt ct;
  ct.table_name = name;
  ct.columns = std::move(columns);
  CHECK(db->Execute(ct).ok());
}

void InsertRow(minidb::Database* db, const std::string& table,
               std::vector<ExprPtr> values,
               StatementStatus expect = StatementStatus::kOk) {
  InsertStmt ins;
  ins.table_name = table;
  ins.rows.push_back(std::move(values));
  CHECK_EQ(static_cast<int>(db->Execute(ins).status),
           static_cast<int>(expect));
}

std::vector<ExprPtr> Row2(ExprPtr a, ExprPtr b) {
  std::vector<ExprPtr> row;
  row.push_back(std::move(a));
  row.push_back(std::move(b));
  return row;
}

UpdateStmt MakeUpdate(const std::string& table, const std::string& column,
                      ExprPtr value, ExprPtr where) {
  UpdateStmt up;
  up.table_name = table;
  UpdateStmt::Assignment assign;
  assign.column = column;
  assign.value = std::move(value);
  up.assignments.push_back(std::move(assign));
  up.where = std::move(where);
  return up;
}

StatementResult Fetch(minidb::Database* db, const std::string& table) {
  SelectStmt fetch;
  fetch.from_tables = {table};
  return db->Execute(fetch);
}

ExprPtr ColEq(const std::string& table, const std::string& column,
              int64_t value) {
  return MakeBinary(BinaryOp::kEq, MakeColumnRef(table, column),
                    MakeIntLiteral(value));
}

// ---------------------------------------------------------------------------
// Per-statement unit semantics
// ---------------------------------------------------------------------------

void TestUpdateSemantics() {
  minidb::Database db(Dialect::kSqliteFlex);
  MakeTable(&db, "t", {Column("a", Affinity::kInteger),
                       Column("b", Affinity::kInteger)});
  InsertRow(&db, "t", Row2(MakeIntLiteral(1), MakeIntLiteral(10)));
  InsertRow(&db, "t", Row2(MakeIntLiteral(2), MakeIntLiteral(20)));

  // Matched rows only; unmatched rows untouched.
  UpdateStmt up = MakeUpdate(
      "t", "a",
      MakeBinary(BinaryOp::kAdd, MakeColumnRef("t", "a"), MakeIntLiteral(5)),
      ColEq("t", "a", 2));
  CHECK(db.Execute(up).ok());
  StatementResult rows = Fetch(&db, "t");
  CHECK_EQ(rows.rows.size(), static_cast<size_t>(2));
  CHECK(ValueEquals(rows.rows[0][0], SqlValue::Int(1)));
  CHECK(ValueEquals(rows.rows[1][0], SqlValue::Int(7)));

  // Multi-assignment reads the pre-update row: a swap really swaps.
  UpdateStmt swap;
  swap.table_name = "t";
  {
    UpdateStmt::Assignment a;
    a.column = "a";
    a.value = MakeColumnRef("t", "b");
    swap.assignments.push_back(std::move(a));
    UpdateStmt::Assignment b;
    b.column = "b";
    b.value = MakeColumnRef("t", "a");
    swap.assignments.push_back(std::move(b));
  }
  CHECK(db.Execute(swap).ok());
  rows = Fetch(&db, "t");
  CHECK(ValueEquals(rows.rows[0][0], SqlValue::Int(10)));
  CHECK(ValueEquals(rows.rows[0][1], SqlValue::Int(1)));
  CHECK(ValueEquals(rows.rows[1][0], SqlValue::Int(20)));
  CHECK(ValueEquals(rows.rows[1][1], SqlValue::Int(7)));

  // Unknown column / missing table are statement errors.
  UpdateStmt bad = MakeUpdate("t", "zz", MakeIntLiteral(0), nullptr);
  CHECK_EQ(static_cast<int>(db.Execute(bad).status),
           static_cast<int>(StatementStatus::kError));
  UpdateStmt missing = MakeUpdate("nope", "a", MakeIntLiteral(0), nullptr);
  CHECK_EQ(static_cast<int>(db.Execute(missing).status),
           static_cast<int>(StatementStatus::kError));
}

void TestUpdateConstraintRollback() {
  minidb::Database db(Dialect::kSqliteFlex);
  MakeTable(&db, "t", {Column("a", Affinity::kInteger, /*unique=*/true),
                       Column("b", Affinity::kInteger)});
  InsertRow(&db, "t", Row2(MakeIntLiteral(1), MakeIntLiteral(10)));
  InsertRow(&db, "t", Row2(MakeIntLiteral(2), MakeIntLiteral(20)));
  InsertRow(&db, "t", Row2(MakeIntLiteral(3), MakeIntLiteral(30)));

  // Updating rows 2 and 3 to a=1 collides with row 1: the whole statement
  // rolls back — including row 2, which was already applied when row 3
  // failed... actually row 2 already collides. Either way: no change.
  UpdateStmt up = MakeUpdate("t", "a", MakeIntLiteral(1),
                             MakeBinary(BinaryOp::kGt,
                                        MakeColumnRef("t", "a"),
                                        MakeIntLiteral(1)));
  CHECK_EQ(static_cast<int>(db.Execute(up).status),
           static_cast<int>(StatementStatus::kConstraintViolation));
  StatementResult rows = Fetch(&db, "t");
  CHECK(ValueEquals(rows.rows[0][0], SqlValue::Int(1)));
  CHECK(ValueEquals(rows.rows[1][0], SqlValue::Int(2)));
  CHECK(ValueEquals(rows.rows[2][0], SqlValue::Int(3)));

  // A row may keep its own unique value (self-collision excluded).
  UpdateStmt self = MakeUpdate("t", "a", MakeIntLiteral(2),
                               ColEq("t", "a", 2));
  CHECK(db.Execute(self).ok());
}

void TestDeleteSemantics() {
  minidb::Database db(Dialect::kSqliteFlex);
  MakeTable(&db, "t", {Column("a", Affinity::kInteger)});
  for (int64_t v : {1, 2, 3, 4}) {
    std::vector<ExprPtr> row;
    row.push_back(MakeIntLiteral(v));
    InsertRow(&db, "t", std::move(row));
  }
  DeleteStmt del;
  del.table_name = "t";
  del.where = MakeBinary(BinaryOp::kLt, MakeColumnRef("t", "a"),
                         MakeIntLiteral(3));
  CHECK(db.Execute(del).ok());
  StatementResult rows = Fetch(&db, "t");
  CHECK_EQ(rows.rows.size(), static_cast<size_t>(2));
  CHECK(ValueEquals(rows.rows[0][0], SqlValue::Int(3)));

  // DELETE without WHERE empties the table; missing table errors.
  DeleteStmt all;
  all.table_name = "t";
  CHECK(db.Execute(all).ok());
  CHECK_EQ(Fetch(&db, "t").rows.size(), static_cast<size_t>(0));
  DeleteStmt missing;
  missing.table_name = "nope";
  CHECK_EQ(static_cast<int>(db.Execute(missing).status),
           static_cast<int>(StatementStatus::kError));
}

void TestIndexDdlSemantics() {
  minidb::Database db(Dialect::kSqliteFlex);
  MakeTable(&db, "t", {Column("a", Affinity::kInteger)});

  CreateIndexStmt ci;
  ci.index_name = "ix";
  ci.table_name = "t";
  ci.columns = {"a"};
  CHECK(db.Execute(ci).ok());
  CHECK_EQ(db.index_count(), static_cast<size_t>(1));
  // Duplicate names collide (matches real SQLite).
  CHECK_EQ(static_cast<int>(db.Execute(ci).status),
           static_cast<int>(StatementStatus::kError));

  MaintenanceStmt reindex;
  reindex.table_name = "t";
  CHECK(db.Execute(reindex).ok());
  MaintenanceStmt bad_table;
  bad_table.table_name = "nope";
  CHECK_EQ(static_cast<int>(db.Execute(bad_table).status),
           static_cast<int>(StatementStatus::kError));

  DropIndexStmt drop;
  drop.index_name = "ix";
  drop.table_name = "t";
  CHECK(db.Execute(drop).ok());
  CHECK_EQ(db.index_count(), static_cast<size_t>(0));
  CHECK_EQ(static_cast<int>(db.Execute(drop).status),
           static_cast<int>(StatementStatus::kError));
}

void TestSqlitePrimaryKeyNullQuirk() {
  // "INT PRIMARY KEY" (not INTEGER) admits NULLs in real SQLite; the
  // strict dialects enforce PK ⇒ NOT NULL.
  minidb::Database lite(Dialect::kSqliteFlex);
  ColumnDef pk = Column("a", Affinity::kInteger);
  pk.primary_key = true;
  MakeTable(&lite, "t", {pk, Column("b", Affinity::kText)});
  InsertRow(&lite, "t", Row2(MakeNullLiteral(), MakeTextLiteral("x")));
  InsertRow(&lite, "t", Row2(MakeNullLiteral(), MakeTextLiteral("y")));
  CHECK_EQ(Fetch(&lite, "t").rows.size(), static_cast<size_t>(2));

  minidb::Database strict(Dialect::kPostgresStrict);
  MakeTable(&strict, "t", {pk, Column("b", Affinity::kText)});
  InsertRow(&strict, "t", Row2(MakeNullLiteral(), MakeTextLiteral("x")),
            StatementStatus::kConstraintViolation);
}

// ---------------------------------------------------------------------------
// Index-engine bug hooks (direct, single-connection)
// ---------------------------------------------------------------------------

// One indexed table with rows 1..4; probing WHERE a >= 2 goes through the
// scan planner.
void SetupIndexedTable(minidb::Database* db) {
  MakeTable(db, "t", {Column("a", Affinity::kInteger)});
  CreateIndexStmt ci;
  ci.index_name = "ix";
  ci.table_name = "t";
  ci.columns = {"a"};
  CHECK(db->Execute(ci).ok());
  for (int64_t v : {1, 2, 3, 4}) {
    std::vector<ExprPtr> row;
    row.push_back(MakeIntLiteral(v));
    InsertRow(db, "t", std::move(row));
  }
}

StatementResult ProbeGe2(minidb::Database* db) {
  SelectStmt sel;
  sel.from_tables = {"t"};
  sel.where = MakeBinary(BinaryOp::kGe, MakeColumnRef("t", "a"),
                         MakeIntLiteral(2));
  return db->Execute(sel);
}

void TestIndexBugHooks() {
  {
    // Clean engine: the index scan answers exactly like a full scan.
    minidb::Database db(Dialect::kSqliteFlex);
    SetupIndexedTable(&db);
    CHECK_EQ(ProbeGe2(&db).rows.size(), static_cast<size_t>(3));
  }
  {
    // index-lookup-skip-last drops the greatest-key match.
    minidb::Database db(Dialect::kSqliteFlex,
                        BugConfig::Single(BugId::kIndexLookupSkipLast));
    SetupIndexedTable(&db);
    StatementResult r = ProbeGe2(&db);
    CHECK_EQ(r.rows.size(), static_cast<size_t>(2));
    for (const auto& row : r.rows) {
      CHECK(!ValueEquals(row[0], SqlValue::Int(4)));
    }
  }
  {
    // update-index-stale: the updated row keeps its old key, so probing
    // its new value misses it while the table itself is correct.
    minidb::Database db(Dialect::kSqliteFlex,
                        BugConfig::Single(BugId::kUpdateIndexStale));
    SetupIndexedTable(&db);
    UpdateStmt up = MakeUpdate("t", "a", MakeIntLiteral(9),
                               ColEq("t", "a", 1));
    CHECK(db.Execute(up).ok());
    CHECK_EQ(Fetch(&db, "t").rows.size(), static_cast<size_t>(4));
    SelectStmt sel;
    sel.from_tables = {"t"};
    sel.where = ColEq("t", "a", 9);
    CHECK_EQ(db.Execute(sel).rows.size(), static_cast<size_t>(0));
    // Maintenance repairs the corruption.
    MaintenanceStmt reindex;
    reindex.table_name = "t";
    CHECK(db.Execute(reindex).ok());
    CHECK_EQ(db.Execute(sel).rows.size(), static_cast<size_t>(1));
  }
  {
    // reindex-truncate: the rebuild keeps only half the entries.
    minidb::Database db(Dialect::kSqliteFlex,
                        BugConfig::Single(BugId::kReindexTruncate));
    SetupIndexedTable(&db);
    MaintenanceStmt reindex;
    reindex.table_name = "t";
    CHECK(db.Execute(reindex).ok());
    CHECK_EQ(ProbeGe2(&db).rows.size(), static_cast<size_t>(1));
  }
  {
    // delete-overrun sweeps up the row after the last match.
    minidb::Database db(Dialect::kMysqlLike,
                        BugConfig::Single(BugId::kDeleteOverrun));
    SetupIndexedTable(&db);
    DeleteStmt del;
    del.table_name = "t";
    del.where = MakeBinary(BinaryOp::kLe, MakeColumnRef("t", "a"),
                           MakeIntLiteral(2));
    CHECK(db.Execute(del).ok());
    CHECK_EQ(Fetch(&db, "t").rows.size(), static_cast<size_t>(1));
  }
  {
    // update-set-or-crash: ≥2 assignments + OR in the WHERE → SEGFAULT.
    minidb::Database db(Dialect::kMysqlLike,
                        BugConfig::Single(BugId::kUpdateSetOrCrash));
    MakeTable(&db, "t", {Column("a", Affinity::kInteger),
                         Column("b", Affinity::kInteger)});
    InsertRow(&db, "t", Row2(MakeIntLiteral(1), MakeIntLiteral(2)));
    UpdateStmt up;
    up.table_name = "t";
    for (const char* col : {"a", "b"}) {
      UpdateStmt::Assignment a;
      a.column = col;
      a.value = MakeIntLiteral(0);
      up.assignments.push_back(std::move(a));
    }
    up.where = MakeBinary(BinaryOp::kOr, ColEq("t", "a", 1),
                          ColEq("t", "b", 2));
    CHECK_EQ(static_cast<int>(db.Execute(up).status),
             static_cast<int>(StatementStatus::kCrash));
    CHECK(!db.alive());
  }
  {
    // partial-index-update-miss: membership is not recomputed on UPDATE,
    // so a row moved *into* the predicate stays invisible to the
    // partial-index scan.
    minidb::Database db(Dialect::kPostgresStrict,
                        BugConfig::Single(BugId::kPartialIndexUpdateMiss));
    MakeTable(&db, "t", {Column("a", Affinity::kInteger)});
    CreateIndexStmt ci;
    ci.index_name = "ix";
    ci.table_name = "t";
    ci.columns = {"a"};
    ci.where = MakeBinary(BinaryOp::kGt, MakeColumnRef("t", "a"),
                          MakeIntLiteral(5));
    CHECK(db.Execute(ci).ok());
    for (int64_t v : {1, 7}) {
      std::vector<ExprPtr> row;
      row.push_back(MakeIntLiteral(v));
      InsertRow(&db, "t", std::move(row));
    }
    UpdateStmt up = MakeUpdate("t", "a", MakeIntLiteral(8),
                               ColEq("t", "a", 1));
    CHECK(db.Execute(up).ok());
    // WHERE = (a > 5) AND (a >= 2): the first conjunct is the partial
    // predicate, so the planner uses the stale index — which still only
    // knows the old 7-row.
    SelectStmt sel;
    sel.from_tables = {"t"};
    sel.where = MakeBinary(
        BinaryOp::kAnd,
        MakeBinary(BinaryOp::kGt, MakeColumnRef("t", "a"),
                   MakeIntLiteral(5)),
        MakeBinary(BinaryOp::kGe, MakeColumnRef("t", "a"),
                   MakeIntLiteral(2)));
    StatementResult r = db.Execute(sel);
    CHECK_EQ(r.rows.size(), static_cast<size_t>(1));
  }
  {
    // reindex-partial-error: maintenance over a partial index errors.
    minidb::Database db(Dialect::kPostgresStrict,
                        BugConfig::Single(BugId::kReindexPartialError));
    MakeTable(&db, "t", {Column("a", Affinity::kInteger)});
    CreateIndexStmt ci;
    ci.index_name = "ix";
    ci.table_name = "t";
    ci.columns = {"a"};
    ci.where = MakeIsNull(MakeColumnRef("t", "a"), /*negated=*/true);
    CHECK(db.Execute(ci).ok());
    MaintenanceStmt reindex;
    reindex.table_name = "t";
    CHECK_EQ(static_cast<int>(db.Execute(reindex).status),
             static_cast<int>(StatementStatus::kError));
  }
}

// ---------------------------------------------------------------------------
// Index-consistency property
// ---------------------------------------------------------------------------

// Scan-with-index == scan-without-index over generated mutating sessions:
// two clean engines execute the identical statement stream, one with the
// scan planner disabled; every single-table SELECT must come back
// row-for-row identical (the planner preserves table order).
void TestIndexConsistencyProperty() {
  uint64_t sessions = 0;
  uint64_t selects_compared = 0;
  minidb::CoverageMap coverage;
  for (Dialect dialect : {Dialect::kSqliteFlex, Dialect::kMysqlLike,
                          Dialect::kPostgresStrict}) {
    GeneratorOptions gopts;
    Generator generator(gopts, dialect);
    for (uint64_t s = 0; s < 667; ++s) {
      Rng rng(Rng::StreamSeed(0x1d5 + static_cast<uint64_t>(dialect), s));
      DatabasePlan plan = generator.GenerateDatabase(&rng);
      minidb::Database with_index(dialect);
      with_index.set_coverage_sink(&coverage);
      minidb::Database without_index(dialect);
      without_index.set_use_index_scan(false);
      ActionScheduler scheduler(&generator, gopts.txn_sessions, &plan,
                                &with_index);
      auto exec_both = [&](const Stmt& stmt) {
        StatementResult a = with_index.Execute(stmt);
        StatementResult b = without_index.Execute(stmt);
        CHECK_EQ(static_cast<int>(a.status), static_cast<int>(b.status));
      };
      for (const StmtPtr& stmt : plan.statements) exec_both(*stmt);
      for (int q = 0; q < 6; ++q) {
        for (const StmtPtr& action : scheduler.NextBatch(&rng)) {
          exec_both(*action);
        }
        const TableSchema& table =
            plan.tables[rng.Below(plan.tables.size())];
        std::vector<const TableSchema*> tables{&table};
        ExprPtr where = generator.GeneratePredicate(tables, &rng);
        if (ExprPtr probe =
                scheduler.MaybePartialIndexProbe(table.name, &rng)) {
          where = MakeBinary(BinaryOp::kAnd, std::move(probe),
                             std::move(where));
        }
        SelectStmt sel;
        sel.from_tables = {table.name};
        sel.where = std::move(where);
        StatementResult a = with_index.Execute(sel);
        StatementResult b = without_index.Execute(sel);
        CHECK_EQ(static_cast<int>(a.status), static_cast<int>(b.status));
        if (!a.ok()) continue;
        bool identical = a.rows.size() == b.rows.size();
        for (size_t r = 0; identical && r < a.rows.size(); ++r) {
          identical = a.rows[r].size() == b.rows[r].size();
          for (size_t c = 0; identical && c < a.rows[r].size(); ++c) {
            identical = ValueEquals(a.rows[r][c], b.rows[r][c]);
          }
        }
        CHECK_MSG(identical, "index scan diverged on: %s",
                  RenderStmt(sel, dialect).c_str());
        ++selects_compared;
      }
      ++sessions;
    }
  }
  CHECK_MSG(sessions >= 2000, "only %llu sessions generated",
            static_cast<unsigned long long>(sessions));
  CHECK(selects_compared > 5000);
  // The property only means something if the planner actually ran.
  CHECK(coverage.Hits(minidb::Feature::kIndexScan) > 100);
  CHECK(coverage.Hits(minidb::Feature::kPartialIndexScan) > 10);
  CHECK(coverage.Hits(minidb::Feature::kUpdate) > 100);
  CHECK(coverage.Hits(minidb::Feature::kDelete) > 100);
  CHECK(coverage.Hits(minidb::Feature::kDropIndex) > 10);
  CHECK(coverage.Hits(minidb::Feature::kMaintenance) > 10);
}

// The scheduler's live indexes are the model's index catalogue. A setup
// CREATE UNIQUE INDEX over duplicate rows, which the model rejects, never
// becomes a DROP INDEX victim, yet its name stays taken: the k-th index the
// scheduler creates is named i<plan CREATE INDEX count + k>.
void TestSchedulerReadsModelCatalogue() {
  GeneratorOptions gopts;
  Generator generator(gopts, Dialect::kSqliteFlex);
  int first_creates = 0;
  int drops = 0;
  for (uint64_t s = 0; s < 200; ++s) {
    Rng rng(Rng::StreamSeed(0xca7a, s));
    DatabasePlan plan = generator.GenerateDatabase(&rng);
    // Two equal rows in a fresh table, then a unique index over them.
    TableSchema dup;
    dup.name = "tdup";
    dup.columns = {Column("cdup", Affinity::kInteger)};
    auto create = std::make_unique<CreateTableStmt>();
    create->table_name = dup.name;
    create->columns = dup.columns;
    plan.statements.push_back(std::move(create));
    auto insert = std::make_unique<InsertStmt>();
    insert->table_name = dup.name;
    for (int r = 0; r < 2; ++r) {
      std::vector<ExprPtr> row;
      row.push_back(MakeIntLiteral(7));
      insert->rows.push_back(std::move(row));
    }
    plan.statements.push_back(std::move(insert));
    auto unique = std::make_unique<CreateIndexStmt>();
    unique->index_name = plan.IndexName();
    unique->table_name = dup.name;
    unique->columns = {"cdup"};
    unique->unique = true;
    plan.statements.push_back(std::move(unique));
    plan.tables.push_back(std::move(dup));

    minidb::Database model(Dialect::kSqliteFlex);
    ActionScheduler scheduler(&generator, gopts.txn_sessions, &plan, &model);
    int plan_indexes = 0;
    for (const StmtPtr& stmt : plan.statements) {
      StatementResult r = model.Execute(*stmt);
      if (stmt->kind() == StmtKind::kCreateIndex) ++plan_indexes;
      if (stmt.get() == plan.statements.back().get()) {
        CHECK_EQ(static_cast<int>(r.status),
                 static_cast<int>(StatementStatus::kConstraintViolation));
      }
    }
    // Every plan index but the last was accepted.
    CHECK_EQ(model.index_count(), static_cast<size_t>(plan_indexes - 1));

    int created = 0;
    for (int q = 0; q < 20; ++q) {
      for (const StmtPtr& action : scheduler.NextBatch(&rng)) {
        StatementResult r = model.Execute(*action);
        if (action->kind() == StmtKind::kCreateIndex) {
          const std::string& name =
              static_cast<const CreateIndexStmt&>(*action).index_name;
          CHECK_EQ(name, "i" + std::to_string(plan_indexes + created));
          if (created++ == 0) ++first_creates;
        } else if (action->kind() == StmtKind::kDropIndex) {
          CHECK_MSG(r.ok(), "seed %llu: DROP INDEX %s failed: %s",
                    static_cast<unsigned long long>(s),
                    static_cast<const DropIndexStmt&>(*action)
                        .index_name.c_str(),
                    r.error.c_str());
          ++drops;
        }
      }
    }
  }
  CHECK_MSG(first_creates >= 100, "only %d sessions created an index",
            first_creates);
  CHECK_MSG(drops >= 100, "only %d DROP INDEX statements drawn", drops);
}

// ---------------------------------------------------------------------------
// Clean sharded mutating sessions + real-SQLite differential sweep
// ---------------------------------------------------------------------------

void TestCleanMutatingSessionsHaveNoFindings() {
  for (Dialect dialect : {Dialect::kSqliteFlex, Dialect::kMysqlLike,
                          Dialect::kPostgresStrict}) {
    RunnerOptions opts;
    opts.seed = 0x57a7e + static_cast<uint64_t>(dialect);
    opts.databases = 40;
    opts.queries_per_database = 12;
    opts.workers = property_workers;
    EngineFactory factory = [dialect]() -> ConnectionPtr {
      return std::make_unique<minidb::Database>(dialect);
    };
    PqsRunner runner(factory, opts);
    RunReport report = runner.Run();
    CHECK_MSG(report.findings.empty(),
              "dialect %s: %zu false finding(s) on a clean engine",
              DialectName(dialect), report.findings.size());
    // The stream really mutates: every action kind occurred, and the
    // state compare ran at every pivot fetch.
    CHECK(report.stats.actions_insert > 0);
    CHECK(report.stats.actions_update > 0);
    CHECK(report.stats.actions_delete > 0);
    CHECK(report.stats.actions_create_index > 0);
    CHECK(report.stats.actions_drop_index > 0);
    CHECK(report.stats.actions_maintenance > 0);
    CHECK(report.stats.state_compares > 0);
  }
}

void TestRealSqliteMutatingSweepHasNoFalseFindings() {
  RunnerOptions opts;
  opts.seed = 0x5EED5;
  opts.databases = 80;
  opts.queries_per_database = 15;
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
  CHECK(report.stats.queries_checked > 500);
  uint64_t mutations = report.stats.actions_update +
                       report.stats.actions_delete +
                       report.stats.actions_create_index +
                       report.stats.actions_drop_index +
                       report.stats.actions_maintenance;
  CHECK_MSG(mutations > 300,
            "only %llu mutation statements reached real sqlite",
            static_cast<unsigned long long>(mutations));
}

// ---------------------------------------------------------------------------
// Default-budget bug detection
// ---------------------------------------------------------------------------

void TestNewBugsDetectedInDefaultBudget() {
  CampaignOptions options;
  options.seed = 20200604;
  options.workers = property_workers;
  for (BugId bug :
       {BugId::kIndexLookupSkipLast, BugId::kUpdateIndexStale,
        BugId::kReindexTruncate, BugId::kDeleteOverrun,
        BugId::kUpdateSetOrCrash, BugId::kPartialIndexUpdateMiss,
        BugId::kReindexPartialError}) {
    BugHuntResult result = HuntBug(bug, options);
    const minidb::BugInfo& info = minidb::LookupBug(bug);
    CHECK_MSG(result.detected, "bug %s not detected in default budget",
              info.name);
    if (!result.detected) continue;
    CHECK_MSG(result.oracle == info.oracle, "bug %s fired %s, expected %s",
              info.name, OracleName(result.oracle), OracleName(info.oracle));
    // The reduced test case still replays differentially.
    CHECK(!result.reduced.statements.empty());
  }
}

// ---------------------------------------------------------------------------
// SqliteConnection mutation visibility
// ---------------------------------------------------------------------------

// Every mutation statement kind runs on real sqlite3 through the adapter's
// one path (render literal SQL, prepare, step, finalize), and the SELECT
// that follows it sees its effect.
void TestSqliteMutationVisibility() {
  SqliteConnection conn;
  CreateTableStmt ct;
  ct.table_name = "t";
  ct.columns = {Column("a", Affinity::kInteger)};
  CHECK(conn.Execute(ct).ok());
  InsertStmt ins;
  ins.table_name = "t";
  ins.rows.emplace_back();
  ins.rows.back().push_back(MakeIntLiteral(1));
  CHECK(conn.Execute(ins).ok());

  SelectStmt sel;
  sel.from_tables = {"t"};
  auto select_rows = [&]() {
    StatementResult r = conn.Execute(sel);
    CHECK(r.ok());
    return r.rows;
  };
  auto execute_then_select = [&](const Stmt& stmt) {
    CHECK(conn.Execute(stmt).ok());
    return select_rows();
  };

  CreateIndexStmt ci;
  ci.index_name = "ix";
  ci.table_name = "t";
  ci.columns = {"a"};
  execute_then_select(ci);

  // The SELECT sees the updated value.
  UpdateStmt up = MakeUpdate("t", "a", MakeIntLiteral(2), nullptr);
  auto rows = execute_then_select(up);
  CHECK_EQ(rows.size(), static_cast<size_t>(1));
  CHECK(rows[0][0].cls == StorageClass::kInteger && rows[0][0].i == 2);

  MaintenanceStmt reindex;
  reindex.table_name = "t";
  execute_then_select(reindex);

  DropIndexStmt drop;
  drop.index_name = "ix";
  drop.table_name = "t";
  execute_then_select(drop);

  // Appended rows are visible.
  rows = execute_then_select(ins);
  CHECK_EQ(rows.size(), static_cast<size_t>(2));

  // A matching DELETE is reflected too.
  DeleteStmt del;
  del.table_name = "t";
  del.where = ColEq("t", "a", 1);
  rows = execute_then_select(del);
  CHECK_EQ(rows.size(), static_cast<size_t>(1));

  // Each filtered SELECT filters by its own literal.
  SelectStmt filtered;
  filtered.from_tables = {"t"};
  filtered.where = ColEq("t", "a", 2);
  StatementResult match = conn.Execute(filtered);
  CHECK(match.ok());
  CHECK_EQ(match.rows.size(), static_cast<size_t>(1));
  filtered.where = ColEq("t", "a", 99);
  StatementResult none = conn.Execute(filtered);
  CHECK(none.ok());
  CHECK_EQ(none.rows.size(), static_cast<size_t>(0));
}

// No statement on SqliteConnection reports a cache invalidation, and
// neither does resetting the connection: the only invalidation left is a
// MiniDB buffer-pool flush. Every statement kind the runner's stream issues
// runs here, each followed by a SELECT of the table.
void TestSqliteTeardownIsNotAnInvalidation() {
  obs::SessionTelemetry session;
  {
    obs::ScopedSessionTelemetry install(&session);
    SqliteConnection conn;
    SelectStmt sel;
    sel.from_tables = {"t"};
    auto execute_then_select = [&](const Stmt& stmt) {
      CHECK(conn.Execute(stmt).ok());
      CHECK(conn.Execute(sel).ok());
    };

    CreateTableStmt ct;
    ct.table_name = "t";
    ct.columns = {Column("a", Affinity::kInteger)};
    execute_then_select(ct);
    InsertStmt ins;
    ins.table_name = "t";
    for (int64_t v : {1, 2, 3}) {
      ins.rows.emplace_back();
      ins.rows.back().push_back(MakeIntLiteral(v));
    }
    execute_then_select(ins);
    CreateIndexStmt ci;
    ci.index_name = "ix";
    ci.table_name = "t";
    ci.columns = {"a"};
    execute_then_select(ci);
    execute_then_select(
        MakeUpdate("t", "a", MakeIntLiteral(5), ColEq("t", "a", 2)));
    DeleteStmt del;
    del.table_name = "t";
    del.where = ColEq("t", "a", 1);
    execute_then_select(del);
    MaintenanceStmt reindex;
    reindex.table_name = "t";
    execute_then_select(reindex);
    DropIndexStmt drop;
    drop.index_name = "ix";
    drop.table_name = "t";
    execute_then_select(drop);
    CHECK(conn.Reset());
  }
  CHECK_EQ(session.metrics.counter(obs::Counter::kCacheInvalidations),
           static_cast<uint64_t>(0));
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
  pqs::TestUpdateSemantics();
  pqs::TestUpdateConstraintRollback();
  pqs::TestDeleteSemantics();
  pqs::TestIndexDdlSemantics();
  pqs::TestSqlitePrimaryKeyNullQuirk();
  pqs::TestIndexBugHooks();
  pqs::TestIndexConsistencyProperty();
  pqs::TestSchedulerReadsModelCatalogue();
  pqs::TestCleanMutatingSessionsHaveNoFindings();
  pqs::TestRealSqliteMutatingSweepHasNoFalseFindings();
  pqs::TestNewBugsDetectedInDefaultBudget();
  pqs::TestSqliteMutationVisibility();
  pqs::TestSqliteTeardownIsNotAnInvalidation();
  return pqs::test::Summary("test_stmt_mutation");
}
