// MVCC transaction layer tests (DESIGN §14): statement-level semantics of
// BEGIN/COMMIT/ROLLBACK under snapshot isolation, the committed-state view
// TableRows gives inside the epoch, direct hooks for every injected
// transaction bug class, the K-session interleaved property (a clean
// engine and its clean model agree on every view, zero false findings, at
// the unit-test and the campaign session length), seeded schedule-replay
// identity across worker counts, default-budget HuntBug detection of the
// transaction bugs over many campaign seeds with every raw finding
// reproducing against a clean reference, the scheduler's flat
// interleaved stream (session markers only where the session changes), a
// serial differential sweep against real sqlite3, the
// Reset-with-open-transaction regression, and the write-path parity
// property: one constraint-heavy DML stream gives the same outcomes run
// plainly and run inside the epoch.
//
// Usage: test_txn_mvcc [--workers N]   (N also exercises the sharded path)
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/interp/eval.h"
#include "src/minidb/bug_registry.h"
#include "src/minidb/database.h"
#include "src/obs/flight_recorder.h"
#include "src/pqs/campaign.h"
#include "src/pqs/reducer.h"
#include "src/pqs/runner.h"
#include "src/pqs/scheduler.h"
#include "src/sqlite3db/sqlite_connection.h"
#include "src/sqlparser/render.h"
#include "tests/test_util.h"

namespace pqs {
namespace {

int g_workers = 4;  // overridden by --workers

// --- Statement construction helpers. ----------------------------------

StmtPtr MakeTable(const std::string& name) {
  auto create = std::make_unique<CreateTableStmt>();
  create->table_name = name;
  ColumnDef a;
  a.name = "a";
  a.declared_type = "INT";
  a.affinity = Affinity::kInteger;
  ColumnDef b;
  b.name = "b";
  b.declared_type = "TEXT";
  b.affinity = Affinity::kText;
  create->columns = {a, b};
  return create;
}

StmtPtr InsertRow(const std::string& table, int64_t a, const std::string& b) {
  auto insert = std::make_unique<InsertStmt>();
  insert->table_name = table;
  insert->rows.emplace_back();
  insert->rows.back().push_back(MakeLiteral(SqlValue::Int(a)));
  insert->rows.back().push_back(MakeLiteral(SqlValue::Text(b)));
  return insert;
}

SelectStmt SelectAll(const std::string& table) {
  SelectStmt s;
  s.from_tables = {table};
  return s;
}

SelectStmt SelectWhereAEq(const std::string& table, int64_t v) {
  SelectStmt s;
  s.from_tables = {table};
  s.where = MakeBinary(BinaryOp::kEq, MakeColumnRef(table, "a"),
                       MakeLiteral(SqlValue::Int(v)));
  return s;
}

StmtPtr UpdateBWhereAEq(const std::string& table, int64_t a,
                        const std::string& new_b) {
  auto update = std::make_unique<UpdateStmt>();
  update->table_name = table;
  update->assignments.emplace_back();
  update->assignments.back().column = "b";
  update->assignments.back().value = MakeLiteral(SqlValue::Text(new_b));
  update->where = MakeBinary(BinaryOp::kEq, MakeColumnRef(table, "a"),
                             MakeLiteral(SqlValue::Int(a)));
  return update;
}

StmtPtr DeleteWhereAEq(const std::string& table, int64_t a) {
  auto del = std::make_unique<DeleteStmt>();
  del->table_name = table;
  del->where = MakeBinary(BinaryOp::kEq, MakeColumnRef(table, "a"),
                          MakeLiteral(SqlValue::Int(a)));
  return del;
}

StatementResult Session(Connection* db, int session) {
  SetSessionStmt set;
  set.session = session;
  return db->Execute(set);
}

StatementResult Begin(Connection* db) {
  BeginStmt begin;
  return db->Execute(begin);
}

StatementResult Commit(Connection* db) {
  CommitStmt commit;
  return db->Execute(commit);
}

StatementResult Rollback(Connection* db) {
  RollbackStmt rollback;
  return db->Execute(rollback);
}

size_t RowCount(Connection* db, const std::string& table) {
  SelectStmt s = SelectAll(table);
  StatementResult r = db->Execute(s);
  CHECK(r.ok());
  return r.rows.size();
}

// --- Per-statement semantics. -----------------------------------------

void TestBeginCommitVisibility() {
  minidb::Database db(Dialect::kSqliteFlex);
  CHECK(db.Execute(*MakeTable("t")).ok());
  CHECK(db.Execute(*InsertRow("t", 1, "a")).ok());
  CHECK(!db.in_mvcc_epoch());

  CHECK(Session(&db, 0).ok());
  CHECK(Begin(&db).ok());
  CHECK(db.in_mvcc_epoch());
  CHECK_EQ(db.open_transactions(), size_t{1});
  CHECK(db.Execute(*InsertRow("t", 2, "b")).ok());
  // Own uncommitted write is visible to the writer...
  CHECK_EQ(RowCount(&db, "t"), size_t{2});
  // ...and invisible to every other session's snapshot.
  CHECK(Session(&db, 1).ok());
  CHECK_EQ(RowCount(&db, "t"), size_t{1});

  CHECK(Session(&db, 0).ok());
  CHECK(Commit(&db).ok());
  CHECK(Session(&db, 1).ok());
  CHECK_EQ(RowCount(&db, "t"), size_t{2});
  // All transactions resolved: the engine pruned back out of the epoch.
  CHECK_EQ(db.open_transactions(), size_t{0});
  CHECK(!db.in_mvcc_epoch());
}

void TestRollbackDiscards() {
  minidb::Database db(Dialect::kSqliteFlex);
  CHECK(db.Execute(*MakeTable("t")).ok());
  CHECK(db.Execute(*InsertRow("t", 1, "a")).ok());
  CHECK(db.Execute(*InsertRow("t", 2, "b")).ok());

  CHECK(Begin(&db).ok());
  CHECK(db.Execute(*UpdateBWhereAEq("t", 1, "z")).ok());
  CHECK(db.Execute(*DeleteWhereAEq("t", 2)).ok());
  CHECK(db.Execute(*InsertRow("t", 3, "c")).ok());
  CHECK_EQ(RowCount(&db, "t"), size_t{2});  // {1,z} and {3,c}
  CHECK(Rollback(&db).ok());
  CHECK(!db.in_mvcc_epoch());

  SelectStmt probe = SelectWhereAEq("t", 1);
  StatementResult r = db.Execute(probe);
  CHECK(r.ok());
  CHECK_EQ(r.rows.size(), size_t{1});
  CHECK(r.rows[0][1].cls == StorageClass::kText && r.rows[0][1].t == "a");
  CHECK_EQ(RowCount(&db, "t"), size_t{2});  // original {1,a}, {2,b}
}

void TestTransactionStatementErrors() {
  minidb::Database db(Dialect::kSqliteFlex);
  CHECK(db.Execute(*MakeTable("t")).ok());
  CHECK(Commit(&db).status == StatementStatus::kError);
  CHECK(Rollback(&db).status == StatementStatus::kError);
  CHECK(Begin(&db).ok());
  CHECK(Begin(&db).status == StatementStatus::kError);  // nested
  CHECK(Commit(&db).ok());
  CHECK(Commit(&db).status == StatementStatus::kError);
}

void TestFirstCommitterWins() {
  minidb::Database db(Dialect::kSqliteFlex);
  CHECK(db.Execute(*MakeTable("t")).ok());
  CHECK(db.Execute(*InsertRow("t", 1, "a")).ok());
  CHECK(db.Execute(*InsertRow("t", 2, "b")).ok());

  CHECK(Session(&db, 0).ok());
  CHECK(Begin(&db).ok());
  CHECK(db.Execute(*UpdateBWhereAEq("t", 1, "x")).ok());
  CHECK(Session(&db, 1).ok());
  CHECK(Begin(&db).ok());
  CHECK(db.Execute(*UpdateBWhereAEq("t", 2, "y")).ok());

  CHECK(Session(&db, 0).ok());
  CHECK(Commit(&db).ok());
  // Second committer wrote the same table after the first's snapshot:
  // first-committer-wins aborts it, and nothing of its write set lands.
  CHECK(Session(&db, 1).ok());
  CHECK(Commit(&db).status == StatementStatus::kTxnConflict);
  CHECK(!db.in_mvcc_epoch());

  StatementResult r1 = db.Execute(SelectWhereAEq("t", 1));
  StatementResult r2 = db.Execute(SelectWhereAEq("t", 2));
  CHECK(r1.ok() && r1.rows.size() == 1 && r1.rows[0][1].t == "x");
  CHECK(r2.ok() && r2.rows.size() == 1 && r2.rows[0][1].t == "b");
}

void TestAutocommitDuringEpoch() {
  minidb::Database db(Dialect::kSqliteFlex);
  CHECK(db.Execute(*MakeTable("t")).ok());
  CHECK(db.Execute(*InsertRow("t", 1, "a")).ok());

  CHECK(Session(&db, 0).ok());
  CHECK(Begin(&db).ok());
  CHECK_EQ(RowCount(&db, "t"), size_t{1});  // snapshot pinned

  // Another session's autocommit DML is an implicit single-statement
  // transaction: immediately committed and visible to new snapshots...
  CHECK(Session(&db, 1).ok());
  CHECK(db.Execute(*InsertRow("t", 2, "b")).ok());
  CHECK_EQ(RowCount(&db, "t"), size_t{2});

  // ...but session 0's open snapshot predates it.
  CHECK(Session(&db, 0).ok());
  CHECK_EQ(RowCount(&db, "t"), size_t{1});
  CHECK(Commit(&db).ok());
  CHECK_EQ(RowCount(&db, "t"), size_t{2});
}

// Regression: inside the epoch CREATE UNIQUE INDEX scanned the store,
// which still holds the tombstones of committed DELETEs, so a key freed by
// a deleted row counted as a duplicate. Outside the epoch it never did.
void TestCreateUniqueIndexIgnoresTombstones() {
  for (bool epoch : {false, true}) {
    minidb::Database db(Dialect::kSqliteFlex);
    CHECK(db.Execute(*MakeTable("t")).ok());
    CHECK(db.Execute(*InsertRow("t", 1, "a")).ok());
    if (epoch) {
      CHECK(Session(&db, 0).ok());
      CHECK(Begin(&db).ok());
    }
    CHECK(Session(&db, 1).ok());
    CHECK(db.Execute(*DeleteWhereAEq("t", 1)).ok());
    CHECK(db.Execute(*InsertRow("t", 1, "z")).ok());
    CreateIndexStmt index;
    index.index_name = "i0";
    index.table_name = "t";
    index.columns = {"a"};
    index.unique = true;
    StatementResult created = db.Execute(index);
    CHECK_MSG(created.ok(), "epoch=%d: %s", epoch ? 1 : 0,
              created.error.c_str());
    CHECK_EQ(db.in_mvcc_epoch(), epoch);
    // The index exists and enforces its key.
    CHECK(db.Execute(*InsertRow("t", 1, "y")).status ==
          StatementStatus::kConstraintViolation);
    CHECK_EQ(RowCount(&db, "t"), size_t{1});
  }
}

// --- Write-path parity: the plain DML path and the MVCC one share one
// --- front half (resolve, evaluate, coerce, constraint-check), so a
// --- constraint-heavy stream must give the same status for every
// --- statement and the same table after each one, whether the engine
// --- runs it plainly or inside the epoch as autocommit statements.

std::string RowsKey(const StatementResult& r) {
  std::string key;
  for (const std::vector<SqlValue>& row : r.rows) {
    for (const SqlValue& v : row) {
      key += std::to_string(static_cast<int>(v.cls)) + ":" + v.ToDisplay() +
             "|";
    }
    key += "\n";
  }
  return key;
}

ExprPtr RandomValue(Rng* rng, bool text) {
  if (rng->Chance(0.15)) return MakeLiteral(SqlValue::Null());
  if (text) {
    return MakeLiteral(SqlValue::Text(rng->Pick({"u", "v", "w", "x", "y"})));
  }
  return MakeLiteral(SqlValue::Int(rng->IntIn(-1, 8)));
}

// A WHERE over `a` or `c`: a range (or no WHERE) for UPDATE, one key for
// DELETE so the table keeps a few rows.
ExprPtr RandomWhere(Rng* rng, bool range) {
  if (range && rng->Chance(0.2)) return nullptr;
  const char* col = rng->Pick({"a", "c"});
  BinaryOp op = range ? rng->Pick({BinaryOp::kGe, BinaryOp::kLt})
                      : BinaryOp::kEq;
  return MakeBinary(op, MakeColumnRef("t", col),
                    MakeLiteral(SqlValue::Int(rng->IntIn(-1, 8))));
}

// One statement of the stream over t(a INT PRIMARY KEY, b TEXT UNIQUE,
// c INT, d INT) with a unique partial index on c: multi-row INSERTs
// (duplicates within the statement included), UPDATEs whose writes collide
// on a later matched row, one-key DELETEs, and partial CREATE UNIQUE INDEX
// on d over data that may hold duplicates.
StmtPtr RandomWrite(Rng* rng, int* next_index) {
  uint64_t roll = rng->Below(12);
  if (roll < 5) {
    auto insert = std::make_unique<InsertStmt>();
    insert->table_name = "t";
    int64_t n = rng->IntIn(1, 3);
    for (int64_t i = 0; i < n; ++i) {
      insert->rows.emplace_back();
      insert->rows.back().push_back(RandomValue(rng, false));
      insert->rows.back().push_back(RandomValue(rng, true));
      insert->rows.back().push_back(RandomValue(rng, false));
      insert->rows.back().push_back(RandomValue(rng, false));
    }
    return insert;
  }
  if (roll < 9) {
    auto update = std::make_unique<UpdateStmt>();
    update->table_name = "t";
    update->assignments.emplace_back();
    UpdateStmt::Assignment& set = update->assignments.back();
    switch (rng->Below(4)) {
      case 0:  // shifts keys into the next matched row's key
        set.column = "a";
        set.value = MakeBinary(BinaryOp::kAdd, MakeColumnRef("t", "a"),
                               MakeLiteral(SqlValue::Int(1)));
        break;
      case 1:  // one literal for every matched row of a UNIQUE column
        set.column = "b";
        set.value = RandomValue(rng, true);
        break;
      case 2:  // moves rows into and out of the partial unique index
        set.column = "c";
        set.value = MakeBinary(BinaryOp::kSub, MakeColumnRef("t", "c"),
                               MakeLiteral(SqlValue::Int(1)));
        break;
      default:  // checked only by the unique indexes the stream creates
        set.column = "d";
        set.value = RandomValue(rng, false);
        break;
    }
    update->where = RandomWhere(rng, true);
    return update;
  }
  if (roll < 11) {
    auto del = std::make_unique<DeleteStmt>();
    del->table_name = "t";
    del->where = RandomWhere(rng, false);
    return del;
  }
  auto index = std::make_unique<CreateIndexStmt>();
  index->index_name = "u" + std::to_string((*next_index)++);
  index->table_name = "t";
  index->columns = {"d"};
  index->unique = true;
  index->where = MakeBinary(BinaryOp::kGe, MakeColumnRef("t", "d"),
                            MakeLiteral(SqlValue::Int(rng->IntIn(-1, 8))));
  return index;
}

void TestWritePathParity() {
  for (Dialect dialect : {Dialect::kSqliteFlex, Dialect::kMysqlLike,
                          Dialect::kPostgresStrict}) {
    for (uint64_t seed = 1; seed <= 12; ++seed) {
      minidb::Database plain(dialect);
      minidb::Database versioned(dialect);
      auto create = std::make_unique<CreateTableStmt>();
      create->table_name = "t";
      create->columns.resize(4);
      create->columns[0] = {"a", "INT", Affinity::kInteger, false, true,
                            false};
      create->columns[1] = {"b", "TEXT", Affinity::kText, true, false, false};
      create->columns[2] = {"c", "INT", Affinity::kInteger, false, false,
                            false};
      create->columns[3] = {"d", "INT", Affinity::kInteger, false, false,
                            false};
      CreateIndexStmt partial;
      partial.index_name = "p";
      partial.table_name = "t";
      partial.columns = {"c"};
      partial.unique = true;
      partial.where = MakeBinary(BinaryOp::kGt, MakeColumnRef("t", "c"),
                                 MakeLiteral(SqlValue::Int(0)));
      for (minidb::Database* db : {&plain, &versioned}) {
        CHECK(db->Execute(*create).ok());
        CHECK(db->Execute(partial).ok());
      }
      // An idle open transaction in session 1 holds `versioned` inside the
      // epoch; the stream runs in session 0 as autocommit statements.
      CHECK(Session(&versioned, 1).ok());
      CHECK(Begin(&versioned).ok());
      CHECK(Session(&versioned, 0).ok());

      Rng rng(seed);
      int next_index = 0;
      SelectStmt fetch = SelectAll("t");
      for (int i = 0; i < 60; ++i) {
        StmtPtr stmt = RandomWrite(&rng, &next_index);
        StatementResult a = plain.Execute(*stmt);
        StatementResult b = versioned.Execute(*stmt);
        std::string sql = RenderStmt(*stmt, dialect);
        bool same_outcome = a.status == b.status && a.error == b.error;
        CHECK_MSG(same_outcome,
                  "dialect %d seed %llu: %s -> plain %d '%s', epoch %d '%s'",
                  static_cast<int>(dialect),
                  static_cast<unsigned long long>(seed), sql.c_str(),
                  static_cast<int>(a.status), a.error.c_str(),
                  static_cast<int>(b.status), b.error.c_str());
        StatementResult rows_a = plain.Execute(fetch);
        StatementResult rows_b = versioned.Execute(fetch);
        CHECK(rows_a.ok() && rows_b.ok());
        bool same_rows = RowsKey(rows_a) == RowsKey(rows_b);
        CHECK_MSG(same_rows, "dialect %d seed %llu: tables differ after %s",
                  static_cast<int>(dialect),
                  static_cast<unsigned long long>(seed), sql.c_str());
        if (!same_outcome || !same_rows) break;  // the engines diverged
      }
      CHECK(versioned.in_mvcc_epoch());
    }
  }
}

// Inside the epoch TableRows is the committed state: the latest committed
// version of each row in position order, exactly what an autocommit
// session's SELECT * returns, with no tombstone and no open transaction's
// write in it.
void TestTableRowsInsideEpoch() {
  minidb::Database db(Dialect::kSqliteFlex);
  CHECK(db.Execute(*MakeTable("t")).ok());
  for (int64_t a = 1; a <= 5; ++a) {
    CHECK(db.Execute(*InsertRow("t", a, "v" + std::to_string(a))).ok());
  }
  // Session 0 holds an open transaction that inserted, updated and deleted.
  CHECK(Session(&db, 0).ok());
  CHECK(Begin(&db).ok());
  CHECK(db.Execute(*InsertRow("t", 6, "own")).ok());
  CHECK(db.Execute(*UpdateBWhereAEq("t", 1, "own")).ok());
  CHECK(db.Execute(*DeleteWhereAEq("t", 2)).ok());
  // Session 1 commits a transaction; session 2 commits autocommit DML.
  CHECK(Session(&db, 1).ok());
  CHECK(Begin(&db).ok());
  CHECK(db.Execute(*UpdateBWhereAEq("t", 3, "c1")).ok());
  CHECK(db.Execute(*InsertRow("t", 7, "c1")).ok());
  CHECK(Commit(&db).ok());
  CHECK(Session(&db, 2).ok());
  CHECK(db.Execute(*DeleteWhereAEq("t", 4)).ok());
  CHECK(db.Execute(*UpdateBWhereAEq("t", 5, "c2")).ok());
  CHECK(db.in_mvcc_epoch());

  auto as_result = [](const std::vector<std::vector<SqlValue>>* rows) {
    StatementResult r;
    if (rows != nullptr) r.rows = *rows;
    return r;
  };
  CHECK(Session(&db, 3).ok());
  StatementResult autocommit = db.Execute(SelectAll("t"));
  CHECK(autocommit.ok());
  CHECK_EQ(RowsKey(as_result(db.TableRows("t"))), RowsKey(autocommit));
  StatementResult expected;
  for (auto [a, b] : std::vector<std::pair<int64_t, std::string>>{
           {1, "v1"}, {2, "v2"}, {3, "c1"}, {5, "c2"}, {7, "c1"}}) {
    expected.rows.push_back({SqlValue::Int(a), SqlValue::Text(b)});
  }
  CHECK_EQ(RowsKey(autocommit), RowsKey(expected));
  CHECK(db.TableRows("missing") == nullptr);

  // Session 0's commit conflicts with session 1's on t; the engine leaves
  // the epoch and TableRows is the store again, in the same order.
  CHECK(Session(&db, 0).ok());
  CHECK(Commit(&db).status == StatementStatus::kTxnConflict);
  CHECK(!db.in_mvcc_epoch());
  CHECK_EQ(RowsKey(as_result(db.TableRows("t"))), RowsKey(expected));
}

// Regression (satellite 4): a reset must roll back transactions an aborted
// session left open, for MiniDB and for the real-sqlite adapter alike.
void TestResetWithOpenTransaction() {
  minidb::Database db(Dialect::kSqliteFlex);
  CHECK(db.Execute(*MakeTable("t")).ok());
  CHECK(Begin(&db).ok());
  CHECK(db.Execute(*InsertRow("t", 1, "a")).ok());
  CHECK_EQ(db.open_transactions(), size_t{1});
  CHECK(db.Reset());
  CHECK_EQ(db.open_transactions(), size_t{0});
  CHECK(!db.in_mvcc_epoch());
  // The reset engine is a fresh database: same DDL re-applies, and a new
  // transaction opens cleanly.
  CHECK(db.Execute(*MakeTable("t")).ok());
  CHECK(Begin(&db).ok());
  CHECK(Commit(&db).ok());
}

void TestSqliteResetWithOpenTransaction() {
  SqliteConnection conn;
  CHECK(conn.Execute(*MakeTable("t")).ok());
  CHECK(conn.Execute(*InsertRow("t", 1, "a")).ok());
  // Session markers are a no-op on the one-writer adapter.
  CHECK(Session(&conn, 3).ok());
  CHECK(Begin(&conn).ok());
  CHECK(conn.Execute(*InsertRow("t", 2, "b")).ok());
  // Simulates the reducer recycling a connection an aborted session left
  // mid-transaction: without the ROLLBACK-on-reset, the DROP TABLE teardown
  // would be rolled back with the transaction and the next session would
  // see stale objects.
  CHECK(conn.Reset());
  CHECK(conn.Execute(*MakeTable("t")).ok());  // name free again
  CHECK_EQ(RowCount(&conn, "t"), size_t{0});
  CHECK(Begin(&conn).ok());  // no transaction carried over
  CHECK(Rollback(&conn).ok());
}

// --- Direct hooks for the injected transaction bug classes. ------------

void TestLostUpdateHook() {
  for (bool buggy : {false, true}) {
    minidb::Database db(Dialect::kSqliteFlex,
                        buggy ? BugConfig::Single(BugId::kTxnLostUpdate)
                              : BugConfig());
    CHECK(db.Execute(*MakeTable("t")).ok());
    CHECK(db.Execute(*InsertRow("t", 1, "a")).ok());
    Session(&db, 0);
    CHECK(Begin(&db).ok());
    CHECK(db.Execute(*UpdateBWhereAEq("t", 1, "first")).ok());
    Session(&db, 1);
    CHECK(Begin(&db).ok());
    CHECK(db.Execute(*UpdateBWhereAEq("t", 1, "second")).ok());
    Session(&db, 0);
    CHECK(Commit(&db).ok());
    Session(&db, 1);
    StatementResult second = Commit(&db);
    if (buggy) {
      // Update-only write sets skip the conflict check: the second commit
      // silently overwrites the first (the classic lost update).
      CHECK(second.ok());
      StatementResult r = db.Execute(SelectWhereAEq("t", 1));
      CHECK(r.ok() && r.rows.size() == 1 && r.rows[0][1].t == "second");
    } else {
      CHECK(second.status == StatementStatus::kTxnConflict);
      StatementResult r = db.Execute(SelectWhereAEq("t", 1));
      CHECK(r.ok() && r.rows.size() == 1 && r.rows[0][1].t == "first");
    }
  }
}

void TestDirtyReadHook() {
  for (bool buggy : {false, true}) {
    minidb::Database db(Dialect::kMysqlLike,
                        buggy ? BugConfig::Single(BugId::kTxnDirtyRead)
                              : BugConfig());
    CHECK(db.Execute(*MakeTable("t")).ok());
    CHECK(db.Execute(*InsertRow("t", 1, "a")).ok());
    Session(&db, 0);
    CHECK(Begin(&db).ok());
    CHECK(db.Execute(*InsertRow("t", 2, "uncommitted")).ok());
    Session(&db, 1);
    CHECK(Begin(&db).ok());
    // Session 1's snapshot must not contain session 0's open insert; the
    // bug leaks it into the read image.
    CHECK_EQ(RowCount(&db, "t"), buggy ? size_t{2} : size_t{1});
    Commit(&db);
    Session(&db, 0);
    Rollback(&db);
  }
}

void TestWriteSkewHook() {
  for (bool buggy : {false, true}) {
    minidb::Database db(Dialect::kPostgresStrict,
                        buggy ? BugConfig::Single(BugId::kTxnWriteSkew)
                              : BugConfig());
    CHECK(db.Execute(*MakeTable("t")).ok());
    CHECK(db.Execute(*InsertRow("t", 1, "a")).ok());
    Session(&db, 0);
    CHECK(Begin(&db).ok());
    CHECK(db.Execute(*UpdateBWhereAEq("t", 1, "x")).ok());
    Session(&db, 1);
    CHECK(Begin(&db).ok());
    CHECK(db.Execute(*InsertRow("t", 2, "phantom")).ok());
    Session(&db, 0);
    CHECK(Commit(&db).ok());
    Session(&db, 1);
    StatementResult second = Commit(&db);
    if (buggy) {
      // Row-granular conflict detection under claimed SI: the second
      // transaction wrote no existing row, so its insert slips past the
      // first committer even though both wrote the same table.
      CHECK(second.ok());
    } else {
      CHECK(second.status == StatementStatus::kTxnConflict);
    }
  }
}

void TestRollbackStaleIndexHook() {
  for (bool buggy : {false, true}) {
    minidb::Database db(
        Dialect::kSqliteFlex,
        buggy ? BugConfig::Single(BugId::kTxnRollbackStaleIndex)
              : BugConfig());
    CHECK(db.Execute(*MakeTable("t")).ok());
    CreateIndexStmt index;
    index.index_name = "i0";
    index.table_name = "t";
    index.columns = {"a"};
    CHECK(db.Execute(index).ok());
    for (int64_t v = 1; v <= 4; ++v) {
      CHECK(db.Execute(*InsertRow("t", v, "r")).ok());
    }
    CHECK(Begin(&db).ok());
    CHECK(db.Execute(*DeleteWhereAEq("t", 2)).ok());
    CHECK(Rollback(&db).ok());
    CHECK(!db.in_mvcc_epoch());
    // The rollback must restore the index too. The bug rebuilds it from
    // the aborted transaction's overlay image, so the indexed probe loses
    // the row the transaction had deleted — while a full scan still
    // returns it (a containment violation, not a snapshot one).
    StatementResult probe = db.Execute(SelectWhereAEq("t", 2));
    CHECK(probe.ok());
    CHECK_EQ(probe.rows.size(), buggy ? size_t{0} : size_t{1});
    CHECK_EQ(RowCount(&db, "t"), size_t{4});
  }
}

void TestSnapshotUncommittedReadHook() {
  for (bool buggy : {false, true}) {
    minidb::Database db(
        Dialect::kMysqlLike,
        buggy ? BugConfig::Single(BugId::kTxnSnapshotUncommittedRead)
              : BugConfig());
    CHECK(db.Execute(*MakeTable("t")).ok());
    CHECK(db.Execute(*InsertRow("t", 1, "committed")).ok());
    Session(&db, 0);
    CHECK(Begin(&db).ok());
    CHECK_EQ(RowCount(&db, "t"), size_t{1});  // snapshot pinned
    Session(&db, 1);
    CHECK(Begin(&db).ok());
    CHECK(db.Execute(*UpdateBWhereAEq("t", 1, "pending")).ok());
    Session(&db, 0);
    StatementResult r = db.Execute(SelectWhereAEq("t", 1));
    CHECK(r.ok() && r.rows.size() == 1);
    // The bug substitutes the other transaction's pending (uncommitted)
    // version into session 0's snapshot read.
    CHECK_EQ(r.rows[0][1].t, std::string(buggy ? "pending" : "committed"));
    Rollback(&db);
    Session(&db, 1);
    Rollback(&db);
  }
}

// --- Runner-level properties. -----------------------------------------

RunnerOptions TxnRunnerOptions(uint64_t seed, int sessions, int databases,
                               int workers) {
  RunnerOptions options;
  options.seed = seed;
  options.databases = databases;
  options.queries_per_database = 5;
  options.workers = workers;
  options.gen.txn_sessions = sessions;
  return options;
}

// Clean engines across K interleaved sessions: the snapshot checks, the
// committed-state comparisons, and the index probes must all stay silent —
// the zero-false-positive property the transaction oracle rests on. Runs
// K ∈ {2, 3, 4} at the unit-test session length (5 queries/db, 2000
// sessions in all) and at the campaign one (25 queries/db, 4000 sessions
// per K): longer sessions interleave more commits between one
// transaction's statements, where a committed state rebuilt from replayed
// statements had diverged from the engine's.
void TestInterleavedCleanProperty() {
  struct KPlan {
    int sessions;
    int databases;
    int queries;
    uint64_t seed;
  };
  const KPlan plans[] = {{2, 700, 5, 4244},   {3, 700, 5, 4245},
                         {4, 600, 5, 4246},   {2, 4000, 25, 2502},
                         {3, 4000, 25, 2503}, {4, 4000, 25, 2504}};
  for (const KPlan& plan : plans) {
    RunnerOptions options = TxnRunnerOptions(plan.seed, plan.sessions,
                                             plan.databases, g_workers);
    options.queries_per_database = plan.queries;
    EngineFactory factory = []() -> ConnectionPtr {
      return std::make_unique<minidb::Database>(Dialect::kSqliteFlex);
    };
    PqsRunner runner(factory, options);
    RunReport report = runner.Run();
    CHECK_EQ(report.invalid_options, std::string());
    CHECK_MSG(report.findings.empty(),
              "K=%d, %d queries/db produced %zu false finding(s): %s",
              plan.sessions, plan.queries, report.findings.size(),
              report.findings.empty()
                  ? ""
                  : report.findings[0].message.c_str());
    // The schedule actually exercised the machinery.
    CHECK(report.stats.txn_begins > 0);
    CHECK(report.stats.txn_commits > 0);
    CHECK(report.stats.txn_rollbacks > 0);
    CHECK(report.stats.txn_snapshot_checks > 0);
    CHECK(report.stats.txn_serial_replays > 0);
    CHECK(report.stats.txn_conflicts > 0);  // contention is generated too
  }
}

// Everything a transaction-workload report asserts on, as one byte string.
std::string Fingerprint(const RunReport& r) {
  std::string out;
  auto num = [&out](uint64_t v) {
    out += std::to_string(v);
    out += '|';
  };
  RunStats::ForEachField(
      [&num](const char*, size_t width, const uint64_t* v) {
        for (size_t i = 0; i < width; ++i) num(v[i]);
      },
      r.stats);
  num(r.findings.size());
  for (const Finding& f : r.findings) {
    num(static_cast<uint64_t>(f.oracle));
    out += RenderScript(f.statements, Dialect::kSqliteFlex);
    out += '|';
  }
  return out;
}

// Same seed ⇒ byte-identical schedule and report, including across worker
// counts: the interleaving is a pure function of the shard plan's seeds.
void TestSeededInterleavingReplayIdentity() {
  auto run = [](int workers) {
    RunnerOptions options = TxnRunnerOptions(777, 3, 40, workers);
    EngineFactory factory = []() -> ConnectionPtr {
      return std::make_unique<minidb::Database>(
          Dialect::kSqliteFlex, BugConfig::Single(BugId::kTxnLostUpdate));
    };
    PqsRunner runner(factory, options);
    return runner.Run();
  };
  RunReport one = run(1);
  RunReport again = run(1);
  CHECK_EQ(Fingerprint(one), Fingerprint(again));
  for (int workers : {2, 4}) {
    CHECK_EQ(Fingerprint(one), Fingerprint(run(workers)));
  }
  // The buggy engine actually produced transaction findings to compare.
  CHECK(!one.findings.empty());
}

// Findings from the transaction branch carry flight-recorder provenance
// with the transaction lifecycle events in it.
void TestFlightRecorderCarriesTxnEvents() {
  RunnerOptions options = TxnRunnerOptions(777, 3, 40, 1);
  options.stop_on_first_finding = true;
  EngineFactory factory = []() -> ConnectionPtr {
    return std::make_unique<minidb::Database>(
        Dialect::kSqliteFlex, BugConfig::Single(BugId::kTxnLostUpdate));
  };
  PqsRunner runner(factory, options);
  RunReport report = runner.Run();
  CHECK(!report.findings.empty());
  if (report.findings.empty()) return;
  const Finding& finding = report.findings.front();
  CHECK(!finding.flight.empty());
  bool saw_begin = false;
  bool saw_resolution = false;  // commit or abort
  for (const obs::FlightEvent& e : finding.flight) {
    saw_begin |= e.kind == obs::EventKind::kTxnBegin;
    saw_resolution |= e.kind == obs::EventKind::kTxnCommit ||
                      e.kind == obs::EventKind::kTxnAbort;
  }
  CHECK(saw_begin);
  CHECK(saw_resolution);
  // The merged report carries the runner-side transaction tallies.
  CHECK(report.stats.txn_begins > 0);
  CHECK(report.stats.txn_commits > 0);
}

// Every injected transaction bug is detected within HuntBug's default
// database budget on each of 40 campaign seeds, firing the oracle its
// registry entry declares, and every raw finding reproduces against a
// clean reference, the reducer's definition of a finding. Seed 99 also
// reduces a lost-update finding.
void TestHuntBugDetectsTransactionBugs() {
  const BugId bugs[] = {
      BugId::kTxnLostUpdate,         BugId::kTxnDirtyRead,
      BugId::kTxnWriteSkew,          BugId::kTxnRollbackStaleIndex,
      BugId::kTxnSnapshotUncommittedRead,
  };
  for (BugId bug : bugs) {
    const minidb::BugInfo& info = minidb::LookupBug(bug);
    Dialect dialect = info.dialect;
    EngineFactory buggy = [dialect, bug]() -> ConnectionPtr {
      return std::make_unique<minidb::Database>(dialect,
                                                BugConfig::Single(bug));
    };
    EngineFactory reference = [dialect]() -> ConnectionPtr {
      return std::make_unique<minidb::Database>(dialect);
    };
    for (uint64_t seed = 5001; seed <= 5040; ++seed) {
      CampaignOptions options;  // default 480-database budget
      options.seed = seed;
      options.workers = g_workers;
      options.reduce = false;
      BugHuntResult result = HuntBug(bug, options);
      CHECK_MSG(result.detected, "bug %s seed %llu: not detected within %d "
                "databases", info.name, static_cast<unsigned long long>(seed),
                options.databases_per_bug);
      if (!result.detected) continue;
      CHECK_MSG(result.oracle == info.oracle,
                "bug %s seed %llu fired oracle %s, registry declares %s",
                info.name, static_cast<unsigned long long>(seed),
                OracleName(result.oracle), OracleName(info.oracle));
      CHECK_MSG(FindingReproduces(buggy, result.reduced, &reference),
                "bug %s seed %llu: %s finding does not reproduce against a "
                "clean reference: %s",
                info.name, static_cast<unsigned long long>(seed),
                OracleName(result.oracle), result.reduced.message.c_str());
    }
  }
  CampaignOptions options;
  options.seed = 99;
  options.workers = g_workers;
  BugHuntResult reduced = HuntBug(BugId::kTxnLostUpdate, options);
  CHECK(reduced.detected);
  CHECK(reduced.oracle == minidb::LookupBug(BugId::kTxnLostUpdate).oracle);
  CHECK(!reduced.reduced.statements.empty());
}

// The scheduler's flat stream: with K > 1 sessions every NextBatch is the
// interleaved transaction stream with a SetSessionStmt before each
// statement whose session differs from the previous one's, counted from
// the model's active session. Executed on the model, no marker names the
// session already active and no two markers are adjacent. With K = 1 the
// batches are plain mutations: no transaction statement and no marker.
void TestSchedulerFlatStream() {
  for (int sessions : {1, 2, 3, 4}) {
    size_t begins = 0, commits = 0, rollbacks = 0, markers = 0;
    for (uint64_t seed = 1; seed <= 200; ++seed) {
      Rng rng(Rng::StreamSeed(seed, static_cast<uint64_t>(sessions)));
      GeneratorOptions gen;
      gen.txn_sessions = sessions;
      Generator generator(gen, Dialect::kSqliteFlex);
      DatabasePlan plan = generator.GenerateDatabase(&rng);
      minidb::Database model(Dialect::kSqliteFlex);
      ActionScheduler scheduler(&generator, sessions, &plan, &model);
      for (const StmtPtr& stmt : plan.statements) model.Execute(*stmt);
      for (int q = 0; q < 8; ++q) {
        bool after_marker = false;
        for (const StmtPtr& stmt : scheduler.NextBatch(&rng)) {
          StmtKind kind = stmt->kind();
          begins += kind == StmtKind::kBegin;
          commits += kind == StmtKind::kCommit;
          rollbacks += kind == StmtKind::kRollback;
          if (kind == StmtKind::kSetSession) {
            ++markers;
            int next = static_cast<const SetSessionStmt&>(*stmt).session;
            CHECK_MSG(next != model.active_session(),
                      "K=%d seed %llu: marker names the active session %d",
                      sessions, static_cast<unsigned long long>(seed), next);
            CHECK_MSG(!after_marker, "K=%d seed %llu: adjacent markers",
                      sessions, static_cast<unsigned long long>(seed));
          }
          after_marker = kind == StmtKind::kSetSession;
          model.Execute(*stmt);
        }
      }
    }
    if (sessions == 1) {
      CHECK_EQ(begins + commits + rollbacks + markers, size_t{0});
    } else {
      CHECK(begins > 0 && commits > 0 && rollbacks > 0 && markers > 0);
    }
  }
}

// --- Differential sweep against real sqlite3 (always on when the build
// --- has libsqlite3). The interleaved schedule is replayed *serially*
// --- through one connection — SQLite's one-writer model — and MiniDB,
// --- fed the identical flat stream, must agree on every statement's
// --- outcome class and on the final committed state. ------------------

enum class OutcomeClass { kOk, kConstraint, kError };

OutcomeClass Classify(const StatementResult& r) {
  if (r.ok()) return OutcomeClass::kOk;
  if (r.status == StatementStatus::kConstraintViolation) {
    return OutcomeClass::kConstraint;
  }
  return OutcomeClass::kError;
}

void TestDifferentialTxnSweepVsSqlite() {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    GeneratorOptions gen;
    gen.txn_sessions = 3;  // richer BEGIN/COMMIT/ROLLBACK mix
    Generator generator(gen, Dialect::kSqliteFlex);
    DatabasePlan plan = generator.GenerateDatabase(&rng);
    SqliteConnection real;
    minidb::Database mini(Dialect::kSqliteFlex);
    ActionScheduler scheduler(&generator, gen.txn_sessions, &plan, &mini);
    for (const StmtPtr& stmt : plan.statements) {
      StatementResult a = real.Execute(*stmt);
      StatementResult b = mini.Execute(*stmt);
      CHECK_MSG(Classify(a) == Classify(b),
                "seed %llu setup outcome diverged on %s",
                static_cast<unsigned long long>(seed),
                RenderStmt(*stmt, Dialect::kSqliteFlex).c_str());
    }

    // Serial replay: the flat stream, session markers dropped. A BEGIN
    // landing inside the open transaction errors identically on both
    // engines; COMMIT/ROLLBACK pair up the same way.
    bool in_txn = false;
    for (int q = 0; q < 8; ++q) {
      for (const StmtPtr& stmt : scheduler.NextBatch(&rng)) {
        if (stmt->kind() == StmtKind::kSetSession) continue;
        StatementResult a = real.Execute(*stmt);
        StatementResult b = mini.Execute(*stmt);
        CHECK_MSG(Classify(a) == Classify(b),
                  "seed %llu stream outcome diverged (%d vs %d) on %s",
                  static_cast<unsigned long long>(seed),
                  static_cast<int>(a.status), static_cast<int>(b.status),
                  RenderStmt(*stmt, Dialect::kSqliteFlex).c_str());
        if (b.ok()) {
          if (stmt->kind() == StmtKind::kBegin) in_txn = true;
          if (stmt->kind() == StmtKind::kCommit ||
              stmt->kind() == StmtKind::kRollback) {
            in_txn = false;
          }
        }
      }
    }
    if (in_txn) {
      CHECK(Commit(&real).ok());
      CHECK(Commit(&mini).ok());
    }
    for (const TableSchema& table : plan.tables) {
      SelectStmt fetch = SelectAll(table.name);
      StatementResult a = real.Execute(fetch);
      StatementResult b = mini.Execute(fetch);
      CHECK(a.ok() && b.ok());
      CHECK_MSG(SameRowMultiset(a.rows, b.rows),
                "seed %llu: table %s diverged after serial transaction "
                "replay (sqlite %zu rows, minidb %zu rows)",
                static_cast<unsigned long long>(seed), table.name.c_str(),
                a.rows.size(), b.rows.size());
    }
  }
}

}  // namespace
}  // namespace pqs

int main(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--workers") == 0) {
      pqs::g_workers = std::atoi(argv[i + 1]);
      if (pqs::g_workers < 1) pqs::g_workers = 1;
    }
  }
  pqs::TestBeginCommitVisibility();
  pqs::TestRollbackDiscards();
  pqs::TestTransactionStatementErrors();
  pqs::TestFirstCommitterWins();
  pqs::TestAutocommitDuringEpoch();
  pqs::TestCreateUniqueIndexIgnoresTombstones();
  pqs::TestWritePathParity();
  pqs::TestTableRowsInsideEpoch();
  pqs::TestResetWithOpenTransaction();
  pqs::TestSqliteResetWithOpenTransaction();
  pqs::TestLostUpdateHook();
  pqs::TestDirtyReadHook();
  pqs::TestWriteSkewHook();
  pqs::TestRollbackStaleIndexHook();
  pqs::TestSnapshotUncommittedReadHook();
  pqs::TestInterleavedCleanProperty();
  pqs::TestSeededInterleavingReplayIdentity();
  pqs::TestFlightRecorderCarriesTxnEvents();
  pqs::TestHuntBugDetectsTransactionBugs();
  pqs::TestSchedulerFlatStream();
  pqs::TestDifferentialTxnSweepVsSqlite();
  return pqs::test::Summary("test_txn_mvcc");
}
