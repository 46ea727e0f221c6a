// PR-6 metamorphic oracle subsystem: NoREC/TLP transform units per dialect,
// TLP plan classification and rejections, the shared grouping/aggregation
// core's engine-level semantics, direct hooks for the six aggregation-
// pipeline bug classes, oracle-level verdicts, default-budget campaign
// detection (every new bug must fall to its intended TLP finder), a
// partition-equivalence property on clean engines, N-worker determinism of
// the new per-oracle RunStats counters, and an always-on differential sweep
// of >= 10k generated aggregate queries against real sqlite3.
//
// Accepts `--workers N` (the CI ThreadSanitizer job passes 4); every
// property is worker-count-invariant.
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/interp/eval.h"
#include "src/minidb/bug_registry.h"
#include "src/minidb/database.h"
#include "src/pqs/campaign.h"
#include "src/pqs/runner.h"
#include "src/sqlite3db/sqlite_connection.h"
#include "src/sqlmeta/oracle.h"
#include "src/sqlmeta/transform.h"
#include "src/sqlparser/render.h"
#include "tests/test_util.h"

namespace pqs {
namespace {

int property_workers = 1;

const Dialect kAllDialects[] = {Dialect::kSqliteFlex, Dialect::kMysqlLike,
                                Dialect::kPostgresStrict};

// ---------------------------------------------------------------------------
// Hand-built statement helpers
// ---------------------------------------------------------------------------

ColumnDef Column(const std::string& name, Affinity affinity) {
  ColumnDef def;
  def.name = name;
  def.affinity = affinity;
  def.declared_type = affinity == Affinity::kInteger
                          ? "INT"
                          : (affinity == Affinity::kReal ? "REAL" : "TEXT");
  return def;
}

void MakeTable(Connection* db, const std::string& name,
               std::vector<ColumnDef> columns) {
  CreateTableStmt ct;
  ct.table_name = name;
  ct.columns = std::move(columns);
  CHECK(db->Execute(ct).ok());
}

void InsertRow(Connection* db, const std::string& table,
               std::vector<ExprPtr> values) {
  InsertStmt ins;
  ins.table_name = table;
  ins.rows.push_back(std::move(values));
  CHECK(db->Execute(ins).ok());
}

std::vector<ExprPtr> Row1(ExprPtr a) {
  std::vector<ExprPtr> row;
  row.push_back(std::move(a));
  return row;
}

std::vector<ExprPtr> Row2(ExprPtr a, ExprPtr b) {
  std::vector<ExprPtr> row;
  row.push_back(std::move(a));
  row.push_back(std::move(b));
  return row;
}

// `SELECT <items> FROM <table> [WHERE] [GROUP BY keys] [HAVING]`.
std::unique_ptr<SelectStmt> MakeSelect(const std::string& table,
                                       std::vector<ExprPtr> items,
                                       ExprPtr where = nullptr,
                                       std::vector<ExprPtr> group_by = {},
                                       ExprPtr having = nullptr) {
  auto q = std::make_unique<SelectStmt>();
  q->from_tables.push_back(table);
  q->select_list = std::move(items);
  q->where = std::move(where);
  q->group_by = std::move(group_by);
  q->having = std::move(having);
  return q;
}

ExprPtr CountStar() {
  ExprPtr e = MakeAggregate(AggFunc::kCount, nullptr, false);
  e->agg_star = true;
  return e;
}

// Executes a query that must succeed; returns its rows.
std::vector<std::vector<SqlValue>> Rows(Connection* db, const SelectStmt& q) {
  StatementResult r = db->Execute(q);
  CHECK_MSG(r.ok(), "query failed (%s): %s",
            RenderStmt(q, db->dialect()).c_str(), r.error.c_str());
  return r.rows;
}

// Asserts a 1x1 result equal to `want` (NULL compares to NULL).
void CellEquals(Connection* db, const SelectStmt& q, const SqlValue& want) {
  std::vector<std::vector<SqlValue>> rows = Rows(db, q);
  CHECK_EQ(rows.size(), static_cast<size_t>(1));
  if (rows.size() != 1 || rows[0].size() != 1) return;
  const SqlValue& got = rows[0][0];
  bool same = (want.is_null() && got.is_null()) ||
              (!want.is_null() && !got.is_null() && ValueEquals(got, want));
  CHECK_MSG(same, "%s: got %s, want %s", RenderStmt(q, db->dialect()).c_str(),
            got.ToDisplay().c_str(), want.ToDisplay().c_str());
}

// ---------------------------------------------------------------------------
// NoREC / TLP transforms (pure AST, checked through the renderer)
// ---------------------------------------------------------------------------

void TestNorecTransformUnits() {
  ExprPtr pred = MakeBinary(BinaryOp::kGt, MakeColumnRef("t0", "c0"),
                            MakeIntLiteral(2));
  auto optimized = sqlmeta::NorecOptimized("t0", *pred);
  auto unoptimized = sqlmeta::NorecUnoptimized("t0", *pred);

  CHECK(optimized->HasAggregates());
  CHECK(optimized->where != nullptr);
  CHECK(!unoptimized->HasAggregates());
  CHECK(unoptimized->where == nullptr);
  CHECK_EQ(unoptimized->select_list.size(), static_cast<size_t>(1));

  for (Dialect d : kAllDialects) {
    std::string opt_sql = RenderStmt(*optimized, d);
    CHECK_MSG(opt_sql.find("COUNT(*)") != std::string::npos, "%s",
              opt_sql.c_str());
    CHECK_MSG(opt_sql.find("WHERE") != std::string::npos, "%s",
              opt_sql.c_str());
    std::string unopt_sql = RenderStmt(*unoptimized, d);
    CHECK_MSG(unopt_sql.find("WHERE") == std::string::npos, "%s",
              unopt_sql.c_str());
    CHECK_MSG(unopt_sql.find("COUNT") == std::string::npos, "%s",
              unopt_sql.c_str());
    // The predicate itself must appear verbatim as the projection.
    CHECK_MSG(unopt_sql.find(RenderExpr(*pred, d)) != std::string::npos, "%s",
              unopt_sql.c_str());
  }
}

void TestTlpPartitionPredicates() {
  ExprPtr pred = MakeBinary(BinaryOp::kLe, MakeColumnRef("t0", "c0"),
                            MakeIntLiteral(0));
  std::vector<ExprPtr> parts = sqlmeta::TlpPartitionPredicates(*pred);
  CHECK_EQ(parts.size(), static_cast<size_t>(3));
  for (Dialect d : kAllDialects) {
    std::string p0 = RenderExpr(*parts[0], d);
    std::string p1 = RenderExpr(*parts[1], d);
    std::string p2 = RenderExpr(*parts[2], d);
    CHECK_EQ(p0, RenderExpr(*pred, d));
    CHECK_MSG(p1.find("NOT") != std::string::npos, "%s", p1.c_str());
    CHECK_MSG(p2.find("IS NULL") != std::string::npos, "%s", p2.c_str());
    // The IS NULL partition must cover the whole predicate, not a subterm.
    CHECK_MSG(p2.find(p0) != std::string::npos, "%s", p2.c_str());
  }
}

void TestTlpPlanShapes() {
  ExprPtr pred = MakeBinary(BinaryOp::kGe, MakeColumnRef("t0", "c0"),
                            MakeIntLiteral(1));
  std::string error;

  // Plain SELECT * → kRows: three WHERE'd clones of the full query.
  {
    auto q = MakeSelect("t0", {});
    sqlmeta::TlpPlan plan;
    CHECK_MSG(sqlmeta::BuildTlpPlan(*q, *pred, &plan, &error), "%s",
              error.c_str());
    CHECK(plan.shape == sqlmeta::TlpShape::kRows);
    CHECK_EQ(plan.partitions.size(), static_cast<size_t>(3));
    for (const auto& p : plan.partitions) {
      CHECK(p->where != nullptr);
    }
    CHECK_EQ(std::string(sqlmeta::TlpShapeName(plan.shape)),
             std::string("rows"));
  }

  // Global aggregates → kAggregate; AVG decomposes into SUM + COUNT.
  {
    auto q = MakeSelect(
        "t0", Row2(MakeAggregate(AggFunc::kAvg, MakeColumnRef("t0", "c0"),
                                 false),
                   CountStar()));
    sqlmeta::TlpPlan plan;
    CHECK_MSG(sqlmeta::BuildTlpPlan(*q, *pred, &plan, &error), "%s",
              error.c_str());
    CHECK(plan.shape == sqlmeta::TlpShape::kAggregate);
    CHECK_EQ(plan.group_cols, 0);
    CHECK_EQ(plan.aggs.size(), static_cast<size_t>(2));
    CHECK(plan.aggs[0].count_index >= 0);  // AVG carries a COUNT partial
    CHECK(plan.aggs[1].count_index < 0);
    // Partition select lists hold the decomposed partials: SUM + COUNT for
    // the AVG, plus the COUNT(*) itself.
    CHECK_EQ(plan.partitions[0]->select_list.size(), static_cast<size_t>(3));
  }

  // COUNT(DISTINCT c) → kCountDistinct: partitions project DISTINCT c.
  {
    auto q = MakeSelect(
        "t0", Row1(MakeAggregate(AggFunc::kCount, MakeColumnRef("t0", "c0"),
                                 /*distinct=*/true)));
    sqlmeta::TlpPlan plan;
    CHECK_MSG(sqlmeta::BuildTlpPlan(*q, *pred, &plan, &error), "%s",
              error.c_str());
    CHECK(plan.shape == sqlmeta::TlpShape::kCountDistinct);
    for (const auto& p : plan.partitions) {
      CHECK(p->distinct);
      CHECK(!p->HasAggregates());
    }
  }

  // GROUP BY + HAVING → kGroupBy: partitions keep the grouping but shed
  // the HAVING (the oracle re-applies it on recombined aggregates).
  {
    auto q = MakeSelect(
        "t0",
        Row2(MakeColumnRef("t0", "c1"),
             MakeAggregate(AggFunc::kSum, MakeColumnRef("t0", "c0"), false)),
        nullptr, Row1(MakeColumnRef("t0", "c1")),
        MakeBinary(BinaryOp::kGe, CountStar(), MakeIntLiteral(2)));
    sqlmeta::TlpPlan plan;
    CHECK_MSG(sqlmeta::BuildTlpPlan(*q, *pred, &plan, &error), "%s",
              error.c_str());
    CHECK(plan.shape == sqlmeta::TlpShape::kGroupBy);
    CHECK_EQ(plan.group_cols, 1);
    // SUM from the select list + the COUNT(*) discovered in HAVING.
    CHECK_EQ(plan.aggs.size(), static_cast<size_t>(2));
    for (const auto& p : plan.partitions) {
      CHECK_EQ(p->group_by.size(), static_cast<size_t>(1));
      CHECK(p->having == nullptr);
    }
  }
}

void TestTlpPlanRejections() {
  ExprPtr pred = MakeBinary(BinaryOp::kGe, MakeColumnRef("t0", "c0"),
                            MakeIntLiteral(1));
  std::string error;
  sqlmeta::TlpPlan plan;

  auto rejected = [&](std::unique_ptr<SelectStmt> q) {
    error.clear();
    bool ok = sqlmeta::BuildTlpPlan(*q, *pred, &plan, &error);
    CHECK(!ok);
    CHECK(!error.empty());
  };

  // Multi-table FROM.
  {
    auto q = MakeSelect("t0", {});
    q->from_tables.push_back("t1");
    rejected(std::move(q));
  }
  // DISTINCT.
  {
    auto q = MakeSelect("t0", {});
    q->distinct = true;
    rejected(std::move(q));
  }
  // ORDER BY (row order is not a multiset property).
  {
    auto q = MakeSelect("t0", {});
    q->order_by.emplace_back();
    q->order_by.back().expr = MakeColumnRef("t0", "c0");
    rejected(std::move(q));
  }
  // LIMIT.
  {
    auto q = MakeSelect("t0", {});
    q->limit = 3;
    rejected(std::move(q));
  }
  // A non-aggregate, non-group-key select item next to an aggregate: the
  // recombined output row cannot be reconstructed from the group key.
  rejected(MakeSelect(
      "t0", Row2(MakeIntLiteral(7),
                 MakeAggregate(AggFunc::kSum, MakeColumnRef("t0", "c0"),
                               false))));

  // An aggregate-free explicit projection is NOT rejected: it is the
  // plain kRows shape (partition the projected rows, union multisets).
  {
    auto q = MakeSelect("t0", Row1(MakeColumnRef("t0", "c0")));
    error.clear();
    CHECK_MSG(sqlmeta::BuildTlpPlan(*q, *pred, &plan, &error), "%s",
              error.c_str());
    CHECK(plan.shape == sqlmeta::TlpShape::kRows);
  }
}

// ---------------------------------------------------------------------------
// Shared grouping/aggregation core: engine-level semantics (clean engines)
// ---------------------------------------------------------------------------

void TestAggregateExecutionUnits() {
  minidb::Database db(Dialect::kSqliteFlex);
  MakeTable(&db, "t0", {Column("a", Affinity::kInteger),
                        Column("g", Affinity::kInteger)});

  auto agg_a = [](AggFunc f) {
    return MakeAggregate(f, MakeColumnRef("t0", "a"), false);
  };

  // Empty input: COUNT(*) is 0, the value aggregates are NULL.
  CellEquals(&db, *MakeSelect("t0", Row1(CountStar())), SqlValue::Int(0));
  CellEquals(&db, *MakeSelect("t0", Row1(agg_a(AggFunc::kSum))),
             SqlValue::Null());
  CellEquals(&db, *MakeSelect("t0", Row1(agg_a(AggFunc::kMin))),
             SqlValue::Null());

  InsertRow(&db, "t0", Row2(MakeIntLiteral(1), MakeIntLiteral(1)));
  InsertRow(&db, "t0", Row2(MakeIntLiteral(2), MakeIntLiteral(1)));
  InsertRow(&db, "t0", Row2(MakeNullLiteral(), MakeIntLiteral(2)));
  InsertRow(&db, "t0", Row2(MakeIntLiteral(1), MakeIntLiteral(2)));

  // NULLs: counted by COUNT(*), skipped by every value aggregate.
  CellEquals(&db, *MakeSelect("t0", Row1(CountStar())), SqlValue::Int(4));
  CellEquals(&db, *MakeSelect("t0", Row1(agg_a(AggFunc::kCount))),
             SqlValue::Int(3));
  CellEquals(&db, *MakeSelect("t0", Row1(agg_a(AggFunc::kSum))),
             SqlValue::Int(4));
  CellEquals(&db, *MakeSelect("t0", Row1(agg_a(AggFunc::kMin))),
             SqlValue::Int(1));
  CellEquals(&db, *MakeSelect("t0", Row1(agg_a(AggFunc::kMax))),
             SqlValue::Int(2));
  // All-integer AVG is still real division.
  CellEquals(&db, *MakeSelect("t0", Row1(agg_a(AggFunc::kAvg))),
             SqlValue::Real(4.0 / 3.0));
  // COUNT(DISTINCT a): {1, 2}, the NULL excluded.
  CellEquals(&db,
             *MakeSelect("t0", Row1(MakeAggregate(AggFunc::kCount,
                                                  MakeColumnRef("t0", "a"),
                                                  /*distinct=*/true))),
             SqlValue::Int(2));

  // GROUP BY with a NULL key: NULLs form one group (grouping equality,
  // not SQL `=`).
  MakeTable(&db, "t1", {Column("g", Affinity::kInteger),
                        Column("v", Affinity::kInteger)});
  InsertRow(&db, "t1", Row2(MakeIntLiteral(1), MakeIntLiteral(10)));
  InsertRow(&db, "t1", Row2(MakeIntLiteral(1), MakeIntLiteral(20)));
  InsertRow(&db, "t1", Row2(MakeNullLiteral(), MakeIntLiteral(5)));
  InsertRow(&db, "t1", Row2(MakeNullLiteral(), MakeIntLiteral(7)));
  {
    auto q = MakeSelect(
        "t1",
        Row2(MakeColumnRef("t1", "g"),
             MakeAggregate(AggFunc::kSum, MakeColumnRef("t1", "v"), false)),
        nullptr, Row1(MakeColumnRef("t1", "g")));
    std::vector<std::vector<SqlValue>> want;
    want.push_back({SqlValue::Int(1), SqlValue::Int(30)});
    want.push_back({SqlValue::Null(), SqlValue::Int(12)});
    CHECK(SameRowMultiset(Rows(&db, *q), want));
  }
  // HAVING filters whole groups on their true aggregates.
  {
    auto q = MakeSelect(
        "t1",
        Row2(MakeColumnRef("t1", "g"),
             MakeAggregate(AggFunc::kSum, MakeColumnRef("t1", "v"), false)),
        nullptr, Row1(MakeColumnRef("t1", "g")),
        MakeBinary(BinaryOp::kGe,
                   MakeAggregate(AggFunc::kSum, MakeColumnRef("t1", "v"),
                                 false),
                   MakeIntLiteral(20)));
    std::vector<std::vector<SqlValue>> want;
    want.push_back({SqlValue::Int(1), SqlValue::Int(30)});
    CHECK(SameRowMultiset(Rows(&db, *q), want));
  }

  // 1 and 1.0 collide under DISTINCT (storage-numeric equality).
  minidb::Database rdb(Dialect::kSqliteFlex);
  MakeTable(&rdb, "t0", {Column("r", Affinity::kReal)});
  InsertRow(&rdb, "t0", Row1(MakeRealLiteral(1.0)));
  InsertRow(&rdb, "t0", Row1(MakeIntLiteral(1)));
  InsertRow(&rdb, "t0", Row1(MakeRealLiteral(2.5)));
  CellEquals(&rdb,
             *MakeSelect("t0", Row1(MakeAggregate(AggFunc::kCount,
                                                  MakeColumnRef("t0", "r"),
                                                  /*distinct=*/true))),
             SqlValue::Int(2));

  // Strict dialect: SUM over a text column is a static type error.
  minidb::Database strict(Dialect::kPostgresStrict);
  MakeTable(&strict, "t0", {Column("s", Affinity::kText)});
  InsertRow(&strict, "t0", Row1(MakeTextLiteral("x")));
  {
    auto q = MakeSelect(
        "t0", Row1(MakeAggregate(AggFunc::kSum, MakeColumnRef("t0", "s"),
                                 false)));
    StatementResult r = strict.Execute(*q);
    CHECK(!r.ok());
    CHECK_EQ(static_cast<int>(r.status),
             static_cast<int>(StatementStatus::kError));
  }
}

// ---------------------------------------------------------------------------
// The six injected aggregation-pipeline bugs, hooked directly
// ---------------------------------------------------------------------------

void TestAggregateBugHooksDirect() {
  // agg-empty-group-zero (sqlite): SUM/MIN/MAX over empty input → 0.
  {
    minidb::Database clean(Dialect::kSqliteFlex);
    minidb::Database buggy(Dialect::kSqliteFlex,
                           BugConfig::Single(BugId::kAggEmptyGroupZero));
    for (minidb::Database* db : {&clean, &buggy}) {
      MakeTable(db, "t0", {Column("a", Affinity::kInteger)});
    }
    auto q = MakeSelect(
        "t0", Row1(MakeAggregate(AggFunc::kMin, MakeColumnRef("t0", "a"),
                                 false)));
    CellEquals(&clean, *q, SqlValue::Null());
    CellEquals(&buggy, *q, SqlValue::Int(0));
  }

  // sum-overflow-wrap (sqlite): integer SUM wraps once past 25.
  {
    minidb::Database clean(Dialect::kSqliteFlex);
    minidb::Database buggy(Dialect::kSqliteFlex,
                           BugConfig::Single(BugId::kSumOverflowWrap));
    for (minidb::Database* db : {&clean, &buggy}) {
      MakeTable(db, "t0", {Column("a", Affinity::kInteger)});
      for (int i = 0; i < 4; ++i) {
        InsertRow(db, "t0", Row1(MakeIntLiteral(9)));
      }
    }
    auto q = MakeSelect(
        "t0", Row1(MakeAggregate(AggFunc::kSum, MakeColumnRef("t0", "a"),
                                 false)));
    CellEquals(&clean, *q, SqlValue::Int(36));
    CellEquals(&buggy, *q, SqlValue::Int(36 - 51));
  }

  // avg-integer-div (mysql): all-integer AVG truncates.
  {
    minidb::Database clean(Dialect::kMysqlLike);
    minidb::Database buggy(Dialect::kMysqlLike,
                           BugConfig::Single(BugId::kAvgIntegerDiv));
    for (minidb::Database* db : {&clean, &buggy}) {
      MakeTable(db, "t0", {Column("a", Affinity::kInteger)});
      InsertRow(db, "t0", Row1(MakeIntLiteral(1)));
      InsertRow(db, "t0", Row1(MakeIntLiteral(2)));
    }
    auto q = MakeSelect(
        "t0", Row1(MakeAggregate(AggFunc::kAvg, MakeColumnRef("t0", "a"),
                                 false)));
    CellEquals(&clean, *q, SqlValue::Real(1.5));
    CellEquals(&buggy, *q, SqlValue::Int(1));
  }

  // count-distinct-dup (mysql): COUNT(DISTINCT) counts duplicates.
  {
    minidb::Database clean(Dialect::kMysqlLike);
    minidb::Database buggy(Dialect::kMysqlLike,
                           BugConfig::Single(BugId::kCountDistinctDup));
    for (minidb::Database* db : {&clean, &buggy}) {
      MakeTable(db, "t0", {Column("a", Affinity::kInteger)});
      InsertRow(db, "t0", Row1(MakeIntLiteral(1)));
      InsertRow(db, "t0", Row1(MakeIntLiteral(1)));
      InsertRow(db, "t0", Row1(MakeIntLiteral(2)));
    }
    auto q = MakeSelect(
        "t0", Row1(MakeAggregate(AggFunc::kCount, MakeColumnRef("t0", "a"),
                                 /*distinct=*/true)));
    CellEquals(&clean, *q, SqlValue::Int(2));
    CellEquals(&buggy, *q, SqlValue::Int(3));
  }

  // having-before-group (postgres): HAVING aggregates see only the group's
  // first row, so a group that earns its keep on later rows is dropped.
  {
    minidb::Database clean(Dialect::kPostgresStrict);
    minidb::Database buggy(Dialect::kPostgresStrict,
                           BugConfig::Single(BugId::kHavingBeforeGroup));
    for (minidb::Database* db : {&clean, &buggy}) {
      MakeTable(db, "t0", {Column("g", Affinity::kInteger),
                           Column("v", Affinity::kInteger)});
      InsertRow(db, "t0", Row2(MakeIntLiteral(1), MakeIntLiteral(7)));
      InsertRow(db, "t0", Row2(MakeIntLiteral(1), MakeIntLiteral(8)));
      InsertRow(db, "t0", Row2(MakeIntLiteral(2), MakeIntLiteral(9)));
    }
    auto q = MakeSelect(
        "t0", Row2(MakeColumnRef("t0", "g"), CountStar()), nullptr,
        Row1(MakeColumnRef("t0", "g")),
        MakeBinary(BinaryOp::kGe, CountStar(), MakeIntLiteral(2)));
    std::vector<std::vector<SqlValue>> want;
    want.push_back({SqlValue::Int(1), SqlValue::Int(2)});
    CHECK(SameRowMultiset(Rows(&clean, *q), want));
    CHECK(Rows(&buggy, *q).empty());
  }

  // tlp-null-partition-drop (postgres): an aggregate query whose WHERE is
  // a bare top-level IS NULL loses every matching row — the exact shape of
  // TLP's third partition.
  {
    minidb::Database clean(Dialect::kPostgresStrict);
    minidb::Database buggy(Dialect::kPostgresStrict,
                           BugConfig::Single(BugId::kTlpNullPartitionDrop));
    for (minidb::Database* db : {&clean, &buggy}) {
      MakeTable(db, "t0", {Column("a", Affinity::kInteger)});
      InsertRow(db, "t0", Row1(MakeIntLiteral(1)));
      InsertRow(db, "t0", Row1(MakeNullLiteral()));
      InsertRow(db, "t0", Row1(MakeIntLiteral(2)));
    }
    auto q = MakeSelect(
        "t0", Row1(CountStar()),
        MakeIsNull(MakeBinary(BinaryOp::kGt, MakeColumnRef("t0", "a"),
                              MakeIntLiteral(1)),
                   /*negated=*/false));
    CellEquals(&clean, *q, SqlValue::Int(1));
    CellEquals(&buggy, *q, SqlValue::Int(0));
  }
}

// ---------------------------------------------------------------------------
// Oracle-level verdicts: RunNorecCheck / RunTlpCheck against live engines
// ---------------------------------------------------------------------------

void TestNorecOracleVerdicts() {
  // Clean engine: agreement.
  {
    minidb::Database db(Dialect::kSqliteFlex);
    MakeTable(&db, "t0", {Column("a", Affinity::kInteger)});
    InsertRow(&db, "t0", Row1(MakeIntLiteral(1)));
    InsertRow(&db, "t0", Row1(MakeNullLiteral()));
    InsertRow(&db, "t0", Row1(MakeIntLiteral(3)));
    ExprPtr pred = MakeBinary(BinaryOp::kGt, MakeColumnRef("t0", "a"),
                              MakeIntLiteral(1));
    sqlmeta::MetaOutcome out = sqlmeta::RunNorecCheck(db, "t0", *pred);
    CHECK(out.verdict == sqlmeta::MetaVerdict::kOk);
    CHECK_EQ(out.executed.size(), static_cast<size_t>(2));
  }

  // tlp-null-partition-drop also breaks NoREC when the predicate itself is
  // a top-level IS NULL: the optimized COUNT(*) side drops the matching
  // rows, the projected-predicate side is untouched.
  {
    minidb::Database db(Dialect::kPostgresStrict,
                        BugConfig::Single(BugId::kTlpNullPartitionDrop));
    MakeTable(&db, "t0", {Column("a", Affinity::kInteger)});
    InsertRow(&db, "t0", Row1(MakeIntLiteral(1)));
    InsertRow(&db, "t0", Row1(MakeNullLiteral()));
    InsertRow(&db, "t0", Row1(MakeIntLiteral(2)));
    ExprPtr pred =
        MakeIsNull(MakeBinary(BinaryOp::kGt, MakeColumnRef("t0", "a"),
                              MakeIntLiteral(1)),
                   /*negated=*/false);
    sqlmeta::MetaOutcome out = sqlmeta::RunNorecCheck(db, "t0", *pred);
    CHECK(out.verdict == sqlmeta::MetaVerdict::kMismatch);
    CHECK(!out.message.empty());
    CHECK(!out.executed.empty());
  }
}

void TestTlpOracleVerdicts() {
  // Clean engine, every shape: kOk.
  {
    minidb::Database db(Dialect::kSqliteFlex);
    MakeTable(&db, "t0", {Column("g", Affinity::kInteger),
                          Column("v", Affinity::kInteger)});
    InsertRow(&db, "t0", Row2(MakeIntLiteral(1), MakeIntLiteral(7)));
    InsertRow(&db, "t0", Row2(MakeIntLiteral(1), MakeNullLiteral()));
    InsertRow(&db, "t0", Row2(MakeIntLiteral(2), MakeIntLiteral(9)));
    InsertRow(&db, "t0", Row2(MakeNullLiteral(), MakeIntLiteral(4)));
    ExprPtr pred = MakeBinary(BinaryOp::kGt, MakeColumnRef("t0", "v"),
                              MakeIntLiteral(5));

    std::vector<std::unique_ptr<SelectStmt>> queries;
    queries.push_back(MakeSelect("t0", {}));  // kRows
    queries.push_back(MakeSelect(              // kAggregate
        "t0", Row2(MakeAggregate(AggFunc::kAvg, MakeColumnRef("t0", "v"),
                                 false),
                   CountStar())));
    queries.push_back(MakeSelect(  // kCountDistinct
        "t0", Row1(MakeAggregate(AggFunc::kCount, MakeColumnRef("t0", "v"),
                                 /*distinct=*/true))));
    queries.push_back(MakeSelect(  // kGroupBy + HAVING
        "t0",
        Row2(MakeColumnRef("t0", "g"),
             MakeAggregate(AggFunc::kSum, MakeColumnRef("t0", "v"), false)),
        nullptr, Row1(MakeColumnRef("t0", "g")),
        MakeBinary(BinaryOp::kGe, CountStar(), MakeIntLiteral(1))));
    for (const auto& q : queries) {
      sqlmeta::MetaOutcome out = sqlmeta::RunTlpCheck(db, *q, *pred);
      CHECK_MSG(out.verdict == sqlmeta::MetaVerdict::kOk, "%s: %s",
                RenderStmt(*q, db.dialect()).c_str(), out.message.c_str());
      // 3 partitions + the full query, full query last.
      CHECK_EQ(out.executed.size(), static_cast<size_t>(4));
    }

    // Unsupported shape: kSkipped, not a check.
    auto ordered = MakeSelect("t0", {});
    ordered->order_by.emplace_back();
    ordered->order_by.back().expr = MakeColumnRef("t0", "v");
    sqlmeta::MetaOutcome out = sqlmeta::RunTlpCheck(db, *ordered, *pred);
    CHECK(out.verdict == sqlmeta::MetaVerdict::kSkipped);
  }

  auto expect_mismatch = [](minidb::Database& db, const SelectStmt& q,
                            const Expr& pred) {
    sqlmeta::MetaOutcome out = sqlmeta::RunTlpCheck(db, q, pred);
    CHECK_MSG(out.verdict == sqlmeta::MetaVerdict::kMismatch,
              "wanted mismatch on %s (verdict %d: %s)",
              RenderStmt(q, db.dialect()).c_str(),
              static_cast<int>(out.verdict), out.message.c_str());
    CHECK(!out.executed.empty());
    // The decisive full query is the last executed statement.
    CHECK(out.executed.back()->kind() == StmtKind::kSelect);
  };

  // sum-overflow-wrap: the full-table SUM wraps; the per-partition sums
  // stay in range, so the recombination is exact.
  {
    minidb::Database db(Dialect::kSqliteFlex,
                        BugConfig::Single(BugId::kSumOverflowWrap));
    MakeTable(&db, "t0", {Column("a", Affinity::kInteger),
                          Column("b", Affinity::kInteger)});
    InsertRow(&db, "t0", Row2(MakeIntLiteral(9), MakeIntLiteral(0)));
    InsertRow(&db, "t0", Row2(MakeIntLiteral(9), MakeIntLiteral(1)));
    InsertRow(&db, "t0", Row2(MakeIntLiteral(9), MakeIntLiteral(0)));
    InsertRow(&db, "t0", Row2(MakeIntLiteral(9), MakeIntLiteral(1)));
    auto q = MakeSelect(
        "t0", Row1(MakeAggregate(AggFunc::kSum, MakeColumnRef("t0", "a"),
                                 false)));
    ExprPtr pred = MakeBinary(BinaryOp::kEq, MakeColumnRef("t0", "b"),
                              MakeIntLiteral(0));
    expect_mismatch(db, *q, *pred);
  }

  // agg-empty-group-zero: an empty partition's MIN partial is a spurious 0
  // that wins the recombined minimum.
  {
    minidb::Database db(Dialect::kSqliteFlex,
                        BugConfig::Single(BugId::kAggEmptyGroupZero));
    MakeTable(&db, "t0", {Column("a", Affinity::kInteger)});
    InsertRow(&db, "t0", Row1(MakeIntLiteral(5)));
    auto q = MakeSelect(
        "t0", Row1(MakeAggregate(AggFunc::kMin, MakeColumnRef("t0", "a"),
                                 false)));
    ExprPtr pred = MakeBinary(BinaryOp::kLt, MakeColumnRef("t0", "a"),
                              MakeIntLiteral(0));
    expect_mismatch(db, *q, *pred);
  }

  // avg-integer-div: the full query truncates; the SUM+COUNT partials are
  // exact.
  {
    minidb::Database db(Dialect::kMysqlLike,
                        BugConfig::Single(BugId::kAvgIntegerDiv));
    MakeTable(&db, "t0", {Column("a", Affinity::kInteger)});
    InsertRow(&db, "t0", Row1(MakeIntLiteral(1)));
    InsertRow(&db, "t0", Row1(MakeIntLiteral(2)));
    auto q = MakeSelect(
        "t0", Row1(MakeAggregate(AggFunc::kAvg, MakeColumnRef("t0", "a"),
                                 false)));
    ExprPtr pred = MakeBinary(BinaryOp::kEq, MakeColumnRef("t0", "a"),
                              MakeIntLiteral(1));
    expect_mismatch(db, *q, *pred);
  }

  // count-distinct-dup: the partitions use engine DISTINCT (unaffected);
  // the full COUNT(DISTINCT) overcounts.
  {
    minidb::Database db(Dialect::kMysqlLike,
                        BugConfig::Single(BugId::kCountDistinctDup));
    MakeTable(&db, "t0", {Column("a", Affinity::kInteger)});
    InsertRow(&db, "t0", Row1(MakeIntLiteral(1)));
    InsertRow(&db, "t0", Row1(MakeIntLiteral(1)));
    InsertRow(&db, "t0", Row1(MakeIntLiteral(2)));
    auto q = MakeSelect(
        "t0", Row1(MakeAggregate(AggFunc::kCount, MakeColumnRef("t0", "a"),
                                 /*distinct=*/true)));
    ExprPtr pred = MakeBinary(BinaryOp::kEq, MakeColumnRef("t0", "a"),
                              MakeIntLiteral(1));
    expect_mismatch(db, *q, *pred);
  }

  // having-before-group: the partitions run HAVING-free; the oracle
  // re-applies HAVING on true recombined aggregates and keeps the group
  // the buggy engine dropped.
  {
    minidb::Database db(Dialect::kPostgresStrict,
                        BugConfig::Single(BugId::kHavingBeforeGroup));
    MakeTable(&db, "t0", {Column("g", Affinity::kInteger),
                          Column("v", Affinity::kInteger)});
    InsertRow(&db, "t0", Row2(MakeIntLiteral(1), MakeIntLiteral(7)));
    InsertRow(&db, "t0", Row2(MakeIntLiteral(1), MakeIntLiteral(8)));
    InsertRow(&db, "t0", Row2(MakeIntLiteral(2), MakeIntLiteral(9)));
    auto q = MakeSelect(
        "t0", Row2(MakeColumnRef("t0", "g"), CountStar()), nullptr,
        Row1(MakeColumnRef("t0", "g")),
        MakeBinary(BinaryOp::kGe, CountStar(), MakeIntLiteral(2)));
    ExprPtr pred = MakeBinary(BinaryOp::kGe, MakeColumnRef("t0", "v"),
                              MakeIntLiteral(8));
    expect_mismatch(db, *q, *pred);
  }

  // tlp-null-partition-drop: the third partition silently loses its rows;
  // the recombined COUNT(*) comes up short of the full query's.
  {
    minidb::Database db(Dialect::kPostgresStrict,
                        BugConfig::Single(BugId::kTlpNullPartitionDrop));
    MakeTable(&db, "t0", {Column("a", Affinity::kInteger)});
    InsertRow(&db, "t0", Row1(MakeIntLiteral(1)));
    InsertRow(&db, "t0", Row1(MakeNullLiteral()));
    InsertRow(&db, "t0", Row1(MakeIntLiteral(2)));
    auto q = MakeSelect("t0", Row1(CountStar()));
    ExprPtr pred = MakeBinary(BinaryOp::kGt, MakeColumnRef("t0", "a"),
                              MakeIntLiteral(1));
    expect_mismatch(db, *q, *pred);
  }
}

// ---------------------------------------------------------------------------
// Campaign integration: every new bug falls to its intended oracle within
// the default budget
// ---------------------------------------------------------------------------

void TestHuntNewBugsDefaultBudget() {
  const BugId new_bugs[] = {
      BugId::kAggEmptyGroupZero, BugId::kSumOverflowWrap,
      BugId::kAvgIntegerDiv,     BugId::kCountDistinctDup,
      BugId::kHavingBeforeGroup, BugId::kTlpNullPartitionDrop,
  };
  CampaignOptions options;
  options.reduce = false;
  options.workers = property_workers;
  for (BugId bug : new_bugs) {
    const minidb::BugInfo& info = minidb::LookupBug(bug);
    BugHuntResult result = HuntBug(bug, options);
    CHECK_MSG(result.detected, "%s not detected within default budget",
              info.name);
    if (!result.detected) continue;
    CHECK_MSG(result.oracle == OracleKind::kTlp,
              "%s fired %s, expected the TLP oracle", info.name,
              OracleName(result.oracle));
  }

  // One reduced hunt: the ddmin'd finding still ends in the decisive
  // transformed query.
  CampaignOptions reduced = options;
  reduced.reduce = true;
  BugHuntResult result = HuntBug(BugId::kAvgIntegerDiv, reduced);
  CHECK(result.detected);
  CHECK(!result.reduced.statements.empty());
  if (!result.reduced.statements.empty()) {
    CHECK(result.reduced.statements.back()->kind() == StmtKind::kSelect);
  }
}

// ---------------------------------------------------------------------------
// Partition-equivalence property: clean engines never trip NoREC/TLP
// ---------------------------------------------------------------------------

void TestMetaPropertiesOnCleanEngines() {
  // 100 databases x 20 queries = 2000 TLP generations on the sqlite
  // dialect, plus smaller sweeps of the other dialects and NoREC.
  struct Case {
    Dialect dialect;
    OracleFamily family;
    int databases;
  };
  const Case cases[] = {
      {Dialect::kSqliteFlex, OracleFamily::kTlp, 100},
      {Dialect::kMysqlLike, OracleFamily::kTlp, 40},
      {Dialect::kPostgresStrict, OracleFamily::kTlp, 40},
      {Dialect::kSqliteFlex, OracleFamily::kNorec, 40},
      {Dialect::kPostgresStrict, OracleFamily::kNorec, 40},
  };
  for (const Case& c : cases) {
    RunnerOptions opts;
    opts.seed = 0x9e3779b9;
    opts.databases = c.databases;
    opts.queries_per_database = 20;
    opts.workers = property_workers;
    opts.family = c.family;
    Dialect d = c.dialect;
    PqsRunner runner(
        [d]() -> ConnectionPtr { return std::make_unique<minidb::Database>(d); },
        opts);
    RunReport report = runner.Run();
    CHECK_MSG(report.findings.empty(),
              "dialect %d family %d: %zu finding(s) on a clean engine: %s",
              static_cast<int>(c.dialect), static_cast<int>(c.family),
              report.findings.size(),
              report.findings.empty() ? ""
                                      : report.findings[0].message.c_str());
    // The run must consist of real checks, not silent skips.
    uint64_t floor = static_cast<uint64_t>(c.databases) * 18;
    if (c.family == OracleFamily::kTlp) {
      CHECK_MSG(report.stats.tlp_checks > floor,
                "only %llu TLP checks completed",
                static_cast<unsigned long long>(report.stats.tlp_checks));
      CHECK(report.stats.tlp_partition_queries >= 3 * report.stats.tlp_checks);
      CHECK(report.stats.aggregate_queries > 0);
      CHECK(report.stats.group_by_queries > 0);
      CHECK(report.stats.having_queries > 0);
      CHECK_EQ(report.stats.norec_checks, static_cast<uint64_t>(0));
    } else {
      CHECK_MSG(report.stats.norec_checks > floor,
                "only %llu NoREC checks completed",
                static_cast<unsigned long long>(report.stats.norec_checks));
      CHECK_EQ(report.stats.tlp_checks, static_cast<uint64_t>(0));
    }
  }
}

// ---------------------------------------------------------------------------
// N-worker determinism of the merged report, new counters included
// ---------------------------------------------------------------------------

void CheckStatsEqual(const RunStats& a, const RunStats& b) {
  CHECK_EQ(a.statements_executed, b.statements_executed);
  CHECK_EQ(a.queries_checked, b.queries_checked);
  CHECK_EQ(a.queries_skipped, b.queries_skipped);
  CHECK_EQ(a.databases_created, b.databases_created);
  CHECK_EQ(a.rectified_true, b.rectified_true);
  CHECK_EQ(a.rectified_false, b.rectified_false);
  CHECK_EQ(a.rectified_null, b.rectified_null);
  CHECK_EQ(a.constraint_violations, b.constraint_violations);
  CHECK_EQ(a.join_conditions_rectified, b.join_conditions_rectified);
  CHECK_EQ(a.limited_queries, b.limited_queries);
  for (int i = 0; i < RunStats::kDepthBuckets; ++i) {
    CHECK_EQ(a.predicate_depth_buckets[i], b.predicate_depth_buckets[i]);
  }
  CHECK_EQ(a.predicates_with_function, b.predicates_with_function);
  CHECK_EQ(a.function_calls_generated, b.function_calls_generated);
  CHECK_EQ(a.norec_checks, b.norec_checks);
  CHECK_EQ(a.tlp_checks, b.tlp_checks);
  CHECK_EQ(a.tlp_partition_queries, b.tlp_partition_queries);
  CHECK_EQ(a.aggregate_queries, b.aggregate_queries);
  CHECK_EQ(a.group_by_queries, b.group_by_queries);
  CHECK_EQ(a.having_queries, b.having_queries);
  CHECK_EQ(a.actions_insert, b.actions_insert);
  CHECK_EQ(a.actions_update, b.actions_update);
  CHECK_EQ(a.actions_delete, b.actions_delete);
  CHECK_EQ(a.actions_create_index, b.actions_create_index);
  CHECK_EQ(a.actions_drop_index, b.actions_drop_index);
  CHECK_EQ(a.actions_maintenance, b.actions_maintenance);
  CHECK_EQ(a.state_compares, b.state_compares);
}

void TestWorkerDeterminism() {
  // A buggy engine so the merged reports carry findings too.
  auto run = [](int workers) {
    RunnerOptions opts;
    opts.seed = 20200707;
    opts.databases = 24;
    opts.queries_per_database = 10;
    opts.workers = workers;
    opts.family = OracleFamily::kTlp;
    PqsRunner runner(
        []() -> ConnectionPtr {
          return std::make_unique<minidb::Database>(
              Dialect::kSqliteFlex,
              BugConfig::Single(BugId::kSumOverflowWrap));
        },
        opts);
    return runner.Run();
  };
  RunReport base = run(1);
  CHECK(!base.findings.empty());
  for (int workers : {2, 4, property_workers}) {
    RunReport sharded = run(workers);
    CheckStatsEqual(base.stats, sharded.stats);
    CHECK_EQ(base.findings.size(), sharded.findings.size());
    for (size_t i = 0; i < base.findings.size() && i < sharded.findings.size();
         ++i) {
      CHECK(base.findings[i].oracle == sharded.findings[i].oracle);
      CHECK_EQ(base.findings[i].message, sharded.findings[i].message);
      CHECK_EQ(base.findings[i].statements.size(),
               sharded.findings[i].statements.size());
    }
  }
}

// ---------------------------------------------------------------------------
// Differential safety net: generated aggregate queries vs real sqlite3
// ---------------------------------------------------------------------------

void TestAggregateDifferentialSweep() {
  GeneratorOptions gen_options;
  Generator generator(gen_options, Dialect::kSqliteFlex);
  Rng rng(0x5eed5eedULL);
  uint64_t checked = 0;
  int divergences = 0;
  for (int db_i = 0; db_i < 300 && divergences == 0; ++db_i) {
    DatabasePlan plan = generator.GenerateDatabase(&rng);
    minidb::Database model(Dialect::kSqliteFlex);
    SqliteConnection real;
    for (const StmtPtr& stmt : plan.statements) {
      StatementResult m = model.Execute(*stmt);
      StatementResult r = real.Execute(*stmt);
      CHECK_MSG(m.ok() == r.ok(), "setup disagreement on %s: %s / %s",
                RenderStmt(*stmt, Dialect::kSqliteFlex).c_str(),
                m.error.c_str(), r.error.c_str());
    }
    for (int q = 0; q < 40; ++q) {
      const TableSchema& table = plan.tables[rng.Below(plan.tables.size())];
      std::unique_ptr<SelectStmt> query =
          generator.GenerateAggregateQuery(table, &rng);
      StatementResult m = model.Execute(*query);
      StatementResult r = real.Execute(*query);
      CHECK_MSG(m.ok() == r.ok(), "status disagreement on %s: %s / %s",
                RenderStmt(*query, Dialect::kSqliteFlex).c_str(),
                m.error.c_str(), r.error.c_str());
      if (m.ok() && r.ok() && !SameRowMultiset(m.rows, r.rows)) {
        ++divergences;
        CHECK_MSG(false, "aggregate divergence vs sqlite3 on %s",
                  RenderStmt(*query, Dialect::kSqliteFlex).c_str());
      }
      ++checked;
    }
  }
  CHECK_MSG(checked >= 10000,
            "sweep undersized: only %llu aggregate queries compared",
            static_cast<unsigned long long>(checked));

  // And the oracles end-to-end against the real engine: a correct DBMS
  // must survive both metamorphic families with zero findings.
  for (OracleFamily family : {OracleFamily::kTlp, OracleFamily::kNorec}) {
    RunnerOptions opts;
    opts.seed = 424242;
    opts.databases = 30;
    opts.queries_per_database = 25;
    opts.workers = property_workers;
    opts.family = family;
    PqsRunner runner(
        []() -> ConnectionPtr { return std::make_unique<SqliteConnection>(); },
        opts);
    RunReport report = runner.Run();
    CHECK_MSG(report.findings.empty(),
              "family %d: %zu finding(s) against real sqlite3: %s",
              static_cast<int>(family), report.findings.size(),
              report.findings.empty() ? ""
                                      : report.findings[0].message.c_str());
  }
}

}  // namespace
}  // namespace pqs

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      pqs::property_workers = std::atoi(argv[i + 1]);
      if (pqs::property_workers < 1) pqs::property_workers = 1;
      ++i;
    }
  }
  pqs::TestNorecTransformUnits();
  pqs::TestTlpPartitionPredicates();
  pqs::TestTlpPlanShapes();
  pqs::TestTlpPlanRejections();
  pqs::TestAggregateExecutionUnits();
  pqs::TestAggregateBugHooksDirect();
  pqs::TestNorecOracleVerdicts();
  pqs::TestTlpOracleVerdicts();
  pqs::TestHuntNewBugsDefaultBudget();
  pqs::TestMetaPropertiesOnCleanEngines();
  pqs::TestWorkerDeterminism();
  pqs::TestAggregateDifferentialSweep();
  return pqs::test::Summary("test_meta_oracles");
}
