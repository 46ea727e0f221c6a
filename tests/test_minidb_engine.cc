// Engine basics: DDL/DML/SELECT semantics, constraints, joins, coverage.
#include <memory>

#include "src/minidb/database.h"
#include "tests/test_util.h"

namespace pqs {
namespace {

std::unique_ptr<CreateTableStmt> SimpleTable(const std::string& name,
                                             const std::string& col,
                                             Affinity affinity) {
  auto ct = std::make_unique<CreateTableStmt>();
  ct->table_name = name;
  ColumnDef def;
  def.name = col;
  def.affinity = affinity;
  def.declared_type = affinity == Affinity::kInteger
                          ? "INT"
                          : (affinity == Affinity::kReal ? "REAL" : "TEXT");
  ct->columns.push_back(def);
  return ct;
}

void InsertInt(minidb::Database* db, const std::string& table, int64_t v) {
  InsertStmt ins;
  ins.table_name = table;
  ins.rows.emplace_back();
  ins.rows.back().push_back(MakeIntLiteral(v));
  CHECK(db->Execute(ins).ok());
}

void TestBasicScan() {
  minidb::Database db(Dialect::kSqliteFlex);
  CHECK(db.Execute(*SimpleTable("t0", "c0", Affinity::kInteger)).ok());
  for (int64_t v : {1, 2, 3}) InsertInt(&db, "t0", v);
  SelectStmt select;
  select.from_tables = {"t0"};
  StatementResult result = db.Execute(select);
  CHECK(result.ok());
  CHECK_EQ(result.rows.size(), static_cast<size_t>(3));
  select.where = MakeBinary(BinaryOp::kGt, MakeColumnRef("t0", "c0"),
                            MakeIntLiteral(1));
  result = db.Execute(select);
  CHECK(result.ok());
  CHECK_EQ(result.rows.size(), static_cast<size_t>(2));
}

void TestUniqueConstraint() {
  minidb::Database db(Dialect::kSqliteFlex);
  auto ct = SimpleTable("t0", "c0", Affinity::kInteger);
  ct->columns[0].unique = true;
  CHECK(db.Execute(*ct).ok());
  InsertInt(&db, "t0", 5);
  InsertStmt dup;
  dup.table_name = "t0";
  dup.rows.emplace_back();
  dup.rows.back().push_back(MakeIntLiteral(5));
  StatementResult r = db.Execute(dup);
  CHECK(r.status == StatementStatus::kConstraintViolation);
  // NULLs never collide under UNIQUE.
  InsertStmt null_row;
  null_row.table_name = "t0";
  for (int i = 0; i < 2; ++i) {
    null_row.rows.emplace_back();
    null_row.rows.back().push_back(MakeNullLiteral());
  }
  CHECK(db.Execute(null_row).ok());
}

void TestMultiRowAbort() {
  minidb::Database db(Dialect::kSqliteFlex);
  auto ct = SimpleTable("t0", "c0", Affinity::kInteger);
  ct->columns[0].unique = true;
  CHECK(db.Execute(*ct).ok());
  // Second row collides with the first within the same statement: the whole
  // statement must be rolled back.
  InsertStmt ins;
  ins.table_name = "t0";
  for (int i = 0; i < 2; ++i) {
    ins.rows.emplace_back();
    ins.rows.back().push_back(MakeIntLiteral(7));
  }
  CHECK(db.Execute(ins).status == StatementStatus::kConstraintViolation);
  SelectStmt select;
  select.from_tables = {"t0"};
  CHECK_EQ(db.Execute(select).rows.size(), static_cast<size_t>(0));
}

void TestJoin() {
  minidb::Database db(Dialect::kSqliteFlex);
  CHECK(db.Execute(*SimpleTable("t0", "c0", Affinity::kInteger)).ok());
  CHECK(db.Execute(*SimpleTable("t1", "c1", Affinity::kInteger)).ok());
  for (int64_t v : {1, 2}) InsertInt(&db, "t0", v);
  for (int64_t v : {10, 20, 30}) InsertInt(&db, "t1", v);
  SelectStmt select;
  select.from_tables = {"t0", "t1"};
  StatementResult result = db.Execute(select);
  CHECK(result.ok());
  CHECK_EQ(result.rows.size(), static_cast<size_t>(6));  // cross product
  CHECK_EQ(result.rows[0].size(), static_cast<size_t>(2));
}

void TestCoverage() {
  minidb::CoverageMap map;
  minidb::Database db(Dialect::kSqliteFlex);
  db.set_coverage_sink(&map);
  CHECK(db.Execute(*SimpleTable("t0", "c0", Affinity::kInteger)).ok());
  InsertInt(&db, "t0", 1);
  SelectStmt select;
  select.from_tables = {"t0"};
  select.where = MakeBinary(BinaryOp::kEq, MakeColumnRef("t0", "c0"),
                            MakeIntLiteral(1));
  CHECK(db.Execute(select).ok());
  CHECK(map.Hits(minidb::Feature::kCreateTable) == 1);
  CHECK(map.Hits(minidb::Feature::kSelectWhere) == 1);
  CHECK(map.Hits(minidb::Feature::kExprComparison) >= 1);
  CHECK(map.CoveredFeatures() > 5);
  CHECK(map.CoveredFeatures() < minidb::kNumFeatures);
}

}  // namespace
}  // namespace pqs

int main() {
  pqs::TestBasicScan();
  pqs::TestUniqueConstraint();
  pqs::TestMultiRowAbort();
  pqs::TestJoin();
  pqs::TestCoverage();
  return pqs::test::Summary("test_minidb_engine");
}
