// Golden-corpus rendering test for the widened SQL grammar.
//
// A fixed corpus of representative ASTs — explicit INNER/LEFT/CROSS join
// chains, DISTINCT, ORDER BY (asc/desc, multi-key), LIMIT, and the
// Algorithm-3 rectification wrappers — is rendered in all three dialects
// and compared against the checked-in golden file (regenerate with
// PQS_UPDATE_GOLDEN=1 after reviewing a deliberate renderer change). When
// real libsqlite3 is linked in, the corpus is additionally replayed
// through sqlite3: every statement must parse and run, and each SELECT's
// row multiset must match MiniDB's kSqliteFlex evaluation exactly.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/minidb/database.h"
#include "src/sqlite3db/sqlite_connection.h"
#include "src/sqlmeta/transform.h"
#include "src/sqlparser/render.h"
#include "tests/test_util.h"

#ifndef PQS_SOURCE_DIR
#define PQS_SOURCE_DIR "."
#endif

namespace pqs {
namespace {

ColumnDef Column(const std::string& name, Affinity affinity,
                 bool unique = false, bool not_null = false) {
  ColumnDef def;
  def.name = name;
  def.affinity = affinity;
  def.declared_type = affinity == Affinity::kInteger
                          ? "INT"
                          : (affinity == Affinity::kReal ? "REAL" : "TEXT");
  def.unique = unique;
  def.not_null = not_null;
  return def;
}

JoinClause Join(JoinKind kind, const std::string& table, ExprPtr on) {
  JoinClause join;
  join.kind = kind;
  join.table = table;
  join.on = std::move(on);
  return join;
}

OrderByItem Key(ExprPtr expr, bool descending) {
  OrderByItem item;
  item.expr = std::move(expr);
  item.descending = descending;
  return item;
}

// The corpus: schema + data first (so the whole list replays as a script),
// then the representative queries.
std::vector<StmtPtr> BuildCorpus() {
  std::vector<StmtPtr> corpus;

  auto t0 = std::make_unique<CreateTableStmt>();
  t0->table_name = "t0";
  t0->columns = {Column("c0", Affinity::kInteger, /*unique=*/true),
                 Column("c1", Affinity::kText)};
  corpus.push_back(std::move(t0));

  auto t1 = std::make_unique<CreateTableStmt>();
  t1->table_name = "t1";
  t1->columns = {Column("c2", Affinity::kInteger),
                 Column("c3", Affinity::kReal)};
  corpus.push_back(std::move(t1));

  auto t2 = std::make_unique<CreateTableStmt>();
  t2->table_name = "t2";
  t2->columns = {Column("c4", Affinity::kText)};
  corpus.push_back(std::move(t2));

  auto index = std::make_unique<CreateIndexStmt>();
  index->index_name = "i0";
  index->table_name = "t1";
  index->columns = {"c2"};
  index->unique = false;
  index->where = MakeIsNull(MakeColumnRef("t1", "c2"), /*negated=*/true);
  corpus.push_back(std::move(index));

  auto ins0 = std::make_unique<InsertStmt>();
  ins0->table_name = "t0";
  for (int64_t v : {1, 2, 3}) {
    ins0->rows.emplace_back();
    ins0->rows.back().push_back(MakeIntLiteral(v));
    ins0->rows.back().push_back(
        MakeTextLiteral(v % 2 == 0 ? "ab" : "xy"));
  }
  corpus.push_back(std::move(ins0));

  auto ins1 = std::make_unique<InsertStmt>();
  ins1->table_name = "t1";
  const double reals[] = {0.5, 1.5, 0.5};
  for (int r = 0; r < 3; ++r) {
    ins1->rows.emplace_back();
    ins1->rows.back().push_back(r == 2 ? MakeNullLiteral()
                                       : MakeIntLiteral(r + 1));
    ins1->rows.back().push_back(MakeRealLiteral(reals[r]));
  }
  corpus.push_back(std::move(ins1));

  auto ins2 = std::make_unique<InsertStmt>();
  ins2->table_name = "t2";
  for (const char* v : {"ab", "ba", "ab"}) {
    ins2->rows.emplace_back();
    ins2->rows.back().push_back(MakeTextLiteral(v));
  }
  corpus.push_back(std::move(ins2));

  // Q1: comma-list join + WHERE (the pre-existing query space).
  auto q1 = std::make_unique<SelectStmt>();
  q1->from_tables = {"t0", "t1"};
  q1->where = MakeBinary(BinaryOp::kLt, MakeColumnRef("t0", "c0"),
                         MakeColumnRef("t1", "c2"));
  corpus.push_back(std::move(q1));

  // Q2: INNER equi-join.
  auto q2 = std::make_unique<SelectStmt>();
  q2->from_tables = {"t0"};
  q2->joins.push_back(Join(
      JoinKind::kInner, "t1",
      MakeBinary(BinaryOp::kEq, MakeColumnRef("t0", "c0"),
                 MakeColumnRef("t1", "c2"))));
  corpus.push_back(std::move(q2));

  // Q3: LEFT JOIN with a rectified-looking NOT wrapper on the ON.
  auto q3 = std::make_unique<SelectStmt>();
  q3->from_tables = {"t0"};
  q3->joins.push_back(Join(
      JoinKind::kLeft, "t1",
      MakeUnary(UnaryOp::kNot,
                MakeBinary(BinaryOp::kGe, MakeColumnRef("t0", "c0"),
                           MakeColumnRef("t1", "c2")))));
  corpus.push_back(std::move(q3));

  // Q4: CROSS JOIN + DISTINCT.
  auto q4 = std::make_unique<SelectStmt>();
  q4->distinct = true;
  q4->from_tables = {"t2"};
  q4->joins.push_back(Join(JoinKind::kCross, "t0", nullptr));
  corpus.push_back(std::move(q4));

  // Q5: three-table chain, two-key ORDER BY (asc + desc), LIMIT.
  auto q5 = std::make_unique<SelectStmt>();
  q5->from_tables = {"t0"};
  q5->joins.push_back(Join(
      JoinKind::kInner, "t1",
      MakeBinary(BinaryOp::kLe, MakeColumnRef("t0", "c0"),
                 MakeColumnRef("t1", "c2"))));
  q5->joins.push_back(Join(JoinKind::kCross, "t2", nullptr));
  q5->order_by.push_back(Key(MakeColumnRef("t1", "c3"), false));
  q5->order_by.push_back(Key(MakeColumnRef("t0", "c0"), true));
  q5->limit = 4;
  corpus.push_back(std::move(q5));

  // Q6: DISTINCT + ORDER BY DESC + LIMIT on one table (NULL key rows).
  auto q6 = std::make_unique<SelectStmt>();
  q6->distinct = true;
  q6->from_tables = {"t1"};
  q6->order_by.push_back(Key(MakeColumnRef("t1", "c2"), true));
  q6->limit = 2;
  corpus.push_back(std::move(q6));

  // Q7: rectified NULL branch (φ IS NULL) with BETWEEN and IN.
  auto q7 = std::make_unique<SelectStmt>();
  q7->from_tables = {"t1"};
  std::vector<ExprPtr> in_list;
  in_list.push_back(MakeIntLiteral(1));
  in_list.push_back(MakeIntLiteral(4));
  q7->where = MakeIsNull(
      MakeBinary(
          BinaryOp::kAnd,
          MakeBetween(MakeColumnRef("t1", "c3"), MakeRealLiteral(0.0),
                      MakeRealLiteral(2.0), /*negated=*/false),
          MakeInList(MakeColumnRef("t1", "c2"), std::move(in_list),
                     /*negated=*/true)),
      /*negated=*/false);
  corpus.push_back(std::move(q7));

  // Q8: LIKE over concat, ORDER BY the text column.
  auto q8 = std::make_unique<SelectStmt>();
  q8->from_tables = {"t0"};
  q8->where = MakeLike(
      MakeBinary(BinaryOp::kConcat, MakeColumnRef("t0", "c1"),
                 MakeTextLiteral("z")),
      MakeTextLiteral("%bz"), /*negated=*/false);
  q8->order_by.push_back(Key(MakeColumnRef("t0", "c1"), false));
  corpus.push_back(std::move(q8));

  // Q9: LEFT JOIN + WHERE IS NULL over the padded side + ORDER BY + LIMIT.
  auto q9 = std::make_unique<SelectStmt>();
  q9->from_tables = {"t0"};
  q9->joins.push_back(Join(
      JoinKind::kLeft, "t1",
      MakeBinary(BinaryOp::kEq, MakeColumnRef("t0", "c0"),
                 MakeColumnRef("t1", "c2"))));
  q9->where = MakeIsNull(MakeColumnRef("t1", "c3"), /*negated=*/false);
  q9->order_by.push_back(Key(MakeColumnRef("t0", "c0"), false));
  q9->limit = 10;
  corpus.push_back(std::move(q9));

  // Q10: DISTINCT projection over a join with arithmetic ORDER BY key.
  auto q10 = std::make_unique<SelectStmt>();
  q10->distinct = true;
  q10->from_tables = {"t0"};
  q10->joins.push_back(Join(
      JoinKind::kInner, "t1",
      MakeBinary(BinaryOp::kNe, MakeColumnRef("t0", "c0"),
                 MakeColumnRef("t1", "c2"))));
  q10->order_by.push_back(Key(
      MakeBinary(BinaryOp::kAdd, MakeColumnRef("t0", "c0"),
                 MakeColumnRef("t1", "c2")),
      false));
  corpus.push_back(std::move(q10));

  // A fourth table with the remaining DDL shapes: PRIMARY KEY, NOT NULL,
  // and a unique (non-partial) index; data includes NULLs.
  auto t3 = std::make_unique<CreateTableStmt>();
  t3->table_name = "t3";
  t3->columns = {Column("c5", Affinity::kInteger, /*unique=*/false,
                        /*not_null=*/true),
                 Column("c6", Affinity::kReal)};
  t3->columns[0].primary_key = true;
  corpus.push_back(std::move(t3));

  auto uindex = std::make_unique<CreateIndexStmt>();
  uindex->index_name = "i1";
  uindex->table_name = "t3";
  uindex->columns = {"c5", "c6"};
  uindex->unique = true;
  corpus.push_back(std::move(uindex));

  auto ins3 = std::make_unique<InsertStmt>();
  ins3->table_name = "t3";
  const double more_reals[] = {2.0, -0.5};
  for (int r = 0; r < 2; ++r) {
    ins3->rows.emplace_back();
    ins3->rows.back().push_back(MakeIntLiteral(10 + r));
    ins3->rows.back().push_back(r == 1 ? MakeNullLiteral()
                                       : MakeRealLiteral(more_reals[r]));
  }
  corpus.push_back(std::move(ins3));

  // Q11: NOT LIKE, ORDER BY DESC, LIMIT.
  auto q11 = std::make_unique<SelectStmt>();
  q11->from_tables = {"t2"};
  q11->where = MakeLike(MakeColumnRef("t2", "c4"), MakeTextLiteral("a%"),
                        /*negated=*/true);
  q11->order_by.push_back(Key(MakeColumnRef("t2", "c4"), true));
  q11->limit = 5;
  corpus.push_back(std::move(q11));

  // Q12: NOT BETWEEN over an INNER join on t3.
  auto q12 = std::make_unique<SelectStmt>();
  q12->from_tables = {"t1"};
  q12->joins.push_back(Join(
      JoinKind::kInner, "t3",
      MakeBinary(BinaryOp::kLt, MakeColumnRef("t1", "c2"),
                 MakeColumnRef("t3", "c5"))));
  q12->where = MakeBetween(MakeColumnRef("t3", "c6"), MakeRealLiteral(-1.0),
                           MakeRealLiteral(1.0), /*negated=*/true);
  corpus.push_back(std::move(q12));

  // Q13: chained LEFT JOINs with a literal ON comparison.
  auto q13 = std::make_unique<SelectStmt>();
  q13->from_tables = {"t0"};
  q13->joins.push_back(Join(
      JoinKind::kLeft, "t1",
      MakeBinary(BinaryOp::kEq, MakeColumnRef("t0", "c0"),
                 MakeColumnRef("t1", "c2"))));
  q13->joins.push_back(Join(JoinKind::kLeft, "t3",
                            MakeBinary(BinaryOp::kEq,
                                       MakeColumnRef("t3", "c5"),
                                       MakeIntLiteral(10))));
  corpus.push_back(std::move(q13));

  // Q14: comma-list FROM + DISTINCT (the widening composes with the old
  // cross-product syntax too).
  auto q14 = std::make_unique<SelectStmt>();
  q14->distinct = true;
  q14->from_tables = {"t2", "t3"};
  q14->where = MakeBinary(BinaryOp::kGt, MakeColumnRef("t3", "c5"),
                          MakeIntLiteral(9));
  corpus.push_back(std::move(q14));

  // Q15: unary minus and subtraction in WHERE, ordered.
  auto q15 = std::make_unique<SelectStmt>();
  q15->from_tables = {"t3"};
  q15->where = MakeBinary(
      BinaryOp::kLe, MakeUnary(UnaryOp::kNeg, MakeColumnRef("t3", "c5")),
      MakeBinary(BinaryOp::kSub, MakeColumnRef("t3", "c5"),
                 MakeIntLiteral(5)));
  q15->order_by.push_back(Key(MakeColumnRef("t3", "c5"), false));
  corpus.push_back(std::move(q15));

  // Q16: IS NOT NULL over division.
  auto q16 = std::make_unique<SelectStmt>();
  q16->from_tables = {"t1"};
  q16->where = MakeIsNull(
      MakeBinary(BinaryOp::kDiv, MakeColumnRef("t1", "c3"),
                 MakeColumnRef("t1", "c2")),
      /*negated=*/true);
  corpus.push_back(std::move(q16));

  // Q17: DISTINCT + LIMIT without ORDER BY.
  auto q17 = std::make_unique<SelectStmt>();
  q17->distinct = true;
  q17->from_tables = {"t2"};
  q17->limit = 3;
  corpus.push_back(std::move(q17));

  // Q18: CROSS then INNER step in one chain.
  auto q18 = std::make_unique<SelectStmt>();
  q18->from_tables = {"t2"};
  q18->joins.push_back(Join(JoinKind::kCross, "t3", nullptr));
  q18->joins.push_back(Join(
      JoinKind::kInner, "t0",
      MakeBinary(BinaryOp::kGe, MakeColumnRef("t0", "c0"),
                 MakeIntLiteral(2))));
  corpus.push_back(std::move(q18));

  // Q19: LIMIT 0 boundary (empty result is still well-formed SQL).
  auto q19 = std::make_unique<SelectStmt>();
  q19->from_tables = {"t0"};
  q19->order_by.push_back(Key(MakeColumnRef("t0", "c1"), false));
  q19->order_by.push_back(Key(MakeColumnRef("t0", "c0"), false));
  q19->limit = 0;
  corpus.push_back(std::move(q19));

  // Q20: deep AND/OR/NOT nesting around the new clause set.
  auto q20 = std::make_unique<SelectStmt>();
  q20->distinct = true;
  q20->from_tables = {"t0"};
  q20->joins.push_back(Join(
      JoinKind::kInner, "t2",
      MakeBinary(BinaryOp::kNe, MakeColumnRef("t2", "c4"),
                 MakeColumnRef("t0", "c1"))));
  q20->where = MakeUnary(
      UnaryOp::kNot,
      MakeBinary(
          BinaryOp::kOr,
          MakeBinary(BinaryOp::kAnd,
                     MakeIsNull(MakeColumnRef("t0", "c0"), false),
                     MakeLike(MakeColumnRef("t2", "c4"),
                              MakeTextLiteral("_b"), false)),
          MakeBinary(BinaryOp::kGt, MakeColumnRef("t0", "c0"),
                     MakeIntLiteral(5))));
  q20->order_by.push_back(Key(MakeColumnRef("t0", "c0"), true));
  q20->limit = 7;
  corpus.push_back(std::move(q20));

  // --- Typed expression subsystem (PR 4): registry functions, CAST, CASE,
  // --- COLLATE, LIKE ESCAPE, NULL-bearing IN lists. -----------------------

  auto fn = [](FuncId f, std::vector<ExprPtr> args) {
    return MakeFunctionCall(f, std::move(args));
  };
  auto args1 = [](ExprPtr a) {
    std::vector<ExprPtr> v;
    v.push_back(std::move(a));
    return v;
  };
  auto args2 = [](ExprPtr a, ExprPtr b) {
    std::vector<ExprPtr> v;
    v.push_back(std::move(a));
    v.push_back(std::move(b));
    return v;
  };

  // Q21: ABS over an integer column AND LENGTH over text.
  auto q21 = std::make_unique<SelectStmt>();
  q21->from_tables = {"t0"};
  q21->where = MakeBinary(
      BinaryOp::kAnd,
      MakeBinary(BinaryOp::kGt,
                 fn(FuncId::kAbs, args1(MakeColumnRef("t0", "c0"))),
                 MakeIntLiteral(1)),
      MakeBinary(BinaryOp::kEq,
                 fn(FuncId::kLength, args1(MakeColumnRef("t0", "c1"))),
                 MakeIntLiteral(2)));
  corpus.push_back(std::move(q21));

  // Q22: UPPER / LOWER case folding.
  auto q22 = std::make_unique<SelectStmt>();
  q22->from_tables = {"t2"};
  q22->where = MakeBinary(
      BinaryOp::kOr,
      MakeBinary(BinaryOp::kEq,
                 fn(FuncId::kUpper, args1(MakeColumnRef("t2", "c4"))),
                 MakeTextLiteral("AB")),
      MakeBinary(BinaryOp::kNe,
                 fn(FuncId::kLower, args1(MakeColumnRef("t2", "c4"))),
                 MakeTextLiteral("ba")));
  corpus.push_back(std::move(q22));

  // Q23: COALESCE across a nullable column, ordered.
  auto q23 = std::make_unique<SelectStmt>();
  q23->from_tables = {"t1"};
  q23->where = MakeBinary(
      BinaryOp::kGe,
      fn(FuncId::kCoalesce, args2(MakeColumnRef("t1", "c2"),
                                  MakeIntLiteral(0))),
      MakeIntLiteral(1));
  q23->order_by.push_back(Key(MakeColumnRef("t1", "c2"), false));
  corpus.push_back(std::move(q23));

  // Q24: scalar MIN/MAX — the per-dialect naming showcase (SQLite MIN/MAX,
  // MySQL/PostgreSQL LEAST/GREATEST).
  auto q24 = std::make_unique<SelectStmt>();
  q24->from_tables = {"t1"};
  q24->where = MakeBinary(
      BinaryOp::kAnd,
      MakeBinary(BinaryOp::kLe,
                 fn(FuncId::kGreatest, args2(MakeColumnRef("t1", "c2"),
                                             MakeIntLiteral(3))),
                 MakeIntLiteral(5)),
      MakeBinary(BinaryOp::kGt,
                 fn(FuncId::kLeast, args2(MakeColumnRef("t1", "c3"),
                                          MakeRealLiteral(2.0))),
                 MakeRealLiteral(0.0)));
  corpus.push_back(std::move(q24));

  // Q25: NULLIF under an IS NULL observer.
  auto q25 = std::make_unique<SelectStmt>();
  q25->from_tables = {"t1"};
  q25->where = MakeIsNull(
      fn(FuncId::kNullif, args2(MakeColumnRef("t1", "c2"),
                                MakeIntLiteral(1))),
      /*negated=*/false);
  corpus.push_back(std::move(q25));

  // Q26: CAST REAL → INTEGER compared against its own operand (the
  // truncation-sensitive metamorphic shape).
  auto q26 = std::make_unique<SelectStmt>();
  q26->from_tables = {"t1"};
  q26->where = MakeBinary(BinaryOp::kLe,
                          MakeCast(MakeColumnRef("t1", "c3"),
                                   Affinity::kInteger),
                          MakeColumnRef("t1", "c3"));
  corpus.push_back(std::move(q26));

  // Q27: CAST to TEXT and to REAL from an integer source.
  auto q27 = std::make_unique<SelectStmt>();
  q27->from_tables = {"t0"};
  q27->where = MakeBinary(
      BinaryOp::kAnd,
      MakeBinary(BinaryOp::kNe,
                 MakeCast(MakeColumnRef("t0", "c0"), Affinity::kText),
                 MakeTextLiteral("1")),
      MakeBinary(BinaryOp::kLt,
                 MakeCast(MakeColumnRef("t0", "c0"), Affinity::kReal),
                 MakeRealLiteral(2.5)));
  corpus.push_back(std::move(q27));

  // Q28: searched CASE with an ELSE arm as the WHERE predicate.
  auto q28 = std::make_unique<SelectStmt>();
  q28->from_tables = {"t0"};
  {
    std::vector<std::pair<ExprPtr, ExprPtr>> arms;
    arms.emplace_back(
        MakeBinary(BinaryOp::kGt, MakeColumnRef("t0", "c0"),
                   MakeIntLiteral(1)),
        MakeLike(MakeColumnRef("t0", "c1"), MakeTextLiteral("a%"),
                 /*negated=*/false));
    q28->where = MakeCase(std::move(arms),
                          MakeBinary(BinaryOp::kEq,
                                     MakeColumnRef("t0", "c0"),
                                     MakeIntLiteral(1)));
  }
  corpus.push_back(std::move(q28));

  // Q29: ELSE-less CASE rectified the NULL way (φ IS NULL).
  auto q29 = std::make_unique<SelectStmt>();
  q29->from_tables = {"t1"};
  {
    std::vector<std::pair<ExprPtr, ExprPtr>> arms;
    arms.emplace_back(
        MakeBinary(BinaryOp::kGt, MakeColumnRef("t1", "c2"),
                   MakeIntLiteral(5)),
        MakeBinary(BinaryOp::kLt, MakeColumnRef("t1", "c2"),
                   MakeIntLiteral(9)));
    q29->where = MakeIsNull(MakeCase(std::move(arms), nullptr),
                            /*negated=*/false);
  }
  corpus.push_back(std::move(q29));

  // Q30: explicit collations on text comparisons.
  auto q30 = std::make_unique<SelectStmt>();
  q30->from_tables = {"t2"};
  q30->where = MakeBinary(
      BinaryOp::kOr,
      MakeBinary(BinaryOp::kEq,
                 MakeCollate(MakeColumnRef("t2", "c4"), Collation::kNocase),
                 MakeTextLiteral("AB")),
      MakeBinary(BinaryOp::kLt,
                 MakeCollate(MakeColumnRef("t2", "c4"), Collation::kBinary),
                 MakeTextLiteral("b")));
  corpus.push_back(std::move(q30));

  // Q31: LIKE with an ESCAPE clause (escaped wildcard is literal).
  auto q31 = std::make_unique<SelectStmt>();
  q31->from_tables = {"t2"};
  q31->where = MakeLikeEscape(MakeColumnRef("t2", "c4"),
                              MakeTextLiteral("%a!%%"),
                              MakeTextLiteral("!"), /*negated=*/false);
  q31->order_by.push_back(Key(MakeColumnRef("t2", "c4"), false));
  corpus.push_back(std::move(q31));

  // Q32: IN list carrying a NULL element (UNKNOWN on a miss).
  auto q32 = std::make_unique<SelectStmt>();
  q32->from_tables = {"t0"};
  {
    std::vector<ExprPtr> in_items;
    in_items.push_back(MakeIntLiteral(1));
    in_items.push_back(MakeNullLiteral());
    in_items.push_back(MakeIntLiteral(3));
    q32->where = MakeIsNull(
        MakeInList(MakeColumnRef("t0", "c0"), std::move(in_items),
                   /*negated=*/true),
        /*negated=*/false);
  }
  corpus.push_back(std::move(q32));

  // Q33: nested calls — LENGTH(UPPER(x)) and COALESCE(NULLIF(x, 'ab'), y).
  auto q33 = std::make_unique<SelectStmt>();
  q33->from_tables = {"t0"};
  q33->joins.push_back(Join(
      JoinKind::kInner, "t2",
      MakeBinary(BinaryOp::kEq,
                 fn(FuncId::kLength,
                    args1(fn(FuncId::kUpper,
                             args1(MakeColumnRef("t2", "c4"))))),
                 MakeIntLiteral(2))));
  q33->where = MakeBinary(
      BinaryOp::kNe,
      fn(FuncId::kCoalesce,
         args2(fn(FuncId::kNullif, args2(MakeColumnRef("t2", "c4"),
                                         MakeTextLiteral("ab"))),
               MakeColumnRef("t0", "c1"))),
      MakeTextLiteral("zz"));
  corpus.push_back(std::move(q33));

  // --- Statement-level mutation engine (PR 5): UPDATE / DELETE /
  // --- DROP INDEX / maintenance, with follow-up queries probing the
  // --- mutated state through the index-scan paths. The mutations sit
  // --- after Q1-Q33 so those keep querying the pristine data. ------------

  // The SQLite PRIMARY KEY quirk, replayed differentially: a non-INTEGER
  // ("INT") PK column without NOT NULL admits a NULL row.
  auto t4 = std::make_unique<CreateTableStmt>();
  t4->table_name = "t4";
  t4->columns = {Column("c7", Affinity::kInteger),
                 Column("c8", Affinity::kText)};
  t4->columns[0].primary_key = true;
  corpus.push_back(std::move(t4));

  auto ins4 = std::make_unique<InsertStmt>();
  ins4->table_name = "t4";
  for (int r = 0; r < 2; ++r) {
    ins4->rows.emplace_back();
    ins4->rows.back().push_back(r == 0 ? MakeNullLiteral()
                                       : MakeIntLiteral(41));
    ins4->rows.back().push_back(MakeTextLiteral(r == 0 ? "pk-null" : "pk"));
  }
  corpus.push_back(std::move(ins4));

  // M1: single-assignment UPDATE with a WHERE over the partial-index
  // column.
  auto m1 = std::make_unique<UpdateStmt>();
  m1->table_name = "t1";
  {
    UpdateStmt::Assignment a;
    a.column = "c3";
    a.value = MakeBinary(BinaryOp::kAdd, MakeColumnRef("t1", "c3"),
                         MakeRealLiteral(1.5));
    m1->assignments.push_back(std::move(a));
  }
  m1->where = MakeIsNull(MakeColumnRef("t1", "c2"), /*negated=*/true);
  corpus.push_back(std::move(m1));

  // M2: multi-assignment UPDATE — both values read the pre-update row.
  auto m2 = std::make_unique<UpdateStmt>();
  m2->table_name = "t0";
  {
    UpdateStmt::Assignment a;
    a.column = "c0";
    a.value = MakeBinary(BinaryOp::kAdd, MakeColumnRef("t0", "c0"),
                         MakeIntLiteral(10));
    m2->assignments.push_back(std::move(a));
    UpdateStmt::Assignment b;
    b.column = "c1";
    b.value = MakeBinary(BinaryOp::kConcat, MakeColumnRef("t0", "c1"),
                         MakeTextLiteral("q"));
    m2->assignments.push_back(std::move(b));
  }
  m2->where = MakeBinary(BinaryOp::kGe, MakeColumnRef("t0", "c0"),
                         MakeIntLiteral(2));
  corpus.push_back(std::move(m2));

  // M3: UPDATE without a WHERE (every row).
  auto m3 = std::make_unique<UpdateStmt>();
  m3->table_name = "t2";
  {
    UpdateStmt::Assignment a;
    a.column = "c4";
    a.value = MakeTextLiteral("ab");
    m3->assignments.push_back(std::move(a));
  }
  corpus.push_back(std::move(m3));

  // Q34: partial-index probe — the WHERE carries i0's predicate verbatim
  // as a conjunct, so MiniDB answers it through the partial index.
  auto q34 = std::make_unique<SelectStmt>();
  q34->from_tables = {"t1"};
  q34->where = MakeBinary(
      BinaryOp::kAnd,
      MakeIsNull(MakeColumnRef("t1", "c2"), /*negated=*/true),
      MakeBinary(BinaryOp::kGt, MakeColumnRef("t1", "c3"),
                 MakeRealLiteral(1.0)));
  corpus.push_back(std::move(q34));

  // M4: DELETE with a WHERE.
  auto m4 = std::make_unique<DeleteStmt>();
  m4->table_name = "t1";
  m4->where = MakeIsNull(MakeColumnRef("t1", "c2"), /*negated=*/false);
  corpus.push_back(std::move(m4));

  // M5: maintenance rebuild — REINDEX t1 / OPTIMIZE TABLE t1 / REINDEX
  // TABLE t1 per dialect.
  auto m5 = std::make_unique<MaintenanceStmt>();
  m5->table_name = "t1";
  corpus.push_back(std::move(m5));

  // M6: DROP INDEX (MySQL spells the table, the others don't).
  auto m6 = std::make_unique<DropIndexStmt>();
  m6->index_name = "i0";
  m6->table_name = "t1";
  corpus.push_back(std::move(m6));

  // Q35: index probe over the unique two-column index i1 after mutation.
  auto q35 = std::make_unique<SelectStmt>();
  q35->from_tables = {"t3"};
  q35->where = MakeBinary(BinaryOp::kGt, MakeColumnRef("t3", "c5"),
                          MakeIntLiteral(9));
  corpus.push_back(std::move(q35));

  // Q36-Q39: whole-table fetches — the mutated end state must match the
  // model row-for-row (the runner's state-compare shape).
  for (const char* table : {"t0", "t1", "t2", "t4"}) {
    auto fetch = std::make_unique<SelectStmt>();
    fetch->from_tables = {table};
    corpus.push_back(std::move(fetch));
  }

  // --- Metamorphic oracle subsystem (PR 6): aggregates, GROUP BY/HAVING,
  // --- and the NoREC/TLP rewrite texts themselves, over the mutated end
  // --- state (t1 is down to (1, 2.0) and (2, 3.0); t2 is all 'ab'). ------

  // Q40: every global aggregate at once, mixing * / column / real args.
  auto q40 = std::make_unique<SelectStmt>();
  q40->from_tables = {"t1"};
  q40->select_list.push_back(MakeCountStar());
  q40->select_list.push_back(
      MakeAggregate(AggFunc::kSum, MakeColumnRef("t1", "c2"), false));
  q40->select_list.push_back(
      MakeAggregate(AggFunc::kAvg, MakeColumnRef("t1", "c3"), false));
  q40->select_list.push_back(
      MakeAggregate(AggFunc::kMin, MakeColumnRef("t1", "c3"), false));
  q40->select_list.push_back(
      MakeAggregate(AggFunc::kMax, MakeColumnRef("t1", "c2"), false));
  corpus.push_back(std::move(q40));

  // Q41: COUNT(DISTINCT) after M3 collapsed t2 to a single value.
  auto q41 = std::make_unique<SelectStmt>();
  q41->from_tables = {"t2"};
  q41->select_list.push_back(
      MakeAggregate(AggFunc::kCount, MakeColumnRef("t2", "c4"), true));
  corpus.push_back(std::move(q41));

  // Q42: GROUP BY with a multi-row group.
  auto q42 = std::make_unique<SelectStmt>();
  q42->from_tables = {"t2"};
  q42->select_list.push_back(MakeColumnRef("t2", "c4"));
  q42->select_list.push_back(MakeCountStar());
  q42->group_by.push_back(MakeColumnRef("t2", "c4"));
  corpus.push_back(std::move(q42));

  // Q43: GROUP BY over t4's NULL-keyed PK rows — NULLs form their own
  // group, and COUNT(c8) counts within it.
  auto q43 = std::make_unique<SelectStmt>();
  q43->from_tables = {"t4"};
  q43->select_list.push_back(MakeColumnRef("t4", "c7"));
  q43->select_list.push_back(
      MakeAggregate(AggFunc::kCount, MakeColumnRef("t4", "c8"), false));
  q43->group_by.push_back(MakeColumnRef("t4", "c7"));
  corpus.push_back(std::move(q43));

  // Q44: GROUP BY + HAVING, the HAVING aggregate not in the select list.
  auto q44 = std::make_unique<SelectStmt>();
  q44->from_tables = {"t2"};
  q44->select_list.push_back(MakeColumnRef("t2", "c4"));
  q44->select_list.push_back(
      MakeAggregate(AggFunc::kMin, MakeColumnRef("t2", "c4"), false));
  q44->group_by.push_back(MakeColumnRef("t2", "c4"));
  q44->having = MakeBinary(BinaryOp::kGt, MakeCountStar(), MakeIntLiteral(1));
  corpus.push_back(std::move(q44));

  // N1/N2: the NoREC pair for `t1.c2 > 1` — the optimized COUNT(*) side
  // and the predicate-as-projection side must agree in cardinality.
  {
    ExprPtr pred = MakeBinary(BinaryOp::kGt, MakeColumnRef("t1", "c2"),
                              MakeIntLiteral(1));
    corpus.push_back(sqlmeta::NorecOptimized("t1", *pred));
    corpus.push_back(sqlmeta::NorecUnoptimized("t1", *pred));
  }

  // T1a-T1c: TLP partitions of the global-aggregate query
  // `SELECT SUM(c2), COUNT(*) FROM t1` under `c3 > 2.25` — the IS NULL
  // partition is empty, so its SUM partial is NULL and its COUNT is 0.
  {
    SelectStmt full;
    full.from_tables = {"t1"};
    full.select_list.push_back(
        MakeAggregate(AggFunc::kSum, MakeColumnRef("t1", "c2"), false));
    full.select_list.push_back(MakeCountStar());
    ExprPtr pred = MakeBinary(BinaryOp::kGt, MakeColumnRef("t1", "c3"),
                              MakeRealLiteral(2.25));
    sqlmeta::TlpPlan plan;
    std::string error;
    if (sqlmeta::BuildTlpPlan(full, *pred, &plan, &error)) {
      for (auto& partition : plan.partitions) {
        corpus.push_back(std::move(partition));
      }
    }
  }

  // T2a-T2c: TLP partitions of the GROUP BY + HAVING query Q44 under
  // `c4 = 'ab'` — partitions keep the grouping but drop the HAVING (the
  // oracle re-applies it on recombined aggregates), and the NOT / IS NULL
  // partitions select no rows at all.
  {
    SelectStmt full;
    full.from_tables = {"t2"};
    full.select_list.push_back(MakeColumnRef("t2", "c4"));
    full.select_list.push_back(
        MakeAggregate(AggFunc::kMin, MakeColumnRef("t2", "c4"), false));
    full.group_by.push_back(MakeColumnRef("t2", "c4"));
    full.having =
        MakeBinary(BinaryOp::kGt, MakeCountStar(), MakeIntLiteral(1));
    ExprPtr pred = MakeBinary(BinaryOp::kEq, MakeColumnRef("t2", "c4"),
                              MakeTextLiteral("ab"));
    sqlmeta::TlpPlan plan;
    std::string error;
    if (sqlmeta::BuildTlpPlan(full, *pred, &plan, &error)) {
      for (auto& partition : plan.partitions) {
        corpus.push_back(std::move(partition));
      }
    }
  }

  // --- Transaction statements (PR 10): BEGIN / COMMIT / ROLLBACK in every
  // --- dialect (MySQL spells BEGIN as START TRANSACTION). The committed
  // --- block lands one row; the rolled-back block must leave no trace —
  // --- and the corpus ends back in autocommit so the replay engines stay
  // --- comparable statement-for-statement. -------------------------------

  corpus.push_back(std::make_unique<BeginStmt>());
  auto txn_ins = std::make_unique<InsertStmt>();
  txn_ins->table_name = "t4";
  txn_ins->rows.emplace_back();
  txn_ins->rows.back().push_back(MakeIntLiteral(77));
  txn_ins->rows.back().push_back(MakeTextLiteral("committed"));
  corpus.push_back(std::move(txn_ins));
  corpus.push_back(std::make_unique<CommitStmt>());

  corpus.push_back(std::make_unique<BeginStmt>());
  auto txn_upd = std::make_unique<UpdateStmt>();
  txn_upd->table_name = "t4";
  {
    UpdateStmt::Assignment a;
    a.column = "c8";
    a.value = MakeTextLiteral("rolled-back");
    txn_upd->assignments.push_back(std::move(a));
  }
  corpus.push_back(std::move(txn_upd));
  auto txn_del = std::make_unique<DeleteStmt>();
  txn_del->table_name = "t4";
  txn_del->where = MakeBinary(BinaryOp::kEq, MakeColumnRef("t4", "c7"),
                              MakeIntLiteral(41));
  corpus.push_back(std::move(txn_del));
  corpus.push_back(std::make_unique<RollbackStmt>());

  // Q45: t4's end state — the committed row present, the aborted update
  // and delete absent.
  auto q45 = std::make_unique<SelectStmt>();
  q45->from_tables = {"t4"};
  corpus.push_back(std::move(q45));

  return corpus;
}

void TestGoldenRendering() {
  std::vector<StmtPtr> corpus = BuildCorpus();
  std::string rendered;
  for (Dialect dialect : {Dialect::kSqliteFlex, Dialect::kMysqlLike,
                          Dialect::kPostgresStrict}) {
    rendered += std::string("-- dialect: ") + DialectName(dialect) + "\n";
    for (const StmtPtr& stmt : corpus) {
      rendered += RenderStmt(*stmt, dialect);
      rendered += ";\n";
    }
  }
  test::CheckGolden(std::string(PQS_SOURCE_DIR) +
                        "/tests/golden/render_roundtrip.golden",
                    rendered);
}

// Row-multiset comparison comes from the shared interp helper
// (pqs::SameRowMultiset), the same code the runner's mutation state
// compare uses.

void TestCorpusReplaysThroughRealSqlite() {
  std::vector<StmtPtr> corpus = BuildCorpus();
  SqliteConnection real;
  minidb::Database model(Dialect::kSqliteFlex);
  for (const StmtPtr& stmt : corpus) {
    StatementResult from_real = real.Execute(*stmt);
    StatementResult from_model = model.Execute(*stmt);
    std::string sql = RenderStmt(*stmt, Dialect::kSqliteFlex);
    CHECK_MSG(from_real.ok(), "real sqlite rejected: %s (%s)", sql.c_str(),
              from_real.error.c_str());
    CHECK_MSG(from_model.ok(), "minidb rejected: %s (%s)", sql.c_str(),
              from_model.error.c_str());
    if (!from_real.ok() || !from_model.ok()) continue;
    if (stmt->kind() != StmtKind::kSelect) continue;
    const auto& sel = static_cast<const SelectStmt&>(*stmt);
    // LIMIT results are order-dependent only up to ties, so compare sizes
    // there; everything else must match as a row multiset.
    if (sel.limit >= 0) {
      CHECK_MSG(from_real.rows.size() == from_model.rows.size(),
                "row count diverged on: %s (real %zu vs model %zu)",
                sql.c_str(), from_real.rows.size(), from_model.rows.size());
    } else {
      CHECK_MSG(SameRowMultiset(from_real.rows, from_model.rows),
                "result diverged on: %s", sql.c_str());
    }
  }
}

// Unary minus over a negative literal renders as "(- -3)": "(--3)" would
// start an SQL line comment and leave the statement incomplete. The query
// must render that way in every dialect and return the same rows on MiniDB
// and on real sqlite3.
void TestNegatedNegativeLiteralRoundTrips() {
  CreateTableStmt ct;
  ct.table_name = "t";
  ct.columns = {Column("a", Affinity::kInteger)};
  InsertStmt ins;
  ins.table_name = "t";
  for (int64_t v : {2, 5}) {
    ins.rows.emplace_back();
    ins.rows.back().push_back(MakeIntLiteral(v));
  }
  SelectStmt sel;
  sel.from_tables = {"t"};
  sel.where =
      MakeBinary(BinaryOp::kLt, MakeColumnRef("t", "a"),
                 MakeUnary(UnaryOp::kNeg, MakeIntLiteral(-3)));
  for (Dialect dialect : {Dialect::kSqliteFlex, Dialect::kMysqlLike,
                          Dialect::kPostgresStrict}) {
    CHECK_EQ(RenderStmt(sel, dialect),
             std::string("SELECT * FROM t WHERE (t.a < (- -3))"));
  }

  minidb::Database model(Dialect::kSqliteFlex);
  CHECK(model.Execute(ct).ok());
  CHECK(model.Execute(ins).ok());
  StatementResult from_model = model.Execute(sel);
  CHECK(from_model.ok());
  CHECK_EQ(from_model.rows.size(), static_cast<size_t>(1));
  SqliteConnection real;
  CHECK(real.Execute(ct).ok());
  CHECK(real.Execute(ins).ok());
  StatementResult from_real = real.Execute(sel);
  CHECK_MSG(from_real.ok(), "real sqlite rejected: %s",
            from_real.error.c_str());
  CHECK(SameRowMultiset(from_real.rows, from_model.rows));
}

}  // namespace
}  // namespace pqs

int main() {
  pqs::TestGoldenRendering();
  pqs::TestCorpusReplaysThroughRealSqlite();
  pqs::TestNegatedNegativeLiteralRoundTrips();
  return pqs::test::Summary("test_render_roundtrip");
}
