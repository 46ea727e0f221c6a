// Typed SQL statement and expression AST.
//
// The generator produces these nodes, the MiniDB engine interprets them
// directly, and the sqlparser module renders them to SQL text for real
// engines (and for human-readable bug reports). Statements are modeled as a
// small class hierarchy because test cases are heterogeneous statement
// lists; expressions are a single tagged node because the evaluator wants
// one uniform recursion.
#ifndef PQS_SRC_SQLAST_AST_H_
#define PQS_SRC_SQLAST_AST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/sqlvalue/value.h"

namespace pqs {

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind {
  kLiteral,
  kColumnRef,
  kUnary,         // NOT e, -e
  kBinary,        // comparison / logical / arithmetic / concat
  kIsNull,        // e IS [NOT] NULL
  kInList,        // e [NOT] IN (v, ...)
  kBetween,       // e [NOT] BETWEEN lo AND hi
  kLike,          // e [NOT] LIKE pattern [ESCAPE esc]
  kFunctionCall,  // F(a, b, ...) — F from the sqlexpr function registry
  kCast,          // CAST(e AS type)
  kCase,          // CASE WHEN w THEN t [WHEN ...] [ELSE e] END
  kCollate,       // e COLLATE BINARY|NOCASE
  kAggregate,     // COUNT(*) / COUNT|SUM|AVG|MIN|MAX([DISTINCT] e)
};

// Aggregate functions of the grouping subsystem. Unlike the scalar FuncId
// vocabulary these are not registry-driven: every dialect spells all five
// the same way, and their semantics live in the shared grouping core
// (src/interp), not in the per-dialect function registry.
enum class AggFunc : uint8_t { kCount, kSum, kAvg, kMin, kMax, kNumAggFuncs };

// Uppercase SQL spelling ("COUNT", "SUM", ...), identical in every dialect.
const char* AggFuncName(AggFunc func);

// Scalar functions the typed expression subsystem models. The vocabulary
// lives here because Expr nodes carry a FuncId; everything *about* a
// function (per-dialect name and availability, arity, NULL-propagation
// rule, argument typing) lives in the src/sqlexpr registry.
enum class FuncId : uint8_t {
  kAbs = 0,
  kLength,
  kUpper,
  kLower,
  kCoalesce,
  kNullif,
  kLeast,     // scalar MIN(a, b, ...) in SQLite spelling
  kGreatest,  // scalar MAX(a, b, ...) in SQLite spelling
  kIfnull,    // SQLite/MySQL only; PostgreSQL has no IFNULL
  kNumFuncs,
};

// Explicit text collation of a COLLATE operator. kBinary is byte-wise,
// kNocase folds ASCII case (the SQLite built-in pair this repo models).
enum class Collation : uint8_t { kBinary, kNocase };

enum class UnaryOp { kNot, kNeg };

enum class BinaryOp {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kConcat,
};

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  ExprKind kind = ExprKind::kLiteral;

  SqlValue literal;                  // kLiteral
  std::string table;                 // kColumnRef (may be empty = unqualified)
  std::string column;                // kColumnRef
  UnaryOp uop = UnaryOp::kNot;       // kUnary
  BinaryOp bop = BinaryOp::kEq;      // kBinary
  bool negated = false;              // IS NOT NULL / NOT IN / NOT BETWEEN /
                                     // NOT LIKE
  FuncId func = FuncId::kAbs;        // kFunctionCall
  AggFunc agg = AggFunc::kCount;     // kAggregate
  bool agg_distinct = false;         // kAggregate: COUNT(DISTINCT e), ...
  bool agg_star = false;             // kAggregate: COUNT(*) (no operand)
  Affinity cast_to = Affinity::kText;        // kCast target type
  Collation collation = Collation::kBinary;  // kCollate
  bool case_has_else = false;        // kCase: last arg is the ELSE value
  std::vector<ExprPtr> args;         // operands; kInList: args[0] is the
                                     // probe, args[1..] the list; kBetween:
                                     // {value, lo, hi}; kLike: {value,
                                     // pattern[, escape]}; kFunctionCall:
                                     // call arguments; kCase: WHEN/THEN
                                     // pairs, then the ELSE value when
                                     // case_has_else

  // Expr nodes are allocated from NodePool's size classes
  // (src/common/arena.h): the generate/clone/rectify/reduce path churns
  // nodes far faster than the general-purpose heap likes, and the pool
  // turns each node's allocation into a thread-local pointer pop.
  // Deleting on a different thread than the allocating one is safe (slabs
  // are immortal; see NodePool).
  static void* operator new(size_t size);
  static void operator delete(void* p, size_t size);
  static void* operator new(size_t, void* p) { return p; }  // placement
  static void operator delete(void*, void*) {}

  ExprPtr Clone() const;
  // Height of the expression tree (a literal is 1).
  int Depth() const;
  // Structural equality: same node kinds, flags, literals (storage class
  // and exact value), and children. The scan planner uses this to decide
  // whether a WHERE conjunct *is* a partial index's predicate.
  bool StructurallyEquals(const Expr& other) const;
  bool ContainsKind(ExprKind k) const;
  bool ContainsBinaryOp(BinaryOp op) const;
  // Count of nodes matching a predicate-free structural query.
  size_t CountBinaryOp(BinaryOp op) const;
  size_t CountKind(ExprKind k) const;
  bool ContainsFunction(FuncId id) const;
  // True if some kIsNull node with the given negation exists.
  bool ContainsIsNull(bool negated_form) const;
  // True if some kBinary comparison has column refs on both sides.
  bool ContainsColumnColumnCompare() const;

  // kCase accessors over the flattened args layout.
  size_t CaseArmCount() const {
    return (args.size() - (case_has_else ? 1 : 0)) / 2;
  }
  const Expr* CaseElse() const {
    return case_has_else ? args.back().get() : nullptr;
  }
};

ExprPtr MakeIntLiteral(int64_t v);
ExprPtr MakeRealLiteral(double v);
ExprPtr MakeTextLiteral(std::string v);
ExprPtr MakeNullLiteral();
ExprPtr MakeLiteral(SqlValue v);
ExprPtr MakeColumnRef(std::string table, std::string column);
ExprPtr MakeUnary(UnaryOp op, ExprPtr operand);
ExprPtr MakeBinary(BinaryOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr MakeIsNull(ExprPtr operand, bool negated);
ExprPtr MakeInList(ExprPtr probe, std::vector<ExprPtr> list, bool negated);
ExprPtr MakeBetween(ExprPtr value, ExprPtr lo, ExprPtr hi, bool negated);
ExprPtr MakeLike(ExprPtr value, ExprPtr pattern, bool negated);
// LIKE with an explicit ESCAPE character (a one-character text literal).
ExprPtr MakeLikeEscape(ExprPtr value, ExprPtr pattern, ExprPtr escape,
                       bool negated);
ExprPtr MakeFunctionCall(FuncId func, std::vector<ExprPtr> args);
ExprPtr MakeCast(ExprPtr operand, Affinity to);
// Searched CASE: when_then holds WHEN/THEN pairs in order; else_value may
// be null (no ELSE arm ⇒ NULL when nothing matches).
ExprPtr MakeCase(std::vector<std::pair<ExprPtr, ExprPtr>> when_then,
                 ExprPtr else_value);
ExprPtr MakeCollate(ExprPtr operand, Collation collation);
// COUNT|SUM|AVG|MIN|MAX([DISTINCT] arg). COUNT(*) has its own factory
// because it takes no operand (agg_star is set instead).
ExprPtr MakeAggregate(AggFunc func, ExprPtr arg, bool distinct);
ExprPtr MakeCountStar();

bool IsComparisonOp(BinaryOp op);
bool IsArithmeticOp(BinaryOp op);

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

struct ColumnDef {
  std::string name;
  std::string declared_type;  // e.g. "INT", "REAL", "TEXT" (display only)
  Affinity affinity = Affinity::kText;
  bool unique = false;
  bool primary_key = false;
  bool not_null = false;
};

enum class StmtKind {
  kCreateTable,
  kCreateIndex,
  kDropIndex,
  kInsert,
  kSelect,
  kUpdate,
  kDelete,
  kMaintenance,  // REINDEX / OPTIMIZE TABLE, dialect-rendered
  kBegin,        // BEGIN / START TRANSACTION, dialect-rendered
  kCommit,
  kRollback,
  kSetSession,   // scheduler-only: switch the active logical session
};

struct Stmt {
  virtual ~Stmt() = default;
  virtual StmtKind kind() const = 0;
  virtual std::unique_ptr<Stmt> Clone() const = 0;
};

using StmtPtr = std::unique_ptr<Stmt>;

struct CreateTableStmt : Stmt {
  std::string table_name;
  std::vector<ColumnDef> columns;

  StmtKind kind() const override { return StmtKind::kCreateTable; }
  StmtPtr Clone() const override;
};

// The statement-level mutation nodes (CREATE INDEX, DROP INDEX, UPDATE,
// DELETE, maintenance) live in src/sqlstmt/stmt.h; this header keeps the
// Stmt base plus the original schema/data/query statements.

struct InsertStmt : Stmt {
  std::string table_name;
  // One entry per inserted row; each row lists one literal expression per
  // table column, in declaration order.
  std::vector<std::vector<ExprPtr>> rows;

  StmtKind kind() const override { return StmtKind::kInsert; }
  StmtPtr Clone() const override;
};

// Explicit join chain step. A SELECT with joins reads
// `FROM from_tables[0] <join 0> <join 1> ...`; each clause combines the
// rows accumulated so far with one more table. kCross takes no ON
// condition; kInner and kLeft require one (the generator always supplies
// it, and MiniDB rejects a missing ON as a statement error).
enum class JoinKind { kInner, kLeft, kCross };

const char* JoinKindName(JoinKind kind);

struct JoinClause {
  JoinKind kind = JoinKind::kInner;
  std::string table;  // right-hand table of this step
  ExprPtr on;         // null for kCross

  JoinClause Clone() const;
};

struct OrderByItem {
  ExprPtr expr;
  bool descending = false;

  OrderByItem Clone() const;
};

struct SelectStmt : Stmt {
  bool distinct = false;
  // Empty select_list means `SELECT *` over all FROM-table columns in
  // declaration order.
  std::vector<ExprPtr> select_list;
  // Comma-list FROM (cross product). When `joins` is non-empty this must
  // hold exactly the one base table the join chain starts from.
  std::vector<std::string> from_tables;
  std::vector<JoinClause> joins;
  ExprPtr where;  // may be null
  std::vector<ExprPtr> group_by;  // GROUP BY keys (column refs)
  ExprPtr having;                 // may be null; requires/implies grouping
  std::vector<OrderByItem> order_by;
  int64_t limit = -1;  // < 0 means no LIMIT clause

  StmtKind kind() const override { return StmtKind::kSelect; }
  StmtPtr Clone() const override;

  // All FROM tables in join order: from_tables then each join's table.
  std::vector<std::string> AllTables() const;
  // True when the statement needs the grouping/aggregation pipeline: an
  // aggregate call anywhere in the select list or HAVING, or an explicit
  // GROUP BY.
  bool HasAggregates() const;
};

// Figure-3 statement category ("CREATE TABLE", "INSERT", ...).
const char* StatementCategory(const Stmt& stmt);

}  // namespace pqs

#endif  // PQS_SRC_SQLAST_AST_H_
