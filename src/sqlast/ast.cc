#include "src/sqlast/ast.h"

#include <algorithm>

#include "src/common/arena.h"

namespace pqs {

static_assert(sizeof(Expr) <= NodePool::kMaxBlock,
              "Expr must fit one NodePool size class");

void* Expr::operator new(size_t size) { return NodePool::Take(size); }
void Expr::operator delete(void* p, size_t size) {
  if (p != nullptr) NodePool::Put(p, size);
}

ExprPtr Expr::Clone() const {
  auto out = std::make_unique<Expr>();
  out->kind = kind;
  out->literal = literal;
  out->table = table;
  out->column = column;
  out->uop = uop;
  out->bop = bop;
  out->negated = negated;
  out->func = func;
  out->agg = agg;
  out->agg_distinct = agg_distinct;
  out->agg_star = agg_star;
  out->cast_to = cast_to;
  out->collation = collation;
  out->case_has_else = case_has_else;
  out->args.reserve(args.size());
  for (const ExprPtr& a : args) {
    out->args.push_back(a ? a->Clone() : nullptr);
  }
  return out;
}

int Expr::Depth() const {
  int deepest = 0;
  for (const ExprPtr& a : args) {
    if (a) deepest = std::max(deepest, a->Depth());
  }
  return deepest + 1;
}

bool Expr::ContainsKind(ExprKind k) const {
  if (kind == k) return true;
  for (const ExprPtr& a : args) {
    if (a && a->ContainsKind(k)) return true;
  }
  return false;
}

bool Expr::ContainsBinaryOp(BinaryOp op) const {
  if (kind == ExprKind::kBinary && bop == op) return true;
  for (const ExprPtr& a : args) {
    if (a && a->ContainsBinaryOp(op)) return true;
  }
  return false;
}

size_t Expr::CountBinaryOp(BinaryOp op) const {
  size_t count = (kind == ExprKind::kBinary && bop == op) ? 1 : 0;
  for (const ExprPtr& a : args) {
    if (a) count += a->CountBinaryOp(op);
  }
  return count;
}

size_t Expr::CountKind(ExprKind k) const {
  size_t count = kind == k ? 1 : 0;
  for (const ExprPtr& a : args) {
    if (a) count += a->CountKind(k);
  }
  return count;
}

bool Expr::ContainsIsNull(bool negated_form) const {
  if (kind == ExprKind::kIsNull && negated == negated_form) return true;
  for (const ExprPtr& a : args) {
    if (a && a->ContainsIsNull(negated_form)) return true;
  }
  return false;
}

bool Expr::StructurallyEquals(const Expr& other) const {
  if (kind != other.kind || negated != other.negated ||
      args.size() != other.args.size()) {
    return false;
  }
  switch (kind) {
    case ExprKind::kLiteral:
      if (literal.cls != other.literal.cls) return false;
      switch (literal.cls) {
        case StorageClass::kNull:
          break;
        case StorageClass::kInteger:
          if (literal.i != other.literal.i) return false;
          break;
        case StorageClass::kReal:
          if (literal.r != other.literal.r) return false;
          break;
        case StorageClass::kText:
          if (literal.t != other.literal.t) return false;
          break;
      }
      break;
    case ExprKind::kColumnRef:
      if (table != other.table || column != other.column) return false;
      break;
    case ExprKind::kUnary:
      if (uop != other.uop) return false;
      break;
    case ExprKind::kBinary:
      if (bop != other.bop) return false;
      break;
    case ExprKind::kFunctionCall:
      if (func != other.func) return false;
      break;
    case ExprKind::kAggregate:
      if (agg != other.agg || agg_distinct != other.agg_distinct ||
          agg_star != other.agg_star) {
        return false;
      }
      break;
    case ExprKind::kCast:
      if (cast_to != other.cast_to) return false;
      break;
    case ExprKind::kCollate:
      if (collation != other.collation) return false;
      break;
    case ExprKind::kCase:
      if (case_has_else != other.case_has_else) return false;
      break;
    default:
      break;
  }
  for (size_t i = 0; i < args.size(); ++i) {
    if ((args[i] == nullptr) != (other.args[i] == nullptr)) return false;
    if (args[i] != nullptr && !args[i]->StructurallyEquals(*other.args[i])) {
      return false;
    }
  }
  return true;
}

ExprPtr MakeLiteral(SqlValue v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

ExprPtr MakeIntLiteral(int64_t v) { return MakeLiteral(SqlValue::Int(v)); }
ExprPtr MakeRealLiteral(double v) { return MakeLiteral(SqlValue::Real(v)); }
ExprPtr MakeTextLiteral(std::string v) {
  return MakeLiteral(SqlValue::Text(std::move(v)));
}
ExprPtr MakeNullLiteral() { return MakeLiteral(SqlValue::Null()); }

ExprPtr MakeColumnRef(std::string table, std::string column) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kColumnRef;
  e->table = std::move(table);
  e->column = std::move(column);
  return e;
}

ExprPtr MakeUnary(UnaryOp op, ExprPtr operand) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kUnary;
  e->uop = op;
  e->args.push_back(std::move(operand));
  return e;
}

ExprPtr MakeBinary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->bop = op;
  e->args.reserve(2);
  e->args.push_back(std::move(lhs));
  e->args.push_back(std::move(rhs));
  return e;
}

ExprPtr MakeIsNull(ExprPtr operand, bool negated) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kIsNull;
  e->negated = negated;
  e->args.push_back(std::move(operand));
  return e;
}

ExprPtr MakeInList(ExprPtr probe, std::vector<ExprPtr> list, bool negated) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kInList;
  e->negated = negated;
  e->args.reserve(1 + list.size());
  e->args.push_back(std::move(probe));
  for (ExprPtr& item : list) e->args.push_back(std::move(item));
  return e;
}

ExprPtr MakeBetween(ExprPtr value, ExprPtr lo, ExprPtr hi, bool negated) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBetween;
  e->negated = negated;
  e->args.reserve(3);
  e->args.push_back(std::move(value));
  e->args.push_back(std::move(lo));
  e->args.push_back(std::move(hi));
  return e;
}

ExprPtr MakeLike(ExprPtr value, ExprPtr pattern, bool negated) {
  return MakeLikeEscape(std::move(value), std::move(pattern), nullptr,
                        negated);
}

ExprPtr MakeLikeEscape(ExprPtr value, ExprPtr pattern, ExprPtr escape,
                       bool negated) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLike;
  e->negated = negated;
  e->args.reserve(escape != nullptr ? 3 : 2);
  e->args.push_back(std::move(value));
  e->args.push_back(std::move(pattern));
  if (escape != nullptr) e->args.push_back(std::move(escape));
  return e;
}

ExprPtr MakeFunctionCall(FuncId func, std::vector<ExprPtr> args) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kFunctionCall;
  e->func = func;
  e->args = std::move(args);
  return e;
}

ExprPtr MakeCast(ExprPtr operand, Affinity to) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kCast;
  e->cast_to = to;
  e->args.push_back(std::move(operand));
  return e;
}

ExprPtr MakeCase(std::vector<std::pair<ExprPtr, ExprPtr>> when_then,
                 ExprPtr else_value) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kCase;
  e->args.reserve(2 * when_then.size() + (else_value != nullptr ? 1 : 0));
  for (auto& [when, then] : when_then) {
    e->args.push_back(std::move(when));
    e->args.push_back(std::move(then));
  }
  if (else_value != nullptr) {
    e->case_has_else = true;
    e->args.push_back(std::move(else_value));
  }
  return e;
}

ExprPtr MakeCollate(ExprPtr operand, Collation collation) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kCollate;
  e->collation = collation;
  e->args.push_back(std::move(operand));
  return e;
}

ExprPtr MakeAggregate(AggFunc func, ExprPtr arg, bool distinct) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kAggregate;
  e->agg = func;
  e->agg_distinct = distinct;
  e->args.push_back(std::move(arg));
  return e;
}

ExprPtr MakeCountStar() {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kAggregate;
  e->agg = AggFunc::kCount;
  e->agg_star = true;
  return e;
}

const char* AggFuncName(AggFunc func) {
  switch (func) {
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kAvg:
      return "AVG";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
    case AggFunc::kNumAggFuncs:
      break;
  }
  return "?";
}

bool IsComparisonOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

bool IsArithmeticOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
      return true;
    default:
      return false;
  }
}

StmtPtr CreateTableStmt::Clone() const {
  auto out = std::make_unique<CreateTableStmt>();
  out->table_name = table_name;
  out->columns = columns;
  return out;
}

StmtPtr InsertStmt::Clone() const {
  auto out = std::make_unique<InsertStmt>();
  out->table_name = table_name;
  out->rows.reserve(rows.size());
  for (const auto& row : rows) {
    out->rows.emplace_back();
    out->rows.back().reserve(row.size());
    for (const ExprPtr& v : row) {
      out->rows.back().push_back(v ? v->Clone() : nullptr);
    }
  }
  return out;
}

JoinClause JoinClause::Clone() const {
  JoinClause out;
  out.kind = kind;
  out.table = table;
  out.on = on ? on->Clone() : nullptr;
  return out;
}

OrderByItem OrderByItem::Clone() const {
  OrderByItem out;
  out.expr = expr ? expr->Clone() : nullptr;
  out.descending = descending;
  return out;
}

StmtPtr SelectStmt::Clone() const {
  auto out = std::make_unique<SelectStmt>();
  out->distinct = distinct;
  out->select_list.reserve(select_list.size());
  for (const ExprPtr& e : select_list) {
    out->select_list.push_back(e ? e->Clone() : nullptr);
  }
  out->from_tables = from_tables;
  out->joins.reserve(joins.size());
  for (const JoinClause& j : joins) out->joins.push_back(j.Clone());
  out->where = where ? where->Clone() : nullptr;
  out->group_by.reserve(group_by.size());
  for (const ExprPtr& g : group_by) {
    out->group_by.push_back(g ? g->Clone() : nullptr);
  }
  out->having = having ? having->Clone() : nullptr;
  out->order_by.reserve(order_by.size());
  for (const OrderByItem& o : order_by) out->order_by.push_back(o.Clone());
  out->limit = limit;
  return out;
}

bool SelectStmt::HasAggregates() const {
  if (!group_by.empty() || having != nullptr) return true;
  for (const ExprPtr& e : select_list) {
    if (e && e->ContainsKind(ExprKind::kAggregate)) return true;
  }
  return false;
}

const char* StatementCategory(const Stmt& stmt) {
  switch (stmt.kind()) {
    case StmtKind::kCreateTable:
      return "CREATE TABLE";
    case StmtKind::kCreateIndex:
      return "CREATE INDEX";
    case StmtKind::kDropIndex:
      return "DROP INDEX";
    case StmtKind::kInsert:
      return "INSERT";
    case StmtKind::kSelect:
      return "SELECT";
    case StmtKind::kUpdate:
      return "UPDATE";
    case StmtKind::kDelete:
      return "DELETE";
    case StmtKind::kMaintenance:
      return "REINDEX";
    case StmtKind::kBegin:
      return "BEGIN";
    case StmtKind::kCommit:
      return "COMMIT";
    case StmtKind::kRollback:
      return "ROLLBACK";
    case StmtKind::kSetSession:
      return "SET SESSION";
  }
  return "?";
}

}  // namespace pqs
