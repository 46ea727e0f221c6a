#include "src/sqlparser/render.h"

#include "src/sqlexpr/registry.h"
#include "src/sqlstmt/stmt.h"

namespace pqs {

namespace {

const char* BinaryOpToken(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "<>";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kConcat:
      return "||";
  }
  return "?";
}

// Dialect spelling of a join step. MySQL idiomatically writes a bare JOIN
// for an inner join; SQLite and PostgreSQL get the explicit INNER keyword.
const char* JoinToken(JoinKind kind, Dialect dialect) {
  switch (kind) {
    case JoinKind::kInner:
      return dialect == Dialect::kMysqlLike ? "JOIN" : "INNER JOIN";
    case JoinKind::kLeft:
      return "LEFT JOIN";
    case JoinKind::kCross:
      return "CROSS JOIN";
  }
  return "JOIN";
}

void AppendExpr(const Expr& expr, Dialect dialect, std::string* out) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      *out += expr.literal.ToSqlLiteral();
      return;
    case ExprKind::kColumnRef:
      if (!expr.table.empty()) {
        *out += expr.table;
        *out += '.';
      }
      *out += expr.column;
      return;
    case ExprKind::kUnary: {
      bool negate = expr.uop == UnaryOp::kNeg;
      *out += negate ? "(-" : "(NOT ";
      size_t operand = out->size();
      AppendExpr(*expr.args[0], dialect, out);
      // Minus over a negative literal would make "--", which SQL reads as
      // the start of a line comment.
      if (negate && out->compare(operand, 1, "-") == 0) {
        out->insert(operand, 1, ' ');
      }
      *out += ')';
      return;
    }
    case ExprKind::kBinary:
      *out += '(';
      AppendExpr(*expr.args[0], dialect, out);
      *out += ' ';
      *out += BinaryOpToken(expr.bop);
      *out += ' ';
      AppendExpr(*expr.args[1], dialect, out);
      *out += ')';
      return;
    case ExprKind::kIsNull:
      *out += '(';
      AppendExpr(*expr.args[0], dialect, out);
      *out += expr.negated ? " IS NOT NULL)" : " IS NULL)";
      return;
    case ExprKind::kInList:
      *out += '(';
      AppendExpr(*expr.args[0], dialect, out);
      *out += expr.negated ? " NOT IN (" : " IN (";
      for (size_t i = 1; i < expr.args.size(); ++i) {
        if (i > 1) *out += ", ";
        AppendExpr(*expr.args[i], dialect, out);
      }
      *out += "))";
      return;
    case ExprKind::kBetween:
      *out += '(';
      AppendExpr(*expr.args[0], dialect, out);
      *out += expr.negated ? " NOT BETWEEN " : " BETWEEN ";
      AppendExpr(*expr.args[1], dialect, out);
      *out += " AND ";
      AppendExpr(*expr.args[2], dialect, out);
      *out += ')';
      return;
    case ExprKind::kLike:
      *out += '(';
      AppendExpr(*expr.args[0], dialect, out);
      *out += expr.negated ? " NOT LIKE " : " LIKE ";
      AppendExpr(*expr.args[1], dialect, out);
      if (expr.args.size() > 2 && expr.args[2] != nullptr) {
        *out += " ESCAPE ";
        AppendExpr(*expr.args[2], dialect, out);
      }
      *out += ')';
      return;
    case ExprKind::kFunctionCall: {
      const FunctionSig& sig = LookupFunction(expr.func);
      const char* name = sig.NameFor(dialect);
      // Defensive spelling for a dialect the registry says lacks the
      // function: the SQLite name keeps the output parseable-looking.
      *out += name != nullptr ? name : sig.names[0];
      *out += '(';
      for (size_t i = 0; i < expr.args.size(); ++i) {
        if (i > 0) *out += ", ";
        AppendExpr(*expr.args[i], dialect, out);
      }
      *out += ')';
      return;
    }
    case ExprKind::kCast:
      *out += "CAST(";
      AppendExpr(*expr.args[0], dialect, out);
      *out += " AS ";
      *out += CastTypeName(expr.cast_to, dialect);
      *out += ')';
      return;
    case ExprKind::kCase: {
      *out += "(CASE";
      size_t arms = expr.CaseArmCount();
      for (size_t i = 0; i < arms; ++i) {
        *out += " WHEN ";
        AppendExpr(*expr.args[2 * i], dialect, out);
        *out += " THEN ";
        AppendExpr(*expr.args[2 * i + 1], dialect, out);
      }
      if (expr.case_has_else) {
        *out += " ELSE ";
        AppendExpr(*expr.CaseElse(), dialect, out);
      }
      *out += " END)";
      return;
    }
    case ExprKind::kCollate:
      *out += '(';
      AppendExpr(*expr.args[0], dialect, out);
      *out += " COLLATE ";
      *out += CollationName(expr.collation);
      *out += ')';
      return;
    case ExprKind::kAggregate:
      *out += AggFuncName(expr.agg);
      if (expr.agg_star) {
        *out += "(*)";
        return;
      }
      *out += '(';
      if (expr.agg_distinct) *out += "DISTINCT ";
      AppendExpr(*expr.args[0], dialect, out);
      *out += ')';
      return;
  }
  *out += '?';
}

void AppendSelect(const SelectStmt& sel, Dialect dialect, std::string* out) {
  *out += "SELECT ";
  if (sel.distinct) *out += "DISTINCT ";
  if (sel.select_list.empty()) {
    *out += '*';
  } else {
    for (size_t i = 0; i < sel.select_list.size(); ++i) {
      if (i > 0) *out += ", ";
      AppendExpr(*sel.select_list[i], dialect, out);
    }
  }
  *out += " FROM ";
  for (size_t i = 0; i < sel.from_tables.size(); ++i) {
    if (i > 0) *out += ", ";
    *out += sel.from_tables[i];
  }
  for (const JoinClause& join : sel.joins) {
    *out += ' ';
    *out += JoinToken(join.kind, dialect);
    *out += ' ';
    *out += join.table;
    if (join.on) {
      *out += " ON ";
      AppendExpr(*join.on, dialect, out);
    }
  }
  if (sel.where) {
    *out += " WHERE ";
    AppendExpr(*sel.where, dialect, out);
  }
  if (!sel.group_by.empty()) {
    *out += " GROUP BY ";
    for (size_t i = 0; i < sel.group_by.size(); ++i) {
      if (i > 0) *out += ", ";
      AppendExpr(*sel.group_by[i], dialect, out);
    }
  }
  if (sel.having) {
    *out += " HAVING ";
    AppendExpr(*sel.having, dialect, out);
  }
  if (!sel.order_by.empty()) {
    *out += " ORDER BY ";
    for (size_t i = 0; i < sel.order_by.size(); ++i) {
      const OrderByItem& item = sel.order_by[i];
      if (i > 0) *out += ", ";
      AppendExpr(*item.expr, dialect, out);
      *out += item.descending ? " DESC" : " ASC";
      // PostgreSQL defaults to NULLS LAST on ASC (the reverse of the
      // SQLite/MySQL model this repo evaluates with), so the strict
      // dialect pins the NULL position explicitly.
      if (dialect == Dialect::kPostgresStrict) {
        *out += item.descending ? " NULLS LAST" : " NULLS FIRST";
      }
    }
  }
  if (sel.limit >= 0) {
    *out += " LIMIT ";
    *out += std::to_string(sel.limit);
  }
}

}  // namespace

void RenderExprTo(const Expr& expr, Dialect dialect, std::string* out) {
  AppendExpr(expr, dialect, out);
}

std::string RenderExpr(const Expr& expr, Dialect dialect) {
  std::string out;
  RenderExprTo(expr, dialect, &out);
  return out;
}

void RenderStmtTo(const Stmt& stmt, Dialect dialect, std::string* out) {
  switch (stmt.kind()) {
    case StmtKind::kCreateTable: {
      const auto& ct = static_cast<const CreateTableStmt&>(stmt);
      *out += "CREATE TABLE ";
      *out += ct.table_name;
      *out += " (";
      for (size_t i = 0; i < ct.columns.size(); ++i) {
        const ColumnDef& col = ct.columns[i];
        if (i > 0) *out += ", ";
        *out += col.name;
        *out += ' ';
        *out += col.declared_type;
        if (col.primary_key) *out += " PRIMARY KEY";
        if (col.unique) *out += " UNIQUE";
        if (col.not_null) *out += " NOT NULL";
      }
      *out += ')';
      return;
    }
    case StmtKind::kCreateIndex: {
      const auto& ci = static_cast<const CreateIndexStmt&>(stmt);
      *out += "CREATE ";
      if (ci.unique) *out += "UNIQUE ";
      *out += "INDEX ";
      *out += ci.index_name;
      *out += " ON ";
      *out += ci.table_name;
      *out += " (";
      for (size_t i = 0; i < ci.columns.size(); ++i) {
        if (i > 0) *out += ", ";
        *out += ci.columns[i];
      }
      *out += ')';
      if (ci.where) {
        *out += " WHERE ";
        AppendExpr(*ci.where, dialect, out);
      }
      return;
    }
    case StmtKind::kDropIndex: {
      const auto& di = static_cast<const DropIndexStmt&>(stmt);
      *out += "DROP INDEX ";
      *out += di.index_name;
      // MySQL scopes the index name to its table; the others don't.
      if (dialect == Dialect::kMysqlLike) {
        *out += " ON ";
        *out += di.table_name;
      }
      return;
    }
    case StmtKind::kUpdate: {
      const auto& up = static_cast<const UpdateStmt&>(stmt);
      *out += "UPDATE ";
      *out += up.table_name;
      *out += " SET ";
      for (size_t i = 0; i < up.assignments.size(); ++i) {
        if (i > 0) *out += ", ";
        *out += up.assignments[i].column;
        *out += " = ";
        AppendExpr(*up.assignments[i].value, dialect, out);
      }
      if (up.where) {
        *out += " WHERE ";
        AppendExpr(*up.where, dialect, out);
      }
      return;
    }
    case StmtKind::kDelete: {
      const auto& del = static_cast<const DeleteStmt&>(stmt);
      *out += "DELETE FROM ";
      *out += del.table_name;
      if (del.where) {
        *out += " WHERE ";
        AppendExpr(*del.where, dialect, out);
      }
      return;
    }
    case StmtKind::kMaintenance: {
      const auto& m = static_cast<const MaintenanceStmt&>(stmt);
      switch (dialect) {
        case Dialect::kSqliteFlex:
          *out += "REINDEX ";
          break;
        case Dialect::kMysqlLike:
          *out += "OPTIMIZE TABLE ";
          break;
        case Dialect::kPostgresStrict:
          *out += "REINDEX TABLE ";
          break;
      }
      *out += m.table_name;
      return;
    }
    case StmtKind::kInsert: {
      const auto& ins = static_cast<const InsertStmt&>(stmt);
      *out += "INSERT INTO ";
      *out += ins.table_name;
      *out += " VALUES ";
      for (size_t r = 0; r < ins.rows.size(); ++r) {
        if (r > 0) *out += ", ";
        *out += '(';
        for (size_t c = 0; c < ins.rows[r].size(); ++c) {
          if (c > 0) *out += ", ";
          AppendExpr(*ins.rows[r][c], dialect, out);
        }
        *out += ')';
      }
      return;
    }
    case StmtKind::kSelect:
      AppendSelect(static_cast<const SelectStmt&>(stmt), dialect, out);
      return;
    case StmtKind::kBegin:
      // MySQL accepts bare BEGIN only outside stored programs; START
      // TRANSACTION is the unambiguous spelling there.
      *out += dialect == Dialect::kMysqlLike ? "START TRANSACTION" : "BEGIN";
      return;
    case StmtKind::kCommit:
      *out += "COMMIT";
      return;
    case StmtKind::kRollback:
      *out += "ROLLBACK";
      return;
    case StmtKind::kSetSession: {
      const auto& ss = static_cast<const SetSessionStmt&>(stmt);
      // Bookkeeping only — rendered as a comment so a reproduction script
      // stays valid SQL while still recording the interleaving.
      *out += "/* session ";
      *out += std::to_string(ss.session);
      *out += " */";
      return;
    }
  }
}

std::string RenderStmt(const Stmt& stmt, Dialect dialect) {
  std::string out;
  RenderStmtTo(stmt, dialect, &out);
  return out;
}

std::string RenderScript(const std::vector<StmtPtr>& statements,
                         Dialect dialect) {
  std::string out;
  for (const StmtPtr& s : statements) {
    if (s == nullptr) continue;
    RenderStmtTo(*s, dialect, &out);
    out += ";\n";
  }
  return out;
}

}  // namespace pqs
