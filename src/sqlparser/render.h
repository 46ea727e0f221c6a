// AST → SQL text rendering.
//
// Used by the real-engine adapters (the libsqlite3 connection feeds rendered
// text to sqlite3_prepare) and by bug reports / reduced test cases, which
// are printed as plain SQL so a finding can be replayed against a stock
// DBMS shell.
#ifndef PQS_SRC_SQLPARSER_RENDER_H_
#define PQS_SRC_SQLPARSER_RENDER_H_

#include <string>
#include <vector>

#include "src/engine/connection.h"
#include "src/sqlast/ast.h"

namespace pqs {

std::string RenderExpr(const Expr& expr, Dialect dialect);
std::string RenderStmt(const Stmt& stmt, Dialect dialect);

// Buffer-reuse variants: append the rendering to *out instead of building
// a fresh string. The per-statement adapters (SqliteConnection renders
// every statement it executes) call these with a long-lived buffer so the
// hot path stops paying an allocation per rendered statement.
void RenderExprTo(const Expr& expr, Dialect dialect, std::string* out);
void RenderStmtTo(const Stmt& stmt, Dialect dialect, std::string* out);

// Renders a whole test case, one statement per line, ';'-terminated.
std::string RenderScript(const std::vector<StmtPtr>& statements,
                         Dialect dialect);

}  // namespace pqs

#endif  // PQS_SRC_SQLPARSER_RENDER_H_
