// Compile-once/run-per-row spelling of the expression evaluator.
//
// There is one evaluator (src/interp/eval.h, DESIGN §11). A CompiledExpr
// only remembers the Expr it was "compiled" from and runs it through
// Evaluate, for code written against the compile-then-run shape. It borrows
// the Expr, which must outlive it.
#ifndef PQS_SRC_INTERP_BYTECODE_H_
#define PQS_SRC_INTERP_BYTECODE_H_

#include "src/interp/eval.h"

namespace pqs {

class CompiledExpr {
 public:
  CompiledExpr() = default;
  explicit CompiledExpr(const Expr* root) : root_(root) {}

  const Expr* root() const { return root_; }

  // Same result as Evaluate(*root(), row, ctx).
  EvalResult Run(const RowView& row, const EvalContext& ctx) const {
    return Evaluate(*root_, row, ctx);
  }

 private:
  const Expr* root_ = nullptr;
};

// Columns resolve per evaluation against the row's own schema, so neither
// the schema nor the dialect is needed up front.
inline CompiledExpr CompileExpr(const Expr& root, const RowSchema& /*schema*/,
                                Dialect /*dialect*/) {
  return CompiledExpr(&root);
}

}  // namespace pqs

#endif  // PQS_SRC_INTERP_BYTECODE_H_
