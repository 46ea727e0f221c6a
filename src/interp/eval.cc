#include "src/interp/eval.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <utility>

#include "src/sqlexpr/registry.h"

namespace pqs {

namespace {

int FoldChar(char c) { return std::tolower(static_cast<unsigned char>(c)); }

int TextCompareFold(const std::string& a, const std::string& b) {
  size_t n = a.size() < b.size() ? a.size() : b.size();
  for (size_t i = 0; i < n; ++i) {
    int ca = FoldChar(a[i]);
    int cb = FoldChar(b[i]);
    if (ca != cb) return ca < cb ? -1 : 1;
  }
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  return 0;
}

// Error exit of the walk: the message is built by the caller only on this
// path, and stored only when someone asked for it.
const SqlValue* Fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return nullptr;
}

// Stores a computed value. A non-text value leaves *out's text buffer
// allocated (empty) for the next text result instead of swapping it out.
const SqlValue* Set(SqlValue* out, SqlValue&& v) {
  out->cls = v.cls;
  out->i = v.i;
  out->r = v.r;
  if (v.cls == StorageClass::kText) {
    out->t = std::move(v.t);
  } else {
    out->t.clear();
  }
  return out;
}

// A value coerced to a number in arithmetic position. SQLite and MySQL
// both take the numeric prefix of text ('12ab' → 12, 'x' → 0); an
// integer-looking prefix stays INTEGER, which keeps '12'/5 doing integer
// division exactly like real SQLite.
struct Num {
  bool is_int = true;
  int64_t i = 0;
  double r = 0.0;
  double AsReal() const { return is_int ? static_cast<double>(i) : r; }
};

Num ArithNum(const SqlValue& v) {
  if (v.cls == StorageClass::kInteger) return {true, v.i, 0.0};
  if (v.cls == StorageClass::kReal) return {false, 0, v.r};
  const char* begin = v.t.c_str();
  char* int_end = nullptr;
  long long as_int = strtoll(begin, &int_end, 10);
  char* real_end = nullptr;
  double as_real = strtod(begin, &real_end);
  if (real_end == begin) return {true, 0, 0.0};
  if (int_end == real_end) return {true, as_int, 0.0};
  return {false, 0, as_real};
}

// Text of a value in ||, LIKE and LENGTH/UPPER/LOWER position: TEXT is
// borrowed, anything else rendered into *buf.
const std::string& TextOf(const SqlValue& v, std::string* buf) {
  if (v.cls == StorageClass::kText) return v.t;
  *buf = v.ToDisplay();
  return *buf;
}

bool IsNegativeIntLiteral(const Expr& e) {
  return e.kind == ExprKind::kLiteral &&
         e.literal.cls == StorageClass::kInteger && e.literal.i < 0;
}

// Explicit collation of a comparison, SQLite's determination rule reduced
// to this grammar: the leftmost operand carrying a COLLATE operator wins;
// without one the dialect default applies (kMysqlLike folds case, the
// others compare bytes). Columns have no declared collations here, so only
// the explicit operator can override the default.
bool ExplicitCollation(const Expr* lhs, const Expr* rhs, Collation* out) {
  if (lhs != nullptr && lhs->kind == ExprKind::kCollate) {
    *out = lhs->collation;
    return true;
  }
  if (rhs != nullptr && rhs->kind == ExprKind::kCollate) {
    *out = rhs->collation;
    return true;
  }
  return false;
}

// Three-valued comparison honoring dialect coercion rules. The raw Expr
// operands (nullable for synthetic comparisons inside IN/BETWEEN) are
// passed alongside the values because several injected bug classes and the
// COLLATE determination trigger on the *shape* of the comparison, not just
// the values. Returns false and fills *error on a comparison error.
bool Compare(BinaryOp op, const Expr* lhs, const Expr* rhs, const SqlValue& a,
             const SqlValue& b, const EvalContext& ctx, Bool3* out,
             std::string* error) {
  if (ctx.BugEnabled(BugId::kNegIntCompare) &&
      ((lhs != nullptr && IsNegativeIntLiteral(*lhs)) ||
       (rhs != nullptr && IsNegativeIntLiteral(*rhs)))) {
    *out = Bool3::kFalse;
    return true;
  }
  if (ctx.BugEnabled(BugId::kCollationMismatchError) && lhs != nullptr &&
      rhs != nullptr && lhs->kind == ExprKind::kColumnRef &&
      rhs->kind == ExprKind::kColumnRef &&
      a.cls == StorageClass::kText && b.cls == StorageClass::kText) {
    Fail(error, "could not determine collation for comparison");
    return false;
  }
  if (a.is_null() || b.is_null()) {
    *out = Bool3::kNull;
    return true;
  }

  int cmp = 0;
  if (a.is_numeric() && b.is_numeric()) {
    double da = a.AsReal();
    double db = b.AsReal();
    if (ctx.BugEnabled(BugId::kRealTruncCompare) &&
        (a.cls == StorageClass::kReal) != (b.cls == StorageClass::kReal)) {
      da = std::trunc(da);
      db = std::trunc(db);
    }
    cmp = da < db ? -1 : (da > db ? 1 : 0);
  } else if (a.cls == StorageClass::kText && b.cls == StorageClass::kText) {
    Collation explicit_coll = Collation::kBinary;
    bool has_explicit = ExplicitCollation(lhs, rhs, &explicit_coll);
    bool fold = has_explicit ? explicit_coll == Collation::kNocase
                             : ctx.dialect == Dialect::kMysqlLike;
    // Injected: the NOCASE collation is applied by the equality paths but
    // the range-scan comparator falls back to binary ordering.
    if (has_explicit && explicit_coll == Collation::kNocase &&
        op != BinaryOp::kEq && op != BinaryOp::kNe &&
        ctx.BugEnabled(BugId::kCollateNocaseRange)) {
      fold = false;
    }
    if (fold) {
      // Case-insensitive: MySQL's default collation, or an explicit
      // COLLATE NOCASE in any dialect.
      cmp = TextCompareFold(a.t, b.t);
    } else {
      cmp = a.t.compare(b.t);
      cmp = cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
    }
    if (op == BinaryOp::kEq && cmp == 0 && a.t.size() > 1 &&
        ctx.BugEnabled(BugId::kTextEqInterning)) {
      *out = Bool3::kFalse;
      return true;
    }
  } else {
    // Mixed numeric/text.
    switch (ctx.dialect) {
      case Dialect::kSqliteFlex:
        // Storage-class ordering: numerics sort before text.
        cmp = ValueCompare(a, b);
        break;
      case Dialect::kMysqlLike: {
        double da;
        double db;
        if (a.is_numeric()) {
          da = a.AsReal();
          db = ctx.BugEnabled(BugId::kStrNumCoercionPrefix)
                   ? 0.0
                   : ParseNumericPrefix(b.t);
        } else {
          da = ctx.BugEnabled(BugId::kStrNumCoercionPrefix)
                   ? 0.0
                   : ParseNumericPrefix(a.t);
          db = b.AsReal();
        }
        cmp = da < db ? -1 : (da > db ? 1 : 0);
        break;
      }
      case Dialect::kPostgresStrict:
        Fail(error, "operator does not exist: mixed-type comparison");
        return false;
    }
  }

  bool truth = false;
  switch (op) {
    case BinaryOp::kEq:
      truth = cmp == 0;
      break;
    case BinaryOp::kNe:
      truth = cmp != 0;
      break;
    case BinaryOp::kLt:
      truth = cmp < 0;
      break;
    case BinaryOp::kLe:
      truth = cmp <= 0;
      break;
    case BinaryOp::kGt:
      truth = cmp > 0;
      break;
    case BinaryOp::kGe:
      truth = cmp >= 0;
      break;
    default:
      Fail(error, "not a comparison");
      return false;
  }
  *out = truth ? Bool3::kTrue : Bool3::kFalse;
  return true;
}

const SqlValue* Arithmetic(const Expr& node, const SqlValue& a,
                           const SqlValue& b, const EvalContext& ctx,
                           SqlValue* out, std::string* error) {
  if (ctx.dialect == Dialect::kPostgresStrict &&
      (a.cls == StorageClass::kText || b.cls == StorageClass::kText)) {
    return Fail(error, "operator does not exist: arithmetic on text");
  }
  if (a.is_null() || b.is_null()) return Set(out, SqlValue::Null());

  BinaryOp op = node.bop;
  Num ca = ArithNum(a);
  Num cb = ArithNum(b);
  bool int_math = ca.is_int && cb.is_int;
  if (op == BinaryOp::kDiv) {
    double divisor = cb.AsReal();
    if (divisor == 0.0) {
      if (ctx.BugEnabled(BugId::kDivZeroError)) {
        return Fail(error, "division by zero (spurious)");
      }
      if (ctx.dialect == Dialect::kPostgresStrict) {
        return Fail(error, "division by zero");
      }
      return Set(out, SqlValue::Null());
    }
    if (int_math) {
      // Integer division truncates toward zero in all three dialects.
      return Set(out, SqlValue::Int(ca.i / cb.i));
    }
    return Set(out, SqlValue::Real(ca.AsReal() / divisor));
  }

  SqlValue result;
  if (int_math) {
    uint64_t ua = static_cast<uint64_t>(ca.i);
    uint64_t ub = static_cast<uint64_t>(cb.i);
    uint64_t ur = 0;
    switch (op) {
      case BinaryOp::kAdd:
        ur = ua + ub;
        break;
      case BinaryOp::kSub:
        ur = ua - ub;
        break;
      case BinaryOp::kMul:
        ur = ua * ub;
        break;
      default:
        return Fail(error, "not arithmetic");
    }
    int64_t sr = static_cast<int64_t>(ur);
    if (op == BinaryOp::kSub && sr < 0 &&
        ctx.BugEnabled(BugId::kUnsignedSubWrap)) {
      // Models an unsigned-subtraction wraparound: the negative result comes
      // back as a huge positive value.
      result = SqlValue::Real(18446744073709551616.0 +
                              static_cast<double>(sr));
    } else {
      result = SqlValue::Int(sr);
    }
  } else {
    double da = ca.AsReal();
    double db = cb.AsReal();
    double dr = 0;
    switch (op) {
      case BinaryOp::kAdd:
        dr = da + db;
        break;
      case BinaryOp::kSub:
        dr = da - db;
        break;
      case BinaryOp::kMul:
        dr = da * db;
        break;
      default:
        return Fail(error, "not arithmetic");
    }
    result = SqlValue::Real(dr);
  }

  if (ctx.BugEnabled(BugId::kNumericOverflowError) &&
      std::fabs(result.AsReal()) > 50.0) {
    return Fail(error, "numeric value out of range (spurious)");
  }
  return Set(out, std::move(result));
}

std::string AsciiFold(const std::string& s, bool to_upper) {
  std::string out = s;
  for (char& c : out) {
    c = to_upper
            ? static_cast<char>(std::toupper(static_cast<unsigned char>(c)))
            : static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

// Scalar comparator for LEAST/GREATEST: explicit NOCASE-style folding only
// under the MySQL dialect's default collation, byte-wise elsewhere, with
// the cross-storage-class ordering of ValueCompare.
int ScalarMinMaxCompare(const SqlValue& a, const SqlValue& b,
                        const EvalContext& ctx) {
  if (ctx.dialect == Dialect::kMysqlLike &&
      a.cls == StorageClass::kText && b.cls == StorageClass::kText) {
    return TextCompareFold(a.t, b.t);
  }
  return ValueCompare(a, b);
}

// CAST per the SQLite affinity-conversion rules the three dialects share
// in this model: text→INTEGER takes the integer prefix, text→REAL the
// numeric prefix, REAL→INTEGER truncates toward zero, and anything→TEXT
// uses the engine's value rendering. kPostgresStrict rejects text sources
// for numeric targets (invalid input syntax) instead of prefix-parsing.
// `v` may be *out (the operand was evaluated into the result slot).
const SqlValue* EvaluateCast(const Expr& expr, const SqlValue* v,
                             const EvalContext& ctx, SqlValue* out,
                             std::string* error) {
  if (v->is_null()) return v;
  bool strict = ctx.dialect == Dialect::kPostgresStrict;
  switch (expr.cast_to) {
    case Affinity::kInteger: {
      if (v->cls == StorageClass::kInteger) return v;
      if (v->cls == StorageClass::kReal) {
        // Injected: "truncation" implemented as rounding away from zero —
        // off by one for every fractional value.
        if (ctx.BugEnabled(BugId::kCastTruncAffinity)) {
          double away = v->r < 0 ? std::floor(v->r) : std::ceil(v->r);
          return Set(out, SqlValue::Int(static_cast<int64_t>(away)));
        }
        return Set(out,
                   SqlValue::Int(static_cast<int64_t>(std::trunc(v->r))));
      }
      if (strict) {
        return Fail(error, "invalid input syntax for type integer");
      }
      const char* begin = v->t.c_str();
      char* end = nullptr;
      long long prefix = strtoll(begin, &end, 10);
      return Set(out, SqlValue::Int(end == begin ? 0 : prefix));
    }
    case Affinity::kReal: {
      if (v->cls == StorageClass::kReal) return v;
      if (v->cls == StorageClass::kInteger) {
        return Set(out, SqlValue::Real(static_cast<double>(v->i)));
      }
      if (strict) {
        return Fail(error, "invalid input syntax for type double precision");
      }
      return Set(out, SqlValue::Real(ParseNumericPrefix(v->t)));
    }
    case Affinity::kText:
      if (v->cls == StorageClass::kText) return v;
      return Set(out, SqlValue::Text(v->ToDisplay()));
  }
  return v;
}

const SqlValue* Walk(const Expr& expr, const RowView& row,
                     const EvalContext& ctx, SqlValue* out,
                     std::string* error);

// The eager-argument functions take at most this many arguments (the
// registry's widest eager signature is LEAST/GREATEST with 3).
constexpr int kMaxEagerArgs = 4;

// Registry-driven function evaluation: arity and the NULL-propagation rule
// come from the FunctionSig, so the evaluator cannot drift from what the
// generator was promised when it consulted the same registry. Availability
// and arity are checked before any argument is evaluated.
const SqlValue* EvaluateFunction(const Expr& expr, const RowView& row,
                                 const EvalContext& ctx, SqlValue* out,
                                 std::string* error) {
  const FunctionSig& sig = LookupFunction(expr.func);
  if (!sig.available(ctx.dialect)) {
    return Fail(error, std::string("no such function: ") + sig.names[0]);
  }
  int argc = static_cast<int>(expr.args.size());
  if (argc < sig.min_args || argc > sig.max_args ||
      (expr.func != FuncId::kCoalesce && argc > kMaxEagerArgs)) {
    return Fail(error, std::string("wrong number of arguments to ") +
                           sig.NameFor(ctx.dialect));
  }

  // COALESCE evaluates lazily (a later argument must not be able to fail
  // the call once an earlier one is non-NULL); everything else evaluates
  // all arguments up front and applies the registry's NULL rule.
  if (expr.func == FuncId::kCoalesce) {
    bool first = true;
    for (const ExprPtr& arg : expr.args) {
      const SqlValue* v = Walk(*arg, row, ctx, out, error);
      if (v == nullptr) return nullptr;
      // Injected: the first-argument NULL check short-circuits the whole
      // call to NULL instead of falling through to the next argument.
      if (first && v->is_null() && ctx.BugEnabled(BugId::kCoalesceFirstNull)) {
        return Set(out, SqlValue::Null());
      }
      first = false;
      if (!v->is_null()) return v;
    }
    return Set(out, SqlValue::Null());
  }

  SqlValue slots[kMaxEagerArgs];
  const SqlValue* args[kMaxEagerArgs];
  for (int i = 0; i < argc; ++i) {
    args[i] = Walk(*expr.args[i], row, ctx, &slots[i], error);
    if (args[i] == nullptr) return nullptr;
  }
  // Result is argument `i` itself: hand a borrowed one through, move a
  // computed one out of this frame.
  auto pass = [&](int i) -> const SqlValue* {
    if (args[i] != &slots[i]) return args[i];
    return Set(out, std::move(slots[i]));
  };
  bool strict = ctx.dialect == Dialect::kPostgresStrict;
  if (sig.null_rule == NullRule::kPropagate) {
    for (int i = 0; i < argc; ++i) {
      if (args[i]->is_null()) return Set(out, SqlValue::Null());
    }
  }

  std::string text;
  switch (expr.func) {
    case FuncId::kAbs: {
      const SqlValue& v = *args[0];
      if (v.cls == StorageClass::kText) {
        if (strict) return Fail(error, "function abs(text) does not exist");
        Num n = ArithNum(v);
        return Set(out, n.is_int ? SqlValue::Int(n.i < 0 ? -n.i : n.i)
                                 : SqlValue::Real(std::fabs(n.r)));
      }
      if (v.cls == StorageClass::kInteger) {
        return Set(out, SqlValue::Int(v.i < 0 ? -v.i : v.i));
      }
      return Set(out, SqlValue::Real(std::fabs(v.r)));
    }

    case FuncId::kLength: {
      const SqlValue& v = *args[0];
      if (v.cls != StorageClass::kText && strict) {
        return Fail(error, "function length(non-text) does not exist");
      }
      return Set(out, SqlValue::Int(
                          static_cast<int64_t>(TextOf(v, &text).size())));
    }

    case FuncId::kUpper:
    case FuncId::kLower: {
      const SqlValue& v = *args[0];
      if (v.cls != StorageClass::kText && strict) {
        return Fail(error, "function upper/lower(non-text) does not exist");
      }
      return Set(out, SqlValue::Text(AsciiFold(TextOf(v, &text),
                                               expr.func == FuncId::kUpper)));
    }

    case FuncId::kNullif: {
      Bool3 eq;
      if (!Compare(BinaryOp::kEq, expr.args[0].get(), expr.args[1].get(),
                   *args[0], *args[1], ctx, &eq, error)) {
        return nullptr;
      }
      if (eq == Bool3::kTrue) return Set(out, SqlValue::Null());
      return pass(0);
    }

    case FuncId::kLeast:
    case FuncId::kGreatest: {
      bool want_greatest = expr.func == FuncId::kGreatest;
      int best = 0;
      for (int i = 1; i < argc; ++i) {
        int cmp = ScalarMinMaxCompare(*args[i], *args[best], ctx);
        if (want_greatest ? cmp > 0 : cmp < 0) best = i;
      }
      return pass(best);
    }

    case FuncId::kIfnull:
      return pass(args[0]->is_null() ? 1 : 0);

    case FuncId::kCoalesce:  // handled above
    case FuncId::kNumFuncs:
      break;
  }
  return Fail(error, "unknown function");
}

// Binary operators other than AND/OR, on evaluated operands.
const SqlValue* EvaluateBinary(const Expr& expr, const SqlValue& a,
                               const SqlValue& b, const EvalContext& ctx,
                               SqlValue* out, std::string* error) {
  if (IsComparisonOp(expr.bop)) {
    Bool3 r;
    if (!Compare(expr.bop, expr.args[0].get(), expr.args[1].get(), a, b, ctx,
                 &r, error)) {
      return nullptr;
    }
    return Set(out, SqlValue::FromBool3(r));
  }
  if (IsArithmeticOp(expr.bop)) {
    return Arithmetic(expr, a, b, ctx, out, error);
  }
  // Concat.
  if (ctx.BugEnabled(BugId::kConcatNumericError) &&
      (a.is_numeric() || b.is_numeric())) {
    return Fail(error, "cannot concatenate non-text operand (spurious)");
  }
  if (ctx.dialect == Dialect::kPostgresStrict &&
      (a.is_numeric() || b.is_numeric())) {
    return Fail(error, "operator does not exist: || with non-text");
  }
  if (a.is_null() || b.is_null()) return Set(out, SqlValue::Null());
  std::string buf;
  std::string joined = TextOf(a, &buf);
  joined += TextOf(b, &buf);
  return Set(out, SqlValue::Text(std::move(joined)));
}

const SqlValue* EvaluateLike(const Expr& expr, const RowView& row,
                             const EvalContext& ctx, SqlValue* out,
                             std::string* error) {
  SqlValue v_slot;
  SqlValue p_slot;
  const SqlValue* v = Walk(*expr.args[0], row, ctx, &v_slot, error);
  if (v == nullptr) return nullptr;
  const SqlValue* p = Walk(*expr.args[1], row, ctx, &p_slot, error);
  if (p == nullptr) return nullptr;
  if (v->is_null() || p->is_null()) return Set(out, SqlValue::Null());
  if (ctx.dialect == Dialect::kPostgresStrict &&
      (v->cls != StorageClass::kText || p->cls != StorageClass::kText)) {
    return Fail(error, "operator does not exist: LIKE on non-text");
  }
  std::string text_buf;
  std::string pattern_buf;
  std::string_view text = TextOf(*v, &text_buf);
  std::string_view pattern = TextOf(*p, &pattern_buf);
  if (ctx.BugEnabled(BugId::kLikeAnchored) && !pattern.empty() &&
      pattern.front() == '%') {
    pattern.remove_prefix(1);
  }
  int escape = -1;
  if (expr.args.size() > 2 && expr.args[2] != nullptr) {
    SqlValue esc_slot;
    const SqlValue* esc = Walk(*expr.args[2], row, ctx, &esc_slot, error);
    if (esc == nullptr) return nullptr;
    if (esc->cls != StorageClass::kText || esc->t.size() != 1) {
      return Fail(error, "ESCAPE expression must be a single character");
    }
    // Injected: the ESCAPE clause parses but the matcher never learns
    // about it — escaped wildcards stay wildcards.
    if (!ctx.BugEnabled(BugId::kLikeEscapeMiss)) {
      escape = static_cast<unsigned char>(esc->t[0]);
    }
  }
  bool fold = ctx.dialect != Dialect::kPostgresStrict;
  bool match = LikeMatch(text, pattern, fold, escape);
  return Set(out, SqlValue::Bool(match != expr.negated));
}

const SqlValue* EvaluateInList(const Expr& expr, const RowView& row,
                               const EvalContext& ctx, SqlValue* out,
                               std::string* error) {
  if (ctx.BugEnabled(BugId::kDupInListError)) {
    for (size_t i = 1; i < expr.args.size(); ++i) {
      for (size_t j = i + 1; j < expr.args.size(); ++j) {
        if (expr.args[i]->kind == ExprKind::kLiteral &&
            expr.args[j]->kind == ExprKind::kLiteral &&
            ValueEquals(expr.args[i]->literal, expr.args[j]->literal)) {
          return Fail(error, "duplicate value in IN list (spurious)");
        }
      }
    }
  }
  SqlValue probe_slot;
  const SqlValue* probe = Walk(*expr.args[0], row, ctx, &probe_slot, error);
  if (probe == nullptr) return nullptr;
  if (probe->is_null()) return Set(out, SqlValue::Null());
  size_t limit = expr.args.size();
  if (ctx.BugEnabled(BugId::kInListFirstOnly) && limit > 2) limit = 2;
  bool saw_null = false;
  SqlValue item_slot;
  for (size_t i = 1; i < limit; ++i) {
    const SqlValue* item = Walk(*expr.args[i], row, ctx, &item_slot, error);
    if (item == nullptr) return nullptr;
    Bool3 eq;
    if (!Compare(BinaryOp::kEq, expr.args[0].get(), expr.args[i].get(), *probe,
                 *item, ctx, &eq, error)) {
      return nullptr;
    }
    if (eq == Bool3::kTrue) return Set(out, SqlValue::Bool(!expr.negated));
    if (eq == Bool3::kNull) saw_null = true;
  }
  // Injected: the UNKNOWN contributed by a NULL list element is
  // dropped, collapsing x IN (..., NULL) to FALSE (NOT IN to TRUE).
  if (saw_null && !ctx.BugEnabled(BugId::kInListNullSemantics)) {
    return Set(out, SqlValue::Null());
  }
  return Set(out, SqlValue::Bool(expr.negated));
}

const SqlValue* EvaluateBetween(const Expr& expr, const RowView& row,
                                const EvalContext& ctx, SqlValue* out,
                                std::string* error) {
  if (ctx.BugEnabled(BugId::kBetweenSwapError) &&
      expr.args[1]->kind == ExprKind::kLiteral &&
      expr.args[2]->kind == ExprKind::kLiteral &&
      !expr.args[1]->literal.is_null() && !expr.args[2]->literal.is_null() &&
      ValueCompare(expr.args[1]->literal, expr.args[2]->literal) > 0) {
    return Fail(error, "BETWEEN range bounds inverted (spurious)");
  }
  SqlValue slots[3];
  const SqlValue* v = Walk(*expr.args[0], row, ctx, &slots[0], error);
  if (v == nullptr) return nullptr;
  const SqlValue* lo = Walk(*expr.args[1], row, ctx, &slots[1], error);
  if (lo == nullptr) return nullptr;
  const SqlValue* hi = Walk(*expr.args[2], row, ctx, &slots[2], error);
  if (hi == nullptr) return nullptr;
  Bool3 above;
  if (!Compare(BinaryOp::kGe, expr.args[0].get(), expr.args[1].get(), *v, *lo,
               ctx, &above, error)) {
    return nullptr;
  }
  Bool3 below;
  if (!Compare(BinaryOp::kLe, expr.args[0].get(), expr.args[2].get(), *v, *hi,
               ctx, &below, error)) {
    return nullptr;
  }
  Bool3 r = And3(above, below);
  if (expr.negated) r = Not3(r);
  return Set(out, SqlValue::FromBool3(r));
}

const SqlValue* Walk(const Expr& expr, const RowView& row,
                     const EvalContext& ctx, SqlValue* out,
                     std::string* error) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return &expr.literal;

    case ExprKind::kColumnRef: {
      if (row.schema == nullptr || row.values == nullptr) {
        return Fail(error, "column reference outside a row context");
      }
      int idx = row.schema->IndexOf(expr.table, expr.column);
      if (idx < 0) return Fail(error, "no such column: " + expr.column);
      return &(*row.values)[static_cast<size_t>(idx)];
    }

    case ExprKind::kUnary: {
      const SqlValue* v = Walk(*expr.args[0], row, ctx, out, error);
      if (v == nullptr) return nullptr;
      if (expr.uop == UnaryOp::kNot) {
        Bool3 b = Truthiness(*v, ctx.dialect);
        if (b == Bool3::kNull && ctx.BugEnabled(BugId::kNotNullNot)) {
          return Set(out, SqlValue::Bool(false));
        }
        return Set(out, SqlValue::FromBool3(Not3(b)));
      }
      // Unary minus.
      if (v->is_null()) return v;
      if (v->cls == StorageClass::kInteger) return Set(out, SqlValue::Int(-v->i));
      if (v->cls == StorageClass::kReal) return Set(out, SqlValue::Real(-v->r));
      if (ctx.dialect == Dialect::kPostgresStrict) {
        return Fail(error, "operator does not exist: -text");
      }
      return Set(out, SqlValue::Real(-ParseNumericPrefix(v->t)));
    }

    case ExprKind::kBinary: {
      SqlValue lhs_slot;
      SqlValue rhs_slot;
      const SqlValue* a = Walk(*expr.args[0], row, ctx, &lhs_slot, error);
      if (a == nullptr) return nullptr;
      const SqlValue* b = Walk(*expr.args[1], row, ctx, &rhs_slot, error);
      if (b == nullptr) return nullptr;
      if (expr.bop == BinaryOp::kAnd || expr.bop == BinaryOp::kOr) {
        // Both sides are evaluated eagerly, so an error on the right
        // surfaces even when the left decides the outcome.
        Bool3 x = Truthiness(*a, ctx.dialect);
        Bool3 y = Truthiness(*b, ctx.dialect);
        return Set(out, SqlValue::FromBool3(
                            expr.bop == BinaryOp::kAnd ? And3(x, y)
                                                       : Or3(x, y)));
      }
      return EvaluateBinary(expr, *a, *b, ctx, out, error);
    }

    case ExprKind::kIsNull: {
      if (ctx.BugEnabled(BugId::kIsNullArithLost) &&
          expr.args[0]->kind == ExprKind::kBinary &&
          IsArithmeticOp(expr.args[0]->bop)) {
        // NULL propagation through arithmetic is lost: IS NULL → FALSE,
        // IS NOT NULL → TRUE, regardless of the operand.
        return Set(out, SqlValue::Bool(expr.negated));
      }
      const SqlValue* v = Walk(*expr.args[0], row, ctx, out, error);
      if (v == nullptr) return nullptr;
      return Set(out, SqlValue::Bool(v->is_null() != expr.negated));
    }

    case ExprKind::kInList:
      return EvaluateInList(expr, row, ctx, out, error);

    case ExprKind::kBetween:
      return EvaluateBetween(expr, row, ctx, out, error);

    case ExprKind::kLike:
      return EvaluateLike(expr, row, ctx, out, error);

    case ExprKind::kFunctionCall:
      return EvaluateFunction(expr, row, ctx, out, error);

    case ExprKind::kCast: {
      const SqlValue* v = Walk(*expr.args[0], row, ctx, out, error);
      if (v == nullptr) return nullptr;
      return EvaluateCast(expr, v, ctx, out, error);
    }

    case ExprKind::kCase: {
      size_t arms = expr.CaseArmCount();
      for (size_t i = 0; i < arms; ++i) {
        const SqlValue* when = Walk(*expr.args[2 * i], row, ctx, out, error);
        if (when == nullptr) return nullptr;
        if (Truthiness(*when, ctx.dialect) == Bool3::kTrue) {
          return Walk(*expr.args[2 * i + 1], row, ctx, out, error);
        }
      }
      // Injected: the fall-through path forgets the ELSE arm exists.
      if (expr.case_has_else && !ctx.BugEnabled(BugId::kCaseElseSkip)) {
        return Walk(*expr.CaseElse(), row, ctx, out, error);
      }
      return Set(out, SqlValue::Null());
    }

    case ExprKind::kCollate:
      // The COLLATE operator changes how an enclosing comparison orders
      // text (see ExplicitCollation); the value itself passes through.
      return Walk(*expr.args[0], row, ctx, out, error);

    case ExprKind::kAggregate:
      // Aggregates never reach the scalar evaluator: AggregateSelect
      // substitutes them with their computed values first.
      return Fail(error, "aggregate function in scalar context");
  }
  return Fail(error, "unknown expression kind");
}

}  // namespace

const SqlValue* EvaluateRef(const Expr& expr, const RowView& row,
                            const EvalContext& ctx, SqlValue* scratch,
                            std::string* error) {
  return Walk(expr, row, ctx, scratch, error);
}

bool EvaluateInto(const Expr& expr, const RowView& row,
                  const EvalContext& ctx, SqlValue* out, std::string* error) {
  const SqlValue* v = Walk(expr, row, ctx, out, error);
  if (v == nullptr) return false;
  if (v != out) *out = *v;
  return true;
}

EvalResult Evaluate(const Expr& expr, const RowView& row,
                    const EvalContext& ctx) {
  EvalResult result;
  if (!EvaluateInto(expr, row, ctx, &result.value, &result.message)) {
    result.error = true;
    result.value = SqlValue::Null();
  }
  return result;
}

Bool3 EvaluatePredicate(const Expr& expr, const RowView& row,
                        const EvalContext& ctx, bool* error) {
  SqlValue scratch;
  const SqlValue* v = Walk(expr, row, ctx, &scratch, nullptr);
  if (error != nullptr) *error = v == nullptr;
  return v == nullptr ? Bool3::kNull : Truthiness(*v, ctx.dialect);
}

bool LikeMatch(std::string_view text, std::string_view pattern,
               bool case_insensitive, int escape) {
  // A pattern ending in a bare escape character matches nothing in real
  // SQLite; anything else escaped is an ordinary literal.
  for (size_t i = 0; i < pattern.size(); ++i) {
    if (escape >= 0 && pattern[i] == static_cast<char>(escape)) {
      if (i + 1 >= pattern.size()) return false;
      ++i;
    }
  }
  auto norm = [case_insensitive](char c) {
    return case_insensitive ? FoldChar(c) : static_cast<unsigned char>(c);
  };
  // Iterative glob matcher over the raw pattern with backtracking to the
  // last %. An escaped character is one literal token two bytes wide.
  size_t ti = 0;
  size_t pi = 0;
  size_t star_pi = std::string_view::npos;
  size_t star_ti = 0;
  while (ti < text.size()) {
    if (pi < pattern.size()) {
      char c = pattern[pi];
      bool escaped = escape >= 0 && c == static_cast<char>(escape);
      if (escaped) {
        if (norm(pattern[pi + 1]) == norm(text[ti])) {
          ++ti;
          pi += 2;
          continue;
        }
      } else if (c == '_' || (c != '%' && norm(c) == norm(text[ti]))) {
        ++ti;
        ++pi;
        continue;
      } else if (c == '%') {
        star_pi = pi++;
        star_ti = ti;
        continue;
      }
    }
    if (star_pi == std::string_view::npos) return false;
    pi = star_pi + 1;
    ti = ++star_ti;
  }
  while (pi < pattern.size() && pattern[pi] == '%' &&
         !(escape >= 0 && '%' == static_cast<char>(escape))) {
    ++pi;
  }
  return pi == pattern.size();
}

Bool3 Truthiness(const SqlValue& v, Dialect dialect) {
  (void)dialect;  // all three dialects agree on WHERE truthiness here
  switch (v.cls) {
    case StorageClass::kNull:
      return Bool3::kNull;
    case StorageClass::kInteger:
      return v.i != 0 ? Bool3::kTrue : Bool3::kFalse;
    case StorageClass::kReal:
      return v.r != 0.0 ? Bool3::kTrue : Bool3::kFalse;
    case StorageClass::kText:
      return ParseNumericPrefix(v.t) != 0.0 ? Bool3::kTrue : Bool3::kFalse;
  }
  return Bool3::kNull;
}

bool JoinRows(const std::vector<JoinInput>& inputs,
              const std::vector<JoinClause>& joins, const EvalContext& ctx,
              std::vector<std::vector<SqlValue>>* out, std::string* error,
              size_t* null_padded_rows) {
  out->clear();
  if (null_padded_rows != nullptr) *null_padded_rows = 0;
  if (inputs.empty()) return true;
  if (!joins.empty() && joins.size() != inputs.size() - 1) {
    if (error != nullptr) *error = "join clause count does not match FROM";
    return false;
  }
  if (inputs.size() == 1) {
    *out = *inputs[0].rows;
    return true;
  }

  // The schema grows by one input per step, so an ON condition sees the
  // columns joined so far. The first step reads the first input in place.
  RowSchema schema = *inputs[0].schema;
  const std::vector<std::vector<SqlValue>>* left = inputs[0].rows;
  std::vector<std::vector<SqlValue>> acc;
  // ON runs once per row pair, on this one reused candidate row; only the
  // pairs that match are allocated as rows of their own.
  std::vector<SqlValue> candidate;
  SqlValue on_value;
  for (size_t t = 1; t < inputs.size(); ++t) {
    const JoinInput& right = inputs[t];
    const JoinClause* join = joins.empty() ? nullptr : &joins[t - 1];
    JoinKind kind = join != nullptr ? join->kind : JoinKind::kCross;
    const Expr* on =
        (join != nullptr && join->on != nullptr) ? join->on.get() : nullptr;
    if (on == nullptr && kind != JoinKind::kCross) {
      if (error != nullptr) *error = "join without ON condition";
      return false;
    }

    const RowSchema& rschema = *right.schema;
    schema.cols.insert(schema.cols.end(), rschema.cols.begin(),
                       rschema.cols.end());
    const RowView candidate_view{&schema, &candidate};
    std::vector<std::vector<SqlValue>> next;
    for (const std::vector<SqlValue>& lrow : *left) {
      if (on != nullptr) candidate.assign(lrow.begin(), lrow.end());
      bool matched = false;
      for (const std::vector<SqlValue>& rrow : *right.rows) {
        if (on != nullptr) {
          candidate.resize(lrow.size() + rrow.size());
          std::copy(rrow.begin(), rrow.end(),
                    candidate.begin() + static_cast<long>(lrow.size()));
          const SqlValue* v =
              EvaluateRef(*on, candidate_view, ctx, &on_value, error);
          if (v == nullptr) return false;
          if (Truthiness(*v, ctx.dialect) != Bool3::kTrue) continue;
        }
        std::vector<SqlValue>& combined = next.emplace_back();
        combined.reserve(lrow.size() + rrow.size());
        combined.insert(combined.end(), lrow.begin(), lrow.end());
        combined.insert(combined.end(), rrow.begin(), rrow.end());
        matched = true;
        // Injected: the scan wrongly assumes the right side is unique on
        // the join key and stops after the first matching right row.
        if (on != nullptr && ctx.BugEnabled(BugId::kJoinDupRightMatch)) {
          break;
        }
      }
      if (!matched && kind == JoinKind::kLeft) {
        std::vector<SqlValue>& padded = next.emplace_back();
        padded.reserve(lrow.size() + rschema.cols.size());
        padded.insert(padded.end(), lrow.begin(), lrow.end());
        padded.resize(lrow.size() + rschema.cols.size());  // NULL cells
        if (null_padded_rows != nullptr) ++*null_padded_rows;
      }
    }
    acc = std::move(next);
    left = &acc;
  }
  *out = std::move(acc);
  return true;
}

namespace {

// DISTINCT cell equality: NULLs equal, numerics numeric. The
// kDistinctTruncMerge bug compares mixed/REAL numerics by truncated value,
// wrongly merging rows like (1.5) into an earlier (1.0).
bool DistinctCellsEqual(const SqlValue& a, const SqlValue& b,
                        const EvalContext& ctx) {
  if (ctx.BugEnabled(BugId::kDistinctTruncMerge) && a.is_numeric() &&
      b.is_numeric() &&
      (a.cls == StorageClass::kReal || b.cls == StorageClass::kReal)) {
    return std::trunc(a.AsReal()) == std::trunc(b.AsReal());
  }
  return ValueEquals(a, b);
}

bool DistinctRowsEqual(const std::vector<SqlValue>& a,
                       const std::vector<SqlValue>& b,
                       const EvalContext& ctx) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!DistinctCellsEqual(a[i], b[i], ctx)) return false;
  }
  return true;
}

}  // namespace

std::vector<size_t> DistinctKeepIndexes(
    const std::vector<const std::vector<SqlValue>*>& rows,
    const EvalContext& ctx) {
  std::vector<size_t> kept;
  // Sort-based dedup for clean equality: ValueCompare's total order has
  // compare==0 exactly when ValueEquals holds (NULLs equal, numerics by
  // value, text by bytes — there is no second non-numeric class), so the
  // first index of each equal-run is the first occurrence. The
  // kDistinctTruncMerge bug hook wants pairwise equality under a relation
  // that is not order-consistent (trunc buckets), so it keeps the
  // quadratic scan below.
  if (!ctx.BugEnabled(BugId::kDistinctTruncMerge) && rows.size() > 16) {
    std::vector<size_t> order(rows.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&rows](size_t x, size_t y) {
      const std::vector<SqlValue>& a = *rows[x];
      const std::vector<SqlValue>& b = *rows[y];
      size_t common = std::min(a.size(), b.size());
      for (size_t i = 0; i < common; ++i) {
        int c = ValueCompare(a[i], b[i]);
        if (c != 0) return c < 0;
      }
      if (a.size() != b.size()) return a.size() < b.size();
      return x < y;  // stable within an equal-run: first occurrence leads
    });
    for (size_t i = 0; i < order.size(); ++i) {
      if (i > 0 &&
          DistinctRowsEqual(*rows[order[i]], *rows[order[i - 1]], ctx)) {
        continue;
      }
      kept.push_back(order[i]);
    }
    std::sort(kept.begin(), kept.end());
    return kept;
  }
  // Quadratic first-occurrence scan for small results and the bug hook.
  for (size_t i = 0; i < rows.size(); ++i) {
    bool duplicate = false;
    for (size_t k : kept) {
      if (DistinctRowsEqual(*rows[i], *rows[k], ctx)) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) kept.push_back(i);
  }
  return kept;
}

namespace {

// Lexicographic three-way comparison of the first `n` keys of two rows.
int CompareKeys(const SqlValue* a, const SqlValue* b, size_t n,
                const std::vector<OrderByItem>& order) {
  for (size_t i = 0; i < n; ++i) {
    int c = ValueCompare(a[i], b[i]);
    if (c != 0) return order[i].descending ? -c : c;
  }
  return 0;
}

}  // namespace

int CompareOrderKeys(const std::vector<SqlValue>& a,
                     const std::vector<SqlValue>& b,
                     const std::vector<OrderByItem>& order) {
  size_t n = std::min({order.size(), a.size(), b.size()});
  return CompareKeys(a.data(), b.data(), n, order);
}

bool SortIndexesByOrder(const RowSchema& schema,
                        const std::vector<std::vector<SqlValue>>& rows,
                        const std::vector<OrderByItem>& order,
                        const EvalContext& ctx, std::vector<size_t>* perm,
                        std::string* error) {
  if (rows.empty()) {
    perm->clear();
    return true;
  }
  for (const OrderByItem& item : order) {
    if (item.expr == nullptr) {
      if (error != nullptr) *error = "ORDER BY without key expression";
      return false;
    }
  }
  // Every row's keys in one row-major array: one allocation per sort.
  const size_t width = order.size();
  std::vector<SqlValue> keys(rows.size() * width);
  for (size_t i = 0; i < rows.size(); ++i) {
    RowView view{&schema, &rows[i]};
    for (size_t k = 0; k < width; ++k) {
      if (!EvaluateInto(*order[k].expr, view, ctx, &keys[i * width + k],
                        error)) {
        return false;
      }
    }
  }
  perm->resize(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) (*perm)[i] = i;
  std::stable_sort(perm->begin(), perm->end(), [&](size_t x, size_t y) {
    return CompareKeys(&keys[x * width], &keys[y * width], width, order) < 0;
  });
  return true;
}

void ApplyLimit(int64_t limit, bool ordered, const EvalContext& ctx,
                std::vector<std::vector<SqlValue>>* rows) {
  if (limit < 0) return;
  size_t n = static_cast<size_t>(limit);
  // Injected: with an ORDER BY present and a limit that binds the result,
  // the truncation loop runs one iteration short.
  if (ctx.BugEnabled(BugId::kOrderLimitOffByOne) && ordered && n >= 1 &&
      n <= rows->size()) {
    rows->resize(n - 1);
    return;
  }
  if (rows->size() > n) rows->resize(n);
}

// ---------------------------------------------------------------------------
// Grouping / aggregation core
// ---------------------------------------------------------------------------

bool AggAccumulator::Add(const SqlValue& v, std::string* error) {
  ++rows_seen_;
  if (v.is_null()) return true;
  ++non_null_;
  if (distinct_) {
    for (const SqlValue& s : seen_) {
      if (ValueEquals(s, v)) return true;
    }
    seen_.push_back(v);
  }
  ++distinct_seen_;
  switch (func_) {
    case AggFunc::kCount:
      break;
    case AggFunc::kSum:
    case AggFunc::kAvg:
      if (v.cls == StorageClass::kText) {
        if (ctx_.dialect == Dialect::kPostgresStrict) {
          if (error != nullptr) {
            *error = std::string("function ") + AggFuncName(func_) +
                     "(text) does not exist";
          }
          return false;
        }
        // Flexible dialects coerce by numeric prefix, as sqlite's sumStep
        // does, and the result becomes approximate (REAL).
        approx_ = true;
        real_sum_ += ParseNumericPrefix(v.t);
      } else if (v.cls == StorageClass::kInteger && !approx_) {
        // Wrap-safe addition; the real accumulator shadows the integer one
        // so a later REAL operand can take over seamlessly.
        int_sum_ = static_cast<int64_t>(static_cast<uint64_t>(int_sum_) +
                                        static_cast<uint64_t>(v.i));
        real_sum_ += static_cast<double>(v.i);
      } else {
        approx_ = approx_ || v.cls == StorageClass::kReal;
        real_sum_ += v.AsReal();
      }
      break;
    case AggFunc::kMin:
    case AggFunc::kMax:
      if (extreme_.is_null()) {
        extreme_ = v;
      } else {
        int c = ValueCompare(v, extreme_);
        if ((func_ == AggFunc::kMin && c < 0) ||
            (func_ == AggFunc::kMax && c > 0)) {
          extreme_ = v;
        }
      }
      break;
    case AggFunc::kNumAggFuncs:
      break;
  }
  return true;
}

SqlValue AggAccumulator::Final() const {
  // Injected (sqlite): SUM/MIN/MAX over an empty input return 0 where SQL
  // says NULL (COUNT legitimately returns 0, so it stays exempt).
  if (ctx_.BugEnabled(BugId::kAggEmptyGroupZero) && rows_seen_ == 0 &&
      (func_ == AggFunc::kSum || func_ == AggFunc::kMin ||
       func_ == AggFunc::kMax)) {
    return SqlValue::Int(0);
  }
  switch (func_) {
    case AggFunc::kCount:
      // Injected (mysql): COUNT(DISTINCT e) forgets the DISTINCT and
      // counts every non-NULL operand.
      if (distinct_ && ctx_.BugEnabled(BugId::kCountDistinctDup)) {
        return SqlValue::Int(static_cast<int64_t>(non_null_));
      }
      // Exactly one feeding mode is used per accumulator: AddRow for
      // COUNT(*), Add for COUNT(e).
      return SqlValue::Int(static_cast<int64_t>(star_rows_ + distinct_seen_));
    case AggFunc::kSum: {
      if (distinct_seen_ == 0) return SqlValue::Null();
      if (approx_) return SqlValue::Real(real_sum_);
      int64_t s = int_sum_;
      // Injected (sqlite): the integer SUM accumulator wraps at a toy
      // width, as if summed in a too-narrow register.
      if (ctx_.BugEnabled(BugId::kSumOverflowWrap)) {
        while (s > 25) s -= 51;
        while (s < -25) s += 51;
      }
      return SqlValue::Int(s);
    }
    case AggFunc::kAvg:
      if (distinct_seen_ == 0) return SqlValue::Null();
      // Injected (mysql): all-integer AVG truncates to integer division
      // instead of promoting to REAL.
      if (!approx_ && ctx_.BugEnabled(BugId::kAvgIntegerDiv)) {
        return SqlValue::Int(int_sum_ / static_cast<int64_t>(distinct_seen_));
      }
      return SqlValue::Real(real_sum_ / static_cast<double>(distinct_seen_));
    case AggFunc::kMin:
    case AggFunc::kMax:
      return extreme_;
    case AggFunc::kNumAggFuncs:
      break;
  }
  return SqlValue::Null();
}

void CollectAggregates(const Expr& e, std::vector<const Expr*>* nodes) {
  if (e.kind == ExprKind::kAggregate) {
    for (const Expr* n : *nodes) {
      if (n->StructurallyEquals(e)) return;
    }
    nodes->push_back(&e);
    return;  // aggregates don't nest in this query space
  }
  for (const ExprPtr& a : e.args) {
    if (a) CollectAggregates(*a, nodes);
  }
}

ExprPtr SubstituteAggregates(const Expr& e,
                             const std::vector<const Expr*>& nodes,
                             const std::vector<SqlValue>& values) {
  if (e.kind == ExprKind::kAggregate) {
    for (size_t i = 0; i < nodes.size() && i < values.size(); ++i) {
      if (nodes[i]->StructurallyEquals(e)) return MakeLiteral(values[i]);
    }
    return MakeNullLiteral();  // unreachable when `nodes` covers e
  }
  auto out = std::make_unique<Expr>();
  out->kind = e.kind;
  out->literal = e.literal;
  out->table = e.table;
  out->column = e.column;
  out->uop = e.uop;
  out->bop = e.bop;
  out->negated = e.negated;
  out->func = e.func;
  out->cast_to = e.cast_to;
  out->collation = e.collation;
  out->case_has_else = e.case_has_else;
  out->args.reserve(e.args.size());
  for (const ExprPtr& a : e.args) {
    out->args.push_back(a ? SubstituteAggregates(*a, nodes, values) : nullptr);
  }
  return out;
}

bool AggregateSelect(const SelectStmt& stmt, const RowSchema& schema,
                     const std::vector<std::vector<SqlValue>>& input_rows,
                     const EvalContext& ctx,
                     std::vector<std::vector<SqlValue>>* out_rows,
                     std::string* error) {
  out_rows->clear();
  if (stmt.select_list.empty()) {
    if (error != nullptr) {
      *error = "aggregate query requires an explicit select list";
    }
    return false;
  }

  // Group the input rows. No GROUP BY ⇒ one global group, which exists even
  // over empty input (SELECT COUNT(*) on an empty table is one row).
  std::vector<std::vector<SqlValue>> group_keys;
  std::vector<std::vector<size_t>> group_rows;
  if (stmt.group_by.empty()) {
    group_keys.emplace_back();
    group_rows.emplace_back();
    for (size_t i = 0; i < input_rows.size(); ++i) {
      group_rows[0].push_back(i);
    }
  } else {
    // An empty input yields zero groups without touching the key
    // expressions.
    if (!input_rows.empty()) {
      for (const ExprPtr& g : stmt.group_by) {
        if (g == nullptr) {
          if (error != nullptr) *error = "GROUP BY without key expression";
          return false;
        }
      }
    }
    std::vector<SqlValue> key(stmt.group_by.size());
    for (size_t i = 0; i < input_rows.size(); ++i) {
      RowView view{&schema, &input_rows[i]};
      for (size_t c = 0; c < key.size(); ++c) {
        if (!EvaluateInto(*stmt.group_by[c], view, ctx, &key[c], error)) {
          return false;
        }
      }
      // GROUP BY key equality: NULL keys group together and INTEGER/REAL
      // keys group numerically, matching real engines' grouping compare.
      size_t slot = group_keys.size();
      for (size_t k = 0; k < group_keys.size(); ++k) {
        bool same = true;
        for (size_t c = 0; c < key.size(); ++c) {
          if (ValueCompare(group_keys[k][c], key[c]) != 0) {
            same = false;
            break;
          }
        }
        if (same) {
          slot = k;
          break;
        }
      }
      if (slot == group_keys.size()) {
        group_keys.push_back(key);
        group_rows.emplace_back();
      }
      group_rows[slot].push_back(i);
    }
  }

  // Unique aggregate nodes across the select list and HAVING; each is
  // computed once per group and substituted wherever it appears.
  std::vector<const Expr*> agg_nodes;
  for (const ExprPtr& e : stmt.select_list) {
    if (e) CollectAggregates(*e, &agg_nodes);
  }
  if (stmt.having) CollectAggregates(*stmt.having, &agg_nodes);

  SqlValue operand;
  for (size_t g = 0; g < group_keys.size(); ++g) {
    auto compute = [&](const std::vector<size_t>& members,
                       std::vector<SqlValue>* out_vals) -> bool {
      for (size_t ai = 0; ai < agg_nodes.size(); ++ai) {
        const Expr* node = agg_nodes[ai];
        AggAccumulator acc(node->agg, node->agg_distinct, ctx);
        for (size_t ri : members) {
          if (node->agg_star) {
            acc.AddRow();
            continue;
          }
          RowView view{&schema, &input_rows[ri]};
          const SqlValue* v =
              EvaluateRef(*node->args[0], view, ctx, &operand, error);
          if (v == nullptr || !acc.Add(*v, error)) return false;
        }
        out_vals->push_back(acc.Final());
      }
      return true;
    };
    std::vector<SqlValue> agg_values;
    if (!compute(group_rows[g], &agg_values)) return false;

    // Representative row for non-aggregate references (the group keys):
    // the group's first row in scan order, matching what real engines
    // surface for a bare grouped column.
    const std::vector<SqlValue>* rep_values =
        group_rows[g].empty() ? nullptr : &input_rows[group_rows[g][0]];
    RowView rep_view{&schema, rep_values};

    if (stmt.having != nullptr) {
      std::vector<SqlValue> having_values = agg_values;
      // Injected (postgres): HAVING is evaluated before grouping finishes —
      // its aggregates only ever see the group's first row.
      if (ctx.BugEnabled(BugId::kHavingBeforeGroup) &&
          group_rows[g].size() > 1) {
        having_values.clear();
        std::vector<size_t> first_only(1, group_rows[g][0]);
        if (!compute(first_only, &having_values)) return false;
      }
      ExprPtr hav =
          SubstituteAggregates(*stmt.having, agg_nodes, having_values);
      const SqlValue* v = EvaluateRef(*hav, rep_view, ctx, &operand, error);
      if (v == nullptr) return false;
      if (Truthiness(*v, ctx.dialect) != Bool3::kTrue) continue;
    }

    std::vector<SqlValue> out_row(stmt.select_list.size());
    for (size_t i = 0; i < out_row.size(); ++i) {
      ExprPtr sub =
          SubstituteAggregates(*stmt.select_list[i], agg_nodes, agg_values);
      if (!EvaluateInto(*sub, rep_view, ctx, &out_row[i], error)) return false;
    }
    out_rows->push_back(std::move(out_row));
  }
  return true;
}

bool SameRowMultiset(const std::vector<std::vector<SqlValue>>& a,
                     const std::vector<std::vector<SqlValue>>& b) {
  if (a.size() != b.size()) return false;
  // Ordered-equality fast path: the common case is the engine and the model
  // holding the same rows in the same insertion order, so a pairwise scan
  // settles it without sorting. A mismatch here is not a verdict — multisets
  // can still agree in a different order — so fall through to the sort.
  {
    bool ordered_equal = true;
    for (size_t r = 0; ordered_equal && r < a.size(); ++r) {
      if (a[r].size() != b[r].size()) {
        ordered_equal = false;
        break;
      }
      for (size_t c = 0; c < a[r].size(); ++c) {
        if (!ValueEquals(a[r][c], b[r][c])) {
          ordered_equal = false;
          break;
        }
      }
    }
    if (ordered_equal) return true;
  }
  auto row_less = [](const std::vector<SqlValue>& x,
                     const std::vector<SqlValue>& y) {
    if (x.size() != y.size()) return x.size() < y.size();
    for (size_t i = 0; i < x.size(); ++i) {
      int c = ValueCompare(x[i], y[i]);
      if (c != 0) return c < 0;
    }
    return false;
  };
  // Sort row *pointers*, not row copies — state comparison runs after every
  // mutation and row-deep copies dominated its profile.
  std::vector<const std::vector<SqlValue>*> sa, sb;
  sa.reserve(a.size());
  sb.reserve(b.size());
  for (const auto& row : a) sa.push_back(&row);
  for (const auto& row : b) sb.push_back(&row);
  auto ptr_less = [&row_less](const std::vector<SqlValue>* x,
                              const std::vector<SqlValue>* y) {
    return row_less(*x, *y);
  };
  std::sort(sa.begin(), sa.end(), ptr_less);
  std::sort(sb.begin(), sb.end(), ptr_less);
  for (size_t r = 0; r < sa.size(); ++r) {
    if (sa[r]->size() != sb[r]->size()) return false;
    for (size_t c = 0; c < sa[r]->size(); ++c) {
      if (!ValueEquals((*sa[r])[c], (*sb[r])[c])) return false;
    }
  }
  return true;
}

}  // namespace pqs
