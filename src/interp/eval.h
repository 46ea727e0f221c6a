// Dialect-aware three-valued expression interpreter.
//
// This is the single implementation of expression semantics in the
// repository: MiniDB filters rows with it, and the PQS runner uses it (with
// a clean configuration) to evaluate and rectify predicates on the pivot
// row. Sharing the code is what makes the containment oracle sound on a
// clean engine — any divergence an oracle observes is, by construction, an
// injected bug or a real-engine discrepancy, never interpreter drift.
//
// Injected bug classes that corrupt *expression evaluation* hook in here,
// gated on EvalContext::bugs; scan-level and statement-level bugs live in
// the MiniDB engine itself.
#ifndef PQS_SRC_INTERP_EVAL_H_
#define PQS_SRC_INTERP_EVAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/engine/bugs.h"
#include "src/engine/connection.h"
#include "src/sqlast/ast.h"
#include "src/sqlvalue/value.h"

namespace pqs {

// Flattened schema of a (possibly joined) row: qualified column names in
// projection order.
//
// Every distinct column list carries an id, so a column reference can be
// resolved once per schema and then read by slot (Expr::binding, DESIGN
// §11). A copy keeps its source's id (same columns, same slots); every
// change to the columns draws a fresh process-unique id, and a moved-from
// or empty schema has id 0, which nothing binds to. Ids are never reused,
// so a schema rebuilt at a freed one's address cannot inherit its slots.
class RowSchema {
 public:
  using Column = std::pair<std::string, std::string>;  // (table, column)

  RowSchema() = default;
  RowSchema(const RowSchema&) = default;
  RowSchema& operator=(const RowSchema&) = default;
  RowSchema(RowSchema&& other) noexcept
      : cols_(std::move(other.cols_)), id_(other.id_) {
    other.cols_.clear();
    other.id_ = 0;
  }
  RowSchema& operator=(RowSchema&& other) noexcept {
    if (this != &other) {
      cols_ = std::move(other.cols_);
      id_ = other.id_;
      other.cols_.clear();
      other.id_ = 0;
    }
    return *this;
  }

  void Add(const std::string& table, const std::string& column) {
    cols_.emplace_back(table, column);
    id_ = NextId();
  }
  // Appends `other`'s columns after this schema's (a join step).
  void Append(const RowSchema& other) {
    cols_.insert(cols_.end(), other.cols_.begin(), other.cols_.end());
    id_ = cols_.empty() ? 0 : NextId();
  }
  void Reserve(size_t n) { cols_.reserve(n); }

  const std::vector<Column>& cols() const { return cols_; }
  size_t size() const { return cols_.size(); }
  uint64_t id() const { return id_; }

  // Position of `column` (qualified by `table`, or any table when `table`
  // is empty) in projection order, or -1. An unqualified name resolves to
  // its first match.
  int IndexOf(const std::string& table, const std::string& column) const {
    for (size_t i = 0; i < cols_.size(); ++i) {
      if (cols_[i].second != column) continue;
      if (table.empty() || cols_[i].first == table) return static_cast<int>(i);
    }
    return -1;
  }

 private:
  // A fresh nonzero id. Expr::binding packs an id with a slot in 64 bits,
  // so ids from 2^48 up are never bound (that is 2^32 thread blocks away).
  static uint64_t NextId();

  std::vector<Column> cols_;
  uint64_t id_ = 0;
};

struct RowView {
  const RowSchema* schema = nullptr;
  const std::vector<SqlValue>* values = nullptr;
};

struct EvalContext {
  Dialect dialect = Dialect::kSqliteFlex;
  // Null or empty ⇒ reference semantics (the ground truth the runner uses).
  const BugConfig* bugs = nullptr;

  bool BugEnabled(BugId id) const { return bugs != nullptr && bugs->enabled(id); }
};

struct EvalResult {
  SqlValue value;
  bool error = false;
  std::string message;
};

// The evaluator: one recursive walk over the Expr tree (DESIGN §11). It
// returns a pointer to the result instead of a value, so leaves are never
// copied: a literal result points into `expr`'s tree, a column reference
// into `row`'s values, and only a computed value is written to *scratch.
// The pointer stays valid while the tree, the row's vector and *scratch
// are alive and unmodified. On an evaluation error it returns nullptr and
// stores the message in *error (which may be null when the caller only
// needs to know that it failed). Errors surface in evaluation order: the
// first failing operand, left to right, wins.
const SqlValue* EvaluateRef(const Expr& expr, const RowView& row,
                            const EvalContext& ctx, SqlValue* scratch,
                            std::string* error);

// EvaluateRef, with the result stored into *out (a borrowed leaf is copied,
// a computed value is built in place). *out must not be a cell of `row`.
// Returns false and fills *error on an evaluation error.
bool EvaluateInto(const Expr& expr, const RowView& row,
                  const EvalContext& ctx, SqlValue* out, std::string* error);

// EvaluateRef packaged as an owned value or error.
EvalResult Evaluate(const Expr& expr, const RowView& row,
                    const EvalContext& ctx);

// Truthiness of a value in WHERE position for the given dialect.
Bool3 Truthiness(const SqlValue& v, Dialect dialect);

// Convenience: evaluate an expression as a predicate. Sets *error on
// evaluation failure (in which case the Bool3 is kNull).
Bool3 EvaluatePredicate(const Expr& expr, const RowView& row,
                        const EvalContext& ctx, bool* error);

// SQL LIKE with % and _ wildcards and an optional ESCAPE character
// (escape < 0 means no ESCAPE clause; an escaped wildcard matches itself
// literally, and a pattern ending in a bare escape character matches
// nothing, as in real SQLite). Exposed for tests.
bool LikeMatch(std::string_view text, std::string_view pattern,
               bool case_insensitive, int escape = -1);

// ---------------------------------------------------------------------------
// Relational helpers (joins, DISTINCT, ORDER BY, LIMIT)
// ---------------------------------------------------------------------------
// Like the expression evaluator above, these are shared between MiniDB's
// scan (with its BugConfig in the EvalContext) and the runner's ground-truth
// computation for join-aware pivot containment and LIMIT rank bounds (with a
// clean context). Sharing the code is what keeps the widened query space
// free of oracle false positives: injected join/DISTINCT/LIMIT bugs hook in
// here gated on ctx.bugs, and a null BugConfig is reference semantics.

// One FROM entry of a relational evaluation: the table's column schema plus
// its materialized rows, both borrowed for the call.
struct JoinInput {
  const RowSchema* schema = nullptr;
  const std::vector<std::vector<SqlValue>>* rows = nullptr;
};

// A join result in row-index form: combined row r takes from input t its
// row picks[r * width + t], or NULL cells where that is kNullPick (the
// padded side of a LEFT join). Inputs are in-memory tables, far below
// 2^32 rows. Callers assemble one combined row at a time
// into a reused buffer (AssembleJoinedRow) and copy only the rows they
// keep, instead of allocating every combination up front.
struct JoinedRows {
  static constexpr uint32_t kNullPick = UINT32_MAX;
  size_t width = 0;  // number of inputs
  std::vector<uint32_t> picks;

  size_t size() const { return width == 0 ? 0 : picks.size() / width; }
};

// Nested-loop join of inputs[0] with inputs[1..]. With `joins` empty this is
// the comma-list FROM (cross product of every input); otherwise
// joins.size() must equal inputs.size() - 1 and each clause combines the
// rows accumulated so far with the next input (INNER/CROSS keep matching
// combinations, LEFT additionally null-pads left rows without a match).
// ON conditions may reference any column joined so far, and run step by
// step in row order, so the first failing ON is the one a materializing
// nested loop would hit. Returns false and fills *error on an evaluation
// error; *null_padded_rows (optional) counts LEFT-join padding rows
// produced.
bool JoinRowIndexes(const std::vector<JoinInput>& inputs,
                    const std::vector<JoinClause>& joins,
                    const EvalContext& ctx, JoinedRows* out,
                    std::string* error, size_t* null_padded_rows);

// Writes combined row r of `joined` into *row, reusing its storage.
void AssembleJoinedRow(const std::vector<JoinInput>& inputs,
                       const JoinedRows& joined, size_t r,
                       std::vector<SqlValue>* row);

// SQL DISTINCT over borrowed rows: returns the indexes of the rows kept
// (the first occurrence of each duplicate group), in ascending order. NULL
// cells compare equal to each other and INTEGER/REAL cells compare
// numerically, matching real engines' DISTINCT semantics.
std::vector<size_t> DistinctKeepIndexes(
    const std::vector<const std::vector<SqlValue>*>& rows,
    const EvalContext& ctx);

// Lexicographic three-way comparison of two key vectors under the order
// spec: ValueCompare per key (NULL < numeric < TEXT, the SQLite/MySQL
// default NULL position), inverted for descending keys.
int CompareOrderKeys(const std::vector<SqlValue>& a,
                     const std::vector<SqlValue>& b,
                     const std::vector<OrderByItem>& order);

// Stable sorted permutation of [0, rows.size()) under the order spec, with
// keys evaluated against `schema`. Returns false on an evaluation error.
bool SortIndexesByOrder(const RowSchema& schema,
                        const std::vector<std::vector<SqlValue>>& rows,
                        const std::vector<OrderByItem>& order,
                        const EvalContext& ctx, std::vector<size_t>* perm,
                        std::string* error);

// Truncates `rows` to `limit` (< 0 means no LIMIT). `ordered` reports
// whether the statement carried an ORDER BY (the kOrderLimitOffByOne bug
// triggers only on ordered, binding limits).
void ApplyLimit(int64_t limit, bool ordered, const EvalContext& ctx,
                std::vector<std::vector<SqlValue>>* rows);

// ---------------------------------------------------------------------------
// Grouping / aggregation core (GROUP BY, HAVING, COUNT/SUM/AVG/MIN/MAX)
// ---------------------------------------------------------------------------
// One shared implementation of aggregate semantics, mirroring real SQLite:
// SUM skips NULLs, stays INTEGER over all-integer input and switches to REAL
// once any REAL (or, in the flexible dialects, TEXT coerced by numeric
// prefix) operand appears; SUM over no non-NULL input is NULL; AVG is always
// REAL; MIN/MAX use the NULL < numeric < TEXT ValueCompare order and skip
// NULLs; COUNT(DISTINCT e) dedups with ValueEquals (1 and 1.0 collide).
// MiniDB's executor runs it with its BugConfig; the runner's ground truth
// and the TLP oracle's partition recombination run it with a clean context,
// which is what makes a recombination mismatch evidence of an engine bug
// rather than of oracle-side arithmetic drift.

class AggAccumulator {
 public:
  AggAccumulator(AggFunc func, bool distinct, const EvalContext& ctx)
      : func_(func), distinct_(distinct), ctx_(ctx) {}

  // Feed one operand value (or one row, for COUNT(*), via AddRow). Returns
  // false and fills *error when the dialect rejects the operand (strict
  // dialect: SUM/AVG over TEXT).
  bool Add(const SqlValue& v, std::string* error);
  void AddRow() {
    ++rows_seen_;
    ++star_rows_;
  }

  // Final aggregate value; applies the aggregate bug hooks gated on the
  // context's BugConfig.
  SqlValue Final() const;

 private:
  AggFunc func_;
  bool distinct_;
  const EvalContext& ctx_;
  uint64_t rows_seen_ = 0;     // inputs fed (Add or AddRow)
  uint64_t star_rows_ = 0;     // AddRow calls (COUNT(*))
  uint64_t non_null_ = 0;      // non-NULL operands fed (pre-DISTINCT)
  uint64_t distinct_seen_ = 0; // distinct non-NULL operands accumulated
  bool approx_ = false;        // some operand forced REAL accumulation
  int64_t int_sum_ = 0;
  double real_sum_ = 0.0;
  SqlValue extreme_;           // running MIN/MAX (NULL = none yet)
  std::vector<SqlValue> seen_; // DISTINCT dedup set
};

// Full grouping pipeline over the post-WHERE input rows of a SELECT with
// aggregates: groups by stmt.group_by (no GROUP BY ⇒ one global group, which
// exists even over empty input), computes every aggregate node of the select
// list and HAVING per group via AggAccumulator, applies HAVING, and emits
// one output row per surviving group in first-seen group order. Returns
// false and fills *error on an evaluation error or unsupported shape.
bool AggregateSelect(const SelectStmt& stmt, const RowSchema& schema,
                     const std::vector<std::vector<SqlValue>>& input_rows,
                     const EvalContext& ctx,
                     std::vector<std::vector<SqlValue>>* out_rows,
                     std::string* error);

// The GROUP BY rule, one for the engine and the TLP oracle: the index of
// the first of `keys` that is ValueCompare-equal, column by column, to the
// leading columns of `row`, or keys.size() when none is. NULL keys group
// together, and INTEGER and REAL keys group numerically, as in real engines.
size_t FindGroup(const std::vector<std::vector<SqlValue>>& keys,
                 const std::vector<SqlValue>& row);

// Clone of `e` with every kAggregate subtree replaced by a literal: node
// `nodes[i]` (matched by StructurallyEquals) becomes `values[i]`. Shared by
// AggregateSelect and the TLP oracle's recombined-HAVING evaluation.
ExprPtr SubstituteAggregates(const Expr& e,
                             const std::vector<const Expr*>& nodes,
                             const std::vector<SqlValue>& values);

// Appends every distinct (by StructurallyEquals) kAggregate subtree of `e`
// to *nodes, in discovery order.
void CollectAggregates(const Expr& e, std::vector<const Expr*>* nodes);

// Multiset equality of two materialized rowsets (row order is
// engine-defined and may legitimately differ): same row count and a
// ValueEquals-identical pairing. Used by the runner's ground-truth state
// comparison after mutations (DESIGN §9) and by the reducer's containment
// differential.
bool SameRowMultiset(const std::vector<std::vector<SqlValue>>& a,
                     const std::vector<std::vector<SqlValue>>& b);

// Multiset containment: true when every row of `subset` pairs with a
// distinct ValueEquals-identical row of `superset`; on failure *missing
// (when non-null) receives the first unmatched subset row.
bool RowsMultisetContained(const std::vector<std::vector<SqlValue>>& subset,
                           const std::vector<std::vector<SqlValue>>& superset,
                           std::vector<SqlValue>* missing = nullptr);

// The one-row case, the runner's pivot-containment oracle: whether some row
// of `rows` is ValueEquals-identical to `row`, cell by cell.
bool RowContained(const std::vector<SqlValue>& row,
                  const std::vector<std::vector<SqlValue>>& rows);

}  // namespace pqs

#endif  // PQS_SRC_INTERP_EVAL_H_
