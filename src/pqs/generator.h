// Random database and predicate generation (paper §3.1/§3.2).
//
// The generator is dialect-aware: in kPostgresStrict it only emits
// statements and expressions that are statically type-correct, which is
// what makes the error oracle sound — any error the engine reports on a
// generated statement (other than a constraint violation on INSERT) is a
// bug by construction.
#ifndef PQS_SRC_PQS_GENERATOR_H_
#define PQS_SRC_PQS_GENERATOR_H_

#include <string>
#include <vector>

#include <memory>

#include "src/common/rng.h"
#include "src/engine/connection.h"
#include "src/sqlast/ast.h"
#include "src/sqlstmt/stmt.h"

namespace pqs {

struct FunctionSig;

// A knob lives here only when a bench, perfbench or src/ caller sets it, or
// when a reference comparison is generated with it (the expression knobs and
// max_predicate_depth generate tests/golden/eval_corpus.golden). Every other
// generation constant sits next to the code that reads it (generator.cc,
// scheduler.cc, runner.cc); bench/check_knobs.py enforces the rule.
struct GeneratorOptions {
  // Algorithm-3 rectification toggle. With it off, the runner still tallies
  // raw predicate outcomes but must skip the containment check — a raw
  // predicate is only TRUE on the pivot by chance.
  bool rectify = true;

  int min_rows = 3;
  int max_rows = 12;
  // Composite predicate nesting (leaves add their own internal depth).
  int max_predicate_depth = 3;

  // --- Typed expression subsystem (functions / CAST / CASE / LIKE ESCAPE
  // --- / collations / NULL-bearing IN lists). ---------------------------
  // Probability a comparison leaf anchors on a registry function call
  // (dialect availability comes from sqlexpr::FunctionsForDialect).
  double function_probability = 0.3;
  // Probability a comparison leaf anchors on CAST(col AS type).
  double cast_probability = 0.2;
  // Probability a composite level emits a searched CASE predicate.
  double case_probability = 0.12;
  // Probability a text comparison operand gets an explicit COLLATE
  // (kSqliteFlex only; the other dialects never emit the operator).
  double collate_probability = 0.35;
  // Probability a LIKE leaf uses an escaped pattern with an ESCAPE clause.
  double like_escape_probability = 0.4;
  // Probability an IN list includes a NULL element (UNKNOWN semantics).
  double in_list_null_probability = 0.25;

  // --- Interleaved transaction sessions (MVCC campaigns — DESIGN §14). --
  // Number of logical sessions the scheduler interleaves. 1 (the default)
  // keeps the classic autocommit stream; above 1 the runner switches to
  // the transaction branch: BEGIN/COMMIT/ROLLBACK streams over K sessions
  // with snapshot-isolation and committed-state checks against a clean
  // model.
  int txn_sessions = 1;

  // Validates ranges: depths/counts non-negative, row bounds ordered,
  // every probability within [0, 1] and txn_sessions within [1, 8].
  // Returns an empty string when valid, else a description of the first
  // offending field. RunnerOptions / CampaignOptions setup calls this so a
  // bad CLI flag fails loudly instead of silently skewing generation.
  std::string Validate() const;
};

struct TableSchema {
  std::string name;
  std::vector<ColumnDef> columns;
};

// Plan for one generated database state: the schema plus the DDL/DML
// statements that build it.
struct DatabasePlan {
  std::vector<TableSchema> tables;
  std::vector<StmtPtr> statements;

  // "i<N>" with N = the plan's CREATE INDEX count plus `later`: the name of
  // the index created `later` indexes after the plan's last one. Every
  // index name comes from here, so no name is used twice in a session, not
  // even one whose CREATE INDEX the engine rejected.
  std::string IndexName(int later = 0) const;
};

// Shape of one generated query: the FROM tables, the join plan over them,
// and the DISTINCT / ORDER BY / LIMIT features. ON conditions and the WHERE
// predicate are generated separately so the runner can rectify each of them
// against the pivot row (Algorithm 3, extended join-aware); the LIMIT value
// itself is chosen by the runner from the pivot's ground-truth rank so
// containment stays decidable.
struct QueryShape {
  std::vector<const TableSchema*> tables;  // FROM order; [0] is the base
  // One entry per join step (tables[i+1] joins via join_kinds[i]); empty
  // means comma-list FROM (cross product).
  std::vector<JoinKind> join_kinds;
  bool distinct = false;
  std::vector<OrderByItem> order_by;  // column-ref keys over `tables`
  bool want_limit = false;
};

class Generator {
 public:
  Generator(const GeneratorOptions& options, Dialect dialect);

  // Generates schema + data statements for a fresh database.
  DatabasePlan GenerateDatabase(Rng* rng) const;

  // Picks the FROM tables, join plan, and query features for the next
  // query (at least one table).
  QueryShape GenerateQueryShape(const DatabasePlan& plan, Rng* rng) const;

  // Random ON condition for joining `joined` to the `earlier` tables:
  // a comparison anchored on a `joined` column (column-vs-column when a
  // type-compatible earlier column exists, else column-vs-literal).
  ExprPtr GenerateJoinCondition(
      const std::vector<const TableSchema*>& earlier,
      const TableSchema* joined, Rng* rng) const;

  // Random predicate over the given tables' columns.
  ExprPtr GeneratePredicate(
      const std::vector<const TableSchema*>& tables, Rng* rng) const;

  // Random single-table aggregate query for a TLP check: 1-2 aggregate
  // calls (COUNT(*) / COUNT / SUM / AVG / MIN / MAX), sometimes GROUP BY
  // one column (the key is then also projected), sometimes HAVING, or the
  // dedicated COUNT(DISTINCT c) shape. SUM/AVG arguments are restricted to
  // numeric-affinity columns in every dialect, which keeps the query
  // differentially comparable against real SQLite (no text-to-number
  // coercion paths) and statically typed for the strict dialect's error
  // oracle. The query never carries WHERE / DISTINCT / ORDER BY / LIMIT:
  // the TLP partitions supply the predicates.
  std::unique_ptr<SelectStmt> GenerateAggregateQuery(const TableSchema& table,
                                                     Rng* rng) const;

  // --- Statement-level mutations (drawn by the ActionScheduler). --------
  // 1-2 fresh rows for `table`, same value model as the setup inserts.
  std::unique_ptr<InsertStmt> GenerateInsertRows(const TableSchema& table,
                                                 Rng* rng) const;
  // UPDATE with 1-2 assignments and (usually) a WHERE predicate. Columns
  // named in `literal_only_columns` (declared UNIQUE/PK plus live unique
  // index keys) only ever receive literal values, which keeps constraint
  // decisions independent of the engine's row visit order — the property
  // that lets the ground-truth model mirror real SQLite exactly (DESIGN
  // §9). Other columns may also receive same-type-class column refs,
  // numeric col±lit arithmetic, or (SQLite) a text concat. `hot_columns`
  // (the key and predicate columns of the ground-truth model's indexes,
  // which the scheduler reads from its catalogue) bias the first assignment
  // target: updating an indexed column is what moves index entries, so the
  // index-maintenance bug classes stay reachable at a useful rate.
  std::unique_ptr<UpdateStmt> GenerateUpdate(
      const TableSchema& table,
      const std::vector<std::string>& literal_only_columns,
      const std::vector<std::string>& hot_columns, Rng* rng) const;
  // DELETE with a WHERE predicate (never the whole table).
  std::unique_ptr<DeleteStmt> GenerateDelete(const TableSchema& table,
                                             Rng* rng) const;
  // Random index over `table` (single/two-column, sometimes UNIQUE,
  // sometimes partial); used for both the setup phase and mid-session
  // CREATE INDEX actions.
  std::unique_ptr<CreateIndexStmt> GenerateIndex(const TableSchema& table,
                                                 std::string index_name,
                                                 Rng* rng) const;

 private:
  // One row of literal value expressions for `table`, in column order.
  std::vector<ExprPtr> GenerateRowValues(const TableSchema& table,
                                         Rng* rng) const;
  JoinKind RandomJoinKind(Rng* rng) const;
  ExprPtr GenPredicate(const std::vector<const TableSchema*>& tables,
                       int depth, Rng* rng) const;
  ExprPtr GenLeaf(const std::vector<const TableSchema*>& tables,
                  Rng* rng) const;
  // Registry-driven function-call operand: picks a function available in
  // the dialect, builds statically type-correct arguments over the tables'
  // columns, and reports the result's affinity class for the enclosing
  // comparison.
  ExprPtr GenFunctionExpr(const std::vector<const TableSchema*>& tables,
                          Rng* rng, Affinity* result_affinity) const;
  // CAST(col AS type) operand; strict dialects never cast text sources to
  // numeric targets. *operand_numeric reports whether the cast source is a
  // numeric-affinity column (callers must not compare the cast against a
  // text-affinity operand: a CAST carries its target type's affinity in
  // real SQLite, which would coerce the text side numerically — a rule the
  // storage-class model deliberately does not reproduce).
  ExprPtr GenCastExpr(const std::vector<const TableSchema*>& tables,
                      Rng* rng, Affinity* result_affinity,
                      bool* operand_numeric) const;
  // Searched CASE predicate with comparison-leaf arms.
  ExprPtr GenCasePredicate(const std::vector<const TableSchema*>& tables,
                           Rng* rng) const;
  // Wraps a text operand in COLLATE BINARY/NOCASE (kSqliteFlex only).
  // *collated (optional) reports whether the wrap happened.
  ExprPtr MaybeCollate(ExprPtr text_operand, Rng* rng,
                       bool* collated = nullptr) const;
  const ColumnDef* PickColumn(const std::vector<const TableSchema*>& tables,
                              const TableSchema** table, Rng* rng) const;
  SqlValue RandomValueFor(Affinity affinity, Rng* rng) const;
  SqlValue RandomLiteralNear(Affinity affinity, Rng* rng) const;
  std::string RandomText(Rng* rng) const;

  GeneratorOptions options_;
  Dialect dialect_;
  bool strict_;
  // The dialect's registry functions to draw calls from, the NULL-handling
  // family listed twice (see GenFunctionExpr).
  std::vector<const FunctionSig*> function_pool_;
};

}  // namespace pqs

#endif  // PQS_SRC_PQS_GENERATOR_H_
