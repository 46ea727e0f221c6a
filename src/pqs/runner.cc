#include "src/pqs/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "src/common/rng.h"
#include "src/interp/eval.h"
#include "src/minidb/database.h"
#include "src/obs/telemetry.h"
#include "src/pqs/scheduler.h"
#include "src/sqlexpr/rectify.h"
#include "src/sqlmeta/oracle.h"

namespace pqs {

// The runner indexes RunStats::predicate_depth_buckets with
// sqlexpr::ExprDepthBucket; the two bucket counts must agree.
static_assert(RunStats::kDepthBuckets == kExprDepthBuckets,
              "RunStats depth histogram width must match ExprDepthBucket");

namespace {

using Rows = std::vector<std::vector<SqlValue>>;

// Statement-stream distribution tallies for the mutation actions.
void TallyAction(const Stmt& stmt, RunStats* stats) {
  switch (stmt.kind()) {
    case StmtKind::kInsert:
      ++stats->actions_insert;
      break;
    case StmtKind::kUpdate:
      ++stats->actions_update;
      break;
    case StmtKind::kDelete:
      ++stats->actions_delete;
      break;
    case StmtKind::kCreateIndex:
      ++stats->actions_create_index;
      break;
    case StmtKind::kDropIndex:
      ++stats->actions_drop_index;
      break;
    case StmtKind::kMaintenance:
      ++stats->actions_maintenance;
      break;
    default:
      break;
  }
}

// Typed-expression stats: generated-predicate depth histogram and
// function-call tallies (surfaced through bench_figure3).
void TallyPredicate(const Expr& predicate, RunStats* stats) {
  ++stats->predicate_depth_buckets[ExprDepthBucket(predicate.Depth())];
  size_t calls = predicate.CountKind(ExprKind::kFunctionCall);
  stats->function_calls_generated += calls;
  if (calls > 0) ++stats->predicates_with_function;
}

// Worst-case 1-based position of the pivot in `query`'s result under
// reference semantics: the number of result rows whose ORDER BY keys sort
// at-or-before the pivot's (ties may legally precede it), or the full
// result size when the query has no ORDER BY (any row order is legal
// then). A LIMIT of at least this bound provably keeps the pivot in the
// result whatever tie-breaking the engine uses — the paper's restriction
// to queries where containment stays decidable. The base-table rows were
// already fetched for pivot selection, so this reuses them with the same
// shared relational core the engine runs.
bool PivotWorstCaseRank(
    const SelectStmt& query, const std::vector<const TableSchema*>& from,
    const std::vector<std::vector<std::vector<SqlValue>>>& table_rows,
    const RowSchema& joined_schema, const std::vector<SqlValue>& pivot,
    const EvalContext& ctx, int64_t* rank) {
  // A single table without join clauses is filtered where it lies; a join
  // is materialized once. Per-table schemas are slices of the pivot's
  // joined schema, which lists the FROM tables' columns in order.
  std::vector<std::vector<SqlValue>> joined;
  const std::vector<std::vector<SqlValue>>* source = &joined;
  if (from.size() == 1 && query.joins.empty()) {
    source = &table_rows[0];
  } else {
    std::vector<RowSchema> schemas(from.size());
    std::vector<JoinInput> inputs(from.size());
    size_t offset = 0;
    for (size_t t = 0; t < from.size(); ++t) {
      size_t width = from[t]->columns.size();
      if (offset + width > joined_schema.cols.size()) return false;
      schemas[t].cols.assign(
          joined_schema.cols.begin() + static_cast<long>(offset),
          joined_schema.cols.begin() + static_cast<long>(offset + width));
      inputs[t] = {&schemas[t], &table_rows[t]};
      offset += width;
    }
    if (!JoinRows(inputs, query.joins, ctx, &joined, nullptr, nullptr)) {
      return false;
    }
  }
  // The result rows: every filtered row, or DISTINCT's first occurrences.
  std::vector<const std::vector<SqlValue>*> result;
  result.reserve(source->size());
  for (const std::vector<SqlValue>& row : *source) {
    if (query.where != nullptr) {
      bool error = false;
      Bool3 hit = EvaluatePredicate(*query.where, RowView{&joined_schema, &row},
                                    ctx, &error);
      if (error) return false;
      if (hit != Bool3::kTrue) continue;
    }
    result.push_back(&row);
  }
  if (query.distinct) {
    std::vector<size_t> keep = DistinctKeepIndexes(result, ctx);
    for (size_t i = 0; i < keep.size(); ++i) result[i] = result[keep[i]];
    result.resize(keep.size());
  }
  if (query.order_by.empty()) {
    *rank = static_cast<int64_t>(result.size());
  } else {
    for (const OrderByItem& item : query.order_by) {
      if (item.expr == nullptr) return false;
    }
    auto eval_keys = [&](const std::vector<SqlValue>& row,
                         std::vector<SqlValue>* keys) {
      RowView view{&joined_schema, &row};
      for (size_t k = 0; k < keys->size(); ++k) {
        if (!EvaluateInto(*query.order_by[k].expr, view, ctx, &(*keys)[k],
                          nullptr)) {
          return false;
        }
      }
      return true;
    };
    std::vector<SqlValue> pivot_keys(query.order_by.size());
    if (!eval_keys(pivot, &pivot_keys)) return false;
    std::vector<SqlValue> keys(query.order_by.size());
    int64_t at_or_before = 0;
    for (const std::vector<SqlValue>* row : result) {
      if (!eval_keys(*row, &keys)) return false;
      if (CompareOrderKeys(keys, pivot_keys, query.order_by) <= 0) {
        ++at_or_before;
      }
    }
    *rank = at_or_before;
  }
  // Rectification guarantees the pivot is in the reference result, so the
  // bound is structurally >= 1; clamp defensively (LIMIT 0 would be an
  // instant false positive).
  if (*rank < 1) *rank = 1;
  return true;
}

// Outcome of one database of the shard plan. Merging these in db_index
// order reconstructs exactly what running the databases one by one would
// have reported.
struct DbRunResult {
  RunStats stats;
  obs::MetricsRegistry metrics;
  std::vector<Finding> findings;
  bool factory_failed = false;  // factory returned null; run ends before it
};

// What a state compare holds the engine's table against, and which oracle
// a divergence is reported under.
struct StateReference {
  OracleKind oracle;
  const char* name;
  const char* label;  // how the message names the reference's row count
  // Whether the compare is billed to ground-truth replay. The snapshot
  // check's reference rows come from a replayed query already billed there.
  bool billed;
  // Whether CheckTable counts the compare in RunStats::state_compares, the
  // autocommit families' tally (the transaction family counts commits).
  bool counted;
};
constexpr StateReference kMutationReplay{
    OracleKind::kContainment, "the ground-truth mutation replay", "reference",
    true, true};
constexpr StateReference kCommittedState{
    OracleKind::kTxnSerial, "the clean model's committed state", "model",
    true, false};
constexpr StateReference kSnapshotReplay{
    OracleKind::kTxnSerial, "the interleaved ground-truth replay", "reference",
    false, false};

// The session skeleton (DESIGN §6): one database of the Algorithm 1 loop.
// It owns the connection under test, the database's private RNG stream,
// the generator, the plan, the ground-truth model, the action scheduler,
// the replayable statement log and the result, and does every job the
// check families share: execute, replay, record, fail, compare state,
// check a table, set up and step the stream. The check families below are
// plain functions over it.
struct Session {
  Session(const RunnerOptions& options_in, uint64_t db_seed,
          ConnectionPtr connection)
      : options(options_in),
        rng(db_seed),
        conn(std::move(connection)),
        dialect(conn->dialect()),
        generator(options.gen, dialect),
        model(dialect),
        scheduler(&generator, options.gen.txn_sessions, &plan, &model) {}
  // The scheduler points at this session's generator, plan and model.
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const RunnerOptions& options;
  Rng rng;
  ConnectionPtr conn;
  Dialect dialect;
  Generator generator;
  DatabasePlan plan;
  // Ground truth under mutation (DESIGN §9): a clean MiniDB instance — the
  // reference implementation of the shared interp core — replays every
  // setup and stream statement alongside the engine under test, so the
  // engine's tables can be compared with the model's as multisets and a
  // mutation the engine applied wrongly (lost row, ghost row, wrong value)
  // is caught even though a rectified query can only prove *pivot*
  // containment. In the transaction family it replays the identical
  // interleaved stream (SetSession included) and so answers both "what
  // should this session see right now" and "what is committed".
  minidb::Database model;
  ActionScheduler scheduler;
  size_t setup_done = 0;      // plan statements executed so far
  std::vector<StmtPtr> log;   // stream statements executed after setup
  DbRunResult out;

  // A finding was recorded; the session stops.
  bool done() const { return !out.findings.empty(); }

  // One engine statement: timed as engine execution, counted on the
  // logical clock, and tallied.
  StatementResult Exec(const Stmt& stmt) {
    obs::ScopedPhase span(obs::Phase::kEngineExecute);
    StatementResult r = conn->Execute(stmt);
    obs::CountStatement(static_cast<uint32_t>(stmt.kind()), !r.ok());
    ++out.stats.statements_executed;
    return r;
  }

  StatementResult Replay(const Stmt& stmt) {
    obs::ScopedPhase span(obs::Phase::kGroundTruthReplay);
    return model.Execute(stmt);
  }

  // Exec for a statement that must succeed: any failure goes through Fail
  // with `stmt` as the triggering statement (check `done()` afterwards).
  StatementResult ExecOrFail(const Stmt& stmt) {
    StatementResult r = Exec(stmt);
    if (!r.ok()) Fail(r.status, r.error, Script(&stmt));
    return r;
  }

  // The replayable session: the setup executed so far, every stream
  // statement, and optionally the triggering statement. Stream statements
  // never read their own results, so this flat order reproduces the exact
  // state a finding was observed in. Only called when a finding is
  // recorded, so the common path never copies ASTs.
  std::vector<StmtPtr> Script(const Stmt* last) const {
    std::vector<StmtPtr> script;
    script.reserve(setup_done + log.size() + 1);
    for (size_t i = 0; i < setup_done; ++i) {
      script.push_back(plan.statements[i]->Clone());
    }
    for (const StmtPtr& s : log) script.push_back(s->Clone());
    if (last != nullptr) script.push_back(last->Clone());
    return script;
  }

  // The one finding builder. Provenance: stamps the finding into the flight
  // ring, then ships the ring's contents with it. The dump is therefore
  // never empty (it at least holds its own kFindingRecorded marker) and is
  // a pure function of the session seed — worker-count-invariant.
  void Record(OracleKind oracle, std::string message,
              std::vector<StmtPtr> statements,
              std::vector<SqlValue> pivot = {}) {
    Finding finding;
    finding.oracle = oracle;
    finding.dialect = dialect;
    finding.statements = std::move(statements);
    finding.pivot = std::move(pivot);
    finding.message = std::move(message);
    if (obs::SessionTelemetry* t = obs::CurrentTelemetry()) {
      t->recorder.Emit(t->clock, obs::EventKind::kFindingRecorded,
                       static_cast<uint32_t>(oracle));
      finding.flight = t->recorder.Dump();
    }
    out.findings.push_back(std::move(finding));
  }

  // The one failed-statement mapping: kCrash is a crash finding, and
  // every other failure an error finding replaying `script`.
  void Fail(StatementStatus status, std::string message,
            std::vector<StmtPtr> script) {
    Record(status == StatementStatus::kCrash ? OracleKind::kCrash
                                             : OracleKind::kError,
           std::move(message), std::move(script));
  }

  // The one engine-vs-model state compare: `subject`'s engine rows, read
  // by `fetch`, must equal `reference`'s as multisets. On divergence
  // records a finding (with `with_pivot`, the first reference row the
  // engine lost — none when it instead has extra rows) and returns false.
  bool CompareState(const StateReference& ref, const std::string& subject,
                    const Stmt& fetch, const StatementResult& engine,
                    const Rows* reference, bool with_pivot = false) {
    bool diverged;
    {
      std::optional<obs::ScopedPhase> span;
      if (ref.billed) span.emplace(obs::Phase::kGroundTruthReplay);
      diverged =
          reference != nullptr && !SameRowMultiset(engine.rows, *reference);
    }
    if (!diverged) return true;
    std::vector<SqlValue> pivot;
    for (size_t i = 0; with_pivot && i < reference->size(); ++i) {
      if (!RowsMultisetContained({(*reference)[i]}, engine.rows)) {
        pivot = (*reference)[i];
        break;
      }
    }
    Record(ref.oracle,
           subject + " diverged from " + ref.name + ": engine has " +
               std::to_string(engine.rows.size()) + " row(s), " + ref.label +
               " " + std::to_string(reference->size()),
           Script(&fetch), std::move(pivot));
    return false;
  }

  // The committed-state table check: the engine's SELECT * of `table` must
  // equal the model's committed rows, reported against `ref`. Returns the
  // engine's rows, or nullopt once the session is done (the fetch failed,
  // or the table diverged; with `with_pivot` the finding carries the first
  // lost row).
  std::optional<Rows> CheckTable(const StateReference& ref,
                                 const std::string& table, bool with_pivot) {
    SelectStmt fetch;
    fetch.from_tables = {table};
    StatementResult rows = ExecOrFail(fetch);
    if (done()) return std::nullopt;
    if (ref.counted) ++out.stats.state_compares;
    if (!CompareState(ref, "table " + table, fetch, rows,
                      model.TableRows(table), with_pivot)) {
      return std::nullopt;
    }
    return std::move(rows.rows);
  }

  // Generates the database (with `index_every_table`, one extra index per
  // table) and runs its setup on the engine and the model. Returns false
  // when the session ended here.
  bool Setup(bool index_every_table) {
    {
      obs::ScopedPhase span(obs::Phase::kGenerate);
      plan = generator.GenerateDatabase(&rng);
      if (index_every_table) {
        for (const TableSchema& table : plan.tables) {
          plan.statements.push_back(
              generator.GenerateIndex(table, plan.IndexName(), &rng));
        }
      }
    }
    ++out.stats.databases_created;
    for (const StmtPtr& stmt : plan.statements) {
      ++setup_done;
      Apply(*stmt);
      if (done()) break;
    }
    return !done();
  }

  // One statement of the stream between checks; it joins the log.
  void Step(StmtPtr stmt) {
    TallyAction(*stmt, &out.stats);
    log.push_back(std::move(stmt));
    Apply(*log.back());
  }

  // After a COMMIT the committing session is back in autocommit and reads
  // the latest committed state: the strongest point to compare every
  // engine table with the model's committed rows.
  void CheckCommittedState() {
    ++out.stats.txn_serial_replays;
    for (const TableSchema& table : plan.tables) {
      if (!CheckTable(kCommittedState, table.name, /*with_pivot=*/false)) {
        return;
      }
    }
  }

  // Lifecycle tallies and flight events of a transaction statement the
  // current session ran, given the model's result. Every other statement
  // passes through.
  void TallyTxn(const Stmt& stmt, const StatementResult& replayed) {
    RunStats& stats = out.stats;
    uint32_t id = static_cast<uint32_t>(model.active_session());
    uint32_t clock = static_cast<uint32_t>(model.commit_clock());
    switch (stmt.kind()) {
      case StmtKind::kBegin:
        if (replayed.ok()) {
          ++stats.txn_begins;
          obs::Emit(obs::EventKind::kTxnBegin, id, clock);
        }
        break;
      case StmtKind::kCommit:
        if (replayed.ok()) {
          ++stats.txn_commits;
          obs::Emit(obs::EventKind::kTxnCommit, id, clock);
        } else if (replayed.status == StatementStatus::kTxnConflict) {
          ++stats.txn_conflicts;
          obs::Emit(obs::EventKind::kTxnAbort, id, 1);
        }
        break;
      case StmtKind::kRollback:
        if (replayed.ok()) {
          ++stats.txn_rollbacks;
          obs::Emit(obs::EventKind::kTxnAbort, id, 0);
        }
        break;
      default:  // setup, DML and DDL: nothing to tally
        break;
    }
  }

  // Runs a setup or stream statement, already part of the script, on the
  // engine and the model. A spurious engine error or crash is an oracle
  // violation right here; constraint violations and first-committer-wins
  // conflicts are expected outcomes of random statements, never findings.
  void Apply(const Stmt& stmt) {
    StatementResult result = Exec(stmt);
    StatementResult model_result = Replay(stmt);
    TallyTxn(stmt, model_result);
    if (result.status == StatementStatus::kConstraintViolation) {
      ++out.stats.constraint_violations;
    } else if (!result.ok() &&
               result.status != StatementStatus::kTxnConflict) {
      Fail(result.status, std::move(result.error), Script(nullptr));
    }
  }
};

// --- Containment family (paper §3.2, Algorithm 3) -----------------------
// One check: pick a pivot through the connection, synthesize and rectify a
// query around it (joins, DISTINCT, ORDER BY and a pivot-safe LIMIT), and
// require the pivot in the engine's result.
void ContainmentCheck(Session& s) {
  const RunnerOptions& options = s.options;
  RunStats& stats = s.out.stats;
  QueryShape shape;
  {
    obs::ScopedPhase span(obs::Phase::kGenerate);
    shape = s.generator.GenerateQueryShape(s.plan, &s.rng);
  }
  const std::vector<const TableSchema*>& from = shape.tables;

  // Pivot selection through the Connection API: fetch each FROM
  // table's rows and pick one at random (paper §3.2 step 2 — re-run
  // after every mutation batch, so the pivot is always re-selected from
  // the mutated state). The full rowsets are retained: the LIMIT bound
  // below recomputes the query on them under reference semantics.
  RowSchema pivot_schema;
  std::vector<SqlValue> pivot;
  std::vector<Rows> table_rows;
  for (const TableSchema* table : from) {
    // Ground-truth state comparison: after replaying the same mutations
    // through the shared interp core, the engine's table must hold
    // exactly the model's rows. This is what keeps containment exact
    // under UPDATE/DELETE — a wrongly-deleted row could otherwise never
    // be picked as a pivot and would go unnoticed.
    std::optional<Rows> rows =
        s.CheckTable(kMutationReplay, table->name, /*with_pivot=*/true);
    if (!rows) return;
    if (rows->empty()) {
      ++stats.queries_skipped;  // empty after rejections or deletes
      return;
    }
    table_rows.push_back(std::move(*rows));
    obs::PivotSelected(static_cast<uint32_t>(table_rows.size() - 1),
                       static_cast<uint32_t>(table_rows.back().size()));
    const Rows& drawn = table_rows.back();
    const auto& row = drawn[s.rng.Below(drawn.size())];
    for (size_t c = 0; c < table->columns.size() && c < row.size(); ++c) {
      pivot_schema.Add(table->name, table->columns[c].name);
      pivot.push_back(row[c]);
    }
  }

  EvalContext ground_truth{s.dialect, nullptr};
  RowView pivot_view{&pivot_schema, &pivot};

  // Join plan: generate each explicit ON condition and rectify it to
  // TRUE on the pivot (join-aware Algorithm 3), so the multi-table pivot
  // combination survives every INNER/LEFT step un-padded. With
  // rectification ablated the raw ON is used (and, as with WHERE, the
  // containment check is skipped).
  std::vector<JoinClause> joins;
  for (size_t j = 0; j < shape.join_kinds.size(); ++j) {
    JoinClause clause;
    clause.kind = shape.join_kinds[j];
    clause.table = from[j + 1]->name;
    if (clause.kind != JoinKind::kCross) {
      std::vector<const TableSchema*> earlier(from.begin(),
                                              from.begin() + j + 1);
      ExprPtr on;
      {
        obs::ScopedPhase span(obs::Phase::kGenerate);
        on = s.generator.GenerateJoinCondition(earlier, from[j + 1], &s.rng);
      }
      // Covers the ON evaluation on the pivot and the rectifying wrap.
      obs::ScopedPhase rectify_span(obs::Phase::kRectify);
      bool on_error = false;
      Bool3 raw_on =
          EvaluatePredicate(*on, pivot_view, ground_truth, &on_error);
      if (on_error) {
        ++stats.queries_skipped;  // generator statically prevents this
        return;
      }
      if (options.gen.rectify) {
        clause.on = RectifyToTrue(std::move(on), raw_on);
        ++stats.join_conditions_rectified;
      } else {
        clause.on = std::move(on);
      }
    }
    joins.push_back(std::move(clause));
  }

  ExprPtr predicate;
  {
    obs::ScopedPhase span(obs::Phase::kGenerate);
    predicate = s.generator.GeneratePredicate(from, &s.rng);

    // Partial-index probe: sometimes AND a live partial index's predicate
    // in front of the WHERE, making the partial-index scan planner
    // reachable. Rectification leaves the conjunct intact exactly when
    // the raw composite is TRUE on the pivot (the other branches wrap
    // the whole expression, and the planner then simply falls back to a
    // full scan — sound either way).
    if (ExprPtr probe =
            s.scheduler.MaybePartialIndexProbe(from[0]->name, &s.rng)) {
      predicate = MakeBinary(BinaryOp::kAnd, std::move(probe),
                             std::move(predicate));
    }
  }

  // Algorithm 3: evaluate the raw predicate on the pivot with
  // reference semantics, tally the branch, and rectify to TRUE.
  bool eval_error = false;
  Bool3 raw;
  {
    obs::ScopedPhase span(obs::Phase::kRectify);
    raw = EvaluatePredicate(*predicate, pivot_view, ground_truth,
                            &eval_error);
  }
  if (eval_error) {
    // The generator statically prevents this; defensive skip.
    ++stats.queries_skipped;
    return;
  }
  TallyPredicate(*predicate, &stats);

  // The raw outcome is tallied in both modes (the ablation bench
  // prints it either way); rectification additionally wraps the
  // predicate so it is TRUE on the pivot.
  switch (raw) {
    case Bool3::kTrue:
      ++stats.rectified_true;
      break;
    case Bool3::kFalse:
      ++stats.rectified_false;
      break;
    case Bool3::kNull:
      ++stats.rectified_null;
      break;
  }
  ExprPtr where;
  {
    obs::ScopedPhase span(obs::Phase::kRectify);
    where = options.gen.rectify ? RectifyToTrue(std::move(predicate), raw)
                                : std::move(predicate);
  }

  SelectStmt query;
  query.distinct = shape.distinct;
  if (!joins.empty()) {
    query.from_tables.push_back(from[0]->name);
    query.joins = std::move(joins);
  } else {
    for (const TableSchema* table : from) {
      query.from_tables.push_back(table->name);
    }
  }
  query.where = std::move(where);
  query.order_by = std::move(shape.order_by);

  // LIMIT: only attached with a provably pivot-safe bound (worst-case
  // ordered rank of the pivot, or the whole result when unordered),
  // sometimes with slack so non-binding limits are exercised too.
  if (shape.want_limit && options.gen.rectify) {
    int64_t rank = 0;
    bool rank_ok;
    {
      // The rank bound reruns the query under reference semantics — the
      // same work the ground-truth model does, so it profiles there.
      obs::ScopedPhase span(obs::Phase::kGroundTruthReplay);
      rank_ok = PivotWorstCaseRank(query, from, table_rows, pivot_schema,
                                   pivot, ground_truth, &rank);
    }
    if (!rank_ok) {
      ++stats.queries_skipped;
      return;
    }
    query.limit =
        rank + (s.rng.Chance(0.5) ? 0 : static_cast<int64_t>(s.rng.Below(4)));
    ++stats.limited_queries;
  }

  StatementResult result = s.ExecOrFail(query);
  ++stats.queries_checked;
  if (s.done() || !options.gen.rectify) return;
  bool contains;
  {
    obs::ScopedPhase span(obs::Phase::kOracleCheck);
    contains = RowsMultisetContained({pivot}, result.rows);
    obs::Emit(obs::EventKind::kOracleCheck,
              static_cast<uint32_t>(OracleKind::kContainment),
              contains ? 0u : 1u);
  }
  if (contains) return;
  std::string row_text;
  for (const SqlValue& v : pivot) {
    if (!row_text.empty()) row_text += ", ";
    row_text += v.ToDisplay();
  }
  s.Record(OracleKind::kContainment,
           "pivot row (" + row_text +
               ") missing from a rectified query's result of " +
               std::to_string(result.rows.size()) + " rows",
           s.Script(&query), pivot);
}

// --- Metamorphic family (NoREC / TLP, DESIGN §10) ------------------------
// One check on one random table. The ground-truth state comparison stays
// on as for containment — a mutation the engine lost is caught before it
// can masquerade as a metamorphic mismatch — then the family's transformed
// queries run in place of the pivot-containment query.
//
// Probability a TLP check uses the plain row-set shape (SELECT * with
// multiset-union recombination) instead of an aggregate query.
constexpr double kTlpRowsShapeProbability = 0.25;

void MetamorphicCheck(Session& s) {
  const RunnerOptions& options = s.options;
  RunStats& stats = s.out.stats;
  bool norec = options.family == OracleFamily::kNorec;
  const TableSchema& table = s.plan.tables[s.rng.Below(s.plan.tables.size())];
  if (!s.CheckTable(kMutationReplay, table.name, /*with_pivot=*/false)) {
    return;
  }

  std::vector<const TableSchema*> single{&table};
  ExprPtr predicate;
  {
    obs::ScopedPhase span(obs::Phase::kGenerate);
    predicate = s.generator.GeneratePredicate(single, &s.rng);
    if (norec) {
      // NoREC's optimized side engages the planner; the partial-index
      // probe keeps the partial-index scan paths reachable there too.
      if (ExprPtr probe =
              s.scheduler.MaybePartialIndexProbe(table.name, &s.rng)) {
        predicate = MakeBinary(BinaryOp::kAnd, std::move(probe),
                               std::move(predicate));
      }
    }
  }
  TallyPredicate(*predicate, &stats);

  sqlmeta::MetaOutcome outcome;
  OracleKind mismatch_oracle = norec ? OracleKind::kNorec : OracleKind::kTlp;
  if (norec) {
    obs::ScopedPhase span(obs::Phase::kOracleCheck);
    outcome = sqlmeta::RunNorecCheck(*s.conn, table.name, *predicate);
  } else {
    std::unique_ptr<SelectStmt> full;
    {
      obs::ScopedPhase span(obs::Phase::kGenerate);
      if (s.rng.Chance(kTlpRowsShapeProbability)) {
        // Plain row-set shape: SELECT * recombined by multiset union.
        full = std::make_unique<SelectStmt>();
        full->from_tables.push_back(table.name);
      } else {
        full = s.generator.GenerateAggregateQuery(table, &s.rng);
      }
    }
    if (full->HasAggregates()) {
      ++stats.aggregate_queries;
      if (!full->group_by.empty()) ++stats.group_by_queries;
      if (full->having != nullptr) ++stats.having_queries;
    }
    obs::ScopedPhase span(obs::Phase::kOracleCheck);
    outcome = sqlmeta::RunTlpCheck(*s.conn, *full, *predicate);
  }
  stats.statements_executed += outcome.executed.size();
  if (outcome.verdict == sqlmeta::MetaVerdict::kSkipped) {
    ++stats.queries_skipped;
    return;
  }
  ++stats.queries_checked;
  obs::Emit(obs::EventKind::kOracleCheck,
            static_cast<uint32_t>(mismatch_oracle),
            outcome.verdict != sqlmeta::MetaVerdict::kOk ? 1u : 0u);
  if (norec) {
    ++stats.norec_checks;
  } else {
    ++stats.tlp_checks;
    size_t executed = outcome.executed.size();
    stats.tlp_partition_queries += executed > 3 ? 3 : executed;
  }
  if (outcome.verdict == sqlmeta::MetaVerdict::kOk) return;
  // The replayable session plus every transformed query the check ran;
  // the query that decided the verdict is last.
  std::vector<StmtPtr> script = s.Script(nullptr);
  for (StmtPtr& stmt : outcome.executed) script.push_back(std::move(stmt));
  if (outcome.verdict == sqlmeta::MetaVerdict::kMismatch) {
    s.Record(mismatch_oracle, std::move(outcome.message), std::move(script));
  } else {
    s.Fail(outcome.verdict == sqlmeta::MetaVerdict::kEngineCrash
               ? StatementStatus::kCrash
               : StatementStatus::kError,
           std::move(outcome.message), std::move(script));
  }
}

// --- Transaction family (DESIGN §14) -------------------------------------
// K logical sessions drive BEGIN/COMMIT/ROLLBACK streams against the engine
// under test. The session's model executes the identical interleaved stream
// (SetSession included) on a clean engine, and every transaction check
// compares a view the engine offers with the model's same view: the
// committed state after each COMMIT (Session::CheckCommittedState, run by
// the shared loop), one session's snapshot between batches, and an indexed
// lookup. That is the clean-engine differential the reducer replays a
// finding with.
void TxnCheck(Session& s) {
  RunStats& stats = s.out.stats;
  // Snapshot check: inside a randomly chosen session's view, the engine
  // must agree with the model's replay of the same fetch. Runs *before*
  // the index probe so a dirty-read divergence always attributes to the
  // transaction oracle.
  int session = static_cast<int>(
      s.rng.Below(static_cast<size_t>(s.options.gen.txn_sessions)));
  if (session != s.model.active_session()) {
    auto set = std::make_unique<SetSessionStmt>();
    set->session = session;
    s.Step(std::move(set));
    if (s.done()) return;
  }
  std::string view =
      "session " + std::to_string(s.model.active_session()) + " snapshot of ";
  for (const TableSchema& table : s.plan.tables) {
    SelectStmt fetch;
    fetch.from_tables = {table.name};
    StatementResult engine_rows = s.ExecOrFail(fetch);
    ++stats.txn_snapshot_checks;
    if (s.done()) return;
    StatementResult snapshot = s.Replay(fetch);
    if (!s.CompareState(kSnapshotReplay, view + "table " + table.name,
                        fetch, engine_rows,
                        snapshot.ok() ? &snapshot.rows : nullptr)) {
      return;
    }
  }

  // Index probe: an equality lookup on an indexed column, keyed by a
  // committed row. The model's rows must be multiset-contained in the
  // engine's — a stale index entry left by a rolled-back transaction
  // makes the engine's indexed scan *miss* rows, while extra rows (a
  // dirty read) never misfire this check. The stream issues no DDL, so
  // the model's catalogue holds the setup indexes it accepted.
  if (s.model.index_count() == 0) return;
  const minidb::IndexDef& index =
      s.model.index(s.rng.Below(s.model.index_count()));
  const std::string& probe_table = index.table_name;
  const std::string& probe_col = index.columns[0];
  const Rows* committed = s.model.TableRows(probe_table);
  if (committed == nullptr || committed->empty()) return;
  const auto& sample = (*committed)[s.rng.Below(committed->size())];
  SelectStmt probe;
  probe.from_tables = {probe_table};
  probe.where = MakeBinary(
      BinaryOp::kEq, MakeColumnRef(probe_table, probe_col),
      MakeLiteral(sample[static_cast<size_t>(index.key_cols[0])]));
  StatementResult engine_rows = s.ExecOrFail(probe);
  if (s.done()) return;
  StatementResult model_rows = s.Replay(probe);
  std::vector<SqlValue> missing;
  if (model_rows.ok() &&
      !RowsMultisetContained(model_rows.rows, engine_rows.rows, &missing)) {
    s.Record(OracleKind::kContainment,
             "indexed lookup on " + probe_table + "." + probe_col +
                 " dropped committed row(s): engine returned " +
                 std::to_string(engine_rows.rows.size()) +
                 " row(s), ground-truth replay " +
                 std::to_string(model_rows.rows.size()),
             s.Script(&probe), std::move(missing));
  }
}

// One database of the Algorithm 1 loop: the session skeleton runs setup,
// then alternates the statement stream with the check family chosen once
// here from the options. This body is what the paper runs in every fuzzing
// thread; workers execute it unchanged and only the merge below is
// sharding-aware. Runs under an installed SessionTelemetry (see RunTask),
// so engine internals emit into this session's registry and flight ring.
DbRunResult RunOneDatabaseImpl(const WorkerEngineFactory& factory, int worker,
                               const RunnerOptions& options,
                               uint64_t db_seed) {
  ConnectionPtr conn = factory(worker);
  if (conn == nullptr) {
    DbRunResult out;
    out.factory_failed = true;
    return out;
  }
  Session s(options, db_seed, std::move(conn));
  // K > 1 interleaved sessions run snapshot isolation and the transaction
  // oracle in place of the query families. The transaction stream never
  // issues DDL, so its setup indexes every table: only setup indexes keep
  // the index-maintenance paths (and TxnCheck's index probe) reachable. A
  // unique index over already-inserted duplicate data is rejected as a
  // tolerated constraint violation, same as mid-session CREATE INDEX.
  bool txn = options.gen.txn_sessions > 1;
  void (*check)(Session&) = txn ? TxnCheck
                            : options.family == OracleFamily::kNorec ||
                                    options.family == OracleFamily::kTlp
                                ? MetamorphicCheck
                                : ContainmentCheck;
  if (s.Setup(/*index_every_table=*/txn)) {
    for (int q = 0; q < options.queries_per_database && !s.done(); ++q) {
      // The weighted statement stream between checks (DESIGN §9, §14).
      for (StmtPtr& stmt : s.scheduler.NextBatch(&s.rng)) {
        bool commit = stmt->kind() == StmtKind::kCommit;
        s.Step(std::move(stmt));
        if (commit && !s.done()) s.CheckCommittedState();
        if (s.done()) break;
      }
      if (!s.done()) check(s);
    }
  }
  return std::move(s.out);
}

// Runs one plan task under a fresh per-session telemetry context (registry
// + flight ring) and harvests the registry into the result. The whole
// session is timed for the latency hook; the clock is only read when a hook is
// installed, so unhooked runs pay nothing, and the hook cannot change the
// result, so reports stay byte-identical either way.
DbRunResult RunTask(const WorkerEngineFactory& factory, int worker,
                    const RunnerOptions& options,
                    const ShardPlan::Task& task) {
  std::chrono::steady_clock::time_point start;
  if (options.session_latency_hook) start = std::chrono::steady_clock::now();
  obs::SessionTelemetry session;
  DbRunResult out;
  {
    obs::ScopedSessionTelemetry install(&session);
    out = RunOneDatabaseImpl(factory, worker, options, task.seed);
  }
  out.metrics = session.metrics;
  if (options.session_latency_hook) {
    std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    options.session_latency_hook(task.db_index, elapsed.count());
  }
  return out;
}

// True when databases after this one can never reach the merged report.
bool TerminatesRun(const DbRunResult& r, bool stop_on_first_finding) {
  return r.factory_failed || (stop_on_first_finding && !r.findings.empty());
}

// Folds one database's result into the report, in plan order. Returns
// false when the run terminates at this database: a null factory ends the
// run before it, and under stop_on_first_finding the first database
// carrying a finding is the last one reported.
bool MergeDbResult(DbRunResult&& r, bool stop_on_first_finding,
                   RunReport* report) {
  if (r.factory_failed) return false;
  bool terminates = TerminatesRun(r, stop_on_first_finding);
  report->stats.Merge(r.stats);
  report->metrics.Merge(r.metrics);
  for (Finding& f : r.findings) report->findings.push_back(std::move(f));
  return !terminates;
}

}  // namespace

void RunStats::Merge(const RunStats& other) {
  ForEachField(
      [](const char*, size_t width, uint64_t* sum, const uint64_t* add) {
        for (size_t i = 0; i < width; ++i) sum[i] += add[i];
      },
      *this, other);
}

bool RunStats::operator==(const RunStats& other) const {
  bool equal = true;
  ForEachField(
      [&equal](const char*, size_t width, const uint64_t* a,
               const uint64_t* b) {
        equal = equal && std::equal(a, a + width, b);
      },
      *this, other);
  return equal;
}

ShardPlan ShardPlan::Build(uint64_t seed, int databases) {
  ShardPlan plan;
  plan.tasks.reserve(databases > 0 ? static_cast<size_t>(databases) : 0);
  for (int i = 0; i < databases; ++i) {
    plan.tasks.push_back(
        Task{i, Rng::StreamSeed(seed, static_cast<uint64_t>(i))});
  }
  return plan;
}

PqsRunner::PqsRunner(EngineFactory factory, RunnerOptions options)
    : factory_([f = std::move(factory)](int) { return f(); }),
      options_(options) {}

PqsRunner::PqsRunner(WorkerEngineFactory factory, RunnerOptions options)
    : factory_(std::move(factory)), options_(options) {}

RunReport PqsRunner::Run() {
  RunReport report;
  // Fail loudly on out-of-range generator options (a negative depth or a
  // probability outside [0,1] would otherwise skew generation silently).
  report.invalid_options = options_.gen.Validate();
  if (!report.invalid_options.empty()) return report;
  ShardPlan plan = ShardPlan::Build(options_.seed, options_.databases);
  size_t task_count = plan.tasks.size();
  int workers = options_.workers;
  if (workers < 1) workers = 1;
  if (static_cast<size_t>(workers) > task_count && task_count > 0) {
    workers = static_cast<int>(task_count);
  }

  // Workers claim database indexes in plan order (one worker runs them on
  // the calling thread). Claiming is dynamic (timing-dependent) but each
  // database's work depends only on its plan seed, so who ran it cannot
  // change what it produced. `stop_before` is the lowest index known to
  // terminate the run; databases after it are skipped as wasted work, and
  // any that already ran are discarded by the in-order merge, which keeps
  // the merged report byte-identical for every worker count. Each finished
  // database is merged as soon as every database before it is, so results
  // wait in `pending` only while an earlier one is still running (one
  // worker merges each result right after it ran).
  std::vector<std::unique_ptr<DbRunResult>> pending(task_count);
  std::mutex merge_mu;  // guards pending, merged and report
  size_t merged = 0;
  std::atomic<size_t> stop_before{task_count};
  bool stop_on_first = options_.stop_on_first_finding;
  ForEachClaimed(task_count, workers, [&](size_t i, int worker) {
    if (i > stop_before.load(std::memory_order_acquire)) return;
    auto result = std::make_unique<DbRunResult>(
        RunTask(factory_, worker, options_, plan.tasks[i]));
    if (TerminatesRun(*result, stop_on_first)) {
      size_t current = stop_before.load(std::memory_order_relaxed);
      while (i < current && !stop_before.compare_exchange_weak(
                                current, i, std::memory_order_release)) {
      }
    }
    std::lock_guard<std::mutex> lock(merge_mu);
    pending[i] = std::move(result);
    for (; merged < task_count && pending[merged]; ++merged) {
      if (!MergeDbResult(std::move(*pending[merged]), stop_on_first,
                         &report)) {
        merged = task_count;  // the run ends here; later results are dropped
        break;
      }
      pending[merged].reset();
    }
  });
  return report;
}

}  // namespace pqs
