#include "src/pqs/runner.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
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

// Clones the first `count` statements of `plan` (the setup prefix executed
// so far), optionally appending `last`. Only called when a finding is
// recorded, so the common path never copies ASTs.
std::vector<StmtPtr> CloneLog(const DatabasePlan& plan, size_t count,
                              const Stmt* last) {
  std::vector<StmtPtr> out;
  out.reserve(count + 1);
  for (size_t i = 0; i < count && i < plan.statements.size(); ++i) {
    out.push_back(plan.statements[i]->Clone());
  }
  if (last != nullptr) out.push_back(last->Clone());
  return out;
}

// Clones the whole replayable session: the setup plan, every mutation
// executed so far, and optionally the triggering statement. Mutation
// statements never read their own results, so this flat order reproduces
// the exact state the finding was observed in.
std::vector<StmtPtr> CloneSession(const DatabasePlan& plan,
                                  const std::vector<StmtPtr>& mutations,
                                  const Stmt* last) {
  std::vector<StmtPtr> out;
  out.reserve(plan.statements.size() + mutations.size() + 1);
  for (const StmtPtr& s : plan.statements) out.push_back(s->Clone());
  for (const StmtPtr& m : mutations) out.push_back(m->Clone());
  if (last != nullptr) out.push_back(last->Clone());
  return out;
}

// Statement-stream distribution tallies for the mutation actions, mirrored
// into the telemetry registry (the obs counters are the migration target
// for these tallies; RunStats keeps them because report consumers read it).
void TallyAction(const Stmt& stmt, RunStats* stats) {
  switch (stmt.kind()) {
    case StmtKind::kInsert:
      ++stats->actions_insert;
      obs::Count(obs::Counter::kSchedInsert);
      break;
    case StmtKind::kUpdate:
      ++stats->actions_update;
      obs::Count(obs::Counter::kSchedUpdate);
      break;
    case StmtKind::kDelete:
      ++stats->actions_delete;
      obs::Count(obs::Counter::kSchedDelete);
      break;
    case StmtKind::kCreateIndex:
      ++stats->actions_create_index;
      obs::Count(obs::Counter::kSchedCreateIndex);
      break;
    case StmtKind::kDropIndex:
      ++stats->actions_drop_index;
      obs::Count(obs::Counter::kSchedDropIndex);
      break;
    case StmtKind::kMaintenance:
      ++stats->actions_maintenance;
      obs::Count(obs::Counter::kSchedMaintenance);
      break;
    default:
      break;
  }
}

// True when every row of `subset` occurs in `superset` as a multiset
// (each superset row consumed at most once). On failure *missing (when
// non-null) receives the first unmatched subset row.
bool RowsMultisetContained(
    const std::vector<std::vector<SqlValue>>& subset,
    const std::vector<std::vector<SqlValue>>& superset,
    std::vector<SqlValue>* missing) {
  std::vector<bool> used(superset.size(), false);
  for (const auto& row : subset) {
    bool found = false;
    for (size_t i = 0; i < superset.size(); ++i) {
      if (used[i] || superset[i].size() != row.size()) continue;
      bool equal = true;
      for (size_t c = 0; c < row.size(); ++c) {
        if (!ValueEquals(superset[i][c], row[c])) {
          equal = false;
          break;
        }
      }
      if (equal) {
        used[i] = true;
        found = true;
        break;
      }
    }
    if (!found) {
      if (missing != nullptr) *missing = row;
      return false;
    }
  }
  return true;
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
      auto slice = [&](const auto& all, auto* part) {
        part->assign(all.begin() + static_cast<long>(offset),
                     all.begin() + static_cast<long>(offset + width));
      };
      slice(joined_schema.cols, &schemas[t].cols);
      if (joined_schema.has_ids()) slice(joined_schema.ids, &schemas[t].ids);
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
// order reconstructs exactly what the sequential loop would have reported.
struct DbRunResult {
  RunStats stats;
  obs::MetricsRegistry metrics;
  std::vector<Finding> findings;
  bool unsupported_engine = false;
  bool factory_failed = false;  // factory returned null; run ends before it
};

// One database of the interleaved-transaction branch (DESIGN §14): K
// logical sessions drive BEGIN/COMMIT/ROLLBACK streams against the engine
// under test while two clean MiniDB instances hold the ground truth. The
// *mirror* executes the identical interleaved stream (SetSession included)
// and answers "what should this session see right now" — the
// snapshot-isolation oracle. The *replay* model never sees a BEGIN: it
// receives each committed transaction's successful DML serially, in commit
// order, and answers "what must the committed state be" — the serial-replay
// oracle. Under SI with first-committer-wins at table granularity, applying
// committed transactions' writes in commit order reproduces the committed
// state exactly (no committer's written tables changed between its snapshot
// and its commit), which is what makes the serial comparison sound.
DbRunResult RunTxnDatabase(const WorkerEngineFactory& factory, int worker,
                           const RunnerOptions& options, uint64_t db_seed) {
  DbRunResult out;
  Rng rng(db_seed);
  ConnectionPtr conn = factory(worker);
  if (conn == nullptr) {
    out.factory_failed = true;
    return out;
  }
  Dialect dialect = conn->dialect();
  Generator generator(options.gen, dialect);
  DatabasePlan plan;
  {
    obs::ScopedPhase span(obs::Phase::kGenerate);
    plan = generator.GenerateDatabase(&rng);
    // Guarantee at least one index per table: the transaction stream never
    // issues DDL, so only setup indexes keep the index-maintenance paths
    // (and the rollback-stale-index probe below) reachable. A unique index
    // over already-inserted duplicate data is rejected as a tolerated
    // constraint violation, same as mid-session CREATE INDEX.
    int index_counter = 0;
    for (const StmtPtr& s : plan.statements) {
      if (s->kind() == StmtKind::kCreateIndex) ++index_counter;
    }
    for (const TableSchema& table : plan.tables) {
      plan.statements.push_back(generator.GenerateIndex(
          table, "i" + std::to_string(index_counter++), &rng));
    }
  }
  ++out.stats.databases_created;

  minidb::Database mirror(dialect);  // interleaved ground truth
  minidb::Database replay(dialect);  // serial committed-state ground truth
  ActionScheduler scheduler(&generator, options.gen, &plan);
  std::vector<StmtPtr> stream_log;

  bool finding_in_db = false;
  auto record = [&](Finding finding) {
    finding.dialect = dialect;
    finding.seed = options.seed;
    if (obs::SessionTelemetry* t = obs::CurrentTelemetry()) {
      t->metrics.Count(obs::Counter::kFindingsRecorded);
      t->recorder.Emit(t->clock, obs::EventKind::kFindingRecorded,
                       static_cast<uint32_t>(finding.oracle));
      finding.flight = t->recorder.Dump();
    }
    out.findings.push_back(std::move(finding));
    finding_in_db = true;
  };

  auto exec_engine = [&](const Stmt& stmt) {
    StatementResult r;
    {
      obs::ScopedPhase span(obs::Phase::kEngineExecute);
      r = conn->Execute(stmt);
      obs::CountStatement(static_cast<uint32_t>(stmt.kind()), !r.ok());
    }
    ++out.stats.statements_executed;
    return r;
  };
  auto exec_mirror = [&](const Stmt& stmt) {
    obs::ScopedPhase span(obs::Phase::kGroundTruthReplay);
    return mirror.Execute(stmt);
  };

  // Key columns of setup indexes the mirror accepted, for the index-probe
  // check (a corrupted index shows up only through an indexed lookup).
  std::vector<std::pair<std::string, std::string>> probe_cols;

  // --- Setup on all three engines (DDL + base data + indexes). ---------
  size_t setup_done = 0;
  for (const StmtPtr& stmt : plan.statements) {
    StatementResult result = exec_engine(*stmt);
    ++setup_done;
    StatementResult mirror_result = exec_mirror(*stmt);
    {
      obs::ScopedPhase span(obs::Phase::kGroundTruthReplay);
      replay.Execute(*stmt);
    }
    scheduler.Observe(*stmt, mirror_result.ok());
    if (mirror_result.ok() && stmt->kind() == StmtKind::kCreateIndex) {
      const auto& ci = static_cast<const CreateIndexStmt&>(*stmt);
      if (!ci.columns.empty()) {
        probe_cols.emplace_back(ci.table_name, ci.columns[0]);
      }
    }
    if (result.status == StatementStatus::kConstraintViolation) {
      ++out.stats.constraint_violations;
      continue;
    }
    if (result.status == StatementStatus::kUnsupported) {
      out.unsupported_engine = true;
      return out;
    }
    if (result.status == StatementStatus::kError ||
        result.status == StatementStatus::kCrash) {
      Finding finding;
      finding.oracle = result.status == StatementStatus::kError
                           ? OracleKind::kError
                           : OracleKind::kCrash;
      finding.statements = CloneLog(plan, setup_done, nullptr);
      finding.message = result.error;
      record(std::move(finding));
      break;
    }
  }
  if (finding_in_db) return out;

  // Per-session bookkeeping for the serial-replay model: the successful
  // DML of each open transaction, forwarded on commit.
  struct SessionTxn {
    bool open = false;
    std::vector<StmtPtr> committed_dml;
  };
  int sessions = options.gen.txn_sessions;
  std::vector<SessionTxn> session_txns(static_cast<size_t>(sessions));
  int current_session = 0;

  // Routes a statement to the engine and the mirror, prefixing a session
  // switch when `session` differs from the last action's. Every executed
  // stream statement lands in stream_log so findings replay flat.
  auto switch_session = [&](int session) {
    if (session == current_session) return;
    auto set = std::make_unique<SetSessionStmt>();
    set->session = session;
    exec_engine(*set);
    exec_mirror(*set);
    current_session = session;
    stream_log.push_back(std::move(set));
  };

  // Engine-vs-replay committed-state comparison: the engine's post-commit
  // autocommit view of every table must equal the serial replay of the
  // committed transactions. Returns false when a finding was recorded.
  auto committed_state_matches = [&]() {
    ++out.stats.txn_serial_replays;
    for (const TableSchema& table : plan.tables) {
      SelectStmt fetch;
      fetch.from_tables = {table.name};
      StatementResult rows = exec_engine(fetch);
      if (rows.status == StatementStatus::kUnsupported) {
        out.unsupported_engine = true;
        return false;
      }
      if (!rows.ok()) {
        Finding finding;
        finding.oracle = rows.status == StatementStatus::kCrash
                             ? OracleKind::kCrash
                             : OracleKind::kError;
        finding.statements = CloneSession(plan, stream_log, &fetch);
        finding.message = rows.error;
        record(std::move(finding));
        return false;
      }
      const std::vector<std::vector<SqlValue>>* serial_rows =
          replay.TableRows(table.name);
      bool diverged;
      {
        obs::ScopedPhase span(obs::Phase::kGroundTruthReplay);
        diverged = serial_rows != nullptr &&
                   !SameRowMultiset(rows.rows, *serial_rows);
      }
      if (diverged) {
        Finding finding;
        finding.oracle = OracleKind::kTxnSerial;
        finding.statements = CloneSession(plan, stream_log, &fetch);
        finding.message =
            "table " + table.name +
            " diverged from the serial replay of committed transactions: "
            "engine has " +
            std::to_string(rows.rows.size()) + " row(s), serial replay " +
            std::to_string(serial_rows->size());
        record(std::move(finding));
        return false;
      }
    }
    return true;
  };

  // --- Interleaved transaction stream + checks. ------------------------
  for (int q = 0; q < options.queries_per_database && !finding_in_db; ++q) {
    for (SessionAction& action : scheduler.NextTxnBatch(&rng)) {
      switch_session(action.session);
      SessionTxn& sess = session_txns[static_cast<size_t>(action.session)];
      StmtKind kind = action.stmt->kind();
      StatementResult engine_result = exec_engine(*action.stmt);
      TallyAction(*action.stmt, &out.stats);
      StatementResult mirror_result = exec_mirror(*action.stmt);
      uint32_t clock = static_cast<uint32_t>(mirror.commit_clock());
      bool committed = false;
      switch (kind) {
        case StmtKind::kBegin:
          if (mirror_result.ok()) {
            sess.open = true;
            sess.committed_dml.clear();
            ++out.stats.txn_begins;
            obs::Count(obs::Counter::kTxnBegins);
            obs::Emit(obs::EventKind::kTxnBegin,
                      static_cast<uint32_t>(action.session), clock);
          }
          break;
        case StmtKind::kCommit:
          if (mirror_result.ok()) {
            ++out.stats.txn_commits;
            obs::Count(obs::Counter::kTxnCommits);
            obs::Emit(obs::EventKind::kTxnCommit,
                      static_cast<uint32_t>(action.session), clock);
            obs::ScopedPhase span(obs::Phase::kGroundTruthReplay);
            for (const StmtPtr& dml : sess.committed_dml) {
              replay.Execute(*dml);
            }
          } else if (mirror_result.status == StatementStatus::kTxnConflict) {
            ++out.stats.txn_conflicts;
            obs::Count(obs::Counter::kTxnConflicts);
            obs::Emit(obs::EventKind::kTxnAbort,
                      static_cast<uint32_t>(action.session), 1);
          }
          sess.open = false;
          sess.committed_dml.clear();
          committed = true;
          break;
        case StmtKind::kRollback:
          if (mirror_result.ok()) {
            ++out.stats.txn_rollbacks;
            obs::Count(obs::Counter::kTxnRollbacks);
            obs::Emit(obs::EventKind::kTxnAbort,
                      static_cast<uint32_t>(action.session), 0);
          }
          sess.open = false;
          sess.committed_dml.clear();
          break;
        default:  // DML
          if (mirror_result.ok()) {
            if (sess.open) {
              sess.committed_dml.push_back(action.stmt->Clone());
            } else {
              // Autocommit DML is its own committed transaction; the
              // serial model receives it immediately.
              obs::ScopedPhase span(obs::Phase::kGroundTruthReplay);
              replay.Execute(*action.stmt);
            }
          }
          break;
      }
      StatementStatus status = engine_result.status;
      std::string error = std::move(engine_result.error);
      stream_log.push_back(std::move(action.stmt));
      if (status == StatementStatus::kUnsupported) {
        out.unsupported_engine = true;
        return out;
      }
      if (status == StatementStatus::kTxnConflict ||
          status == StatementStatus::kConstraintViolation) {
        if (status == StatementStatus::kConstraintViolation) {
          ++out.stats.constraint_violations;
        }
        // A first-committer-wins conflict is expected SI behavior, never
        // a finding; the serial model only ever sees the winner.
      } else if (status == StatementStatus::kError ||
                 status == StatementStatus::kCrash) {
        Finding finding;
        finding.oracle = status == StatementStatus::kError
                             ? OracleKind::kError
                             : OracleKind::kCrash;
        finding.statements = CloneSession(plan, stream_log, nullptr);
        finding.message = error;
        record(std::move(finding));
        break;
      }
      // Committed-state check right after every COMMIT: the strongest
      // point to compare, since the committing session is back in
      // autocommit and reads the latest committed state.
      if (committed && !committed_state_matches()) break;
    }
    if (finding_in_db || out.unsupported_engine) break;

    // Snapshot check: inside a randomly chosen session's view, the engine
    // must agree with the mirror (which replays the identical interleaved
    // stream on a clean engine). Runs *before* the index probe so a
    // dirty-read divergence always attributes to the transaction oracle.
    switch_session(static_cast<int>(rng.Below(static_cast<size_t>(sessions))));
    for (const TableSchema& table : plan.tables) {
      SelectStmt fetch;
      fetch.from_tables = {table.name};
      StatementResult engine_rows = exec_engine(fetch);
      ++out.stats.txn_snapshot_checks;
      if (engine_rows.status == StatementStatus::kUnsupported) {
        out.unsupported_engine = true;
        return out;
      }
      if (!engine_rows.ok()) {
        Finding finding;
        finding.oracle = engine_rows.status == StatementStatus::kCrash
                             ? OracleKind::kCrash
                             : OracleKind::kError;
        finding.statements = CloneSession(plan, stream_log, &fetch);
        finding.message = engine_rows.error;
        record(std::move(finding));
        break;
      }
      StatementResult mirror_rows = exec_mirror(fetch);
      if (!mirror_rows.ok()) continue;  // clean mirror; defensive
      if (!SameRowMultiset(engine_rows.rows, mirror_rows.rows)) {
        Finding finding;
        finding.oracle = OracleKind::kTxnSerial;
        finding.statements = CloneSession(plan, stream_log, &fetch);
        finding.message =
            "session " + std::to_string(current_session) +
            " snapshot of table " + table.name +
            " diverged from the interleaved ground-truth replay: engine "
            "has " +
            std::to_string(engine_rows.rows.size()) + " row(s), reference " +
            std::to_string(mirror_rows.rows.size());
        record(std::move(finding));
        break;
      }
    }
    if (finding_in_db) break;

    // Index probe: an equality lookup on an indexed column. The mirror's
    // rows must be multiset-contained in the engine's — a stale index
    // entry left by a rolled-back transaction makes the engine's indexed
    // scan *miss* rows, while extra rows (a dirty read) never misfire
    // this check.
    if (!probe_cols.empty()) {
      const auto& [probe_table, probe_col] =
          probe_cols[rng.Below(probe_cols.size())];
      const std::vector<std::vector<SqlValue>>* committed_rows =
          replay.TableRows(probe_table);
      const TableSchema* schema = nullptr;
      size_t col_index = 0;
      for (const TableSchema& table : plan.tables) {
        if (table.name != probe_table) continue;
        schema = &table;
        for (size_t c = 0; c < table.columns.size(); ++c) {
          if (table.columns[c].name == probe_col) col_index = c;
        }
      }
      if (schema != nullptr && committed_rows != nullptr &&
          !committed_rows->empty()) {
        const auto& sample =
            (*committed_rows)[rng.Below(committed_rows->size())];
        if (col_index < sample.size()) {
          SelectStmt probe;
          probe.from_tables = {probe_table};
          probe.where =
              MakeBinary(BinaryOp::kEq, MakeColumnRef(probe_table, probe_col),
                         MakeLiteral(sample[col_index]));
          StatementResult engine_rows = exec_engine(probe);
          if (engine_rows.status == StatementStatus::kUnsupported) {
            out.unsupported_engine = true;
            return out;
          }
          if (!engine_rows.ok()) {
            Finding finding;
            finding.oracle = engine_rows.status == StatementStatus::kCrash
                                 ? OracleKind::kCrash
                                 : OracleKind::kError;
            finding.statements = CloneSession(plan, stream_log, &probe);
            finding.message = engine_rows.error;
            record(std::move(finding));
            continue;
          }
          StatementResult mirror_rows = exec_mirror(probe);
          std::vector<SqlValue> missing;
          if (mirror_rows.ok() &&
              !RowsMultisetContained(mirror_rows.rows, engine_rows.rows,
                                     &missing)) {
            Finding finding;
            finding.oracle = OracleKind::kContainment;
            finding.statements = CloneSession(plan, stream_log, &probe);
            finding.pivot = missing;
            finding.message =
                "indexed lookup on " + probe_table + "." + probe_col +
                " dropped committed row(s): engine returned " +
                std::to_string(engine_rows.rows.size()) +
                " row(s), ground-truth replay " +
                std::to_string(mirror_rows.rows.size());
            record(std::move(finding));
          }
        }
      }
    }
  }
  return out;
}

// One iteration of the Algorithm 1+3 loop: build a database from its
// private RNG stream, then pivot-check queries against the oracles. This
// body is what the paper runs in every fuzzing thread; workers execute it
// unchanged and only the merge below is sharding-aware. Runs under an
// installed SessionTelemetry (see the RunOneDatabase wrapper), so engine
// internals emit into this session's registry and flight ring.
DbRunResult RunOneDatabaseImpl(const WorkerEngineFactory& factory, int worker,
                               const RunnerOptions& options,
                               uint64_t db_seed) {
  if (options.gen.txn_sessions > 1) {
    // Interleaved-transaction branch: K sessions, snapshot isolation, and
    // the serial-replay oracle in place of pivot containment.
    return RunTxnDatabase(factory, worker, options, db_seed);
  }
  DbRunResult out;
  Rng rng(db_seed);
  ConnectionPtr conn = factory(worker);
  if (conn == nullptr) {
    out.factory_failed = true;
    return out;
  }
  Dialect dialect = conn->dialect();
  Generator generator(options.gen, dialect);
  DatabasePlan plan;
  {
    obs::ScopedPhase span(obs::Phase::kGenerate);
    plan = generator.GenerateDatabase(&rng);
  }
  ++out.stats.databases_created;

  // Ground truth under mutation (DESIGN §9): a clean MiniDB instance —
  // the reference implementation of the shared interp core — replays
  // every setup and mutation statement alongside the engine under test.
  // At each pivot selection the engine's table contents are compared with
  // the model's as multisets, so a mutation the engine applied wrongly
  // (lost row, ghost row, wrong value) is caught even though the later
  // rectified query can only prove *pivot* containment.
  minidb::Database model(dialect);
  ActionScheduler scheduler(&generator, options.gen, &plan);
  std::vector<StmtPtr> mutation_log;

  bool finding_in_db = false;
  auto record = [&](Finding finding) {
    finding.dialect = dialect;
    finding.seed = options.seed;
    // Provenance: stamp the finding into the flight ring, then ship the
    // ring's contents with the finding. The dump is therefore never empty
    // (it at least holds its own kFindingRecorded marker) and is a pure
    // function of the session seed — worker-count-invariant.
    if (obs::SessionTelemetry* t = obs::CurrentTelemetry()) {
      t->metrics.Count(obs::Counter::kFindingsRecorded);
      t->recorder.Emit(t->clock, obs::EventKind::kFindingRecorded,
                       static_cast<uint32_t>(finding.oracle));
      finding.flight = t->recorder.Dump();
    }
    out.findings.push_back(std::move(finding));
    finding_in_db = true;
  };

  // --- Setup phase: DDL + DML. ---------------------------------------
  size_t setup_done = 0;
  for (const StmtPtr& stmt : plan.statements) {
    StatementResult result;
    {
      obs::ScopedPhase span(obs::Phase::kEngineExecute);
      result = conn->Execute(*stmt);
      obs::CountStatement(static_cast<uint32_t>(stmt->kind()), !result.ok());
    }
    ++out.stats.statements_executed;
    ++setup_done;
    StatementResult model_result;
    {
      obs::ScopedPhase span(obs::Phase::kGroundTruthReplay);
      model_result = model.Execute(*stmt);
    }
    scheduler.Observe(*stmt, model_result.ok());
    if (result.status == StatementStatus::kConstraintViolation) {
      ++out.stats.constraint_violations;
      continue;
    }
    if (result.status == StatementStatus::kUnsupported) {
      out.unsupported_engine = true;
      return out;
    }
    if (result.status == StatementStatus::kError ||
        result.status == StatementStatus::kCrash) {
      Finding finding;
      finding.oracle = result.status == StatementStatus::kError
                           ? OracleKind::kError
                           : OracleKind::kCrash;
      finding.statements = CloneLog(plan, setup_done, nullptr);
      finding.message = result.error;
      record(std::move(finding));
      break;
    }
  }
  if (finding_in_db) return out;

  // --- Query phase. ---------------------------------------------------
  for (int q = 0; q < options.queries_per_database && !finding_in_db; ++q) {
    // Mutation phase: the weighted statement stream between pivot checks
    // (DESIGN §9). Every action runs on the engine *and* the ground-truth
    // model; a spurious error or crash is an oracle violation right here.
    for (StmtPtr& action : scheduler.NextBatch(&rng)) {
      StatementResult engine_result;
      {
        obs::ScopedPhase span(obs::Phase::kEngineExecute);
        engine_result = conn->Execute(*action);
        obs::CountStatement(static_cast<uint32_t>(action->kind()),
                            !engine_result.ok());
      }
      ++out.stats.statements_executed;
      TallyAction(*action, &out.stats);
      StatementResult model_result;
      {
        obs::ScopedPhase span(obs::Phase::kGroundTruthReplay);
        model_result = model.Execute(*action);
      }
      scheduler.Observe(*action, model_result.ok());
      StatementStatus status = engine_result.status;
      std::string error = std::move(engine_result.error);
      mutation_log.push_back(std::move(action));
      if (status == StatementStatus::kUnsupported) {
        out.unsupported_engine = true;
        return out;
      }
      if (status == StatementStatus::kConstraintViolation) {
        ++out.stats.constraint_violations;
        continue;
      }
      if (status == StatementStatus::kError ||
          status == StatementStatus::kCrash) {
        Finding finding;
        finding.oracle = status == StatementStatus::kError
                             ? OracleKind::kError
                             : OracleKind::kCrash;
        // The triggering mutation is already the log's last statement.
        finding.statements = CloneSession(plan, mutation_log, nullptr);
        finding.message = error;
        record(std::move(finding));
        break;
      }
    }
    if (finding_in_db) break;

    if (options.family == OracleFamily::kNorec ||
        options.family == OracleFamily::kTlp) {
      // Metamorphic check: one random table. The ground-truth state
      // comparison stays on as for containment — a mutation the engine
      // lost is caught before it can masquerade as a metamorphic
      // mismatch — then the family's transformed queries run in place of
      // the pivot-containment query.
      const TableSchema& table = plan.tables[rng.Below(plan.tables.size())];
      SelectStmt fetch;
      fetch.from_tables = {table.name};
      StatementResult rows;
      {
        obs::ScopedPhase span(obs::Phase::kEngineExecute);
        rows = conn->Execute(fetch);
        obs::CountStatement(static_cast<uint32_t>(StmtKind::kSelect),
                            !rows.ok());
      }
      ++out.stats.statements_executed;
      if (rows.status == StatementStatus::kUnsupported) {
        out.unsupported_engine = true;
        return out;
      }
      if (!rows.ok()) {
        Finding finding;
        finding.oracle = rows.status == StatementStatus::kCrash
                             ? OracleKind::kCrash
                             : OracleKind::kError;
        finding.statements = CloneSession(plan, mutation_log, &fetch);
        finding.message = rows.error;
        record(std::move(finding));
        break;
      }
      // The model is a concrete clean MiniDB, so the state comparison can
      // read its stored rows directly — the same multiset a bare SELECT *
      // through Execute would return, without the query machinery.
      const std::vector<std::vector<SqlValue>>* model_rows =
          model.TableRows(table.name);
      ++out.stats.state_compares;
      bool state_diverged;
      {
        obs::ScopedPhase span(obs::Phase::kGroundTruthReplay);
        state_diverged = model_rows != nullptr &&
                         !SameRowMultiset(rows.rows, *model_rows);
      }
      if (state_diverged) {
        Finding finding;
        finding.oracle = OracleKind::kContainment;
        finding.statements = CloneSession(plan, mutation_log, &fetch);
        finding.message =
            "table " + table.name +
            " diverged from the ground-truth mutation replay: engine has " +
            std::to_string(rows.rows.size()) + " row(s), reference " +
            std::to_string(model_rows->size());
        record(std::move(finding));
        break;
      }

      std::vector<const TableSchema*> single{&table};
      ExprPtr predicate;
      {
        obs::ScopedPhase span(obs::Phase::kGenerate);
        predicate = generator.GeneratePredicate(single, &rng);
        if (options.family == OracleFamily::kNorec) {
          // NoREC's optimized side engages the planner; the partial-index
          // probe keeps the partial-index scan paths reachable there too.
          if (ExprPtr probe =
                  scheduler.MaybePartialIndexProbe(table.name, &rng)) {
            predicate = MakeBinary(BinaryOp::kAnd, std::move(probe),
                                   std::move(predicate));
          }
        }
      }
      int meta_depth = predicate->Depth();
      ++out.stats.predicate_depth_buckets[ExprDepthBucket(meta_depth)];
      size_t meta_calls = predicate->CountKind(ExprKind::kFunctionCall);
      out.stats.function_calls_generated += meta_calls;
      if (meta_calls > 0) ++out.stats.predicates_with_function;

      sqlmeta::MetaOutcome outcome;
      OracleKind mismatch_oracle = OracleKind::kNorec;
      if (options.family == OracleFamily::kNorec) {
        obs::ScopedPhase span(obs::Phase::kOracleCheck);
        outcome = sqlmeta::RunNorecCheck(*conn, table.name, *predicate);
      } else {
        mismatch_oracle = OracleKind::kTlp;
        std::unique_ptr<SelectStmt> full;
        {
          obs::ScopedPhase span(obs::Phase::kGenerate);
          if (rng.Chance(options.gen.tlp_rows_shape_probability)) {
            // Plain row-set shape: SELECT * recombined by multiset union.
            full = std::make_unique<SelectStmt>();
            full->from_tables.push_back(table.name);
          } else {
            full = generator.GenerateAggregateQuery(table, &rng);
          }
        }
        if (full->HasAggregates()) {
          ++out.stats.aggregate_queries;
          if (!full->group_by.empty()) ++out.stats.group_by_queries;
          if (full->having != nullptr) ++out.stats.having_queries;
        }
        obs::ScopedPhase span(obs::Phase::kOracleCheck);
        outcome = sqlmeta::RunTlpCheck(*conn, *full, *predicate);
      }
      out.stats.statements_executed += outcome.executed.size();
      if (outcome.verdict == sqlmeta::MetaVerdict::kSkipped) {
        ++out.stats.queries_skipped;
        continue;
      }
      if (outcome.verdict == sqlmeta::MetaVerdict::kUnsupported) {
        out.unsupported_engine = true;
        return out;
      }
      ++out.stats.queries_checked;
      obs::Emit(obs::EventKind::kOracleCheck,
                static_cast<uint32_t>(mismatch_oracle),
                outcome.verdict != sqlmeta::MetaVerdict::kOk ? 1u : 0u);
      if (options.family == OracleFamily::kNorec) {
        ++out.stats.norec_checks;
      } else {
        ++out.stats.tlp_checks;
        size_t executed = outcome.executed.size();
        out.stats.tlp_partition_queries += executed > 3 ? 3 : executed;
      }
      if (outcome.verdict == sqlmeta::MetaVerdict::kOk) continue;
      Finding finding;
      if (outcome.verdict == sqlmeta::MetaVerdict::kMismatch) {
        finding.oracle = mismatch_oracle;
      } else if (outcome.verdict == sqlmeta::MetaVerdict::kEngineCrash) {
        finding.oracle = OracleKind::kCrash;
      } else {
        finding.oracle = OracleKind::kError;
      }
      // The replayable session plus every transformed query the check ran;
      // the query that decided the verdict is last.
      finding.statements = CloneSession(plan, mutation_log, nullptr);
      for (StmtPtr& s : outcome.executed) {
        finding.statements.push_back(std::move(s));
      }
      finding.message = outcome.message;
      record(std::move(finding));
      break;
    }

    QueryShape shape;
    {
      obs::ScopedPhase span(obs::Phase::kGenerate);
      shape = generator.GenerateQueryShape(plan, &rng);
    }
    const std::vector<const TableSchema*>& from = shape.tables;

    // Pivot selection through the Connection API: fetch each FROM
    // table's rows and pick one at random (paper §3.2 step 2 — re-run
    // after every mutation batch, so the pivot is always re-selected from
    // the mutated state). The full rowsets are retained: the LIMIT bound
    // below recomputes the query on them under reference semantics.
    RowSchema pivot_schema;
    std::vector<SqlValue> pivot;
    std::vector<std::vector<std::vector<SqlValue>>> table_rows;
    bool have_pivot = true;
    for (const TableSchema* table : from) {
      SelectStmt fetch;
      fetch.from_tables = {table->name};
      StatementResult rows;
      {
        obs::ScopedPhase span(obs::Phase::kEngineExecute);
        rows = conn->Execute(fetch);
        obs::CountStatement(static_cast<uint32_t>(StmtKind::kSelect),
                            !rows.ok());
      }
      ++out.stats.statements_executed;
      if (rows.status == StatementStatus::kUnsupported) {
        out.unsupported_engine = true;
        return out;
      }
      if (rows.status == StatementStatus::kError ||
          rows.status == StatementStatus::kCrash ||
          rows.status == StatementStatus::kConstraintViolation) {
        Finding finding;
        finding.oracle = rows.status == StatementStatus::kCrash
                             ? OracleKind::kCrash
                             : OracleKind::kError;
        finding.statements = CloneSession(plan, mutation_log, &fetch);
        finding.message = rows.error;
        record(std::move(finding));
        have_pivot = false;
        break;
      }
      // Ground-truth state comparison: after replaying the same mutations
      // through the shared interp core, the engine's table must hold
      // exactly the model's rows. This is what keeps containment exact
      // under UPDATE/DELETE — a wrongly-deleted row could otherwise never
      // be picked as a pivot and would go unnoticed.
      const std::vector<std::vector<SqlValue>>* model_rows =
          model.TableRows(table->name);
      ++out.stats.state_compares;
      bool state_diverged;
      {
        obs::ScopedPhase span(obs::Phase::kGroundTruthReplay);
        state_diverged = model_rows != nullptr &&
                         !SameRowMultiset(rows.rows, *model_rows);
      }
      if (state_diverged) {
        Finding finding;
        finding.oracle = OracleKind::kContainment;
        finding.statements = CloneSession(plan, mutation_log, &fetch);
        // The pivot is the first ground-truth row the engine lost (empty
        // when the engine instead has rows the model does not).
        for (const auto& model_row : *model_rows) {
          bool present = false;
          for (const auto& engine_row : rows.rows) {
            if (engine_row.size() == model_row.size()) {
              bool equal = true;
              for (size_t c = 0; c < model_row.size(); ++c) {
                if (!ValueEquals(engine_row[c], model_row[c])) {
                  equal = false;
                  break;
                }
              }
              if (equal) present = true;
            }
            if (present) break;
          }
          if (!present) {
            finding.pivot = model_row;
            break;
          }
        }
        finding.message =
            "table " + table->name +
            " diverged from the ground-truth mutation replay: engine has " +
            std::to_string(rows.rows.size()) + " row(s), reference " +
            std::to_string(model_rows->size());
        record(std::move(finding));
        have_pivot = false;
        break;
      }
      if (rows.rows.empty()) {
        have_pivot = false;  // empty after rejections or deletes
        ++out.stats.queries_skipped;
        break;
      }
      table_rows.push_back(std::move(rows.rows));
      obs::PivotSelected(static_cast<uint32_t>(table_rows.size() - 1),
                         static_cast<uint32_t>(table_rows.back().size()));
      const auto& row = table_rows.back()[rng.Below(table_rows.back().size())];
      for (size_t c = 0; c < table->columns.size() && c < row.size(); ++c) {
        pivot_schema.Add(table->name, table->columns[c].name);
        pivot.push_back(row[c]);
      }
    }
    if (!have_pivot) continue;

    EvalContext ground_truth{dialect, nullptr};
    RowView pivot_view{&pivot_schema, &pivot};

    // Join plan: generate each explicit ON condition and rectify it to
    // TRUE on the pivot (join-aware Algorithm 3), so the multi-table pivot
    // combination survives every INNER/LEFT step un-padded. With
    // rectification ablated the raw ON is used (and, as with WHERE, the
    // containment check is skipped).
    std::vector<JoinClause> joins;
    bool shape_ok = true;
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
          on = generator.GenerateJoinCondition(earlier, from[j + 1], &rng);
        }
        // Covers the ON evaluation on the pivot and the rectifying wrap.
        obs::ScopedPhase rectify_span(obs::Phase::kRectify);
        bool on_error = false;
        Bool3 raw_on =
            EvaluatePredicate(*on, pivot_view, ground_truth, &on_error);
        if (on_error) {
          shape_ok = false;  // generator statically prevents this
          break;
        }
        if (options.gen.rectify) {
          clause.on = RectifyToTrue(std::move(on), raw_on);
          ++out.stats.join_conditions_rectified;
        } else {
          clause.on = std::move(on);
        }
      }
      joins.push_back(std::move(clause));
    }
    if (!shape_ok) {
      ++out.stats.queries_skipped;
      continue;
    }

    ExprPtr predicate;
    {
      obs::ScopedPhase span(obs::Phase::kGenerate);
      predicate = generator.GeneratePredicate(from, &rng);

      // Partial-index probe: sometimes AND a live partial index's predicate
      // in front of the WHERE, making the partial-index scan planner
      // reachable. Rectification leaves the conjunct intact exactly when
      // the raw composite is TRUE on the pivot (the other branches wrap
      // the whole expression, and the planner then simply falls back to a
      // full scan — sound either way).
      if (ExprPtr probe =
              scheduler.MaybePartialIndexProbe(from[0]->name, &rng)) {
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
      ++out.stats.queries_skipped;
      continue;
    }
    // Typed-expression stats: generated-predicate depth histogram and
    // function-call tallies (surfaced through bench_figure3).
    int depth = predicate->Depth();
    ++out.stats.predicate_depth_buckets[ExprDepthBucket(depth)];
    size_t calls = predicate->CountKind(ExprKind::kFunctionCall);
    out.stats.function_calls_generated += calls;
    if (calls > 0) ++out.stats.predicates_with_function;

    // The raw outcome is tallied in both modes (the ablation bench
    // prints it either way); rectification additionally wraps the
    // predicate so it is TRUE on the pivot.
    switch (raw) {
      case Bool3::kTrue:
        ++out.stats.rectified_true;
        break;
      case Bool3::kFalse:
        ++out.stats.rectified_false;
        break;
      case Bool3::kNull:
        ++out.stats.rectified_null;
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
        ++out.stats.queries_skipped;
        continue;
      }
      query.limit =
          rank + (rng.Chance(0.5) ? 0 : static_cast<int64_t>(rng.Below(4)));
      ++out.stats.limited_queries;
    }

    StatementResult result;
    {
      obs::ScopedPhase span(obs::Phase::kEngineExecute);
      result = conn->Execute(query);
      obs::CountStatement(static_cast<uint32_t>(StmtKind::kSelect),
                          !result.ok());
    }
    ++out.stats.statements_executed;
    ++out.stats.queries_checked;
    if (result.status == StatementStatus::kUnsupported) {
      out.unsupported_engine = true;
      return out;
    }
    if (result.status == StatementStatus::kCrash) {
      Finding finding;
      finding.oracle = OracleKind::kCrash;
      finding.statements = CloneSession(plan, mutation_log, &query);
      finding.message = result.error;
      record(std::move(finding));
      break;
    }
    if (result.status == StatementStatus::kError ||
        result.status == StatementStatus::kConstraintViolation) {
      Finding finding;
      finding.oracle = OracleKind::kError;
      finding.statements = CloneSession(plan, mutation_log, &query);
      finding.message = result.error;
      record(std::move(finding));
      break;
    }
    bool contains = true;
    if (options.gen.rectify) {
      obs::ScopedPhase span(obs::Phase::kOracleCheck);
      contains = ResultContainsRow(result, pivot);
      obs::Emit(obs::EventKind::kOracleCheck,
                static_cast<uint32_t>(OracleKind::kContainment),
                contains ? 0u : 1u);
    }
    if (options.gen.rectify && !contains) {
      Finding finding;
      finding.oracle = OracleKind::kContainment;
      finding.statements = CloneSession(plan, mutation_log, &query);
      finding.pivot = pivot;
      std::string row_text;
      for (const SqlValue& v : pivot) {
        if (!row_text.empty()) row_text += ", ";
        row_text += v.ToDisplay();
      }
      finding.message = "pivot row (" + row_text +
                        ") missing from a rectified query's result of " +
                        std::to_string(result.rows.size()) + " rows";
      record(std::move(finding));
      break;
    }
  }
  return out;
}

// Telemetry wrapper around the Algorithm 1+3 body: installs a fresh
// per-session telemetry context (registry + flight ring) for the duration
// of the session and harvests the registry into the result. When the kill
// switch is off, installation leaves the thread-local slot null and every
// emit in the body is a single predictable branch.
DbRunResult RunOneDatabase(const WorkerEngineFactory& factory, int worker,
                           const RunnerOptions& options, uint64_t db_seed) {
  obs::SessionTelemetry session;
  DbRunResult out;
  {
    obs::ScopedSessionTelemetry install(&session);
    out = RunOneDatabaseImpl(factory, worker, options, db_seed);
  }
  session.metrics.GaugeMax(obs::Gauge::kMaxFlightEvents,
                           session.recorder.total_emitted());
  out.metrics = session.metrics;
  return out;
}

// Folds one database's result into the report, in plan order. Returns
// false when the run terminates at this database: a null factory ends the
// run before it (sequential `break`), an unsupported engine ends it after
// its partial stats (sequential early `return`), and under
// stop_on_first_finding the first database carrying a finding is the last
// one reported.
bool MergeDbResult(DbRunResult&& r, bool stop_on_first_finding,
                   RunReport* report) {
  if (r.factory_failed) return false;
  report->stats.Merge(r.stats);
  report->metrics.Merge(r.metrics);
  bool had_finding = !r.findings.empty();
  for (Finding& f : r.findings) report->findings.push_back(std::move(f));
  if (r.unsupported_engine) {
    report->unsupported_engine = true;
    return false;
  }
  return !(stop_on_first_finding && had_finding);
}

// True when databases after this one can never reach the merged report.
bool TerminatesRun(const DbRunResult& r, bool stop_on_first_finding) {
  return r.factory_failed || r.unsupported_engine ||
         (stop_on_first_finding && !r.findings.empty());
}

// Runs one plan task, timing the whole session for the latency hook. The
// clock is only read when a hook is installed, so unhooked runs pay
// nothing; the hook cannot change the result, so reports stay
// byte-identical either way.
DbRunResult RunTask(const WorkerEngineFactory& factory, int worker,
                    const RunnerOptions& options,
                    const ShardPlan::Task& task) {
  if (!options.session_latency_hook) {
    return RunOneDatabase(factory, worker, options, task.seed);
  }
  auto start = std::chrono::steady_clock::now();
  DbRunResult r = RunOneDatabase(factory, worker, options, task.seed);
  std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  options.session_latency_hook(task.db_index, elapsed.count());
  return r;
}

}  // namespace

void RunStats::Merge(const RunStats& other) {
  statements_executed += other.statements_executed;
  queries_checked += other.queries_checked;
  queries_skipped += other.queries_skipped;
  databases_created += other.databases_created;
  rectified_true += other.rectified_true;
  rectified_false += other.rectified_false;
  rectified_null += other.rectified_null;
  constraint_violations += other.constraint_violations;
  join_conditions_rectified += other.join_conditions_rectified;
  limited_queries += other.limited_queries;
  norec_checks += other.norec_checks;
  tlp_checks += other.tlp_checks;
  tlp_partition_queries += other.tlp_partition_queries;
  aggregate_queries += other.aggregate_queries;
  group_by_queries += other.group_by_queries;
  having_queries += other.having_queries;
  actions_insert += other.actions_insert;
  actions_update += other.actions_update;
  actions_delete += other.actions_delete;
  actions_create_index += other.actions_create_index;
  actions_drop_index += other.actions_drop_index;
  actions_maintenance += other.actions_maintenance;
  state_compares += other.state_compares;
  txn_begins += other.txn_begins;
  txn_commits += other.txn_commits;
  txn_rollbacks += other.txn_rollbacks;
  txn_conflicts += other.txn_conflicts;
  txn_snapshot_checks += other.txn_snapshot_checks;
  txn_serial_replays += other.txn_serial_replays;
  for (int i = 0; i < kDepthBuckets; ++i) {
    predicate_depth_buckets[i] += other.predicate_depth_buckets[i];
  }
  predicates_with_function += other.predicates_with_function;
  function_calls_generated += other.function_calls_generated;
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

  if (workers <= 1) {
    // Inline path: identical to the classic sequential loop, including the
    // early exits (no database beyond a terminating one is ever run).
    for (const ShardPlan::Task& task : plan.tasks) {
      DbRunResult r = RunTask(factory_, 0, options_, task);
      if (!MergeDbResult(std::move(r), options_.stop_on_first_finding,
                         &report)) {
        break;
      }
    }
    return report;
  }

  // Sharded path: workers claim database indexes in plan order. Claiming is
  // dynamic (timing-dependent) but each database's work depends only on its
  // plan seed, so who ran it cannot change what it produced. `stop_before`
  // is the lowest index known to terminate the run; databases after it are
  // skipped as wasted work, and any that already ran are discarded by the
  // in-order merge below, which keeps the merged report byte-identical to
  // the 1-worker run.
  std::vector<DbRunResult> results(task_count);
  std::atomic<size_t> next_task{0};
  std::atomic<size_t> stop_before{task_count};
  bool stop_on_first = options_.stop_on_first_finding;

  auto worker_main = [&](int worker_index) {
    for (;;) {
      size_t i = next_task.fetch_add(1, std::memory_order_relaxed);
      if (i >= task_count) break;
      if (i > stop_before.load(std::memory_order_acquire)) break;
      results[i] = RunTask(factory_, worker_index, options_, plan.tasks[i]);
      if (TerminatesRun(results[i], stop_on_first)) {
        size_t current = stop_before.load(std::memory_order_relaxed);
        while (i < current && !stop_before.compare_exchange_weak(
                                  current, i, std::memory_order_release)) {
        }
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) threads.emplace_back(worker_main, w);
  for (std::thread& t : threads) t.join();

  for (size_t i = 0; i < task_count; ++i) {
    if (!MergeDbResult(std::move(results[i]),
                       options_.stop_on_first_finding, &report)) {
      break;
    }
  }
  return report;
}

}  // namespace pqs
