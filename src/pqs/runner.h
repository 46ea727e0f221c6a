// The PQS loop (paper Algorithm 1): generate a database, pick a pivot row,
// synthesize a rectified query, and check the three oracles.
//
// The loop is sharded: a run is first laid out as a deterministic
// ShardPlan (one independent RNG stream per database, derived with
// splitmix64 stream splitting from the run seed), then executed by
// `RunnerOptions::workers` threads that each run the unchanged
// Algorithm 1+3 body over the databases they claim. Per-database results
// are merged back in plan order, so the merged report of an N-worker run
// is identical to the 1-worker run — including under
// `stop_on_first_finding`, where merging truncates at the first database
// whose report carries a finding (exactly where a one-by-one run would
// have stopped). See DESIGN.md §6.
#ifndef PQS_SRC_PQS_RUNNER_H_
#define PQS_SRC_PQS_RUNNER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "src/engine/connection.h"
#include "src/obs/metrics.h"
#include "src/pqs/generator.h"
#include "src/pqs/oracles.h"

namespace pqs {

struct RunnerOptions {
  uint64_t seed = 1;
  int databases = 10;
  int queries_per_database = 20;
  bool stop_on_first_finding = false;
  // Worker threads executing the shard plan. 1 runs the plan inline on the
  // calling thread; the merged report is the same for every value.
  int workers = 1;
  // Which semantic oracle checks each generated query: classic pivot
  // containment, NoREC, or TLP. kAuto is normalized to containment here
  // (campaign-level HuntBug resolves it to the hunted bug's intended
  // finder first). The error/crash oracles and the ground-truth mutation
  // state comparison stay on for every family.
  OracleFamily family = OracleFamily::kContainment;
  // Observability: when set, called once per completed database session
  // with the session's plan index and its wall-clock seconds (generation,
  // execution, mutations, and oracle checks included). Fired from
  // whichever worker ran the session — the callback must be thread-safe.
  // It has no effect on the merged report, which stays byte-identical
  // with or without it (bench/recorder.h aggregates these into latency
  // percentiles).
  std::function<void(int db_index, double seconds)> session_latency_hook;
  GeneratorOptions gen;
};

// The report's tally set: the runner's own events, counted here only
// (DESIGN §13); the telemetry registry never mirrors them.
struct RunStats {
  uint64_t statements_executed = 0;  // every Execute() on the connection
  uint64_t queries_checked = 0;      // oracle-checked SELECTs
  uint64_t queries_skipped = 0;      // e.g. a FROM table was empty
  uint64_t databases_created = 0;
  // Algorithm-3 branch tallies: raw predicate outcome on the pivot row.
  uint64_t rectified_true = 0;
  uint64_t rectified_false = 0;
  uint64_t rectified_null = 0;
  uint64_t constraint_violations = 0;  // tolerated INSERT rejections
  // Query-space widening tallies: explicit ON conditions rectified against
  // the pivot, and queries issued with a pivot-safe LIMIT attached.
  uint64_t join_conditions_rectified = 0;
  uint64_t limited_queries = 0;
  // Typed-expression tallies over the generated WHERE predicates:
  // Expr::Depth() histogram (buckets 1-2, 3-4, 5-6, 7-8, ≥9 — see
  // sqlexpr::ExprDepthBucket) plus how many predicates carried at least
  // one registry function call and how many calls were generated in total.
  static constexpr int kDepthBuckets = 5;
  uint64_t predicate_depth_buckets[kDepthBuckets] = {0, 0, 0, 0, 0};
  uint64_t predicates_with_function = 0;
  uint64_t function_calls_generated = 0;
  // Metamorphic-oracle tallies: completed NoREC / TLP checks, the TLP
  // partition queries those checks executed, and how many checked queries
  // carried aggregates / GROUP BY / HAVING. Merged like every other
  // counter, so N-worker reports stay byte-identical.
  uint64_t norec_checks = 0;
  uint64_t tlp_checks = 0;
  uint64_t tlp_partition_queries = 0;
  uint64_t aggregate_queries = 0;
  uint64_t group_by_queries = 0;
  uint64_t having_queries = 0;
  // Statement-stream tallies (DESIGN §9): mutation statements the
  // ActionScheduler issued between pivot checks, and how many ground-truth
  // state comparisons (engine table vs model table, as multisets) the
  // pivot-selection phase performed.
  uint64_t actions_insert = 0;
  uint64_t actions_update = 0;
  uint64_t actions_delete = 0;
  uint64_t actions_create_index = 0;
  uint64_t actions_drop_index = 0;
  uint64_t actions_maintenance = 0;
  uint64_t state_compares = 0;
  // Transaction-stream tallies (DESIGN §14): statements of the interleaved
  // K-session stream, snapshot-isolation checks inside open transactions,
  // and committed-state comparisons after commits (txn_serial_replays
  // keeps its historical name). Conflicts are expected first-committer-wins
  // aborts, not findings.
  uint64_t txn_begins = 0;
  uint64_t txn_commits = 0;
  uint64_t txn_rollbacks = 0;
  uint64_t txn_conflicts = 0;
  uint64_t txn_snapshot_checks = 0;
  uint64_t txn_serial_replays = 0;

  // The one field list, in declaration order: fn(name, width, slots...)
  // per tally, each of `slots` pointing at the tally's first uint64_t in
  // one of `stats` and `width` counting them. Merge, operator== and every
  // rendering of the tallies iterate it; the static_assert below the
  // struct rejects a member that has no line here.
  template <typename Fn, typename... Stats>
  static constexpr void ForEachField(Fn&& fn, Stats&... stats) {
#define PQS_RUN_STATS_FIELD(name) \
  fn(#name, sizeof(RunStats::name) / sizeof(uint64_t), Slots(stats.name)...)
    PQS_RUN_STATS_FIELD(statements_executed);
    PQS_RUN_STATS_FIELD(queries_checked);
    PQS_RUN_STATS_FIELD(queries_skipped);
    PQS_RUN_STATS_FIELD(databases_created);
    PQS_RUN_STATS_FIELD(rectified_true);
    PQS_RUN_STATS_FIELD(rectified_false);
    PQS_RUN_STATS_FIELD(rectified_null);
    PQS_RUN_STATS_FIELD(constraint_violations);
    PQS_RUN_STATS_FIELD(join_conditions_rectified);
    PQS_RUN_STATS_FIELD(limited_queries);
    PQS_RUN_STATS_FIELD(predicate_depth_buckets);
    PQS_RUN_STATS_FIELD(predicates_with_function);
    PQS_RUN_STATS_FIELD(function_calls_generated);
    PQS_RUN_STATS_FIELD(norec_checks);
    PQS_RUN_STATS_FIELD(tlp_checks);
    PQS_RUN_STATS_FIELD(tlp_partition_queries);
    PQS_RUN_STATS_FIELD(aggregate_queries);
    PQS_RUN_STATS_FIELD(group_by_queries);
    PQS_RUN_STATS_FIELD(having_queries);
    PQS_RUN_STATS_FIELD(actions_insert);
    PQS_RUN_STATS_FIELD(actions_update);
    PQS_RUN_STATS_FIELD(actions_delete);
    PQS_RUN_STATS_FIELD(actions_create_index);
    PQS_RUN_STATS_FIELD(actions_drop_index);
    PQS_RUN_STATS_FIELD(actions_maintenance);
    PQS_RUN_STATS_FIELD(state_compares);
    PQS_RUN_STATS_FIELD(txn_begins);
    PQS_RUN_STATS_FIELD(txn_commits);
    PQS_RUN_STATS_FIELD(txn_rollbacks);
    PQS_RUN_STATS_FIELD(txn_conflicts);
    PQS_RUN_STATS_FIELD(txn_snapshot_checks);
    PQS_RUN_STATS_FIELD(txn_serial_replays);
#undef PQS_RUN_STATS_FIELD
  }
  // A tally's first uint64_t: the counter itself or the histogram's first.
  template <typename T>
  static constexpr T* Slots(T& tally) { return &tally; }
  template <typename T, size_t N>
  static constexpr T* Slots(T (&histogram)[N]) { return histogram; }

  // Value merge: adds `other`'s tallies into this one. Merging the
  // per-shard stats of a run in any order equals the single-run totals.
  void Merge(const RunStats& other);
  bool operator==(const RunStats& other) const;
};
static_assert(sizeof(RunStats) == sizeof(uint64_t) * [] {
  size_t slots = 0;
  RunStats::ForEachField([&slots](const char*, size_t n) { slots += n; });
  return slots;
}(), "every RunStats member needs its line in RunStats::ForEachField");

struct RunReport {
  RunStats stats;
  // Telemetry registry merged from every session in plan order (src/obs):
  // engine-side counters, byte-identical for every worker count like
  // `stats`, plus per-phase wall-clock histograms that fill only when a
  // bench calls obs::SetPhaseWallClock(true).
  obs::MetricsRegistry metrics;
  std::vector<Finding> findings;
  // Always false: no engine reports an unsupported statement any more. Kept
  // only because the frozen benchmark harness (perfbench/pqs_bench.cc)
  // still reads it.
  bool unsupported_engine = false;
  // Non-empty when GeneratorOptions::Validate() rejected the options; the
  // run performed no work.
  std::string invalid_options;
};

// Deterministic layout of one run: which per-database seed each database
// index uses. Derived from the run seed alone, never from thread timing,
// so every worker count executes byte-identical per-database work.
struct ShardPlan {
  struct Task {
    int db_index = 0;
    uint64_t seed = 0;  // seed of this database's private RNG stream
  };
  std::vector<Task> tasks;

  static ShardPlan Build(uint64_t seed, int databases);
};

// Runs fn(index, worker) for every index in [0, count) on `workers`
// threads that claim indexes in increasing order. Which worker runs an
// index depends on timing, so callers keep results deterministic by making
// each index's work depend on the index alone. One worker runs every index
// in order on the calling thread, which keeps its thread-local caches.
template <typename Fn>
void ForEachClaimed(size_t count, int workers, Fn fn) {
  if (workers == 1) {
    for (size_t i = 0; i < count; ++i) fn(i, 0);
    return;
  }
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&next, &fn, count, w] {
      size_t i;
      while ((i = next.fetch_add(1, std::memory_order_relaxed)) < count) {
        fn(i, w);
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

class PqsRunner {
 public:
  PqsRunner(EngineFactory factory, RunnerOptions options);
  // Worker-aware variant: the factory learns which worker thread is asking,
  // so callers can give each worker its own coverage sink (bench_table4).
  PqsRunner(WorkerEngineFactory factory, RunnerOptions options);

  RunReport Run();

 private:
  WorkerEngineFactory factory_;
  RunnerOptions options_;
};

}  // namespace pqs

#endif  // PQS_SRC_PQS_RUNNER_H_
