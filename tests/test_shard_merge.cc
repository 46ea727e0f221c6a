// Sharding building blocks: splitmix64 stream splitting gives workers
// disjoint RNG streams, the shard plan is a pure function of the seed, one
// worker claims every index in order on the calling thread, and the
// value-merge operations (RunStats, CoverageMap, AggregateStats)
// reassemble per-shard results into exactly the single-run totals.
#include <set>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/minidb/coverage.h"
#include "src/minidb/database.h"
#include "src/pqs/runner.h"
#include "tests/test_util.h"

namespace pqs {
namespace {

void TestStreamSeedsNeverCollide() {
  std::set<uint64_t> seeds;
  for (uint64_t base : {uint64_t{0}, uint64_t{1}, uint64_t{20200604}}) {
    seeds.clear();
    for (uint64_t stream = 0; stream < 10000; ++stream) {
      seeds.insert(Rng::StreamSeed(base, stream));
    }
    CHECK_EQ(seeds.size(), size_t{10000});
  }
}

void TestWorkerStreamsDisjoint() {
  // Distinct workers must see disjoint random sequences: collect the first
  // 1k outputs of 8 worker streams and require no value in common.
  constexpr int kWorkers = 8;
  constexpr int kDraws = 1000;
  std::set<uint64_t> all;
  size_t expected = 0;
  for (int w = 0; w < kWorkers; ++w) {
    Rng rng(Rng::StreamSeed(/*seed=*/42, static_cast<uint64_t>(w)));
    for (int i = 0; i < kDraws; ++i) all.insert(rng.Next());
    expected += kDraws;
  }
  CHECK_EQ(all.size(), expected);
}

void TestShardPlanDeterministic() {
  ShardPlan a = ShardPlan::Build(7, 64);
  ShardPlan b = ShardPlan::Build(7, 64);
  CHECK_EQ(a.tasks.size(), size_t{64});
  std::set<uint64_t> seeds;
  for (size_t i = 0; i < a.tasks.size(); ++i) {
    CHECK_EQ(a.tasks[i].db_index, static_cast<int>(i));
    CHECK_EQ(a.tasks[i].seed, b.tasks[i].seed);
    seeds.insert(a.tasks[i].seed);
  }
  CHECK_EQ(seeds.size(), a.tasks.size());  // per-database seeds distinct
}

void TestOneWorkerClaimsInOrderOnCallingThread() {
  // One worker must not spawn a thread: the calling thread visits every
  // index in order, so its thread-local caches carry across databases.
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> visited;
  bool all_on_caller = true;
  ForEachClaimed(5, 1, [&](size_t i, int worker) {
    visited.push_back(i);
    all_on_caller &= std::this_thread::get_id() == caller && worker == 0;
  });
  CHECK(visited == std::vector<size_t>({0, 1, 2, 3, 4}));
  CHECK(all_on_caller);
}

void TestRunStatsMerge() {
  RunStats total;
  RunStats shard1;
  shard1.statements_executed = 10;
  shard1.queries_checked = 4;
  shard1.queries_skipped = 1;
  shard1.databases_created = 2;
  shard1.rectified_true = 3;
  shard1.rectified_false = 2;
  shard1.rectified_null = 1;
  shard1.constraint_violations = 5;
  shard1.join_conditions_rectified = 6;
  shard1.limited_queries = 2;
  shard1.predicate_depth_buckets[0] = 2;
  shard1.predicate_depth_buckets[2] = 1;
  shard1.predicates_with_function = 3;
  shard1.function_calls_generated = 5;
  shard1.actions_insert = 4;
  shard1.actions_update = 3;
  shard1.actions_delete = 2;
  shard1.actions_create_index = 1;
  shard1.actions_drop_index = 1;
  shard1.actions_maintenance = 2;
  shard1.state_compares = 6;
  shard1.txn_begins = 4;
  shard1.txn_commits = 3;
  shard1.txn_rollbacks = 1;
  shard1.txn_conflicts = 2;
  shard1.txn_snapshot_checks = 5;
  shard1.txn_serial_replays = 3;
  RunStats shard2;
  shard2.statements_executed = 7;
  shard2.queries_checked = 2;
  shard2.databases_created = 1;
  shard2.rectified_null = 4;
  shard2.join_conditions_rectified = 1;
  shard2.limited_queries = 3;
  shard2.predicate_depth_buckets[0] = 1;
  shard2.predicate_depth_buckets[4] = 2;
  shard2.predicates_with_function = 1;
  shard2.function_calls_generated = 1;
  shard2.actions_insert = 1;
  shard2.actions_update = 2;
  shard2.actions_maintenance = 1;
  shard2.state_compares = 3;
  shard2.txn_begins = 2;
  shard2.txn_commits = 1;
  shard2.txn_conflicts = 1;
  shard2.txn_snapshot_checks = 2;
  shard2.txn_serial_replays = 1;
  total.Merge(shard1);
  total.Merge(shard2);
  CHECK_EQ(total.statements_executed, uint64_t{17});
  CHECK_EQ(total.queries_checked, uint64_t{6});
  CHECK_EQ(total.queries_skipped, uint64_t{1});
  CHECK_EQ(total.databases_created, uint64_t{3});
  CHECK_EQ(total.rectified_true, uint64_t{3});
  CHECK_EQ(total.rectified_false, uint64_t{2});
  CHECK_EQ(total.rectified_null, uint64_t{5});
  CHECK_EQ(total.constraint_violations, uint64_t{5});
  CHECK_EQ(total.join_conditions_rectified, uint64_t{7});
  CHECK_EQ(total.limited_queries, uint64_t{5});
  CHECK_EQ(total.predicate_depth_buckets[0], uint64_t{3});
  CHECK_EQ(total.predicate_depth_buckets[2], uint64_t{1});
  CHECK_EQ(total.predicate_depth_buckets[4], uint64_t{2});
  CHECK_EQ(total.predicates_with_function, uint64_t{4});
  CHECK_EQ(total.function_calls_generated, uint64_t{6});
  CHECK_EQ(total.actions_insert, uint64_t{5});
  CHECK_EQ(total.actions_update, uint64_t{5});
  CHECK_EQ(total.actions_delete, uint64_t{2});
  CHECK_EQ(total.actions_create_index, uint64_t{1});
  CHECK_EQ(total.actions_drop_index, uint64_t{1});
  CHECK_EQ(total.actions_maintenance, uint64_t{3});
  CHECK_EQ(total.state_compares, uint64_t{9});
  CHECK_EQ(total.txn_begins, uint64_t{6});
  CHECK_EQ(total.txn_commits, uint64_t{4});
  CHECK_EQ(total.txn_rollbacks, uint64_t{1});
  CHECK_EQ(total.txn_conflicts, uint64_t{3});
  CHECK_EQ(total.txn_snapshot_checks, uint64_t{7});
  CHECK_EQ(total.txn_serial_replays, uint64_t{4});
}

void TestCoverageMapMerge() {
  using minidb::CoverageMap;
  using minidb::Feature;
  CoverageMap a;
  a.Mark(Feature::kInsert);
  a.Mark(Feature::kInsert);
  a.Mark(Feature::kSelect);
  CoverageMap b;
  b.Mark(Feature::kInsert);
  b.Mark(Feature::kCreateTable);
  CoverageMap merged;
  merged.Merge(a);
  merged.Merge(b);
  CHECK_EQ(merged.Hits(Feature::kInsert), uint64_t{3});
  CHECK_EQ(merged.Hits(Feature::kSelect), uint64_t{1});
  CHECK_EQ(merged.Hits(Feature::kCreateTable), uint64_t{1});
  CHECK_EQ(merged.CoveredFeatures(), size_t{3});
  CHECK_EQ(merged.TotalHits(), a.TotalHits() + b.TotalHits());
}

// Merge of shards == single-run totals, on a real run: the same session
// executed by 1 worker on one coverage map and by 4 workers on per-worker
// maps must agree on stats and on every feature's merged hit count.
void TestShardedCoverageMatchesSingleRun() {
  auto run = [](int workers, minidb::CoverageMap* maps) {
    RunnerOptions opts;
    opts.seed = 99;
    opts.databases = 24;
    opts.queries_per_database = 12;
    opts.workers = workers;
    // Dense query-space features: the per-feature hit-count identity below
    // then covers the join / DISTINCT / ORDER BY / LIMIT buckets and the
    // typed expression grammar too.
    opts.gen.explicit_join_probability = 0.8;
    opts.gen.third_table_probability = 0.6;
    opts.gen.distinct_probability = 0.5;
    opts.gen.order_by_probability = 0.6;
    opts.gen.limit_probability = 0.6;
    opts.gen.function_probability = 0.5;
    opts.gen.cast_probability = 0.3;
    opts.gen.case_probability = 0.25;
    opts.gen.collate_probability = 0.5;
    opts.gen.like_escape_probability = 0.5;
    WorkerEngineFactory factory = [maps](int worker) -> ConnectionPtr {
      auto db = std::make_unique<minidb::Database>(Dialect::kSqliteFlex);
      db->set_coverage_sink(&maps[worker]);
      return db;
    };
    PqsRunner runner(std::move(factory), opts);
    return runner.Run();
  };

  minidb::CoverageMap single[1];
  RunReport sequential = run(1, single);

  minidb::CoverageMap shards[4];
  RunReport sharded = run(4, shards);
  minidb::CoverageMap merged;
  for (const minidb::CoverageMap& m : shards) merged.Merge(m);

  CHECK_EQ(sharded.stats.statements_executed,
           sequential.stats.statements_executed);
  CHECK_EQ(sharded.stats.queries_checked, sequential.stats.queries_checked);
  CHECK_EQ(sharded.stats.databases_created,
           sequential.stats.databases_created);
  CHECK_EQ(sharded.findings.size(), sequential.findings.size());
  for (size_t i = 0; i < minidb::kNumFeatures; ++i) {
    auto f = static_cast<minidb::Feature>(i);
    CHECK_MSG(merged.Hits(f) == single[0].Hits(f),
              "feature %s: merged %llu != single %llu", minidb::FeatureName(f),
              static_cast<unsigned long long>(merged.Hits(f)),
              static_cast<unsigned long long>(single[0].Hits(f)));
  }
  // The identity above is only meaningful for the new buckets if the
  // session actually reached them.
  for (minidb::Feature f :
       {minidb::Feature::kJoinInner, minidb::Feature::kJoinLeft,
        minidb::Feature::kSelectDistinct, minidb::Feature::kSelectOrderBy,
        minidb::Feature::kSelectLimit, minidb::Feature::kExprFunction,
        minidb::Feature::kExprCast, minidb::Feature::kExprCase,
        minidb::Feature::kExprCollate, minidb::Feature::kExprLikeEscape}) {
    CHECK_MSG(merged.Hits(f) > 0, "feature %s never exercised",
              minidb::FeatureName(f));
  }
}

}  // namespace
}  // namespace pqs

int main() {
  pqs::TestStreamSeedsNeverCollide();
  pqs::TestWorkerStreamsDisjoint();
  pqs::TestShardPlanDeterministic();
  pqs::TestOneWorkerClaimsInOrderOnCallingThread();
  pqs::TestRunStatsMerge();
  pqs::TestCoverageMapMerge();
  pqs::TestShardedCoverageMatchesSingleRun();
  return pqs::test::Summary("test_shard_merge");
}
