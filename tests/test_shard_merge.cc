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

// Merge sums every listed tally and operator== sees every one: each
// uint64_t slot gets a distinct value in both shards, so a slot skipped or
// summed into a neighbour shows, and bumping any one slot breaks equality.
void TestRunStatsMerge() {
  RunStats shard1;
  RunStats shard2;
  uint64_t next = 1;
  RunStats::ForEachField(
      [&next](const char*, size_t width, uint64_t* a, uint64_t* b) {
        for (size_t i = 0; i < width; ++i) {
          a[i] = next++;
          b[i] = 1000 * next++;
        }
      },
      shard1, shard2);
  RunStats total;
  total.Merge(shard1);
  total.Merge(shard2);
  size_t slots = 0;
  RunStats::ForEachField(
      [&slots](const char* name, size_t width, const uint64_t* sum,
               const uint64_t* a, const uint64_t* b) {
        for (size_t i = 0; i < width; ++i, ++slots) {
          CHECK_MSG(sum[i] == a[i] + b[i], "%s[%zu] merged to %llu", name, i,
                    static_cast<unsigned long long>(sum[i]));
        }
      },
      total, shard1, shard2);
  CHECK_EQ(slots * sizeof(uint64_t), sizeof(RunStats));

  RunStats copy = total;
  CHECK(copy == total);
  CHECK(!(total == shard1));
  for (size_t bumped_slot = 0; bumped_slot < slots; ++bumped_slot) {
    RunStats bumped = total;
    size_t slot = 0;
    RunStats::ForEachField(
        [&](const char*, size_t width, uint64_t* v) {
          for (size_t i = 0; i < width; ++i, ++slot) {
            if (slot == bumped_slot) ++v[i];
          }
        },
        bumped);
    CHECK_MSG(!(bumped == total), "slot %zu ignored by operator==",
              bumped_slot);
  }
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
    // A dense typed expression grammar: the per-feature hit-count identity
    // below then covers its buckets too (joins, DISTINCT, ORDER BY and
    // LIMIT come at their constant rates).
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

  CHECK(sharded.stats == sequential.stats);
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
