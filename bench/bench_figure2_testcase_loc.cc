// Figure 2 reproduction: cumulative distribution of the number of SQL
// statements (LOC) in reduced bug test cases.
//
// Paper: average 3.71 LOC, 13 one-line cases, maximum 8. We reduce every
// detected injected bug's statement log with delta debugging and print the
// CDF over the reduced lengths.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/minidb/database.h"
#include "src/pqs/reducer.h"

namespace pqs {

void PrintFigure2() {
  bench::PrintHeader(
      "Figure 2: CDF of reduced test-case LOC (all dialects pooled)");
  AggregateStats agg;
  CampaignOptions options = bench::DefaultCampaignOptions();
  for (Dialect d : {Dialect::kSqliteFlex, Dialect::kMysqlLike,
                    Dialect::kPostgresStrict}) {
    // Pool the dialects by value-merging each campaign's aggregate.
    CampaignReport report = RunCampaign(d, options);
    agg.Merge(report.Aggregate());
  }
  printf("reduced test cases: %zu\n", agg.cases.size());
  printf("average LOC: %.2f   (paper: 3.71)\n", agg.AverageLoc());
  printf("maximum LOC: %zu      (paper: 8)\n", agg.MaxLoc());
  printf("\n%-6s %-22s %s\n", "LOC", "cumulative fraction", "");
  for (size_t loc = 1; loc <= agg.MaxLoc(); ++loc) {
    double cdf = agg.CdfAt(loc);
    std::string bar(static_cast<size_t>(cdf * 40), '#');
    printf("%-6zu %-22.3f %s\n", loc, cdf, bar.c_str());
  }
}

// Reduction cost for a representative finding.
void BM_ReduceFinding(benchmark::State& state) {
  CampaignOptions options = bench::DefaultCampaignOptions();
  options.reduce = false;
  BugHuntResult hunt = HuntBug(BugId::kPartialIndexIsNotInference, options);
  if (!hunt.detected) {
    state.SkipWithError("bug not detected under bench budget");
    return;
  }
  EngineFactory buggy = []() -> ConnectionPtr {
    return std::make_unique<minidb::Database>(
        Dialect::kSqliteFlex,
        BugConfig::Single(BugId::kPartialIndexIsNotInference));
  };
  EngineFactory reference = []() -> ConnectionPtr {
    return std::make_unique<minidb::Database>(Dialect::kSqliteFlex);
  };
  for (auto _ : state) {
    Finding reduced = ReduceFinding(buggy, hunt.reduced, &reference);
    benchmark::DoNotOptimize(reduced.statements.size());
  }
}
BENCHMARK(BM_ReduceFinding)->Unit(benchmark::kMillisecond);

}  // namespace pqs

int main(int argc, char** argv) {
  pqs::PrintFigure2();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
