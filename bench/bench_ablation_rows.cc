// Ablation: row-count sweep (§3.4 "Number of rows").
//
// The paper found most bugs with 10–30 rows per table: fewer rows → less
// state to trip over; more rows → joins explode and throughput collapses.
// This bench sweeps the row budget and reports (a) detection time for a
// representative bug and (b) query throughput, reproducing the trade-off.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/minidb/database.h"
#include "src/pqs/runner.h"

namespace pqs {

void PrintRowSweep() {
  bench::PrintHeader("Ablation: rows-per-table sweep (Listing 1 bug hunt)");
  printf("%-12s %-14s %-18s\n", "max rows", "detected", "statements used");
  for (int rows : {2, 6, 12, 30, 80}) {
    RunnerOptions opts;
    opts.seed = 31;
    opts.databases = 60;
    opts.queries_per_database = 25;
    opts.stop_on_first_finding = true;
    opts.gen.min_rows = 1;
    opts.gen.max_rows = rows;
    EngineFactory factory = []() -> ConnectionPtr {
      return std::make_unique<minidb::Database>(
          Dialect::kSqliteFlex,
          BugConfig::Single(BugId::kPartialIndexIsNotInference));
    };
    PqsRunner runner(factory, opts);
    RunReport report = runner.Run();
    printf("%-12d %-14s %llu\n", rows,
           report.findings.empty() ? "no" : "yes",
           static_cast<unsigned long long>(
               report.stats.statements_executed));
  }
}

void BM_QueryThroughputByRows(benchmark::State& state) {
  int rows = static_cast<int>(state.range(0));
  uint64_t queries = 0;
  uint64_t seed = 7;
  for (auto _ : state) {
    RunnerOptions opts;
    opts.seed = seed++;
    opts.databases = 1;
    opts.queries_per_database = 20;
    opts.gen.min_rows = rows;
    opts.gen.max_rows = rows;
    EngineFactory factory = []() -> ConnectionPtr {
      return std::make_unique<minidb::Database>(Dialect::kSqliteFlex);
    };
    PqsRunner runner(factory, opts);
    queries += runner.Run().stats.queries_checked;
  }
  state.counters["queries_per_second"] = benchmark::Counter(
      static_cast<double>(queries), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_QueryThroughputByRows)
    ->Arg(2)
    ->Arg(10)
    ->Arg(30)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond);

}  // namespace pqs

int main(int argc, char** argv) {
  pqs::PrintRowSweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
