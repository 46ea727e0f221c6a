// Figure 3 reproduction: per-DBMS distribution of SQL statement categories
// in reduced bug test cases, with the triggering statement attributed to
// the oracle that fired. Also prints the §4.3 column-constraint frequencies
// (UNIQUE 22.2%, PRIMARY KEY 17.2%, CREATE INDEX 28.3%, 90% single-table).
#include <benchmark/benchmark.h>

#include <memory>

#include "bench/bench_common.h"
#include "src/minidb/database.h"
#include "src/pqs/runner.h"

namespace pqs {

void PrintFigure3() {
  using TC = TestCaseStats;
  CampaignOptions options = bench::DefaultCampaignOptions();
  AggregateStats pooled;  // all dialects, for the §4.3 frequencies
  std::string json = "{\n  \"bench\": \"figure3\",\n  \"dialects\": [\n";
  bool first_dialect = true;
  for (Dialect d : {Dialect::kSqliteFlex, Dialect::kMysqlLike,
                    Dialect::kPostgresStrict}) {
    CampaignReport report = RunCampaign(d, options);
    AggregateStats agg = report.Aggregate();
    const size_t total = agg.cases.size();
    const std::map<std::string, CategoryStat> per_category =
        agg.PerCategory();
    bench::PrintHeader(std::string("Figure 3 — ") +
                       bench::DialectDisplayName(d));
    printf("%-22s %-12s %s\n", "statement category", "in % cases",
           "triggering oracle tallies");
    for (const auto& [category, stat] : per_category) {
      double pct = total == 0
                       ? 0
                       : 100.0 * static_cast<double>(
                                     stat.test_cases_containing) /
                             static_cast<double>(total);
      std::string triggers;
      for (const auto& [oracle, count] : stat.trigger_by_oracle) {
        triggers += oracle + ":" + std::to_string(count) + " ";
      }
      printf("%-22s %10.1f%% %s\n", category.c_str(), pct, triggers.c_str());
    }
    // Widened-grammar buckets of this dialect's reduced test cases. These
    // are enumerated explicitly — a reduced join/DISTINCT/ORDER/LIMIT case
    // must show up here, never fold silently into plain SELECT counts.
    printf("%-22s joins:%zu (left:%zu) distinct:%zu order-by:%zu "
           "limit:%zu of %zu cases\n",
           "feature buckets", agg.Count(&TC::has_explicit_join),
           agg.Count(&TC::has_left_join), agg.Count(&TC::has_distinct),
           agg.Count(&TC::has_order_by), agg.Count(&TC::has_limit), total);
    printf("%-22s function:%zu cast:%zu case:%zu collate:%zu of %zu cases "
           "(max expr depth %d)\n",
           "expression buckets", agg.Count(&TC::has_function_call),
           agg.Count(&TC::has_cast), agg.Count(&TC::has_case),
           agg.Count(&TC::has_collate), total, agg.MaxExprDepth());
    printf("%-22s update:%zu delete:%zu drop-index:%zu maintenance:%zu "
           "of %zu cases\n",
           "mutation buckets", agg.Count(&TC::has_update),
           agg.Count(&TC::has_delete), agg.Count(&TC::has_drop_index),
           agg.Count(&TC::has_maintenance), total);

    if (!first_dialect) json += ",\n";
    first_dialect = false;
    json += std::string("    {\"dialect\": \"") + DialectName(d) + "\",\n";
    json += "     \"total_cases\": " + std::to_string(total) +
            ",\n     \"categories\": {";
    bool first_cat = true;
    for (const auto& [category, stat] : per_category) {
      if (!first_cat) json += ", ";
      first_cat = false;
      json += "\"" + bench::JsonEscape(category) +
              "\": " + std::to_string(stat.test_cases_containing);
    }
    auto n = [&agg](bool TC::*flag) { return std::to_string(agg.Count(flag)); };
    json += "},\n     \"feature_buckets\": {";
    json += "\"explicit_join\": " + n(&TC::has_explicit_join);
    json += ", \"left_join\": " + n(&TC::has_left_join);
    json += ", \"distinct\": " + n(&TC::has_distinct);
    json += ", \"order_by\": " + n(&TC::has_order_by);
    json += ", \"limit\": " + n(&TC::has_limit);
    json += "},\n     \"expression_buckets\": {";
    json += "\"function\": " + n(&TC::has_function_call);
    json += ", \"cast\": " + n(&TC::has_cast);
    json += ", \"case\": " + n(&TC::has_case);
    json += ", \"collate\": " + n(&TC::has_collate);
    json += ", \"max_expr_depth\": " + std::to_string(agg.MaxExprDepth());
    json += "},\n     \"mutation_buckets\": {";
    json += "\"update\": " + n(&TC::has_update);
    json += ", \"delete\": " + n(&TC::has_delete);
    json += ", \"drop_index\": " + n(&TC::has_drop_index);
    json += ", \"maintenance\": " + n(&TC::has_maintenance);
    json += "}}";

    pooled.Merge(agg);
  }
  json += "\n  ],\n";

  // Depth-bucketed stats of the *generated* predicate stream (not just
  // reduced cases) plus the real statement-stream distribution of the
  // action scheduler: one clean seeded session per dialect, tallied by the
  // runner into RunStats (buckets are Expr depths 1-2 / 3-4 / 5-6 / 7-8 /
  // ≥9).
  bench::PrintHeader(
      "Generated-predicate depth histogram + statement stream "
      "(clean session)");
  static const char* kBucketLabels[RunStats::kDepthBuckets] = {
      "1-2", "3-4", "5-6", "7-8", ">=9"};
  json += "  \"predicate_depth_buckets\": [\n";
  std::string stream_json = "  \"statement_stream\": [\n";
  bool first_depth_dialect = true;
  for (Dialect d : {Dialect::kSqliteFlex, Dialect::kMysqlLike,
                    Dialect::kPostgresStrict}) {
    RunnerOptions opts;
    opts.seed = 20200604;
    opts.databases = 60;
    opts.queries_per_database = 25;
    EngineFactory factory = [d]() -> ConnectionPtr {
      return std::make_unique<minidb::Database>(d);
    };
    PqsRunner runner(factory, opts);
    RunReport report = runner.Run();
    printf("  %-28s", bench::DialectDisplayName(d));
    for (int b = 0; b < RunStats::kDepthBuckets; ++b) {
      printf("  depth %s: %llu", kBucketLabels[b],
             static_cast<unsigned long long>(
                 report.stats.predicate_depth_buckets[b]));
    }
    printf("\n  %-28s predicates with function call: %llu (%llu calls in "
           "%llu predicates)\n", "",
           static_cast<unsigned long long>(
               report.stats.predicates_with_function),
           static_cast<unsigned long long>(
               report.stats.function_calls_generated),
           static_cast<unsigned long long>(report.stats.queries_checked));
    const RunStats& s = report.stats;
    printf("  %-28s stream: insert:%llu update:%llu delete:%llu "
           "create-index:%llu drop-index:%llu maintenance:%llu "
           "(pivot checks: %llu, state compares: %llu)\n", "",
           static_cast<unsigned long long>(s.actions_insert),
           static_cast<unsigned long long>(s.actions_update),
           static_cast<unsigned long long>(s.actions_delete),
           static_cast<unsigned long long>(s.actions_create_index),
           static_cast<unsigned long long>(s.actions_drop_index),
           static_cast<unsigned long long>(s.actions_maintenance),
           static_cast<unsigned long long>(s.queries_checked),
           static_cast<unsigned long long>(s.state_compares));
    if (!first_depth_dialect) {
      json += ",\n";
      stream_json += ",\n";
    }
    first_depth_dialect = false;
    json += std::string("    {\"dialect\": \"") + DialectName(d) +
            "\", \"buckets\": [";
    for (int b = 0; b < RunStats::kDepthBuckets; ++b) {
      if (b > 0) json += ", ";
      json += std::to_string(report.stats.predicate_depth_buckets[b]);
    }
    json += "], \"predicates_with_function\": " +
            std::to_string(report.stats.predicates_with_function);
    json += ", \"function_calls\": " +
            std::to_string(report.stats.function_calls_generated) + "}";
    stream_json += std::string("    {\"dialect\": \"") + DialectName(d) +
                   "\"";
    stream_json += ", \"insert\": " + std::to_string(s.actions_insert);
    stream_json += ", \"update\": " + std::to_string(s.actions_update);
    stream_json += ", \"delete\": " + std::to_string(s.actions_delete);
    stream_json +=
        ", \"create_index\": " + std::to_string(s.actions_create_index);
    stream_json +=
        ", \"drop_index\": " + std::to_string(s.actions_drop_index);
    stream_json +=
        ", \"maintenance\": " + std::to_string(s.actions_maintenance);
    stream_json +=
        ", \"pivot_checks\": " + std::to_string(s.queries_checked);
    stream_json +=
        ", \"state_compares\": " + std::to_string(s.state_compares) + "}";
  }
  json += "\n  ],\n";
  json += stream_json + "\n  ]\n}";
  bench::WriteBenchJson("BENCH_figure3_features.json", json);

  bench::PrintHeader("§4.3 column constraints in reduced test cases");
  auto pct = [&](size_t n) {
    return pooled.cases.empty()
               ? 0.0
               : 100.0 * static_cast<double>(n) /
                     static_cast<double>(pooled.cases.size());
  };
  printf("UNIQUE constraint:   %5.1f%%   (paper: 22.2%%)\n",
         pct(pooled.Count(&TC::has_unique)));
  printf("PRIMARY KEY:         %5.1f%%   (paper: 17.2%%)\n",
         pct(pooled.Count(&TC::has_primary_key)));
  printf("CREATE INDEX:        %5.1f%%   (paper: 28.3%%)\n",
         pct(pooled.Count(&TC::has_create_index)));
  printf("single-table cases:  %5.1f%%   (paper: 90.0%%)\n",
         pct(pooled.Count(&TC::single_table)));
  printf("explicit-join cases: %5.1f%%   (query-space widening, PR 3)\n",
         pct(pooled.Count(&TC::has_explicit_join)));
}

void BM_AnalyzeTestCase(benchmark::State& state) {
  Finding f;
  f.oracle = OracleKind::kContainment;
  auto ct = std::make_unique<CreateTableStmt>();
  ct->table_name = "t0";
  ColumnDef col;
  col.name = "c0";
  col.unique = true;
  ct->columns.push_back(col);
  f.statements.push_back(std::move(ct));
  auto select = std::make_unique<SelectStmt>();
  select->from_tables = {"t0"};
  f.statements.push_back(std::move(select));
  for (auto _ : state) {
    TestCaseStats stats = AnalyzeTestCase(f);
    benchmark::DoNotOptimize(stats.statement_count);
  }
}
BENCHMARK(BM_AnalyzeTestCase);

}  // namespace pqs

int main(int argc, char** argv) {
  pqs::PrintFigure3();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
