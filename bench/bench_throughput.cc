// §3.4 throughput reproduction: "Typically, SQLancer generates 5,000 to
// 20,000 statements per second, depending on the DBMS under test."
//
// Measures end-to-end PQS statement throughput (generation + execution +
// oracle checking) per engine, including the real SQLite adapter, and
// sweeps the sharded runner's worker count (`--workers N`, default 4) over
// one fixed workload. The sweep prints aggregate tests/sec per worker
// count and writes BENCH_throughput.json for the perf trajectory. The
// merged report is seed-deterministic at every worker count, so the sweep
// also doubles as a quick sanity check that sharding changes nothing but
// the wall clock.
//
// Stdout holds every section's deterministic counts first, then the
// kTimingsMarker line, then every section's wall-clock figures: two runs
// of one binary print byte-identical text up to the marker.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "bench/recorder.h"
#include "src/minidb/database.h"
#include "src/obs/metrics.h"
#include "src/obs/telemetry.h"
#include "src/pqs/runner.h"
#include "src/sqlite3db/sqlite_connection.h"

// Heap allocation counter, for this binary only: the global operator new
// and delete below forward to malloc and free, and while counting is on,
// each operator new also bumps the counter. Expr nodes and libsqlite3's
// small blocks come from NodePool, whose slabs are counted as they are
// carved; a pooled block itself is not an allocation here.
namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace pqs {

namespace {

constexpr const char* kTimingsMarker =
    "--- wall-clock timings below; they vary from run to run ---";

// printf of one line into a string: the wall-clock sections are collected
// while the count sections print, and go to stdout after kTimingsMarker.
void Appendf(std::string* out, const char* format, ...) {
  char line[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(line, sizeof line, format, args);
  va_end(args);
  *out += line;
}

void AppendHeader(std::string* out, const char* title) {
  Appendf(out, "\n=== %s ===\n", title);
}

struct SweepPoint {
  int workers = 1;
  double seconds = 0;
  double statements_per_second = 0;
  double tests_per_second = 0;  // oracle-checked queries ("tests")
  uint64_t statements = 0;
  uint64_t tests = 0;
  // Per-session wall-clock latency tail of the best rep (recorder.h).
  std::string latency_json;
  double p99_ms = 0;
};

SweepPoint MeasureWorkers(int workers, int reps = 3) {
  RunnerOptions opts;
  opts.seed = 20200604;
  opts.databases = 192;
  opts.queries_per_database = 25;
  opts.workers = workers;
  bench::LatencyRecorder recorder;
  opts.session_latency_hook = [&recorder](int /*db_index*/, double seconds) {
    recorder.Record(seconds);
  };
  EngineFactory factory = []() -> ConnectionPtr {
    return std::make_unique<minidb::Database>(Dialect::kSqliteFlex);
  };

  SweepPoint point;
  point.workers = workers;
  point.seconds = 1e30;
  // Best of `reps` repetitions: the workload is identical each time, so
  // the minimum is the least-noisy estimate of the achievable rate. The
  // latency percentiles are snapshotted from whichever rep wins, so the
  // tail numbers describe the same run as the headline rate.
  for (int rep = 0; rep < reps; ++rep) {
    recorder.Clear();
    PqsRunner runner(factory, opts);
    auto start = std::chrono::steady_clock::now();
    RunReport report = runner.Run();
    std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (elapsed.count() < point.seconds) {
      point.seconds = elapsed.count();
      point.statements = report.stats.statements_executed;
      point.tests = report.stats.queries_checked;
      point.latency_json = recorder.JsonFields();
      point.p99_ms = recorder.Percentile(99) * 1e3;
    }
  }
  if (point.seconds > 0) {
    point.statements_per_second =
        static_cast<double>(point.statements) / point.seconds;
    point.tests_per_second = static_cast<double>(point.tests) / point.seconds;
  }
  return point;
}

// Zipf-skewed table-size workload: session bucket of rank k gets a
// database share proportional to 1/k, so the workload is dominated by
// small-table sessions with a heavy tail of large ones — the shape a
// long-running fuzzing campaign actually sees (most generated schemas are
// small; occasionally the generator rolls a large cross product). The
// tail buckets are what stress per-row costs; the recorder's percentiles
// make their latency visible next to the aggregate rate.
std::string MeasureZipfWorkload(std::string* timings) {
  struct Bucket {
    int max_rows;
    int databases;  // 96 total, split by zipf(s=1) weights 1/k
    double seconds = 0;
    uint64_t statements = 0;
    // Per-bucket session latency: the aggregate tail is dominated by the
    // large-table buckets, and without the per-bucket split a regression
    // confined to one size class is invisible in the blended percentiles.
    bench::LatencyRecorder latency;
  };
  // Weights 1, 1/2, 1/3, 1/4 over 96 databases → 46, 23, 15, 12.
  Bucket buckets[] = {{4, 46, 0, 0, {}},
                      {8, 23, 0, 0, {}},
                      {16, 15, 0, 0, {}},
                      {32, 12, 0, 0, {}}};

  bench::LatencyRecorder recorder;
  EngineFactory factory = []() -> ConnectionPtr {
    return std::make_unique<minidb::Database>(Dialect::kSqliteFlex);
  };
  double total_seconds = 0;
  uint64_t total_statements = 0;
  for (Bucket& bucket : buckets) {
    RunnerOptions opts;
    opts.seed = 20200604 + static_cast<uint64_t>(bucket.max_rows);
    opts.databases = bucket.databases;
    opts.queries_per_database = 25;
    opts.gen.min_rows = bucket.max_rows / 2;
    opts.gen.max_rows = bucket.max_rows;
    opts.session_latency_hook = [&recorder, &bucket](int /*db*/,
                                                     double seconds) {
      recorder.Record(seconds);
      bucket.latency.Record(seconds);
    };
    PqsRunner runner(factory, opts);
    auto start = std::chrono::steady_clock::now();
    RunReport report = runner.Run();
    std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    bucket.seconds = elapsed.count();
    bucket.statements = report.stats.statements_executed;
    total_seconds += bucket.seconds;
    total_statements += bucket.statements;
  }

  bench::PrintHeader("Zipf-skewed table sizes: statements per bucket");
  printf("%10s %10s %12s\n", "max_rows", "databases", "statements");
  for (Bucket& bucket : buckets) {
    printf("%10d %10d %12llu\n", bucket.max_rows, bucket.databases,
           static_cast<unsigned long long>(bucket.statements));
  }
  AppendHeader(timings, "Zipf-skewed table sizes: session latency tail");
  Appendf(timings, "%10s %10s %14s %10s %10s\n", "max_rows", "seconds",
          "stmts/sec", "p50(ms)", "p99(ms)");
  for (Bucket& bucket : buckets) {
    Appendf(timings, "%10d %10.4f %14.0f %10.3f %10.3f\n", bucket.max_rows,
            bucket.seconds,
            bucket.seconds > 0
                ? static_cast<double>(bucket.statements) / bucket.seconds
                : 0.0,
            bucket.latency.Percentile(50) * 1e3,
            bucket.latency.Percentile(99) * 1e3);
  }
  Appendf(timings, "  aggregate: %.4fs, %.0f stmts/sec; session latency %s\n",
          total_seconds,
          total_seconds > 0
              ? static_cast<double>(total_statements) / total_seconds
              : 0.0,
          recorder.JsonFields().c_str());

  std::string json = "  \"zipf_workload\": {\"buckets\": [\n";
  for (size_t i = 0; i < sizeof buckets / sizeof buckets[0]; ++i) {
    Bucket& bucket = buckets[i];
    char buf[384];
    std::snprintf(buf, sizeof buf,
                  "    {\"max_rows\": %d, \"databases\": %d, "
                  "\"seconds\": %.6f, \"statements_per_second\": %.1f, "
                  "\"session_latency\": {%s}}%s\n",
                  bucket.max_rows, bucket.databases, bucket.seconds,
                  bucket.seconds > 0
                      ? static_cast<double>(bucket.statements) / bucket.seconds
                      : 0.0,
                  bucket.latency.JsonFields().c_str(),
                  i + 1 < sizeof buckets / sizeof buckets[0] ? "," : "");
    json += buf;
  }
  json += "  ], \"session_latency\": {" + recorder.JsonFields() + "}},\n";
  return json;
}

// Rows-per-second axis: raw paged-scan throughput at table sizes far past
// generator scale (10^4 / 10^5 / 10^6 rows). The tables are built once per
// size through the normal INSERT path (which exercises page allocation and
// splits), then swept with a selective single-table WHERE so the number
// measures the scan→filter→project batch path over the buffer pool —
// pages faulting through the clock-eviction pool on every sweep, since
// 10^5+ rows never fit the default 32 frames. Per-sweep latency goes
// through the recorder so the large-table tail is visible, and the pool
// counters land in the JSON so eviction behavior is trackable over time.
std::string MeasureScanRows(std::string* timings) {
  struct Point {
    int64_t rows;
    double build_seconds = 0;
    double scan_seconds = 0;
    int sweeps = 0;
    double rows_per_second = 0;
    std::string latency_json;
    obs::MetricsRegistry pool;  // the pool's counters, build and sweeps
  };
  std::vector<Point> points;
  for (int64_t n : {10000LL, 100000LL, 1000000LL}) {
    Point point;
    point.rows = n;
    // The pool counts its work only in an installed session's registry.
    obs::SessionTelemetry telemetry;
    obs::ScopedSessionTelemetry install(&telemetry);
    minidb::Database db(Dialect::kSqliteFlex);

    auto create = std::make_unique<CreateTableStmt>();
    create->table_name = "t0";
    ColumnDef a;
    a.name = "c0";
    a.declared_type = "INT";
    a.affinity = Affinity::kInteger;
    ColumnDef b = a;
    b.name = "c1";
    create->columns = {a, b};
    db.Execute(*create);

    auto build_start = std::chrono::steady_clock::now();
    constexpr int64_t kBatch = 1000;
    for (int64_t base = 0; base < n; base += kBatch) {
      InsertStmt insert;
      insert.table_name = "t0";
      insert.rows.reserve(kBatch);
      for (int64_t i = base; i < base + kBatch && i < n; ++i) {
        std::vector<ExprPtr> row;
        row.push_back(MakeIntLiteral(i));
        row.push_back(MakeIntLiteral((i * 7) % 97));
        insert.rows.push_back(std::move(row));
      }
      db.Execute(insert);
    }
    point.build_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      build_start)
            .count();

    // ~5% selectivity keeps the measurement scan-dominated instead of
    // result-copy-dominated; 2M rows scanned per size point bounds the
    // bench's wall clock while giving the small sizes enough sweeps for
    // stable percentiles.
    SelectStmt query;
    query.from_tables = {"t0"};
    query.where = MakeBinary(BinaryOp::kLt, MakeColumnRef("t0", "c0"),
                             MakeIntLiteral(n / 20));
    point.sweeps = static_cast<int>(2000000 / n);
    if (point.sweeps < 2) point.sweeps = 2;
    bench::LatencyRecorder latency;
    auto scan_start = std::chrono::steady_clock::now();
    for (int s = 0; s < point.sweeps; ++s) {
      auto sweep_start = std::chrono::steady_clock::now();
      StatementResult result = db.Execute(query);
      latency.Record(std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - sweep_start)
                         .count());
      if (result.rows.size() != static_cast<size_t>(n / 20)) {
        printf("scan_rows: unexpected result size %zu at n=%lld\n",
               result.rows.size(), static_cast<long long>(n));
      }
    }
    point.scan_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      scan_start)
            .count();
    if (point.scan_seconds > 0) {
      point.rows_per_second =
          static_cast<double>(n) * point.sweeps / point.scan_seconds;
    }
    point.latency_json = latency.JsonFields();
    point.pool = telemetry.metrics;
    points.push_back(std::move(point));
  }

  auto counted = [](const Point& p, obs::Counter c) {
    return static_cast<unsigned long long>(p.pool.counter(c));
  };
  bench::PrintHeader("Paged scan: buffer-pool work by table size");
  printf("%10s %8s %12s %12s\n", "rows", "sweeps", "pool hits",
         "evictions");
  for (const Point& p : points) {
    printf("%10lld %8d %12llu %12llu\n", static_cast<long long>(p.rows),
           p.sweeps, counted(p, obs::Counter::kPoolHits),
           counted(p, obs::Counter::kPoolEvictions));
  }
  AppendHeader(timings, "Paged scan throughput: rows/second by table size");
  Appendf(timings, "%10s %10s %14s\n", "rows", "build(s)", "rows/sec");
  for (const Point& p : points) {
    Appendf(timings, "%10lld %10.3f %14.0f\n", static_cast<long long>(p.rows),
            p.build_seconds, p.rows_per_second);
  }

  std::string json = "  \"scan_rows_sweep\": [\n";
  for (size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    char buf[640];
    std::snprintf(
        buf, sizeof buf,
        "    {\"rows\": %lld, \"sweeps\": %d, \"build_seconds\": %.6f, "
        "\"scan_seconds\": %.6f, \"rows_per_second\": %.1f, "
        "\"query_latency\": {%s}, "
        "\"pool\": {\"hits\": %llu, \"misses\": %llu, \"evictions\": %llu, "
        "\"dirty_writebacks\": %llu}}%s\n",
        static_cast<long long>(p.rows), p.sweeps, p.build_seconds,
        p.scan_seconds, p.rows_per_second, p.latency_json.c_str(),
        counted(p, obs::Counter::kPoolHits),
        counted(p, obs::Counter::kPoolMisses),
        counted(p, obs::Counter::kPoolEvictions),
        counted(p, obs::Counter::kPoolWritebacks),
        i + 1 < points.size() ? "," : "");
    json += buf;
  }
  json += "  ],\n";
  return json;
}

// The real-sqlite3 end-to-end figure, `sqlite_statements_per_second_1worker`:
// the seeded 48-database x 25-query containment loop on SqliteConnection,
// best of 3. check_perf_smoke.py gates it against its floor.
std::string MeasureSqliteThroughput(std::string* timings) {
  RunnerOptions opts;
  opts.seed = 20200604;
  opts.databases = 48;
  opts.queries_per_database = 25;
  EngineFactory factory = []() -> ConnectionPtr {
    return std::make_unique<SqliteConnection>();
  };
  double best = 1e30;
  uint64_t statements = 0;
  for (int rep = 0; rep < 3; ++rep) {
    PqsRunner runner(factory, opts);
    auto start = std::chrono::steady_clock::now();
    RunReport report = runner.Run();
    std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    statements = report.stats.statements_executed;
    if (elapsed.count() < best) best = elapsed.count();
  }
  double sqlite_rate =
      best > 0 ? static_cast<double>(statements) / best : 0.0;

  bench::PrintHeader("Real sqlite3 end-to-end run (1 worker)");
  printf("  %llu statements\n", static_cast<unsigned long long>(statements));
  AppendHeader(timings, "Real sqlite3 end-to-end throughput (1 worker)");
  Appendf(timings, "  %.4fs (best of 3): %.0f stmts/sec\n", best,
          sqlite_rate);

  char buf[96];
  std::snprintf(buf, sizeof buf,
                "  \"sqlite_statements_per_second_1worker\": %.1f,\n",
                sqlite_rate);
  return buf;
}

// `heap_allocs_per_check`: operator new calls per checked query over one
// run of the sweep's seeded 1-worker MiniDB workload, on the calling
// thread after the phase-profile run of the same workload has warmed its
// caches. A count, so it is the same on every run of one build;
// check_perf_smoke.py holds it under a checked-in ceiling.
std::string MeasureHeapAllocs() {
  RunnerOptions opts;
  opts.seed = 20200604;
  opts.databases = 192;
  opts.queries_per_database = 25;
  opts.workers = 1;
  EngineFactory factory = []() -> ConnectionPtr {
    return std::make_unique<minidb::Database>(Dialect::kSqliteFlex);
  };
  PqsRunner runner(factory, opts);
  g_allocations.store(0, std::memory_order_relaxed);
  g_count_allocations.store(true, std::memory_order_relaxed);
  RunReport report = runner.Run();
  g_count_allocations.store(false, std::memory_order_relaxed);
  const uint64_t allocations = g_allocations.load(std::memory_order_relaxed);
  const uint64_t checks = report.stats.queries_checked;
  const double per_check =
      checks > 0 ? static_cast<double>(allocations) / checks : 0.0;

  bench::PrintHeader("Heap allocations, 1-worker MiniDB sweep workload");
  printf("  %llu operator new calls over %llu checked queries: %.1f per "
         "check\n",
         static_cast<unsigned long long>(allocations),
         static_cast<unsigned long long>(checks), per_check);

  char buf[96];
  std::snprintf(buf, sizeof buf, "  \"heap_allocs_per_check\": %.2f,\n",
                per_check);
  return buf;
}

// One run of the sweep workload with the bench-only wall-clock spans
// enabled, exported as the "telemetry" section: the deterministic counters
// plus "phase_wall_micros", which ties Algorithm-1 stages to real time.
// check_perf_smoke.py gates on the pipeline stages having recorded spans.
std::string MeasurePhaseProfile(std::string* timings) {
  RunnerOptions opts;
  opts.seed = 20200604;
  opts.databases = 192;
  opts.queries_per_database = 25;
  EngineFactory factory = []() -> ConnectionPtr {
    return std::make_unique<minidb::Database>(Dialect::kSqliteFlex);
  };
  obs::SetPhaseWallClock(true);
  PqsRunner runner(factory, opts);
  RunReport report = runner.Run();
  obs::SetPhaseWallClock(false);

  bench::PrintHeader("Phase profile: Algorithm-1 pipeline stages");
  printf("%20s %10s\n", "phase", "spans");
  AppendHeader(timings, "Phase profile: wall time per span");
  Appendf(timings, "%20s %14s\n", "phase", "wall(us)/span");
  for (int p = 0; p < static_cast<int>(obs::Phase::kCount_); ++p) {
    obs::Phase phase = static_cast<obs::Phase>(p);
    const obs::Histogram& wall = report.metrics.phase_wall_micros(phase);
    printf("%20s %10llu\n", obs::PhaseName(phase),
           static_cast<unsigned long long>(wall.count()));
    Appendf(timings, "%20s %14.2f\n", obs::PhaseName(phase),
            wall.count() > 0 ? static_cast<double>(wall.sum()) / wall.count()
                             : 0.0);
  }
  return "  \"telemetry\": " + report.metrics.ToJson(true) + ",\n";
}

// Transaction-mix sweep (DESIGN §14): the interleaved K-session MVCC
// branch on a clean engine, K ∈ {2, 3, 4}. Every statement here pays for
// version-chain bookkeeping, the model replay, and the committed-state and
// snapshot comparisons, so this rate tracks the transaction branch's
// end-to-end cost the way the worker sweep tracks the autocommit loop's. The commit/conflict
// tallies land in the JSON so check_perf_smoke.py can assert the workload
// actually transacted.
std::string MeasureTxnWorkload(std::string* timings) {
  struct TxnPoint {
    int sessions = 0;
    double seconds = 0;
    uint64_t statements = 0;
    RunStats stats;
  };
  std::vector<TxnPoint> points;
  for (int sessions : {2, 3, 4}) {
    RunnerOptions opts;
    opts.seed = 20200604 + static_cast<uint64_t>(sessions);
    opts.databases = 96;
    opts.queries_per_database = 10;
    opts.gen.txn_sessions = sessions;
    EngineFactory factory = []() -> ConnectionPtr {
      return std::make_unique<minidb::Database>(Dialect::kSqliteFlex);
    };
    TxnPoint point;
    point.sessions = sessions;
    point.seconds = 1e30;
    for (int rep = 0; rep < 3; ++rep) {
      PqsRunner runner(factory, opts);
      auto start = std::chrono::steady_clock::now();
      RunReport report = runner.Run();
      std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      if (elapsed.count() < point.seconds) {
        point.seconds = elapsed.count();
        point.statements = report.stats.statements_executed;
        point.stats = report.stats;
      }
    }
    points.push_back(point);
  }

  bench::PrintHeader("Transaction mix: K interleaved MVCC sessions");
  printf("%10s %12s %10s %10s %10s %10s\n", "sessions", "statements",
         "begins", "commits", "rollbacks", "conflicts");
  for (const TxnPoint& p : points) {
    printf("%10d %12llu %10llu %10llu %10llu %10llu\n", p.sessions,
           static_cast<unsigned long long>(p.statements),
           static_cast<unsigned long long>(p.stats.txn_begins),
           static_cast<unsigned long long>(p.stats.txn_commits),
           static_cast<unsigned long long>(p.stats.txn_rollbacks),
           static_cast<unsigned long long>(p.stats.txn_conflicts));
  }
  AppendHeader(timings, "Transaction mix: throughput");
  Appendf(timings, "%10s %10s %14s\n", "sessions", "seconds", "stmts/sec");
  for (const TxnPoint& p : points) {
    Appendf(timings, "%10d %10.4f %14.0f\n", p.sessions, p.seconds,
            p.seconds > 0 ? static_cast<double>(p.statements) / p.seconds
                          : 0.0);
  }

  std::string json = "  \"txn_workload\": [\n";
  for (size_t i = 0; i < points.size(); ++i) {
    const TxnPoint& p = points[i];
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "    {\"sessions\": %d, \"seconds\": %.6f, "
        "\"statements_per_second\": %.1f, \"begins\": %llu, "
        "\"commits\": %llu, \"rollbacks\": %llu, \"conflicts\": %llu, "
        "\"snapshot_checks\": %llu, \"serial_replays\": %llu}%s\n",
        p.sessions, p.seconds,
        p.seconds > 0 ? static_cast<double>(p.statements) / p.seconds : 0.0,
        static_cast<unsigned long long>(p.stats.txn_begins),
        static_cast<unsigned long long>(p.stats.txn_commits),
        static_cast<unsigned long long>(p.stats.txn_rollbacks),
        static_cast<unsigned long long>(p.stats.txn_conflicts),
        static_cast<unsigned long long>(p.stats.txn_snapshot_checks),
        static_cast<unsigned long long>(p.stats.txn_serial_replays),
        i + 1 < points.size() ? "," : "");
    json += buf;
  }
  json += "  ],\n";
  return json;
}

void RunWorkerSweep(int max_workers, const std::string& extra_json,
                    std::string* timings) {
  std::vector<int> counts;
  for (int w = 1; w < max_workers; w *= 2) counts.push_back(w);
  counts.push_back(max_workers);

  std::vector<SweepPoint> sweep;
  for (int w : counts) sweep.push_back(MeasureWorkers(w));
  // The merged report is the same at every worker count, so these counts
  // repeat down the column.
  bench::PrintHeader("Worker sweep: statements and tests per run");
  printf("%8s %12s %10s\n", "workers", "statements", "tests");
  for (const SweepPoint& p : sweep) {
    printf("%8d %12llu %10llu\n", p.workers,
           static_cast<unsigned long long>(p.statements),
           static_cast<unsigned long long>(p.tests));
  }

  unsigned cores = std::thread::hardware_concurrency();
  AppendHeader(timings, "Worker sweep: aggregate PQS throughput");
  Appendf(timings,
          "(minidb sqlite dialect, fixed seed; %u hardware thread(s) —\n"
          " speedup saturates at the core count)\n",
          cores);
  Appendf(timings, "%8s %10s %16s %12s %8s %10s\n", "workers", "seconds",
          "stmts/sec", "tests/sec", "speedup", "p99(ms)");
  double base = sweep.front().tests_per_second;
  for (const SweepPoint& p : sweep) {
    Appendf(timings, "%8d %10.4f %16.0f %12.0f %7.2fx %10.3f\n", p.workers,
            p.seconds, p.statements_per_second, p.tests_per_second,
            base > 0 ? p.tests_per_second / base : 0.0, p.p99_ms);
  }

  std::string json = "{\n  \"bench\": \"throughput\",\n";
  json += "  \"engine\": \"minidb-sqlite\",\n";
  json += "  \"hardware_concurrency\": " + std::to_string(cores) + ",\n";
  json += "  \"databases\": 192,\n  \"queries_per_database\": 25,\n";
  json += extra_json;
  json += "  \"worker_sweep\": [\n";
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "    {\"workers\": %d, \"seconds\": %.6f, "
                  "\"statements_per_second\": %.1f, "
                  "\"tests_per_second\": %.1f, \"speedup_vs_1\": %.3f, "
                  "\"session_latency\": {%s}}%s\n",
                  p.workers, p.seconds, p.statements_per_second,
                  p.tests_per_second,
                  base > 0 ? p.tests_per_second / base : 0.0,
                  p.latency_json.c_str(), i + 1 < sweep.size() ? "," : "");
    json += buf;
  }
  json += "  ]\n}";
  bench::WriteBenchJson("BENCH_throughput.json", json);
}

void RunThroughput(benchmark::State& state, EngineFactory factory,
                   int workers = 1, int databases = 2) {
  uint64_t statements = 0;
  uint64_t seed = 1;
  for (auto _ : state) {
    RunnerOptions opts;
    opts.seed = seed++;
    opts.databases = databases;
    opts.queries_per_database = 20;
    opts.workers = workers;
    PqsRunner runner(factory, opts);
    RunReport report = runner.Run();
    statements += report.stats.statements_executed;
  }
  state.counters["statements_per_second"] = benchmark::Counter(
      static_cast<double>(statements), benchmark::Counter::kIsRate);
}

void BM_PqsThroughputMinidb(benchmark::State& state) {
  Dialect d = static_cast<Dialect>(state.range(0));
  RunThroughput(state, [d]() -> ConnectionPtr {
    return std::make_unique<minidb::Database>(d);
  });
}
BENCHMARK(BM_PqsThroughputMinidb)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

void BM_PqsThroughputMinidbSharded(benchmark::State& state) {
  int workers = static_cast<int>(state.range(0));
  // 8 databases per run so every swept worker count (the runner clamps
  // workers to the database count) actually runs that many workers.
  RunThroughput(
      state,
      []() -> ConnectionPtr {
        return std::make_unique<minidb::Database>(Dialect::kSqliteFlex);
      },
      workers, /*databases=*/8);
}
// Real time, not main-thread CPU time: the workers burn their CPU off the
// timed thread, so CPU-relative rates would be wildly inflated.
BENCHMARK(BM_PqsThroughputMinidbSharded)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_PqsThroughputRealSqlite(benchmark::State& state) {
  RunThroughput(state, []() -> ConnectionPtr {
    return std::make_unique<SqliteConnection>();
  });
}
BENCHMARK(BM_PqsThroughputRealSqlite)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pqs

int main(int argc, char** argv) {
  // Strip our own --workers flag before google-benchmark sees the args.
  int max_workers = 4;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      max_workers = std::atoi(argv[i + 1]);
      ++i;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  if (max_workers < 1) max_workers = 1;

  // Sections run and print in this order; the JSON lists them in the
  // order of the final concatenation.
  std::string timings;
  std::string phase = pqs::MeasurePhaseProfile(&timings);
  std::string heap = pqs::MeasureHeapAllocs();
  std::string txn = pqs::MeasureTxnWorkload(&timings);
  std::string zipf = pqs::MeasureZipfWorkload(&timings);
  std::string sqlite = pqs::MeasureSqliteThroughput(&timings);
  std::string scan = pqs::MeasureScanRows(&timings);
  pqs::RunWorkerSweep(max_workers,
                      scan + sqlite + zipf + txn + heap + phase, &timings);
  printf("\n%s\n%s", pqs::kTimingsMarker, timings.c_str());
  std::fflush(stdout);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
