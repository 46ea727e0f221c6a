// Same-seed determinism: two runs with identical options must produce
// identical reports, down to the rendered SQL of every finding — and a
// sharded N-worker run must merge to exactly the 1-worker report.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/minidb/bug_registry.h"
#include "src/minidb/database.h"
#include "src/obs/telemetry.h"
#include "src/pqs/campaign.h"
#include "src/pqs/runner.h"
#include "src/sqlparser/render.h"
#include "tests/test_util.h"

namespace pqs {
namespace {

RunReport BuggyRun(uint64_t seed, int workers = 1,
                   bool stop_on_first_finding = false,
                   BugId bug = BugId::kPartialIndexIsNotInference) {
  RunnerOptions options;
  options.seed = seed;
  options.databases = 30;
  options.queries_per_database = 15;
  options.workers = workers;
  options.stop_on_first_finding = stop_on_first_finding;
  // Crank the typed expression subsystem (functions, CAST, CASE, COLLATE,
  // LIKE ESCAPE) so the byte-identity guarantee demonstrably covers it;
  // joins, DISTINCT, ORDER BY and LIMIT come at their constant rates.
  options.gen.function_probability = 0.5;
  options.gen.cast_probability = 0.3;
  options.gen.case_probability = 0.25;
  options.gen.collate_probability = 0.5;
  options.gen.like_escape_probability = 0.5;
  EngineFactory factory = [bug]() -> ConnectionPtr {
    return std::make_unique<minidb::Database>(Dialect::kSqliteFlex,
                                              BugConfig::Single(bug));
  };
  PqsRunner runner(factory, options);
  return runner.Run();
}

void TestSameSeedSameReport() {
  RunReport a = BuggyRun(123);
  RunReport b = BuggyRun(123);
  CHECK(a.stats == b.stats);
  CHECK_EQ(a.findings.size(), b.findings.size());
  for (size_t i = 0; i < a.findings.size() && i < b.findings.size(); ++i) {
    CHECK_EQ(RenderScript(a.findings[i].statements, Dialect::kSqliteFlex),
             RenderScript(b.findings[i].statements, Dialect::kSqliteFlex));
    CHECK(a.findings[i].oracle == b.findings[i].oracle);
  }
}

// Sharded execution is invisible in the merged report: stats, finding
// order, and rendered SQL all match the sequential run exactly, with and
// without stop_on_first_finding (where the merge truncates at the first
// finding-bearing database, just as the sequential loop returns there).
void TestShardedRunnerMatchesSequential() {
  // A scan-path bug, a join-path bug, an expression-subsystem bug, and an
  // index-maintenance bug: the sharding guarantee must hold for campaigns
  // exercising the widened query space, the typed expression grammar, and
  // the mutating statement stream alike.
  for (BugId bug : {BugId::kPartialIndexIsNotInference,
                    BugId::kJoinDupRightMatch, BugId::kLikeEscapeMiss,
                    BugId::kUpdateIndexStale}) {
    for (bool stop_on_first : {false, true}) {
      RunReport sequential = BuggyRun(123, /*workers=*/1, stop_on_first, bug);
      for (int workers : {2, 4}) {
        RunReport sharded = BuggyRun(123, workers, stop_on_first, bug);
        CHECK(sharded.stats == sequential.stats);
        CHECK_EQ(sharded.findings.size(), sequential.findings.size());
        for (size_t i = 0;
             i < sharded.findings.size() && i < sequential.findings.size();
             ++i) {
          CHECK(sharded.findings[i].oracle == sequential.findings[i].oracle);
          CHECK_EQ(RenderScript(sharded.findings[i].statements,
                                Dialect::kSqliteFlex),
                   RenderScript(sequential.findings[i].statements,
                                Dialect::kSqliteFlex));
        }
      }
    }
  }
}

// The acceptance invariant of the sharded campaign engine: a 4-worker
// RunCampaign merges to the same finding set and the same per-bug
// statement / oracle tallies as the 1-worker campaign (order-insensitive:
// finding scripts are compared as sorted multisets).
void TestShardedCampaignMatchesSequential() {
  CampaignOptions options;
  options.seed = 20200604;
  options.databases_per_bug = 120;
  options.queries_per_database = 20;
  options.reduce = true;  // reduction must be deterministic too

  auto run = [&](int workers) {
    CampaignOptions o = options;
    o.workers = workers;
    return RunCampaign(Dialect::kSqliteFlex, o);
  };
  CampaignReport sequential = run(1);
  CampaignReport sharded = run(4);

  CHECK_EQ(sharded.results.size(), sequential.results.size());
  for (size_t i = 0;
       i < sharded.results.size() && i < sequential.results.size(); ++i) {
    const BugHuntResult& a = sharded.results[i];
    const BugHuntResult& b = sequential.results[i];
    CHECK_EQ(a.detected, b.detected);
    CHECK(a.oracle == b.oracle);
    CHECK_EQ(a.statements_used, b.statements_used);
    CHECK_EQ(a.databases_used, b.databases_used);
  }
  for (OracleKind kind : {OracleKind::kContainment, OracleKind::kError,
                          OracleKind::kCrash}) {
    CHECK_EQ(sharded.CountByOracle(kind), sequential.CountByOracle(kind));
  }

  auto finding_set = [](const CampaignReport& report) {
    std::vector<std::string> scripts;
    for (const BugHuntResult& r : report.results) {
      if (!r.detected) continue;
      scripts.push_back(RenderScript(r.reduced.statements, report.dialect));
    }
    std::sort(scripts.begin(), scripts.end());
    return scripts;
  };
  CHECK(finding_set(sharded) == finding_set(sequential));
}

// Serializes everything a report asserts on — the oracle-visible stats and
// every finding's rendered script — so two reports can be compared as one
// byte string.
std::string Fingerprint(const RunReport& r) {
  std::string out;
  auto num = [&out](uint64_t v) {
    out += std::to_string(v);
    out += '|';
  };
  RunStats::ForEachField(
      [&num](const char*, size_t width, const uint64_t* v) {
        for (size_t i = 0; i < width; ++i) num(v[i]);
      },
      r.stats);
  num(r.findings.size());
  for (const Finding& f : r.findings) {
    num(static_cast<uint64_t>(f.oracle));
    out += RenderScript(f.statements, Dialect::kSqliteFlex);
    out += '|';
  }
  return out;
}

// Telemetry is observe-only: turning on the benches' wall-clock phase spans
// must leave every report byte-identical, deterministic metrics included,
// for every oracle family and for the interleaved-transaction branch.
void TestTelemetryOnOffSameReport() {
  struct Case {
    OracleFamily family;
    int txn_sessions;
    BugId bug;
    uint64_t seed;
    int databases;
    int queries;
  };
  const Case cases[] = {
      {OracleFamily::kContainment, 1, BugId::kPartialIndexIsNotInference, 99,
       20, 15},
      {OracleFamily::kNorec, 1, BugId::kPartialIndexIsNotInference, 99, 20,
       15},
      {OracleFamily::kTlp, 1, BugId::kPartialIndexIsNotInference, 99, 20, 15},
      {OracleFamily::kContainment, 3, BugId::kTxnLostUpdate, 777, 40, 5},
  };
  for (const Case& c : cases) {
    auto run = [&c]() {
      RunnerOptions options;
      options.seed = c.seed;
      options.databases = c.databases;
      options.queries_per_database = c.queries;
      options.family = c.family;
      options.gen.txn_sessions = c.txn_sessions;
      BugId bug = c.bug;
      EngineFactory factory = [bug]() -> ConnectionPtr {
        return std::make_unique<minidb::Database>(Dialect::kSqliteFlex,
                                                  BugConfig::Single(bug));
      };
      PqsRunner runner(factory, options);
      return runner.Run();
    };
    CHECK(!obs::PhaseWallClockEnabled());
    RunReport plain = run();
    obs::SetPhaseWallClock(true);
    RunReport timed = run();
    obs::SetPhaseWallClock(false);
    CHECK_EQ(Fingerprint(plain), Fingerprint(timed));
    CHECK_EQ(plain.metrics.ToJson(false), timed.metrics.ToJson(false));
    // Only the timed run records wall spans.
    const obs::Phase kExec = obs::Phase::kEngineExecute;
    CHECK(timed.metrics.phase_wall_micros(kExec).count() > 0);
    CHECK_EQ(plain.metrics.phase_wall_micros(kExec).count(),
             static_cast<uint64_t>(0));
    if (c.txn_sessions > 1) {
      // The transaction branch is exercised for real: it committed and
      // found the bug.
      CHECK(plain.stats.txn_commits > 0);
      CHECK(!plain.findings.empty());
    }
    // Every finding carries flight provenance either way.
    for (const RunReport* r : {&plain, &timed}) {
      for (const Finding& f : r->findings) CHECK(!f.flight.empty());
    }
  }
}

// Transaction workloads (gen.txn_sessions > 1 routes the runner into the
// interleaved K-session branch, DESIGN §14) obey the same sharding
// contract: an N-worker run merges byte-identically to the sequential one,
// the transaction counters included, and every finding's flight ring
// carries the transaction lifecycle events of the session that found it.
void TestShardedTxnWorkloadMatchesSequential() {
  auto run = [](int workers, bool stop_on_first) {
    RunnerOptions options;
    options.seed = 777;
    options.databases = 40;
    options.queries_per_database = 5;
    options.workers = workers;
    options.stop_on_first_finding = stop_on_first;
    options.gen.txn_sessions = 3;
    EngineFactory factory = []() -> ConnectionPtr {
      return std::make_unique<minidb::Database>(
          Dialect::kSqliteFlex, BugConfig::Single(BugId::kTxnLostUpdate));
    };
    PqsRunner runner(factory, options);
    return runner.Run();
  };
  for (bool stop_on_first : {false, true}) {
    RunReport sequential = run(1, stop_on_first);
    CHECK(!sequential.findings.empty());
    CHECK(sequential.stats.txn_commits > 0);
    for (const Finding& f : sequential.findings) {
      bool saw_txn_event = false;
      for (const obs::FlightEvent& e : f.flight) {
        saw_txn_event |= e.kind == obs::EventKind::kTxnBegin ||
                         e.kind == obs::EventKind::kTxnCommit ||
                         e.kind == obs::EventKind::kTxnAbort;
      }
      CHECK(saw_txn_event);
    }
    for (int workers : {2, 4}) {
      CHECK_EQ(Fingerprint(run(workers, stop_on_first)),
               Fingerprint(sequential));
    }
  }
}

// ---------------------------------------------------------------------------
// Runner-report golden: the full deterministic content of a matrix of runs
// ---------------------------------------------------------------------------

#ifndef PQS_SOURCE_DIR
#define PQS_SOURCE_DIR "."
#endif

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

struct GoldenCase {
  const char* name;
  OracleFamily family;
  const BugId* bug;  // null: clean engine
  bool rectify;
  int txn_sessions;
};

// Renders every deterministic part of a report: each RunStats field in
// list order, the unsupported flag (always 0), every registry counter in
// enum order, and per finding its oracle, message, pivot, statement count,
// last statement, and hashes of the full rendered script and of the flight
// events.
std::string RenderGoldenReport(const RunReport& r) {
  std::string out;
  auto field = [&out](const std::string& name, uint64_t v) {
    out += "  " + name + "=" + std::to_string(v) + "\n";
  };
  RunStats::ForEachField(
      [&out](const char* name, size_t width, const uint64_t* v) {
        out += "  " + std::string(name) + "=";
        for (size_t i = 0; i < width; ++i) {
          out += std::to_string(v[i]);
          out += i + 1 < width ? "," : "\n";
        }
      },
      r.stats);
  field("unsupported_engine", r.unsupported_engine ? 1 : 0);
  for (size_t i = 0; i < static_cast<size_t>(obs::Counter::kCount_); ++i) {
    auto c = static_cast<obs::Counter>(i);
    field(std::string("counter.") + obs::CounterName(c), r.metrics.counter(c));
  }
  field("findings", r.findings.size());
  for (const Finding& f : r.findings) {
    std::string pivot;
    for (const SqlValue& v : f.pivot) {
      if (!pivot.empty()) pivot += ", ";
      pivot += v.ToDisplay();
    }
    std::string flight;
    for (const obs::FlightEvent& e : f.flight) {
      flight += obs::FormatFlightEvent(e);
      flight += '\n';
    }
    out += "  - oracle=" + std::string(OracleName(f.oracle)) +
           " statements=" + std::to_string(f.statements.size()) +
           " script_fnv=" + Hex(Fnv1a(RenderScript(f.statements, f.dialect))) +
           " flight_events=" + std::to_string(f.flight.size()) +
           " flight_fnv=" + Hex(Fnv1a(flight)) + "\n";
    out += "    message: " + f.message + "\n";
    out += "    pivot: (" + pivot + ")\n";
    out += "    last: " +
           (f.statements.empty() ? std::string()
                                 : RenderStmt(*f.statements.back(), f.dialect)) +
           "\n";
  }
  return out;
}

// One run of `c`.
RunReport RunGoldenCase(const GoldenCase& c, int workers, bool stop_on_first,
                        int databases) {
  RunnerOptions options;
  options.seed = c.txn_sessions > 1 ? 777 : 4242;
  options.databases = databases;
  options.queries_per_database = c.txn_sessions > 1 ? 20 : 10;
  options.workers = workers;
  options.stop_on_first_finding = stop_on_first;
  options.family = c.family;
  options.gen.rectify = c.rectify;
  options.gen.txn_sessions = c.txn_sessions;
  Dialect dialect = c.bug != nullptr ? minidb::LookupBug(*c.bug).dialect
                                     : Dialect::kSqliteFlex;
  BugConfig bugs = c.bug != nullptr ? BugConfig::Single(*c.bug) : BugConfig();
  EngineFactory factory = [dialect, bugs]() -> ConnectionPtr {
    return std::make_unique<minidb::Database>(dialect, bugs);
  };
  return PqsRunner(factory, options).Run();
}

std::string RenderGoldenMatrix(int workers) {
  static constexpr BugId kStateBug = BugId::kDeleteOverrun;
  static constexpr BugId kPivotBug = BugId::kJoinDupRightMatch;
  static constexpr BugId kErrorBug = BugId::kBetweenSwapError;
  static constexpr BugId kCrashBug = BugId::kDeepExprCrash;
  static constexpr BugId kMutationCrashBug = BugId::kUpdateSetOrCrash;
  static constexpr BugId kMutationErrorBug = BugId::kReindexPartialError;
  static constexpr BugId kNorecBug = BugId::kIndexedOrSkip;
  static constexpr BugId kTlpBug = BugId::kAggEmptyGroupZero;
  static constexpr BugId kLostUpdate = BugId::kTxnLostUpdate;
  static constexpr BugId kDirtyRead = BugId::kTxnDirtyRead;
  static constexpr BugId kStaleIndex = BugId::kTxnRollbackStaleIndex;
  const OracleFamily kPqs = OracleFamily::kContainment;
  const OracleFamily kNorec = OracleFamily::kNorec;
  const OracleFamily kTlp = OracleFamily::kTlp;
  const GoldenCase cases[] = {
      {"containment clean", kPqs, nullptr, true, 1},
      {"containment no-rectify", kPqs, nullptr, false, 1},
      {"containment state-divergence bug", kPqs, &kStateBug, true, 1},
      {"containment pivot bug", kPqs, &kPivotBug, true, 1},
      {"containment error bug", kPqs, &kErrorBug, true, 1},
      {"containment crash bug", kPqs, &kCrashBug, true, 1},
      {"containment mutation crash bug", kPqs, &kMutationCrashBug, true, 1},
      {"containment mutation error bug", kPqs, &kMutationErrorBug, true, 1},
      {"norec clean", kNorec, nullptr, true, 1},
      {"norec bug", kNorec, &kNorecBug, true, 1},
      {"norec state-divergence bug", kNorec, &kStateBug, true, 1},
      {"tlp clean", kTlp, nullptr, true, 1},
      {"tlp bug", kTlp, &kTlpBug, true, 1},
      {"tlp error bug", kTlp, &kErrorBug, true, 1},
      {"txn clean", kPqs, nullptr, true, 3},
      {"txn lost-update", kPqs, &kLostUpdate, true, 3},
      {"txn dirty-read", kPqs, &kDirtyRead, true, 3},
      {"txn rollback-stale-index", kPqs, &kStaleIndex, true, 3},
      {"txn error bug", kPqs, &kErrorBug, true, 3},
      {"txn crash bug", kPqs, &kCrashBug, true, 3},
  };
  std::string out;
  for (const GoldenCase& c : cases) {
    for (bool stop_on_first : {false, true}) {
      out += "=== " + std::string(c.name) +
             (stop_on_first ? " stop_on_first_finding" : "") + "\n";
      int databases = c.txn_sessions > 1 ? 60 : 8;
      out += RenderGoldenReport(
          RunGoldenCase(c, workers, stop_on_first, databases));
    }
  }
  return out;
}

// Pins the runner's whole deterministic output over containment (clean,
// unrectified, and with state-divergence, pivot, error and crash bugs),
// NoREC, TLP and the interleaved-transaction branch, with and without
// stop_on_first_finding.
// The same golden must hold at 1 and 4 workers. Regenerate with
// PQS_UPDATE_GOLDEN=1 only for an intended behaviour change.
void TestRunnerReportGolden() {
  const std::string path =
      std::string(PQS_SOURCE_DIR) + "/tests/golden/runner_reports.golden";
  std::string sequential = RenderGoldenMatrix(1);
  std::string sharded = RenderGoldenMatrix(4);
  CHECK(sequential == sharded);
  test::CheckGolden(path, sequential);
}

void TestDifferentSeedsDiffer() {
  // Not a strict requirement of the API, but a sanity check that the seed
  // actually feeds the generator.
  RunReport a = BuggyRun(1);
  RunReport b = BuggyRun(2);
  CHECK(!(a.stats == b.stats));
}

}  // namespace
}  // namespace pqs

int main() {
  pqs::TestSameSeedSameReport();
  pqs::TestShardedRunnerMatchesSequential();
  pqs::TestShardedCampaignMatchesSequential();
  pqs::TestTelemetryOnOffSameReport();
  pqs::TestShardedTxnWorkloadMatchesSequential();
  pqs::TestDifferentSeedsDiffer();
  pqs::TestRunnerReportGolden();
  return pqs::test::Summary("test_determinism");
}
