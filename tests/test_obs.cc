// Telemetry subsystem: JSON serializer units, exact-bucket histogram merge
// identity, flight-recorder ring wraparound, the logical clock and the
// opt-in wall-clock phase spans (no-ops without a session), and end-to-end
// checks that runner/campaign findings carry a flight-recorder dump that
// reaches back over their last 64 statements and whose merged metrics are
// worker-count-invariant.
//
// Accepts `--workers N` (the CI ThreadSanitizer job passes 4); every
// property is worker-count-invariant.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/minidb/database.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/telemetry.h"
#include "src/pqs/campaign.h"
#include "src/pqs/runner.h"
#include "tests/test_util.h"

namespace pqs {
namespace {

int property_workers = 4;

// ---------------------------------------------------------------------------
// JSON serializer
// ---------------------------------------------------------------------------

void TestJsonBuilder() {
  CHECK_EQ(obs::JsonEscape("plain"), std::string("plain"));
  CHECK_EQ(obs::JsonEscape("a\"b\\c\nd"), std::string("a\\\"b\\\\c\\nd"));
  CHECK_EQ(obs::JsonEscape(std::string(1, '\x01')), std::string("\\u0001"));
  CHECK_EQ(obs::JsonNumber(1.25, 2), std::string("1.25"));
  CHECK_EQ(obs::JsonNumber(0.0 / 0.0, 2), std::string("0.00"));

  obs::JsonBuilder jb;
  jb.BeginObject();
  jb.Field("n", static_cast<uint64_t>(7));
  jb.Field("s", std::string("a\"b"));
  jb.Field("f", 2.5, 1);
  jb.Field("b", true);
  jb.BeginArray("arr");
  jb.Element(static_cast<uint64_t>(1));
  jb.Element(static_cast<uint64_t>(2));
  jb.EndArray();
  jb.BeginObject("o");
  jb.EndObject();
  jb.EndObject();
  CHECK_EQ(jb.str(),
           std::string("{\"n\": 7, \"s\": \"a\\\"b\", \"f\": 2.5, "
                       "\"b\": true, \"arr\": [1, 2], \"o\": {}}"));
}

// ---------------------------------------------------------------------------
// Histogram / registry merge identity
// ---------------------------------------------------------------------------

void TestHistogramExactBucketMerge() {
  // Exact buckets: splitting a value stream across N histograms and
  // merging equals recording it all into one — byte-level, via ToJson.
  std::vector<uint64_t> values;
  for (uint64_t i = 0; i < 500; ++i) values.push_back((i * 37) % 4096);
  values.push_back(0);
  values.push_back(1u << 20);  // clamps to the open-ended last bucket

  obs::MetricsRegistry single;
  for (uint64_t v : values) {
    single.RecordPhaseWallMicros(obs::Phase::kGenerate, v);
  }

  constexpr int kShards = 4;
  obs::MetricsRegistry shards[kShards];
  for (size_t i = 0; i < values.size(); ++i) {
    shards[i % kShards].RecordPhaseWallMicros(obs::Phase::kGenerate,
                                              values[i]);
  }
  obs::MetricsRegistry merged;
  for (int s = 0; s < kShards; ++s) merged.Merge(shards[s]);

  CHECK_EQ(merged.ToJson(true), single.ToJson(true));
  const obs::Histogram& h = merged.phase_wall_micros(obs::Phase::kGenerate);
  CHECK_EQ(h.count(), static_cast<uint64_t>(values.size()));
  CHECK_EQ(h.max(), static_cast<uint64_t>(1u << 20));
  CHECK(h.bucket(0) > 0);  // the explicit zero landed in bucket 0

  // Counters add.
  obs::MetricsRegistry a;
  obs::MetricsRegistry b;
  a.Count(obs::Counter::kPoolHits, 3);
  b.Count(obs::Counter::kPoolHits, 4);
  a.Merge(b);
  CHECK_EQ(a.counter(obs::Counter::kPoolHits), static_cast<uint64_t>(7));

  // Wall-clock histograms appear only under include_wall.
  CHECK(single.ToJson(false).find("phase_wall_micros") == std::string::npos);
  CHECK(single.ToJson(true).find("phase_wall_micros") != std::string::npos);
  CHECK_EQ(single.ToJson(false), obs::MetricsRegistry().ToJson(false));
}

// ---------------------------------------------------------------------------
// Flight recorder ring
// ---------------------------------------------------------------------------

void TestRingWraparound() {
  obs::FlightRecorder ring(8);
  CHECK_EQ(ring.capacity(), static_cast<size_t>(8));
  for (uint32_t i = 1; i <= 20; ++i) {
    ring.Emit(i, obs::EventKind::kStatement, i, 0);
  }
  CHECK_EQ(ring.total_emitted(), static_cast<uint64_t>(20));
  std::vector<obs::FlightEvent> dump = ring.Dump();
  CHECK_EQ(dump.size(), static_cast<size_t>(8));
  // Oldest-first: events 13..20 survive, in emission order.
  for (size_t i = 0; i < dump.size(); ++i) {
    CHECK_EQ(dump[i].tick, static_cast<uint64_t>(13 + i));
    CHECK_EQ(dump[i].a, static_cast<uint32_t>(13 + i));
  }
  // A short ring dumps exactly what was emitted.
  obs::FlightRecorder small(8);
  small.Emit(1, obs::EventKind::kEviction, 2, 3);
  std::vector<obs::FlightEvent> one = small.Dump();
  CHECK_EQ(one.size(), static_cast<size_t>(1));
  CHECK(one[0].kind == obs::EventKind::kEviction);
  CHECK_EQ(obs::FormatFlightEvent(one[0]), std::string("t=1 evict a=2 b=3"));
}

// ---------------------------------------------------------------------------
// Logical clock and wall-clock spans
// ---------------------------------------------------------------------------

// Three statements (one failed) inside nested phase spans.
void EmitNestedSpans() {
  obs::ScopedPhase outer(obs::Phase::kOracleCheck);
  {
    obs::ScopedPhase inner(obs::Phase::kEngineExecute);
    obs::CountStatement(0, false);
    obs::CountStatement(0, true);
  }
  obs::CountStatement(0, false);
}

void TestLogicalClockAndWallSpans() {
  for (bool wall : {false, true}) {
    obs::SetPhaseWallClock(wall);
    obs::SessionTelemetry session;
    {
      obs::ScopedSessionTelemetry install(&session);
      CHECK(obs::CurrentTelemetry() == &session);
      EmitNestedSpans();
    }
    // With no session installed every emit is a no-op: engines run outside
    // sessions in unit tests and reduction probes.
    CHECK(obs::CurrentTelemetry() == nullptr);
    EmitNestedSpans();
    obs::Count(obs::Counter::kPoolHits);
    obs::Emit(obs::EventKind::kEviction, 1, 2);
    obs::PivotSelected(0, 1);
    obs::SetPhaseWallClock(false);
    CHECK_EQ(session.metrics.counter(obs::Counter::kPoolHits),
             static_cast<uint64_t>(0));
    CHECK_EQ(session.metrics.counter(obs::Counter::kPivotSelections),
             static_cast<uint64_t>(0));
    // The logical clock advanced once per statement.
    CHECK_EQ(session.clock, static_cast<uint64_t>(3));
    CHECK_EQ(session.metrics.counter(obs::Counter::kStatementErrors),
             static_cast<uint64_t>(1));
    // The ring holds the statements and nothing else: spans emit no events.
    std::vector<obs::FlightEvent> dump = session.recorder.Dump();
    CHECK_EQ(dump.size(), static_cast<size_t>(3));
    for (size_t i = 0; i < dump.size(); ++i) {
      CHECK(dump[i].kind == obs::EventKind::kStatement);
      CHECK_EQ(dump[i].tick, static_cast<uint64_t>(i + 1));
      CHECK_EQ(dump[i].b, static_cast<uint32_t>(i == 1 ? 1 : 0));  // failed
    }
    // Without the opt-in spans record nothing; with it, each closed span
    // records one wall sample.
    uint64_t samples = wall ? 1 : 0;
    for (obs::Phase p :
         {obs::Phase::kOracleCheck, obs::Phase::kEngineExecute}) {
      CHECK_EQ(session.metrics.phase_wall_micros(p).count(), samples);
    }
    CHECK_EQ(session.metrics.phase_wall_micros(obs::Phase::kGenerate).count(),
             static_cast<uint64_t>(0));
  }
}

// ---------------------------------------------------------------------------
// End-to-end: runner metrics worker identity + finding provenance
// ---------------------------------------------------------------------------

RunReport BuggyRun(OracleFamily family, int workers) {
  RunnerOptions options;
  options.seed = 2020;
  options.databases = 24;
  options.queries_per_database = 12;
  options.workers = workers;
  options.family = family;
  options.gen.explicit_join_probability = 0.5;
  options.gen.order_by_probability = 0.4;
  EngineFactory factory = []() -> ConnectionPtr {
    return std::make_unique<minidb::Database>(
        Dialect::kSqliteFlex,
        BugConfig::Single(BugId::kPartialIndexIsNotInference));
  };
  PqsRunner runner(factory, options);
  return runner.Run();
}

void TestWorkerMetricIdentity() {
  for (OracleFamily family : {OracleFamily::kContainment,
                              OracleFamily::kNorec, OracleFamily::kTlp}) {
    RunReport sequential = BuggyRun(family, 1);
    RunReport sharded = BuggyRun(family, property_workers);
    // The merged registry is byte-identical across worker counts — the
    // same guarantee RunStats::Merge gives the classic counters.
    CHECK_EQ(sharded.metrics.ToJson(false), sequential.metrics.ToJson(false));
    // The registry actually carried the engine-side counters.
    CHECK(sequential.metrics.counter(obs::Counter::kPoolHits) > 0);
    CHECK(sequential.metrics.counter(obs::Counter::kPivotSelections) > 0 ||
          family != OracleFamily::kContainment);
    // Finding provenance: every finding ships a non-empty flight dump
    // whose final event is its own kFindingRecorded marker, identically
    // across worker counts (the ring is per-session, not per-worker).
    CHECK(!sequential.findings.empty());
    CHECK_EQ(sharded.findings.size(), sequential.findings.size());
    for (size_t i = 0; i < sequential.findings.size(); ++i) {
      const Finding& f = sequential.findings[i];
      CHECK(!f.flight.empty());
      CHECK(f.flight.back().kind == obs::EventKind::kFindingRecorded);
      CHECK_EQ(f.flight.back().a, static_cast<uint32_t>(f.oracle));
      if (i < sharded.findings.size()) {
        const Finding& g = sharded.findings[i];
        CHECK_EQ(g.flight.size(), f.flight.size());
        for (size_t e = 0; e < f.flight.size() && e < g.flight.size(); ++e) {
          CHECK(f.flight[e].kind == g.flight[e].kind);
          CHECK_EQ(f.flight[e].tick, g.flight[e].tick);
          CHECK_EQ(f.flight[e].a, g.flight[e].a);
          CHECK_EQ(f.flight[e].b, g.flight[e].b);
        }
      }
    }
  }
}

// Flight-ring reach: with T the finding's last tick, the dump holds
// exactly one kStatement event for each tick from max(1, T-63) to T, so a
// finding always explains at least its last 64 statements.
void CheckFlightReach(const Finding& finding, const char* name) {
  CHECK_MSG(!finding.flight.empty(), "bug %s: empty flight dump", name);
  if (finding.flight.empty()) return;
  uint64_t last = finding.flight.back().tick;
  uint64_t first = last > 64 ? last - 63 : 1;
  std::vector<int> seen(last + 1, 0);
  for (const obs::FlightEvent& e : finding.flight) {
    if (e.kind == obs::EventKind::kStatement && e.tick <= last) ++seen[e.tick];
  }
  uint64_t tick = first;
  while (tick <= last && seen[tick] == 1) ++tick;
  CHECK_MSG(tick > last, "bug %s: tick %llu of %llu has %d statement events",
            name, static_cast<unsigned long long>(tick),
            static_cast<unsigned long long>(last),
            tick <= last ? seen[tick] : 1);
}

// Campaign sweep over the whole bug registry: every detected finding —
// whatever oracle fired (containment, error, crash, NoREC, TLP) — still
// carries its flight dump after reduction, reaching back 64 statements.
void TestCampaignFindingsCarryFlight() {
  CampaignOptions options;
  options.seed = 20200604;
  options.databases_per_bug = 120;
  options.queries_per_database = 20;
  options.reduce = true;
  options.workers = property_workers;
  CampaignReport report = RunCampaign(Dialect::kSqliteFlex, options);
  size_t detected = 0;
  for (const BugHuntResult& r : report.results) {
    if (!r.detected) continue;
    ++detected;
    CheckFlightReach(r.reduced, r.name);
  }
  CHECK(detected > 0);
}

}  // namespace
}  // namespace pqs

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      pqs::property_workers = std::atoi(argv[i + 1]);
      if (pqs::property_workers < 1) pqs::property_workers = 1;
      ++i;
    }
  }
  pqs::TestJsonBuilder();
  pqs::TestHistogramExactBucketMerge();
  pqs::TestRingWraparound();
  pqs::TestLogicalClockAndWallSpans();
  pqs::TestWorkerMetricIdentity();
  pqs::TestCampaignFindingsCarryFlight();
  return pqs::test::Summary("test_obs");
}
