// Metrics registry: named counters and exact-bucket wall-clock histograms.
//
// One registry per worker session, no atomics on the hot path, merged
// value-wise after the run. Counter increments are a pure function of the
// session's seed, so the merged counters of an N-worker campaign are
// byte-identical to the 1-worker run. The wall-clock phase histograms
// (bench opt-in) have exact power-of-two buckets, so merge order never
// changes them, but they hold wall time and stay out of deterministic
// output.
//
// The registry counts what engines and other layers emit; the runner's own
// tallies — statements executed among them — live in pqs::RunStats only,
// never in both (DESIGN §13).
//
// Metric identity is a closed enum, not a string lookup: registration races
// and hash-order iteration are the two classic ways metric output goes
// nondeterministic, and a closed set sidesteps both. New metrics are a
// one-line enum + name-table addition.
#ifndef PQS_SRC_OBS_METRICS_H_
#define PQS_SRC_OBS_METRICS_H_

#include <cstdint>
#include <string>

namespace pqs {
namespace obs {

// Monotonic counters. Keep in sync with CounterName().
enum class Counter : uint8_t {
  kStatementErrors = 0,
  kPivotSelections,
  kPoolHits,           // buffer-pool page hits
  kPoolMisses,         //   "      "   page faults
  kPoolEvictions,
  kPoolWritebacks,
  // Always 0: SqliteConnection has no statement cache. Kept only because
  // perfbench/pqs_bench.cc reads them; they go with its next revision.
  kStmtCacheHits,
  kStmtCacheMisses,
  kCacheInvalidations,  // buffer-pool flushes
  kCount_,  // sentinel
};

// Algorithm-1 pipeline phases, in pipeline order. Keep in sync with
// PhaseName() and the phase_wall_micros section of BENCH_throughput.json.
enum class Phase : uint8_t {
  kGenerate = 0,
  kRectify,
  kRender,
  kEngineExecute,
  kGroundTruthReplay,
  kOracleCheck,
  kCount_,
};

const char* CounterName(Counter c);
const char* PhaseName(Phase p);

// Exact-bucket histogram: bucket i counts values in [2^(i-1), 2^i), with
// bucket 0 counting zeros and the last bucket open-ended. Merging adds
// bucket counts and sums — exact, so merge order never changes output.
class Histogram {
 public:
  static constexpr int kBuckets = 16;

  void Record(uint64_t value);
  void Merge(const Histogram& other);

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t max() const { return max_; }
  uint64_t bucket(int i) const { return buckets_[i]; }

 private:
  uint64_t buckets_[kBuckets] = {};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t max_ = 0;
};

class MetricsRegistry {
 public:
  void Count(Counter c, uint64_t delta = 1) {
    counters_[static_cast<size_t>(c)] += delta;
  }
  uint64_t counter(Counter c) const {
    return counters_[static_cast<size_t>(c)];
  }

  // Phase histograms record wall-clock micros per span, only in bench
  // opt-in mode; they are excluded from deterministic output
  // (ToJson(false)).
  void RecordPhaseWallMicros(Phase p, uint64_t micros) {
    phase_wall_us_[static_cast<size_t>(p)].Record(micros);
  }
  const Histogram& phase_wall_micros(Phase p) const {
    return phase_wall_us_[static_cast<size_t>(p)];
  }

  // Value-wise merge: counters add, histograms add.
  void Merge(const MetricsRegistry& other);

  // Compact JSON object: {"counters": {...}}. With include_wall the
  // per-phase wall-clock histograms are added as "phase_wall_micros";
  // deterministic consumers must pass false.
  std::string ToJson(bool include_wall) const;

 private:
  uint64_t counters_[static_cast<size_t>(Counter::kCount_)] = {};
  Histogram phase_wall_us_[static_cast<size_t>(Phase::kCount_)];
};

}  // namespace obs
}  // namespace pqs

#endif  // PQS_SRC_OBS_METRICS_H_
