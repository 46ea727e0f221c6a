// Telemetry context: wires the metrics registry and flight recorder to the
// code that emits into them, without plumbing a handle through every layer.
//
// A SessionTelemetry is created per fuzzed database session and installed in
// a thread-local slot for the session's duration (each session runs entirely
// on one thread — the sharding invariant the runner already relies on).
// Engine internals (BufferPool, SqliteConnection) emit through the free
// helpers below, which are a TLS load plus a null check; engines also run
// outside any session (unit tests, reduction probes), and then every emit
// is a no-op.
//
// Determinism contract (DESIGN.md §13): counters and the flight ring are
// keyed to the session's logical clock — the count of engine statements
// executed — never wall time. Phase spans time wall micros only, only
// behind SetPhaseWallClock(true), which benches opt into, and are excluded
// from deterministic exports.
#ifndef PQS_SRC_OBS_TELEMETRY_H_
#define PQS_SRC_OBS_TELEMETRY_H_

#include <cstdint>

#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"

namespace pqs {
namespace obs {

// Bench opt-in: ScopedPhase records wall-clock span durations. Never
// enabled on deterministic campaign paths.
void SetPhaseWallClock(bool enabled);
bool PhaseWallClockEnabled();

// All telemetry state for one database session.
struct SessionTelemetry {
  explicit SessionTelemetry(size_t flight_capacity =
                                FlightRecorder::kDefaultCapacity)
      : recorder(flight_capacity) {}

  MetricsRegistry metrics;
  FlightRecorder recorder;
  uint64_t clock = 0;  // logical clock: engine statements executed
};

// The session installed on this thread, or nullptr.
SessionTelemetry* CurrentTelemetry();

// Installs `session` in the thread-local slot for this scope (null leaves
// emits as no-ops).
class ScopedSessionTelemetry {
 public:
  explicit ScopedSessionTelemetry(SessionTelemetry* session);
  ~ScopedSessionTelemetry();

  ScopedSessionTelemetry(const ScopedSessionTelemetry&) = delete;
  ScopedSessionTelemetry& operator=(const ScopedSessionTelemetry&) = delete;

 private:
  SessionTelemetry* previous_;
};

// ---- Emit helpers (hot path: TLS load + null branch when idle) ----

inline void Count(Counter c, uint64_t delta = 1) {
  SessionTelemetry* t = CurrentTelemetry();
  if (t != nullptr) t->metrics.Count(c, delta);
}

// One engine statement executed: advances the logical clock and drops a
// kStatement event in the ring (the statement itself is tallied in
// RunStats, not here). `kind_ordinal` is the StmtKind, `failed` marks
// StatementStatus::kError.
inline void CountStatement(uint32_t kind_ordinal, bool failed) {
  SessionTelemetry* t = CurrentTelemetry();
  if (t == nullptr) return;
  ++t->clock;
  if (failed) t->metrics.Count(Counter::kStatementErrors);
  t->recorder.Emit(t->clock, EventKind::kStatement, kind_ordinal,
                   failed ? 1u : 0u);
}

inline void Emit(EventKind kind, uint32_t a = 0, uint32_t b = 0) {
  SessionTelemetry* t = CurrentTelemetry();
  if (t != nullptr) t->recorder.Emit(t->clock, kind, a, b);
}

inline void PivotSelected(uint32_t table_ordinal, uint32_t row_count) {
  SessionTelemetry* t = CurrentTelemetry();
  if (t == nullptr) return;
  t->metrics.Count(Counter::kPivotSelections);
  t->recorder.Emit(t->clock, EventKind::kPivotSelected, table_ordinal,
                   row_count);
}

// Scoped wall-clock span over one Algorithm-1 phase. Does nothing unless a
// session is installed and the bench opt-in is on; then records the span's
// wall micros into the phase's histogram. It never touches the ring.
class ScopedPhase {
 public:
  explicit ScopedPhase(Phase phase);
  ~ScopedPhase();

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  SessionTelemetry* session_;  // captured at entry; null when not timing
  Phase phase_;
  uint64_t start_wall_us_ = 0;
};

}  // namespace obs
}  // namespace pqs

#endif  // PQS_SRC_OBS_TELEMETRY_H_
