// Telemetry context: wires the metrics registry and flight recorder to the
// code that emits into them, without plumbing a handle through every layer.
//
// A SessionTelemetry is created per fuzzed database session and installed in
// a thread-local slot for the session's duration (each session runs entirely
// on one thread — the sharding invariant the runner already relies on).
// Engine internals (BufferPool, SqliteConnection) emit through the free
// helpers below, which are a TLS load plus a null check when no session is
// installed. The process-wide kill switch
// disables installation itself, so with telemetry off the per-event cost is
// the null branch and nothing else — enforced by the perf-smoke gate.
//
// Determinism contract (DESIGN.md §13): everything emitted in deterministic
// mode is keyed to the session's logical clock — the count of engine
// statements executed — never wall time. Wall-clock span durations exist
// only behind SetPhaseWallClock(true), which benches opt into, and are
// excluded from deterministic exports.
#ifndef PQS_SRC_OBS_TELEMETRY_H_
#define PQS_SRC_OBS_TELEMETRY_H_

#include <cstdint>

#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"

namespace pqs {
namespace obs {

// Process-wide kill switch. Safe to toggle between runs; not meant to be
// flipped while sessions are in flight.
void SetTelemetryEnabled(bool enabled);
bool TelemetryEnabled();

// Bench opt-in: also record wall-clock span durations. Never enabled on
// deterministic campaign paths.
void SetPhaseWallClock(bool enabled);
bool PhaseWallClockEnabled();

// All telemetry state for one database session.
struct SessionTelemetry {
  explicit SessionTelemetry(size_t flight_capacity =
                                FlightRecorder::kDefaultCapacity)
      : recorder(flight_capacity) {}

  MetricsRegistry metrics;
  FlightRecorder recorder;
  uint64_t clock = 0;      // logical clock: engine statements executed
  uint32_t span_depth = 0; // current phase-span nesting
};

// The session installed on this thread, or nullptr.
SessionTelemetry* CurrentTelemetry();

// Installs `session` in the thread-local slot for this scope. Installs
// nothing (leaving emits as no-ops) when the kill switch is off or
// `session` is null.
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

// One engine statement executed: advances the logical clock, counts it, and
// drops a kStatement event in the ring. `kind_ordinal` is the StmtKind,
// `failed` marks StatementStatus::kError.
inline void CountStatement(uint32_t kind_ordinal, bool failed) {
  SessionTelemetry* t = CurrentTelemetry();
  if (t == nullptr) return;
  ++t->clock;
  t->metrics.Count(Counter::kStatementsExecuted);
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

// Scoped span over one Algorithm-1 phase. Records the logical-tick delta
// into the phase histogram (plus wall micros when the bench opt-in is on)
// and bracketing kPhaseBegin/kPhaseEnd events in the ring.
class ScopedPhase {
 public:
  explicit ScopedPhase(Phase phase);
  ~ScopedPhase();

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  SessionTelemetry* session_;  // captured at entry; null when idle
  Phase phase_;
  uint64_t start_tick_ = 0;
  uint64_t start_wall_us_ = 0;
};

}  // namespace obs
}  // namespace pqs

#endif  // PQS_SRC_OBS_TELEMETRY_H_
