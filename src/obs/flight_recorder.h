// Flight recorder: a fixed-capacity ring of recent events, dumped into every
// Finding so a bug report ships with its own provenance trace.
//
// The recorder is per *session* (one fuzzed database), not per process or per
// worker thread: a session always replays identically from its stream seed,
// so the ring contents at the moment a finding fires are a pure function of
// (seed, statement index) — byte-identical whether the campaign ran with 1
// worker or 16. Events are small PODs (no strings, no allocation after
// construction); formatting to text happens only when a dump is rendered
// into a report.
//
// This subsumes the bespoke BufferPool::set_trace/eviction_log API: eviction
// and cache-invalidation events from the storage layer now land in the same
// ring as statement and pivot events from the runner, in logical-clock order.
#ifndef PQS_SRC_OBS_FLIGHT_RECORDER_H_
#define PQS_SRC_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace pqs {
namespace obs {

enum class EventKind : uint8_t {
  kStatement = 0,        // a=StmtKind, b=StatementStatus (0 ok, 1 error)
  kPivotSelected,        // a=table ordinal, b=row count at selection
  kEviction,             // a=table id, b=page id  (from BufferPool)
  kCacheInvalidation,    // a=frames dropped      (buffer-pool flush)
  kOracleCheck,          // a=oracle ordinal, b=1 if it fired
  kFindingRecorded,      // a=oracle ordinal
  kTxnBegin,             // a=session, b=snapshot timestamp
  kTxnCommit,            // a=session, b=commit timestamp
  kTxnAbort,             // a=session, b=1 conflict / 0 explicit ROLLBACK
};

const char* EventKindName(EventKind kind);

// One recorded event. `tick` is the session's logical clock: the number of
// engine statements executed so far (never wall time — see DESIGN.md §13).
struct FlightEvent {
  uint64_t tick = 0;
  EventKind kind = EventKind::kStatement;
  uint32_t a = 0;
  uint32_t b = 0;
};

// Renders one event as a stable single-line string for reports.
std::string FormatFlightEvent(const FlightEvent& e);

class FlightRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 256;

  explicit FlightRecorder(size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {
    ring_.reserve(capacity_);
  }

  void Emit(uint64_t tick, EventKind kind, uint32_t a = 0, uint32_t b = 0) {
    FlightEvent e;
    e.tick = tick;
    e.kind = kind;
    e.a = a;
    e.b = b;
    if (ring_.size() < capacity_) {
      ring_.push_back(e);
    } else {
      ring_[next_ % capacity_] = e;
    }
    ++next_;
  }

  // Events oldest-first. At most `capacity()` entries; earlier events have
  // been overwritten once total_emitted() exceeds capacity().
  std::vector<FlightEvent> Dump() const;

  size_t capacity() const { return capacity_; }
  uint64_t total_emitted() const { return next_; }
  void Clear() {
    ring_.clear();
    next_ = 0;
  }

 private:
  size_t capacity_;
  std::vector<FlightEvent> ring_;
  uint64_t next_ = 0;  // total events ever emitted
};

}  // namespace obs
}  // namespace pqs

#endif  // PQS_SRC_OBS_FLIGHT_RECORDER_H_
