#include "src/obs/flight_recorder.h"

#include <cstdio>

namespace pqs {
namespace obs {

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kStatement:
      return "stmt";
    case EventKind::kPivotSelected:
      return "pivot";
    case EventKind::kEviction:
      return "evict";
    case EventKind::kCacheInvalidation:
      return "cache_invalidate";
    case EventKind::kOracleCheck:
      return "oracle_check";
    case EventKind::kFindingRecorded:
      return "finding";
    case EventKind::kTxnBegin:
      return "txn_begin";
    case EventKind::kTxnCommit:
      return "txn_commit";
    case EventKind::kTxnAbort:
      return "txn_abort";
  }
  return "?";
}

std::string FormatFlightEvent(const FlightEvent& e) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "t=%llu %s a=%u b=%u",
                static_cast<unsigned long long>(e.tick), EventKindName(e.kind),
                e.a, e.b);
  return buf;
}

std::vector<FlightEvent> FlightRecorder::Dump() const {
  std::vector<FlightEvent> out;
  out.reserve(ring_.size());
  if (next_ <= capacity_) {
    out = ring_;
  } else {
    size_t head = next_ % capacity_;  // oldest surviving event
    for (size_t i = 0; i < capacity_; ++i) {
      out.push_back(ring_[(head + i) % capacity_]);
    }
  }
  return out;
}

}  // namespace obs
}  // namespace pqs
