#include "src/obs/telemetry.h"

#include <atomic>
#include <chrono>

namespace pqs {
namespace obs {

namespace {

std::atomic<bool> g_phase_wall_clock{false};

thread_local SessionTelemetry* t_session = nullptr;

uint64_t WallMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

void SetPhaseWallClock(bool enabled) {
  g_phase_wall_clock.store(enabled, std::memory_order_relaxed);
}

bool PhaseWallClockEnabled() {
  return g_phase_wall_clock.load(std::memory_order_relaxed);
}

SessionTelemetry* CurrentTelemetry() { return t_session; }

ScopedSessionTelemetry::ScopedSessionTelemetry(SessionTelemetry* session)
    : previous_(t_session) {
  t_session = session;
}

ScopedSessionTelemetry::~ScopedSessionTelemetry() { t_session = previous_; }

ScopedPhase::ScopedPhase(Phase phase)
    : session_(PhaseWallClockEnabled() ? t_session : nullptr), phase_(phase) {
  if (session_ != nullptr) start_wall_us_ = WallMicros();
}

ScopedPhase::~ScopedPhase() {
  if (session_ == nullptr) return;
  session_->metrics.RecordPhaseWallMicros(phase_,
                                          WallMicros() - start_wall_us_);
}

}  // namespace obs
}  // namespace pqs
