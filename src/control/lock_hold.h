// Session-lock occupancy instrumentation. A LockHoldTimer spans one locked
// control session and observes the VIRTUAL milliseconds the session lock
// was actually held into the "ctrl.commit.lock_hold_ms" histogram — the
// async channel's headline win: a pipelined commit parks off-lock while the
// writer drains the channel, so its lock-hold time collapses to the
// submit + settle slivers even though the deployment's update delay is
// unchanged. pause()/resume() bracket the unlocked park so the histogram
// reports held time, not wall-to-wall session time. Held time sums integer
// nanoseconds and converts once: a difference of two millisecond readings
// depends on the absolute time, not only on the interval.
#pragma once

#include "common/clock.h"
#include "obs/telemetry.h"

namespace p4runpro::ctrl {

class LockHoldTimer {
 public:
  /// Start timing (call with the lock held). Null telemetry = inert.
  LockHoldTimer(SimClock& clock, obs::Telemetry* telemetry)
      : clock_(clock), telemetry_(telemetry), start_ns_(clock.now_ns()) {}
  LockHoldTimer(const LockHoldTimer&) = delete;
  LockHoldTimer& operator=(const LockHoldTimer&) = delete;

  ~LockHoldTimer() {
    if (telemetry_ == nullptr) return;
    pause();
    telemetry_->metrics.histogram("ctrl.commit.lock_hold_ms")
        .observe(static_cast<double>(held_ns_) / 1e6);
  }

  /// Call immediately before releasing the lock mid-session.
  void pause() {
    if (paused_) return;
    held_ns_ += clock_.now_ns() - start_ns_;
    paused_ = true;
  }
  /// Call immediately after re-acquiring the lock.
  void resume() {
    if (!paused_) return;
    start_ns_ = clock_.now_ns();
    paused_ = false;
  }

 private:
  SimClock& clock_;
  obs::Telemetry* telemetry_;
  SimClock::Nanos start_ns_;
  SimClock::Nanos held_ns_ = 0;
  bool paused_ = false;
};

}  // namespace p4runpro::ctrl
