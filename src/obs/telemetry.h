// The telemetry bundle every layer shares: one metrics registry, one span
// tracer, one per-program health monitor and its packet flight recorder.
// Components take a `Telemetry*` (optional, defaulted); when none is
// supplied they fall back to the process-wide default instance so ad-hoc
// harnesses and the bench binaries get telemetry for free.
//
// Sharing rules: the tracer and monitor are bound to the clock of the last
// controller constructed against the bundle, the pipeline observer is the
// bundle's monitor (last controller wins), and probe names collide
// last-writer-wins. Harnesses that need isolated observations (tests,
// multi-testbed experiments) construct their own Telemetry and pass it
// explicitly.
#pragma once

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "obs/trace_context.h"

namespace p4runpro::obs {

struct Telemetry {
  MetricsRegistry metrics;  ///< declared first: destroyed last, so probe
                            ///< owners (monitor, series) unregister safely
  SpanTracer tracer;
  FlightRecorder flight;
  ProgramHealthMonitor monitor;
  TimeSeriesStore series;

  /// The bundle's active causal trace context. obs::TraceScope mints a
  /// fresh trace id here at each controller public entry point (or adopts
  /// the existing one for nested entries); tracer spans and monitor events
  /// opened while it is valid carry its id.
  TraceContext active_trace;
  /// Next trace id to mint. Deterministic: monotonically increasing from 1
  /// per bundle (0 means "no trace"); clear() restarts it, so ids recycle
  /// across clears — trace reports are only meaningful within one epoch.
  std::uint64_t next_trace_id = 1;

  Telemetry() {
    monitor.set_flight_recorder(&flight);
    monitor.attach_metrics(&metrics);
    monitor.set_trace_context(&active_trace);
    monitor.set_series_store(&series);
    tracer.set_trace_context(&active_trace);
    series.set_alert_sink(&monitor);
    series.attach_self_probes(metrics);
  }

  void clear() {
    metrics.clear();
    tracer.clear();
    flight.clear();
    monitor.clear();
    series.clear();
    active_trace = TraceContext{};
    next_trace_id = 1;
    // clear() empties the registry, invalidating the monitor's cached
    // counter handles and both components' probes — re-attach against the
    // fresh registry.
    monitor.attach_metrics(&metrics);
    series.attach_self_probes(metrics);
  }
};

/// Process-wide default bundle (used when components get a null Telemetry*).
[[nodiscard]] Telemetry& default_telemetry();

/// `telemetry` if non-null, else the default bundle.
[[nodiscard]] inline Telemetry& telemetry_or_default(Telemetry* telemetry) {
  return telemetry != nullptr ? *telemetry : default_telemetry();
}

/// Null-safe span helper: no-op scope when `telemetry` is null.
[[nodiscard]] inline SpanTracer::Scope span(Telemetry* telemetry, std::string_view name,
                                            std::string_view cat = "") {
  if (telemetry == nullptr) return {};
  return telemetry->tracer.span(name, cat);
}

/// RAII causal-trace scope for controller public entry points. On
/// construction, mints a fresh trace id into the bundle's active context —
/// or, when a valid context is already active (a nested entry point, e.g.
/// an async session re-adopting its context after an off-lock park), adopts
/// it so the whole operation shares one id. Restores the previous context on
/// destruction. Inert when `telemetry` is null.
///
/// Thread discipline: the context is bundle-shared state — construct
/// TraceScope only inside the controller's locked regions (the same rule
/// the tracer already follows).
class TraceScope {
 public:
  TraceScope() = default;
  explicit TraceScope(Telemetry* telemetry) : telemetry_(telemetry) {
    if (telemetry_ == nullptr) return;
    prev_ = telemetry_->active_trace;
    if (!prev_.valid()) {
      telemetry_->active_trace =
          TraceContext{telemetry_->next_trace_id++, 0};
      minted_ = true;
    }
  }
  /// Re-adopt a previously captured context (async commit dance): a session
  /// that released the lock for a channel wait captures the active context
  /// before unlocking and re-installs it here after re-locking, so the
  /// finish-side spans and monitor events carry the operation's trace id.
  TraceScope(Telemetry* telemetry, TraceContext adopt) : telemetry_(telemetry) {
    if (telemetry_ == nullptr) return;
    prev_ = telemetry_->active_trace;
    telemetry_->active_trace = adopt;
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;
  ~TraceScope() {
    if (telemetry_ != nullptr) telemetry_->active_trace = prev_;
  }

  /// The operation's trace id (the adopted one for nested entries);
  /// 0 when inert.
  [[nodiscard]] std::uint64_t trace_id() const noexcept {
    return telemetry_ == nullptr ? 0 : telemetry_->active_trace.trace_id;
  }
  /// True when this scope minted a fresh id (outermost entry point).
  [[nodiscard]] bool minted() const noexcept { return minted_; }

 private:
  Telemetry* telemetry_ = nullptr;
  TraceContext prev_;
  bool minted_ = false;
};

}  // namespace p4runpro::obs
