// Causal trace contexts: a 64-bit trace id (plus the root span that
// anchors it) minted at every Controller public entry point (one switch or
// a chain) and propagated through the whole stack — deploy/chain
// transactions, per-hop update-engine op-log writes, the data-plane table-state bump and
// the packet observer — so every span, monitor event, alert and
// flight-recorder journey carries the id of the control operation that
// caused the table state it executed against. ctrl::trace_report() joins
// the pieces back into one cross-tier causal story.
//
// Ids are minted from a per-Telemetry monotonic counter (1, 2, 3, ...):
// deterministic for identical runs, never 0 (0 = "no trace"). After
// Telemetry::clear() the counter restarts, so ids can recur across clears —
// trace_report() always describes the *current* contents under an id.
#pragma once

#include <cstdint>
#include <string>

namespace p4runpro::obs {

/// The causal identity of one in-flight control operation.
struct TraceContext {
  std::uint64_t trace_id = 0;   ///< 0 = no active trace
  /// 1-based index (into SpanTracer::spans()) of the operation's root span,
  /// 0 while none has opened yet. The tracer fills it in when the first
  /// span opens under a freshly minted context.
  std::uint64_t parent_span = 0;

  [[nodiscard]] bool valid() const noexcept { return trace_id != 0; }
};

/// Canonical rendering of a trace id for exports and reports: 16 lowercase
/// hex digits, zero-padded (sorts and greps uniformly across artifacts).
[[nodiscard]] inline std::string format_trace_id(std::uint64_t trace_id) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[trace_id & 0xF];
    trace_id >>= 4;
  }
  return out;
}

}  // namespace p4runpro::obs
