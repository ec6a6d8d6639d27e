// Cross-tier causal trace report (the observability counterpart of the
// rollback journal): given one trace id — minted by obs::TraceScope at a
// Controller entry point (one switch or a chain) and propagated into tracer
// spans, monitor events, per-hop bfrt write spans and the data plane's table
// generation — assemble the operation's whole story from the telemetry
// bundle. The report links the control-plane side (phase spans, txn
// commit/rollback events, per-hop write batches) with the data-plane side
// (flight-recorder journeys of packets that executed against the table
// state this operation installed), e.g. "this packet's journey ran against
// tables installed by chain txn T, hop 2, write batch 17".
//
// Ids are epoch-local: Telemetry::clear() restarts minting at 1, so a
// recycled id resolves to whatever the *current* epoch recorded under it
// (typically nothing). An id never minted yields an empty report with
// found() == false.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/monitor.h"
#include "obs/trace.h"

namespace p4runpro::obs {
struct Telemetry;
}

namespace p4runpro::ctrl {

/// One control-channel write batch of the traced operation (a "bfrt.batch"
/// span), with the chain hop it landed on when known.
struct TraceWrite {
  int hop = -1;          ///< chain hop index; -1 = single-switch engine
  std::string what;      ///< batch kind: add.rpb, del.filters, ...
  std::uint64_t entries = 0;
  std::size_t batch_index = 0;  ///< position among the trace's write batches
};

/// Everything the telemetry bundle recorded under one trace id.
struct TraceReport {
  std::uint64_t trace_id = 0;
  /// Spans of the operation, recording order (the first is the entry-point
  /// root, e.g. "chain_link").
  std::vector<obs::SpanRecord> spans;
  /// Control-channel write batches extracted from the "bfrt.batch" spans.
  std::vector<TraceWrite> writes;
  /// Monitor events stamped with the id: deploy/revoke lifecycle, txn
  /// commit/rollback, and alerts attributed to this operation's tables.
  std::vector<obs::MonitorEvent> events;
  /// Flight-recorder journeys of packets that executed against table state
  /// this operation installed (journey.table_trace == trace_id).
  std::vector<obs::PacketJourney> journeys;

  /// True when anything at all was recorded under the id.
  [[nodiscard]] bool found() const noexcept {
    return !spans.empty() || !events.empty() || !journeys.empty();
  }
  /// Name of the root (entry-point) span, "" when none was recorded.
  [[nodiscard]] std::string root_name() const {
    return spans.empty() ? std::string{} : spans.front().name;
  }
};

/// Collect the structured report for `trace_id` from the bundle.
[[nodiscard]] TraceReport collect_trace(const obs::Telemetry& telemetry,
                                        std::uint64_t trace_id);

/// Render the report as a human-readable multi-line story (deterministic
/// for identical bundle contents). Unknown/empty ids render a one-line
/// "nothing recorded" notice.
[[nodiscard]] std::string trace_report(const obs::Telemetry& telemetry,
                                       std::uint64_t trace_id);

}  // namespace p4runpro::ctrl
