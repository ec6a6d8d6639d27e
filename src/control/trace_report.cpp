#include "control/trace_report.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "obs/telemetry.h"
#include "obs/trace_context.h"

namespace p4runpro::ctrl {

namespace {

[[nodiscard]] const std::string* find_arg(const obs::SpanRecord& span,
                                          std::string_view key) {
  for (const auto& [k, v] : span.args) {
    if (k == key) return &v;
  }
  return nullptr;
}

[[nodiscard]] std::uint64_t arg_u64(const obs::SpanRecord& span,
                                    std::string_view key, std::uint64_t fallback) {
  const std::string* raw = find_arg(span, key);
  if (raw == nullptr) return fallback;
  return static_cast<std::uint64_t>(std::strtoull(raw->c_str(), nullptr, 10));
}

[[nodiscard]] std::string_view event_label(obs::MonitorEvent::Kind kind) noexcept {
  switch (kind) {
    case obs::MonitorEvent::Kind::Deploy: return "deploy";
    case obs::MonitorEvent::Kind::Revoke: return "revoke";
    case obs::MonitorEvent::Kind::Alert: return "alert";
    case obs::MonitorEvent::Kind::TxnCommit: return "txn commit";
    case obs::MonitorEvent::Kind::TxnRollback: return "txn rollback";
    case obs::MonitorEvent::Kind::ChainTxnCommit: return "chain txn commit";
    case obs::MonitorEvent::Kind::ChainTxnRollback: return "chain txn rollback";
    case obs::MonitorEvent::Kind::AdmissionShed: return "admission shed";
    case obs::MonitorEvent::Kind::DefragMove: return "defrag move";
  }
  return "?";
}

[[nodiscard]] std::string ms_fixed(double ms) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.3f", ms);
  return buf;
}

}  // namespace

TraceReport collect_trace(const obs::Telemetry& telemetry,
                          std::uint64_t trace_id) {
  TraceReport report;
  report.trace_id = trace_id;
  if (trace_id == 0) return report;  // 0 is the "no trace" sentinel

  for (const auto& span : telemetry.tracer.spans()) {
    if (span.trace != trace_id) continue;
    report.spans.push_back(span);
    if (span.name == "bfrt.batch") {
      TraceWrite write;
      write.hop = static_cast<int>(
          arg_u64(span, "hop", static_cast<std::uint64_t>(-1)));
      if (const std::string* what = find_arg(span, "what")) write.what = *what;
      write.entries = arg_u64(span, "entries", 0);
      write.batch_index = report.writes.size();
      report.writes.push_back(std::move(write));
    }
  }
  for (const auto& event : telemetry.monitor.events()) {
    if (event.trace == trace_id) report.events.push_back(event);
  }
  for (const auto& journey : telemetry.flight.journeys()) {
    if (journey.table_trace == trace_id) report.journeys.push_back(journey);
  }
  return report;
}

std::string trace_report(const obs::Telemetry& telemetry,
                         std::uint64_t trace_id) {
  const TraceReport report = collect_trace(telemetry, trace_id);
  std::ostringstream out;
  out << "trace " << obs::format_trace_id(trace_id);
  if (!report.found()) {
    out << ": nothing recorded under this id (never minted, or from a "
           "cleared telemetry epoch)\n";
    return out.str();
  }
  if (!report.root_name().empty()) out << " (" << report.root_name() << ")";
  out << "\n";

  if (!report.spans.empty()) {
    out << "  control spans:\n";
    for (const auto& span : report.spans) {
      out << "    ";
      for (int d = 0; d < span.depth; ++d) out << "  ";
      out << span.name;
      if (!span.cat.empty()) out << " [" << span.cat << "]";
      out << " " << ms_fixed(span.virtual_ms()) << "ms";
      if (const std::string* what = find_arg(span, "what")) {
        out << " what=" << *what;
      }
      if (const std::string* hop = find_arg(span, "hop")) {
        out << " hop=" << *hop;
      }
      if (const std::string* entries = find_arg(span, "entries")) {
        out << " entries=" << *entries;
      }
      out << "\n";
    }
  }

  if (!report.writes.empty()) {
    out << "  control-channel writes:\n";
    for (const auto& write : report.writes) {
      out << "    write " << write.batch_index;
      if (write.hop >= 0) out << " hop " << write.hop;
      out << ": " << write.what << " (" << write.entries << " entries)\n";
    }
  }

  if (!report.events.empty()) {
    out << "  monitor events:\n";
    for (const auto& event : report.events) {
      out << "    t=" << ms_fixed(event.t_ms) << "ms " << event_label(event.kind);
      if (!event.program_name.empty()) out << " '" << event.program_name << "'";
      if (event.program != 0) out << " id=" << event.program;
      if (event.kind == obs::MonitorEvent::Kind::ChainTxnCommit ||
          event.kind == obs::MonitorEvent::Kind::ChainTxnRollback) {
        out << " hops=" << event.hops;
      }
      if (event.kind == obs::MonitorEvent::Kind::ChainTxnRollback) {
        out << " faulted_hop=" << event.faulted_hop;
      }
      if (event.kind == obs::MonitorEvent::Kind::Alert) {
        out << " rule=" << event.rule;
        if (!event.series.empty()) out << " series=" << event.series;
      }
      if (event.kind == obs::MonitorEvent::Kind::AdmissionShed) {
        out << " tenant=" << event.tenant;
      }
      if (event.kind == obs::MonitorEvent::Kind::DefragMove) {
        out << " old_id=" << event.old_program << " gain=" << event.gain;
      }
      if (!event.detail.empty()) out << " detail=\"" << event.detail << "\"";
      out << "\n";
    }
  }

  if (!report.journeys.empty()) {
    out << "  packet journeys against this operation's tables:\n";
    for (const auto& journey : report.journeys) {
      out << "    pkt seq=" << journey.seq << " t=" << ms_fixed(journey.t_ms)
          << "ms program='" << journey.program_name << "' fate="
          << obs::fate_name(journey.fate)
          << " table_generation=" << journey.table_generation
          << " events=" << journey.events.size() << "\n";
    }
  }
  return out.str();
}

}  // namespace p4runpro::ctrl
