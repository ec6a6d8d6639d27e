#include "control/inspect.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "obs/telemetry.h"

namespace p4runpro::ctrl {

namespace {

[[nodiscard]] std::string key_str(const rmt::TernaryKey& key) {
  if (key.mask == 0) return "*";
  char buf[32];
  if (key.mask == 0xffffffffu) {
    std::snprintf(buf, sizeof buf, "0x%x", key.value);
  } else {
    std::snprintf(buf, sizeof buf, "0x%x/0x%x", key.value, key.mask);
  }
  return buf;
}

}  // namespace

std::string disassemble(const InstalledProgram& program, const dp::DataplaneSpec& spec) {
  const ProgramImage& image = *program.image;
  std::ostringstream out;
  out << "program '" << program.name << "' (id " << program.id << "): depth "
      << image.ir.depth << ", " << image.alloc.rounds << " round(s), "
      << image.plan.rpb_entries.size() << " RPB entries\n";

  out << "  filters:";
  for (const auto& f : image.ir.filters) {
    out << " <" << rmt::field_name(f.field) << ", 0x" << std::hex << f.value
        << "/0x" << f.mask << std::dec << ">";
  }
  out << "\n";

  if (!program.placements.empty()) {
    out << "  memory:\n";
    for (const auto& [vmem, placement] : program.placements) {
      out << "    " << vmem << ": RPB " << placement.rpb << " ["
          << placement.block.base << ", "
          << placement.block.base + placement.block.size << ") ("
          << placement.block.size << " buckets)\n";
    }
  }

  // Entries ordered by (round, physical RPB, branch).
  auto entries = image.plan.rpb_entries;
  std::stable_sort(entries.begin(), entries.end(),
                   [](const dp::RpbEntry& a, const dp::RpbEntry& b) {
                     const auto ka = std::make_tuple(a.keys[dp::kKeyRecirc].value, a.rpb,
                                                     a.keys[dp::kKeyBranch].value);
                     const auto kb = std::make_tuple(b.keys[dp::kKeyRecirc].value, b.rpb,
                                                     b.keys[dp::kKeyBranch].value);
                     return ka < kb;
                   });
  out << "  entries (round / RPB / branch -> operation):\n";
  for (const auto& entry : entries) {
    const Word round = entry.keys[dp::kKeyRecirc].value;
    const Word branch = entry.keys[dp::kKeyBranch].value;
    out << "    r" << round << "  RPB" << entry.rpb
        << (dp::is_ingress_rpb(entry.rpb, spec.ingress_rpbs) ? " (in)" : " (eg)")
        << "  b" << branch << "  " << entry.action.op.str();
    if (entry.action.op.kind == dp::OpKind::Branch) {
      out << " [har=" << key_str(entry.keys[dp::kKeyHar])
          << " sar=" << key_str(entry.keys[dp::kKeySar])
          << " mar=" << key_str(entry.keys[dp::kKeyMar]) << "]";
    }
    if (entry.action.next_branch) {
      out << " -> b" << static_cast<int>(*entry.action.next_branch);
    }
    out << "\n";
  }
  return out.str();
}

std::string telemetry_report(const obs::Telemetry& telemetry) {
  std::ostringstream out;
  char line[160];

  const auto& metrics = telemetry.metrics;
  if (!metrics.counters().empty()) {
    out << "counters:\n";
    for (const auto& [name, counter] : metrics.counters()) {
      std::snprintf(line, sizeof line, "  %-44s %12llu\n", name.c_str(),
                    static_cast<unsigned long long>(counter.value()));
      out << line;
    }
  }

  const auto gauges = metrics.sampled_gauges();
  bool gauge_heading = false;
  for (const auto& [name, value] : gauges) {
    // Per-stage occupancy gauges are mostly idle; print only live stages.
    if (value == 0.0 && name.find("ctrl.rpb.") == 0) continue;
    if (!gauge_heading) {
      out << "gauges:\n";
      gauge_heading = true;
    }
    std::snprintf(line, sizeof line, "  %-44s %14.3f\n", name.c_str(), value);
    out << line;
  }

  if (!metrics.histograms().empty()) {
    out << "histograms:                                     count       p50       "
           "p90       p99       sum\n";
    for (const auto& [name, h] : metrics.histograms()) {
      std::snprintf(line, sizeof line, "  %-44s %7llu %9.3f %9.3f %9.3f %9.3f\n",
                    name.c_str(), static_cast<unsigned long long>(h.count()),
                    h.quantile(0.5), h.quantile(0.9), h.quantile(0.99), h.sum());
      out << line;
    }
  }

  // Span summary: aggregate by name (chronological detail belongs to the
  // Chrome-trace export).
  struct SpanAgg {
    std::uint64_t count = 0;
    double virtual_ms = 0.0;
    double wall_ms = 0.0;
  };
  std::map<std::string, SpanAgg> by_name;
  for (const auto& span : telemetry.tracer.spans()) {
    if (span.open) continue;
    auto& agg = by_name[span.name];
    ++agg.count;
    agg.virtual_ms += span.virtual_ms();
    agg.wall_ms += span.wall_ms;
  }
  if (!by_name.empty()) {
    out << "spans:                                          count   virt_ms   "
           "wall_ms\n";
    for (const auto& [name, agg] : by_name) {
      std::snprintf(line, sizeof line, "  %-44s %7llu %9.3f %9.3f\n", name.c_str(),
                    static_cast<unsigned long long>(agg.count), agg.virtual_ms,
                    agg.wall_ms);
      out << line;
    }
  }
  return out.str();
}

std::string health_report(const obs::Telemetry& telemetry, std::size_t event_tail) {
  const obs::ProgramHealthMonitor& monitor = telemetry.monitor;
  std::ostringstream out;
  char line[200];

  std::snprintf(line, sizeof line,
                "health @ %.3f ms: %llu packets observed, %llu alerts\n",
                monitor.now_ms(),
                static_cast<unsigned long long>(monitor.packets_observed()),
                static_cast<unsigned long long>(monitor.alerts_fired()));
  out << line;

  auto ids = monitor.known_programs();
  // Busiest first; ties broken by id so the layout is deterministic.
  std::stable_sort(ids.begin(), ids.end(), [&](ProgramId a, ProgramId b) {
    return monitor.health(a)->packets > monitor.health(b)->packets;
  });
  if (!ids.empty()) {
    out << "  id  name              st    entries    packets       hits "
           "      salu     recirc      drops   pkt/s  rec/pkt   drop%\n";
    for (ProgramId id : ids) {
      const obs::ProgramHealth& h = *monitor.health(id);
      std::snprintf(line, sizeof line,
                    "  %-3u %-17s %-2s %10llu %10llu %10llu %10llu %10llu "
                    "%10llu %7.0f %8.2f %7.2f\n",
                    static_cast<unsigned>(id), h.name.c_str(),
                    id == 0 ? "--" : (h.active ? "up" : "rm"),
                    static_cast<unsigned long long>(h.entries),
                    static_cast<unsigned long long>(h.packets),
                    static_cast<unsigned long long>(h.table_hits),
                    static_cast<unsigned long long>(h.salu_updates),
                    static_cast<unsigned long long>(h.recirc_passes),
                    static_cast<unsigned long long>(h.drops),
                    monitor.packet_rate(id), monitor.recirc_per_packet(id),
                    100.0 * monitor.drop_fraction(id));
      out << line;
    }
  }

  const auto& events = monitor.events();
  if (!events.empty() && event_tail > 0) {
    out << "events (most recent last):\n";
    const std::size_t first =
        events.size() > event_tail ? events.size() - event_tail : 0;
    for (std::size_t i = first; i < events.size(); ++i) {
      const obs::MonitorEvent& e = events[i];
      switch (e.kind) {
        case obs::MonitorEvent::Kind::Deploy:
          std::snprintf(line, sizeof line,
                        "  [%8.3f ms] deploy  %u '%s' (%llu entries)", e.t_ms,
                        static_cast<unsigned>(e.program), e.program_name.c_str(),
                        static_cast<unsigned long long>(e.entries));
          break;
        case obs::MonitorEvent::Kind::Revoke:
          std::snprintf(line, sizeof line, "  [%8.3f ms] revoke  %u '%s'", e.t_ms,
                        static_cast<unsigned>(e.program), e.program_name.c_str());
          break;
        case obs::MonitorEvent::Kind::Alert:
          if (e.rpb != 0) {
            std::snprintf(line, sizeof line,
                          "  [%8.3f ms] ALERT   '%s' RPB%d value %.3f >= %.3f",
                          e.t_ms, e.rule.c_str(), e.rpb, e.value, e.threshold);
          } else {
            std::snprintf(line, sizeof line,
                          "  [%8.3f ms] ALERT   '%s' program %u '%s' value "
                          "%.3f >= %.3f",
                          e.t_ms, e.rule.c_str(), static_cast<unsigned>(e.program),
                          e.program_name.c_str(), e.value, e.threshold);
          }
          break;
        case obs::MonitorEvent::Kind::TxnCommit:
          std::snprintf(line, sizeof line, "  [%8.3f ms] commit  %u '%s'", e.t_ms,
                        static_cast<unsigned>(e.program), e.program_name.c_str());
          break;
        case obs::MonitorEvent::Kind::TxnRollback:
          std::snprintf(line, sizeof line, "  [%8.3f ms] rollback %u '%s'", e.t_ms,
                        static_cast<unsigned>(e.program), e.program_name.c_str());
          break;
        case obs::MonitorEvent::Kind::ChainTxnCommit:
          std::snprintf(line, sizeof line,
                        "  [%8.3f ms] commit  %u '%s' (chain, %d hops)", e.t_ms,
                        static_cast<unsigned>(e.program), e.program_name.c_str(),
                        e.hops);
          break;
        case obs::MonitorEvent::Kind::ChainTxnRollback:
          std::snprintf(line, sizeof line,
                        "  [%8.3f ms] rollback %u '%s' (chain, %d hops, faulted "
                        "hop %d)",
                        e.t_ms, static_cast<unsigned>(e.program),
                        e.program_name.c_str(), e.hops, e.faulted_hop);
          break;
        case obs::MonitorEvent::Kind::AdmissionShed:
          std::snprintf(line, sizeof line, "  [%8.3f ms] shed    tenant %u '%s'",
                        e.t_ms, static_cast<unsigned>(e.tenant),
                        e.program_name.c_str());
          break;
        case obs::MonitorEvent::Kind::DefragMove:
          std::snprintf(line, sizeof line,
                        "  [%8.3f ms] defrag  %u -> %u '%s' (gain %llu words)",
                        e.t_ms, static_cast<unsigned>(e.old_program),
                        static_cast<unsigned>(e.program), e.program_name.c_str(),
                        static_cast<unsigned long long>(e.gain));
          break;
      }
      // The free-form rollback / shed reason goes straight to the stream so
      // a long one is never cut off by the line buffer.
      out << line;
      if (!e.detail.empty()) out << ": " << e.detail;
      out << "\n";
    }
  }

  if (const obs::FlightRecorder* flight = monitor.flight_recorder()) {
    if (flight->frozen()) {
      std::snprintf(line, sizeof line,
                    "flight recorder: FROZEN at %.3f ms by '%s' (%zu journeys)\n",
                    flight->frozen_at_ms(), flight->freeze_reason().c_str(),
                    flight->journeys().size());
    } else {
      std::snprintf(line, sizeof line,
                    "flight recorder: recording (%zu journeys buffered, %llu "
                    "recorded)\n",
                    flight->journeys().size(),
                    static_cast<unsigned long long>(flight->recorded()));
    }
    out << line;
  }
  return out.str();
}

}  // namespace p4runpro::ctrl
