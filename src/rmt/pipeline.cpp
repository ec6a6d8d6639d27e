#include "rmt/pipeline.h"

#include <cstdio>

#include <cassert>

#include "obs/telemetry.h"

namespace p4runpro::rmt {

namespace {
constexpr std::size_t kNumPorts = 256;
}

std::string render_trace(const TraceEvent& event) {
  switch (event.block) {
    case TraceEvent::Block::Parser: {
      char line[64];
      std::snprintf(line, sizeof line, "parser: bitmap=0b%u%u%u%u%u",
                    (event.value >> 4) & 1u, (event.value >> 3) & 1u,
                    (event.value >> 2) & 1u, (event.value >> 1) & 1u,
                    event.value & 1u);
      return line;
    }
    case TraceEvent::Block::Init:
      return "init: claimed by program " + std::to_string(event.value);
    case TraceEvent::Block::Rpb:
      return "RPB" + std::to_string(event.stage) + " r" + std::to_string(event.round) +
             " b" + std::to_string(event.branch) + ": " + event.op +
             (event.next_branch ? " -> b" + std::to_string(*event.next_branch) : "");
    case TraceEvent::Block::Recirc:
      return "recirc: another round (r" + std::to_string(event.value) + ")";
  }
  return {};
}

Pipeline::Pipeline(ParserConfig parser_config, int max_recirculations)
    : parser_(std::move(parser_config)),
      max_recirculations_(max_recirculations),
      ports_(kNumPorts) {}

Pipeline::~Pipeline() {
  if (telemetry_ != nullptr) telemetry_->metrics.unregister_probes(this);
}

void Pipeline::attach_telemetry(obs::Telemetry* telemetry) {
  if (telemetry_ != nullptr) telemetry_->metrics.unregister_probes(this);
  telemetry_ = telemetry;
  if (telemetry_ == nullptr) return;
  auto& m = telemetry_->metrics;
  const auto probe = [&](std::string_view name, const std::uint64_t* value) {
    m.register_probe(name, this,
                     [value] { return static_cast<double>(*value); });
  };
  probe("rmt.pipeline.packets_in", &packets_in_);
  probe("rmt.pipeline.packets_dropped", &packets_dropped_);
  probe("rmt.pipeline.packets_reported", &packets_reported_);
  probe("rmt.pipeline.recirc_passes", &recirc_passes_);
  probe("rmt.pipeline.cpu_queue_drops", &cpu_queue_drops_);
  probe("rmt.stage.table_hits", &stage_stats_.table_hits);
  probe("rmt.stage.table_misses", &stage_stats_.table_misses);
  probe("rmt.stage.salu_execs", &stage_stats_.salu_execs);
  m.register_probe("rmt.pipeline.cpu_queue_depth", this,
                   [this] { return static_cast<double>(cpu_queue_.size()); });
}

Phv Pipeline::parse_packet(const Packet& pkt) {
  ++packets_in_;
  Phv phv = parser_.parse(pkt);
  phv.qdepth = qdepth_;
  if (tracing_) {
    trace_events_.clear();
    TraceEvent event;
    event.block = TraceEvent::Block::Parser;
    event.op = "parse";
    event.value = phv.parse_bitmap;
    trace_events_.push_back(std::move(event));
    phv.trace_events = &trace_events_;
  }
  return phv;
}

Pipeline::PassResult Pipeline::process_pass(Phv& phv) {
  phv.recirculate = false;
  for (auto& stage : ingress_) stage->process(phv);

  // Traffic manager: recirculation wins over the (possibly still pending)
  // forwarding decision; the decision travels with the packet in the
  // P4runpro header and is applied on the final pass.
  if (phv.recirculate) {
    ++recirc_passes_;
    // Egress pipeline still processes the pass on its way out (to the
    // recirculation port, or toward the next switch of a chain).
    for (auto& stage : egress_) stage->process(phv);
    phv.recirc_id = static_cast<RecircId>(phv.recirc_id + 1);
    PassResult recirc;
    recirc.outcome = PassOutcome::Recirculate;
    return recirc;
  }

  PassResult result;
  result.outcome = PassOutcome::Exit;
  switch (phv.decision) {
    case FwdDecision::Drop:
      ++packets_dropped_;
      result.fate = PacketFate::Dropped;
      return result;
    case FwdDecision::Report:
      ++packets_reported_;
      // Bounded CPU queue: the switch CPU PCIe channel drops under burst.
      if (cpu_queue_.size() < cpu_queue_capacity_) {
        cpu_queue_.push_back(phv.pkt);
      } else {
        ++cpu_queue_drops_;
      }
      result.fate = PacketFate::Reported;
      return result;
    case FwdDecision::Multicast: {
      result.fate = PacketFate::Multicasted;
      if (const auto* ports = multicast_group(phv.mcast_group)) {
        result.multicast_ports = *ports;
      }
      for (auto& stage : egress_) stage->process(phv);
      for (Port port : result.multicast_ports) {
        auto& ctr = ports_[port % kNumPorts];
        ++ctr.packets;
        ctr.bytes += phv.pkt.wire_len();
      }
      return result;
    }
    case FwdDecision::Return:
      result.fate = PacketFate::Returned;
      result.egress_port = phv.pkt.ingress_port;
      break;
    case FwdDecision::Forward:
      result.fate = PacketFate::Forwarded;
      result.egress_port = phv.egress_port;
      break;
    case FwdDecision::None:
      // No program claimed the packet: default pass-through behavior of
      // the provisioned data plane (egress port 0).
      result.fate = PacketFate::Forwarded;
      result.egress_port = 0;
      break;
  }

  for (auto& stage : egress_) stage->process(phv);

  auto& ctr = ports_[result.egress_port % kNumPorts];
  ++ctr.packets;
  ctr.bytes += phv.pkt.wire_len();
  return result;
}

PipelineResult Pipeline::inject(const Packet& pkt) {
  // Sampling decision before parsing: a sampled packet gets per-packet
  // tracing for exactly this injection so its journey can be recorded.
  const bool sampled = observer_ != nullptr && observer_->sample_packet();
  const bool saved_tracing = tracing_;
  if (sampled) tracing_ = true;
  const std::uint64_t seq = packets_in_;

  Phv phv = parse_packet(pkt);
  PipelineResult result;
  for (int pass = 0;; ++pass) {
    const PassResult step = process_pass(phv);
    if (step.outcome == PassOutcome::Recirculate) {
      ++result.recirc_passes;
      if (pass >= max_recirculations_) {
        ++packets_dropped_;
        result.fate = PacketFate::RecircLimit;
        result.packet = phv.pkt;
        break;
      }
      continue;
    }
    result.fate = step.fate;
    result.egress_port = step.egress_port;
    result.multicast_ports = step.multicast_ports;
    result.packet = phv.pkt;
    break;
  }

  if (observer_ != nullptr) {
    PacketObservation obs;
    obs.program = phv.program_id;
    obs.fate = result.fate;
    obs.ingress_port = pkt.ingress_port;
    obs.egress_port = result.egress_port;
    obs.seq = seq;
    obs.recirc_passes = result.recirc_passes;
    obs.table_hits = phv.pkt_table_hits;
    obs.table_misses = phv.pkt_table_misses;
    obs.salu_execs = phv.pkt_salu_execs;
    obs.events = tracing_ ? &trace_events_ : nullptr;
    obs.table_trace = table_trace_;
    obs.table_generation = table_generation_;
    observer_->on_packet(obs);
  }
  tracing_ = saved_tracing;
  return result;
}

Pipeline::BatchResult Pipeline::inject_batch(std::span<const Packet> pkts) {
  BatchResult out;
  out.packets = pkts.size();
  out.table_trace = table_trace_;
  out.table_generation = table_generation_;

  const auto fold = [&out](PacketFate fate) {
    switch (fate) {
      case PacketFate::Forwarded: ++out.forwarded; break;
      case PacketFate::Returned: ++out.returned; break;
      case PacketFate::Dropped: ++out.dropped; break;
      case PacketFate::Reported: ++out.reported; break;
      case PacketFate::Multicasted: ++out.multicasted; break;
      case PacketFate::RecircLimit: ++out.recirc_limited; break;
    }
  };

  // Observer attached or tracing on: per-packet semantics (sampling
  // decisions, journey capture, observation callbacks) must be preserved —
  // delegate to inject() and only aggregate.
  if (observer_ != nullptr || tracing_) {
    for (const Packet& pkt : pkts) {
      const PipelineResult result = inject(pkt);
      fold(result.fate);
      out.recirc_passes += static_cast<std::uint64_t>(result.recirc_passes);
    }
    return out;
  }

  // Lean path: no sampling query, no trace bookkeeping, no per-packet
  // PipelineResult (and its Packet copy).
  for (const Packet& pkt : pkts) {
    ++packets_in_;
    Phv phv = parser_.parse(pkt);
    phv.qdepth = qdepth_;
    for (int pass = 0;; ++pass) {
      const PassResult step = process_pass(phv);
      if (step.outcome == PassOutcome::Recirculate) {
        ++out.recirc_passes;
        if (pass >= max_recirculations_) {
          ++packets_dropped_;
          ++out.recirc_limited;
          break;
        }
        continue;
      }
      fold(step.fate);
      break;
    }
  }
  return out;
}

std::vector<Packet> Pipeline::drain_cpu_queue() {
  std::vector<Packet> out;
  out.swap(cpu_queue_);
  return out;
}

const PortCounters& Pipeline::port_counters(Port port) const {
  return ports_[port % kNumPorts];
}

void Pipeline::clear_counters() {
  for (auto& p : ports_) p = PortCounters{};
  cpu_queue_.clear();
  cpu_queue_drops_ = 0;
  recirc_passes_ = 0;
  packets_in_ = 0;
  packets_dropped_ = 0;
  packets_reported_ = 0;
  stage_stats_ = StageStats{};
}

}  // namespace p4runpro::rmt
