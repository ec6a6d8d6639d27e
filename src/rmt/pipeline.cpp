#include "rmt/pipeline.h"

#include <cassert>
#include <chrono>
#include <cstdio>

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
  if (tracing_) start_trace(phv);
  return phv;
}

void Pipeline::start_trace(Phv& phv) {
  trace_events_.clear();
  TraceEvent event;
  event.block = TraceEvent::Block::Parser;
  event.op = "parse";
  event.value = phv.parse_bitmap;
  trace_events_.push_back(std::move(event));
  phv.trace_events = &trace_events_;
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

// `inline` so the compiler keeps the pass loop inside inject_batch's
// unobserved loop: left out of line it adds a call per packet there.
inline Pipeline::PassResult Pipeline::run_passes(Phv& phv, int& recirc_passes) {
  Pipeline* pipe = this;
  for (int pass = 0;; ++pass) {
    PassResult step = pipe->process_pass(phv);
    if (step.outcome == PassOutcome::Exit) return step;
    ++recirc_passes;
    // A pipe that recirculates into itself is bounded by its allowance, a
    // chain by its last hop.
    Pipeline* const next = pipe->next_hop_;
    if (next == nullptr || (next == pipe && pass >= max_recirculations_)) {
      ++pipe->packets_dropped_;
      step.outcome = PassOutcome::Exit;
      step.fate = PacketFate::RecircLimit;
      return step;
    }
    pipe = next;
  }
}

PacketObservation Pipeline::observe(const Packet& pkt, const Phv& phv,
                                    const PassResult& end, int recirc_passes,
                                    std::uint64_t seq, bool traced) const {
  PacketObservation obs;
  obs.program = phv.program_id;
  obs.fate = end.fate;
  obs.ingress_port = pkt.ingress_port;
  obs.egress_port = end.egress_port;
  obs.seq = seq;
  obs.recirc_passes = recirc_passes;
  obs.table_hits = phv.pkt_table_hits;
  obs.table_misses = phv.pkt_table_misses;
  obs.salu_execs = phv.pkt_salu_execs;
  obs.events = traced ? &trace_events_ : nullptr;
  obs.table_trace = table_trace_;
  obs.table_generation = table_generation_;
  return obs;
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
  PassResult end = run_passes(phv, result.recirc_passes);
  result.fate = end.fate;
  result.egress_port = end.egress_port;
  result.multicast_ports = std::move(end.multicast_ports);
  result.packet = phv.pkt;

  if (observer_ != nullptr) {
    observer_->on_packet(observe(pkt, phv, end, result.recirc_passes, seq, tracing_));
  }
  tracing_ = saved_tracing;
  return result;
}

void Pipeline::tally(const Phv& phv, PacketFate fate, int recirc_passes) {
  const ProgramId id = phv.program_id;
  if (tallies_.size() <= id) tallies_.resize(id + 1u);
  ProgramTally& tally = tallies_[id];
  if (tally.packets++ == 0) tallied_.push_back(id);
  tally.table_hits += phv.pkt_table_hits;
  tally.table_misses += phv.pkt_table_misses;
  tally.salu_execs += phv.pkt_salu_execs;
  tally.recirc_passes += static_cast<std::uint64_t>(recirc_passes);
  if (fate == PacketFate::Dropped || fate == PacketFate::RecircLimit) ++tally.drops;
}

template <bool kObserved>
void Pipeline::run_batch(std::span<const Packet> pkts, BatchResult& out) {
  PacketObserver* const observer = observer_;
  const bool saved_tracing = tracing_;
  const bool timed = kObserved && observer != nullptr && observer->accounting_overhead();
  std::uint64_t tally_ns = 0;

  for (const Packet& pkt : pkts) {
    const std::uint64_t seq = packets_in_;
    bool traced = false;
    if constexpr (kObserved) {
      // Every packet gets its sampling query, so the observer's 1-in-N
      // rotation advances exactly as under per-packet inject().
      traced = (observer != nullptr && observer->sample_packet()) || saved_tracing;
      tracing_ = traced;
    }
    Phv phv = parse_packet(pkt);
    int recirc_passes = 0;
    const PassResult end = run_passes(phv, recirc_passes);
    out.recirc_passes += static_cast<std::uint64_t>(recirc_passes);
    switch (end.fate) {
      case PacketFate::Forwarded: ++out.forwarded; break;
      case PacketFate::Returned: ++out.returned; break;
      case PacketFate::Dropped: ++out.dropped; break;
      case PacketFate::Reported: ++out.reported; break;
      case PacketFate::Multicasted: ++out.multicasted; break;
      case PacketFate::RecircLimit: ++out.recirc_limited; break;
    }
    if constexpr (kObserved) {
      if (observer == nullptr) continue;
      if (traced) {
        observer->on_packet(observe(pkt, phv, end, recirc_passes, seq, true));
      } else if (timed) {
        const auto t0 = std::chrono::steady_clock::now();
        tally(phv, end.fate, recirc_passes);
        tally_ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
      } else {
        tally(phv, end.fate, recirc_passes);
      }
    }
  }

  if constexpr (kObserved) {
    tracing_ = saved_tracing;
    if (tallied_.empty()) return;
    BatchObservation batch;
    batch.programs = tallied_;
    batch.tallies = tallies_;
    for (const ProgramId id : tallied_) batch.packets += tallies_[id].packets;
    batch.table_trace = table_trace_;
    batch.table_generation = table_generation_;
    batch.tally_ns = tally_ns;
    observer->on_batch(batch);
    for (const ProgramId id : tallied_) tallies_[id] = ProgramTally{};
    tallied_.clear();
  }
}

Pipeline::BatchResult Pipeline::inject_batch(std::span<const Packet> pkts) {
  BatchResult out;
  out.packets = pkts.size();
  out.table_trace = table_trace_;
  out.table_generation = table_generation_;
  if (observer_ != nullptr || tracing_) {
    run_batch<true>(pkts, out);
  } else {
    run_batch<false>(pkts, out);
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
