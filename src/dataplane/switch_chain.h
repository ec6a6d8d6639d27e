// Multi-switch alternative to recirculation (paper §4.1.3 / §5): "the
// recirculation block is not indispensable, as it can be replaced by
// multiple switches processing sequentially". A SwitchChain runs a packet
// through K identically-provisioned P4runpro switches; when switch j flags
// the packet for another round, it travels to switch j+1 instead of
// looping — the recirculation id doubles as the hop count, so the very
// same table entries work unchanged on the switch of their round.
//
// The chain is recirculation whose next pass runs on another pipe: the
// constructor wires each hop's pipeline to the next one
// (rmt::Pipeline::set_next_hop), and packets enter at hop 0 through its
// ordinary inject()/inject_batch(). So a chain runs the one pass loop of
// rmt::Pipeline, with its batch path, tracing and observer; the last hop
// counts the drop of a packet that runs off the end.
//
// Deployment model (the simple "mirror" mode): the operator links the same
// programs on every switch of the chain, so round-j entries exist on
// switch j (they match nowhere else: the recirculation id in their keys is
// exact). Programs whose memory is touched in more than one round are
// rejected for chains — the rounds live on different switches with
// different physical memories (this is the constraint-(5) adjustment the
// paper notes). A ctrl::Controller constructed on the chain layers atomic
// chain-wide deploy transactions on top (reserve on every hop, two-phase
// commit, per-hop rollback journals; docs/ARCHITECTURE.md "Chain
// transactions").
#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "dataplane/runpro_dataplane.h"

namespace p4runpro::dp {

class SwitchChain {
 public:
  /// Build a chain of `length` switches with the given per-switch spec
  /// (its max_recirculations bounds the compiler, and therefore the number
  /// of rounds = hops a program may use; it should equal length - 1).
  SwitchChain(int length, DataplaneSpec spec, rmt::ParserConfig parser_config);

  /// Heterogeneous chain: one spec per hop. Mirror deployment (and the
  /// chain controller) requires uniform specs — `uniform_specs()` reports
  /// the first divergence — but packets still traverse a mixed chain, so
  /// misprovisioned chains are representable and diagnosable.
  SwitchChain(const std::vector<DataplaneSpec>& specs,
              rmt::ParserConfig parser_config);

  /// Run one packet across the chain, entering at hop 0. Throughput is
  /// unaffected by long programs: every hop is a fresh pipeline at line
  /// rate (the trade-off is one switch per extra round instead of
  /// recirculation bandwidth). PipelineResult::recirc_passes counts hops.
  rmt::PipelineResult inject(const rmt::Packet& pkt) { return switches_.front()->inject(pkt); }

  /// Run a batch across the chain, entering at hop 0 (the batch path of
  /// rmt::Pipeline::inject_batch, observer and tallies included).
  rmt::Pipeline::BatchResult inject_batch(std::span<const rmt::Packet> pkts) {
    return switches_.front()->inject_batch(pkts);
  }

  [[nodiscard]] int length() const noexcept { return static_cast<int>(switches_.size()); }
  [[nodiscard]] RunproDataplane& switch_at(int hop) { return *switches_[static_cast<std::size_t>(hop)]; }
  [[nodiscard]] const RunproDataplane& switch_at(int hop) const {
    return *switches_[static_cast<std::size_t>(hop)];
  }
  [[nodiscard]] const DataplaneSpec& spec_at(int hop) const {
    return switch_at(hop).spec();
  }

  /// Mirror deployment requires every hop provisioned identically (the
  /// same allocation must be valid on each switch). Names the first hop —
  /// and the first DataplaneSpec field — that diverges from hop 0.
  [[nodiscard]] Status uniform_specs() const;

  /// Whether a program's allocation is chain-compatible: no virtual memory
  /// is accessed in more than one round. On failure the error names the
  /// offending virtual memory and the conflicting rounds (= chain hops),
  /// so the operator knows exactly which access pattern pins the program
  /// to a recirculating switch.
  [[nodiscard]] static Status chain_compatibility(
      const std::map<std::string, std::vector<int>>& vmem_depths,
      const std::vector<int>& x, int total_rpbs);

 private:
  std::vector<std::unique_ptr<RunproDataplane>> switches_;
};

}  // namespace p4runpro::dp
