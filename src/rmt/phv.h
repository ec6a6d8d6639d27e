// Packet header vector: the stateless per-packet state travelling down the
// pipeline. Besides the parsed headers it carries the three P4runpro
// "registers", the control flags (program / branch / recirculation ids), the
// translated physical memory address, and the forwarding intrinsic metadata
// consumed by the traffic manager.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "rmt/packet.h"

namespace p4runpro::rmt {

/// One structured execution-trace event: which block acted, at which stage /
/// round / branch, and what it executed. Tests and tools should match on
/// these fields instead of substrings of the rendered text (render_trace).
struct TraceEvent {
  enum class Block : std::uint8_t { Parser, Init, Rpb, Recirc };
  Block block = Block::Parser;
  int stage = 0;    ///< physical RPB id (Rpb events only)
  int round = 0;    ///< recirculation id when the event fired
  int branch = 0;   ///< branch id (Rpb events only)
  std::string op;   ///< operation text, e.g. "EXTRACT(hdr.nc.op, har)"
  std::optional<int> next_branch;  ///< branch transition (Rpb events only)
  Word value = 0;   ///< parser: bitmap; init: program id; recirc: next round
};

/// Parse-state bitmap (paper §4.1.1): one bit per header recognized by the
/// compile-time parser. Bit layout follows the paper's example (ETH..UDP)
/// extended with the customized application header.
enum ParseBit : std::uint8_t {
  kParseUdp = 1u << 0,
  kParseTcp = 1u << 1,
  kParseIpv4 = 1u << 2,
  kParseEth = 1u << 3,
  kParseApp = 1u << 4,
};

/// Forwarding decision recorded in intrinsic metadata. Executed by the
/// traffic manager between ingress and egress (which is why forwarding
/// primitives are ingress-only).
enum class FwdDecision : std::uint8_t {
  None,       ///< no program decision; default L2 pass-through
  Forward,    ///< send to `egress_port`
  Return,     ///< reflect to the ingress port (RETURN)
  Drop,       ///< drop (DROP)
  Report,     ///< punt to CPU (REPORT)
  Multicast,  ///< replicate to the ports of `mcast_group` (MULTICAST)
};

struct Phv {
  Packet pkt;
  std::uint8_t parse_bitmap = 0;

  // --- P4runpro registers (§4.1.2) -------------------------------------
  std::array<Word, kNumRegs> regs{};  // indexed by Reg

  // --- control flags (RPB table keys) -----------------------------------
  ProgramId program_id = 0;
  BranchId branch_id = 0;
  RecircId recirc_id = 0;

  // --- address translation scratch --------------------------------------
  /// Physical memory address produced by the offset step; stored in a
  /// separate PHV field so `mar` keeps its virtual value (paper §4.1.2).
  MemAddr phys_addr = 0;
  /// Selects which of the paired SALU memory operations fires (set together
  /// with the offset step).
  std::uint8_t salu_flag = 0;

  /// Backup slot for the supportive register of pseudo-primitive
  /// translations (Fig. 4b).
  Word backup = 0;

  /// Queue-depth intrinsic metadata snapshot (read as meta.qdepth).
  Word qdepth = 0;

  // --- per-packet execution counters --------------------------------------
  /// Accumulated across every pass of this packet by the match-action
  /// stages; the pipeline folds them into the end-of-packet observation for
  /// per-program attribution (plain increments, cheap enough for hot paths).
  std::uint32_t pkt_table_hits = 0;
  std::uint32_t pkt_table_misses = 0;
  std::uint32_t pkt_salu_execs = 0;

  // --- intrinsic forwarding metadata -------------------------------------
  FwdDecision decision = FwdDecision::None;
  Port egress_port = 0;
  Word mcast_group = 0;  ///< multicast group id for FwdDecision::Multicast
  bool recirculate = false;  ///< set by the recirculation block

  /// Optional execution-trace sink (debugging, see Pipeline::set_tracing):
  /// blocks append one structured event per executed operation.
  std::vector<TraceEvent>* trace_events = nullptr;

  [[nodiscard]] Word reg(Reg r) const noexcept {
    return regs[static_cast<std::size_t>(r)];
  }
  void set_reg(Reg r, Word v) noexcept {
    regs[static_cast<std::size_t>(r)] = v;
  }

  /// Canonical 13-byte five-tuple serialization of `pkt`, computed lazily
  /// and memoized: hash primitives may run several times per packet (one
  /// per sketch row) and the serialization is a pure function of the packet
  /// headers. Any primitive that writes a header field (MODIFY) must call
  /// invalidate_five_tuple().
  [[nodiscard]] const std::array<std::uint8_t, 13>& five_tuple_bytes() {
    if (!ft_valid_) {
      ft_bytes_ = pkt.five_tuple().bytes();
      ft_valid_ = true;
    }
    return ft_bytes_;
  }
  void invalidate_five_tuple() noexcept { ft_valid_ = false; }

 private:
  std::array<std::uint8_t, 13> ft_bytes_{};
  bool ft_valid_ = false;
};

}  // namespace p4runpro::rmt
