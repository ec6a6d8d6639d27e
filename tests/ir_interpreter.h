// Shared test helper: a direct interpreter over the translated IR DAG,
// independent of the table-driven pipeline. Used by the differential tests
// and the random-program fuzzer to cross-check the compiler + data plane.
#pragma once

#include <array>
#include <map>
#include <string>
#include <vector>

#include "control/update_engine.h"
#include "dataplane/dataplane_spec.h"
#include "rmt/crc.h"
#include "rmt/memory.h"
#include "rmt/packet.h"
#include "rmt/phv.h"

namespace p4runpro::testutil {

/// Shadow executor: walks the IR by depth and branch id, mirroring the
/// keying of the RPB tables without using them.
class IrInterpreter {
 public:
  IrInterpreter(const ctrl::InstalledProgram& program, const dp::DataplaneSpec& spec)
      : program_(program), spec_(spec) {
    for (const auto& [vmem, size] : program.image->ir.vmem_sizes) {
      shadow_.emplace(vmem, rmt::StageMemory(size));
    }
    // Depth -> nodes lookup.
    by_depth_.resize(static_cast<std::size_t>(program.image->ir.depth));
    for (const auto& node : program.image->ir.nodes) {
      by_depth_[static_cast<std::size_t>(node.depth - 1)].push_back(&node);
    }
  }

  struct Outcome {
    rmt::FwdDecision decision = rmt::FwdDecision::None;
    Port egress_port = 0;
    Word mcast_group = 0;
    rmt::Packet packet;
  };

  /// True iff the packet passes the program's traffic filter.
  [[nodiscard]] bool filter_matches(const rmt::Packet& pkt) const {
    for (const auto& f : program_.image->ir.filters) {
      const Word value = rmt::read_field(pkt, f.field, 0);
      if ((value & f.mask) != (f.value & f.mask)) return false;
    }
    return true;
  }

  Outcome run(const rmt::Packet& input, Word qdepth) {
    Outcome out;
    out.packet = input;
    if (!filter_matches(input)) return out;

    std::array<Word, kNumRegs> regs{};
    Word backup = 0;
    MemAddr phys_addr = 0;
    BranchId bid = 0;

    for (const auto& level : by_depth_) {
      const rp::IrNode* active = nullptr;
      for (const auto* node : level) {
        if (node->branch == bid) {
          active = node;
          break;
        }
      }
      if (active == nullptr) continue;  // nop gap at this depth

      const rp::IrOp& op = active->op;
      auto reg = [&regs](Reg r) -> Word& { return regs[static_cast<std::size_t>(r)]; };
      switch (op.kind) {
        case dp::OpKind::Nop:
          break;
        case dp::OpKind::Extract:
          reg(op.reg0) = rmt::read_field(out.packet, op.field, qdepth);
          break;
        case dp::OpKind::Modify:
          rmt::write_field(out.packet, op.field, reg(op.reg0));
          break;
        case dp::OpKind::Hash5Tuple:
          reg(Reg::Har) = rmt::run_hash(rmt::HashAlgo::Crc32,
                                        out.packet.five_tuple().bytes());
          break;
        case dp::OpKind::HashHar: {
          const Word h = reg(Reg::Har);
          const std::array<std::uint8_t, 4> bytes = {
              static_cast<std::uint8_t>(h >> 24), static_cast<std::uint8_t>(h >> 16),
              static_cast<std::uint8_t>(h >> 8), static_cast<std::uint8_t>(h)};
          reg(Reg::Har) = rmt::run_hash(rmt::HashAlgo::Crc32, bytes);
          break;
        }
        case dp::OpKind::Hash5TupleMem:
          reg(Reg::Mar) = rmt::run_hash(stage_algo(*active),
                                        out.packet.five_tuple().bytes()) &
                          (program_.image->ir.vmem_sizes.at(op.vmem) - 1);
          break;
        case dp::OpKind::HashHarMem: {
          const Word h = reg(Reg::Har);
          const std::array<std::uint8_t, 4> bytes = {
              static_cast<std::uint8_t>(h >> 24), static_cast<std::uint8_t>(h >> 16),
              static_cast<std::uint8_t>(h >> 8), static_cast<std::uint8_t>(h)};
          reg(Reg::Mar) = rmt::run_hash(stage_algo(*active), bytes) &
                          (program_.image->ir.vmem_sizes.at(op.vmem) - 1);
          break;
        }
        case dp::OpKind::Branch: {
          for (const auto& rule : op.cases) {
            bool hit = true;
            for (const auto& cond : rule.conditions) {
              if ((regs[static_cast<std::size_t>(cond.reg)] & cond.mask) !=
                  (cond.value & cond.mask)) {
                hit = false;
                break;
              }
            }
            if (hit) {
              bid = rule.target;
              break;
            }
          }
          break;
        }
        case dp::OpKind::Offset:
          phys_addr = reg(Reg::Mar);  // shadow memories are zero-based
          break;
        case dp::OpKind::Mem: {
          const auto result = shadow_.at(op.vmem).execute(op.salu, phys_addr,
                                                          reg(Reg::Sar));
          if (result.sar_set) reg(Reg::Sar) = result.sar_out;
          break;
        }
        case dp::OpKind::Loadi:
          reg(op.reg0) = op.imm;
          break;
        case dp::OpKind::Add:
          reg(op.reg0) += reg(op.reg1);
          break;
        case dp::OpKind::And:
          reg(op.reg0) &= reg(op.reg1);
          break;
        case dp::OpKind::Or:
          reg(op.reg0) |= reg(op.reg1);
          break;
        case dp::OpKind::Max:
          reg(op.reg0) = std::max(reg(op.reg0), reg(op.reg1));
          break;
        case dp::OpKind::Min:
          reg(op.reg0) = std::min(reg(op.reg0), reg(op.reg1));
          break;
        case dp::OpKind::Xor:
          reg(op.reg0) ^= reg(op.reg1);
          break;
        case dp::OpKind::Backup:
          backup = reg(op.reg0);
          break;
        case dp::OpKind::Restore:
          reg(op.reg0) = backup;
          break;
        case dp::OpKind::Forward:
          out.decision = rmt::FwdDecision::Forward;
          out.egress_port = static_cast<Port>(op.imm);
          break;
        case dp::OpKind::Drop:
          out.decision = rmt::FwdDecision::Drop;
          break;
        case dp::OpKind::Return:
          out.decision = rmt::FwdDecision::Return;
          break;
        case dp::OpKind::Report:
          out.decision = rmt::FwdDecision::Report;
          break;
        case dp::OpKind::Multicast:
          out.decision = rmt::FwdDecision::Multicast;
          out.mcast_group = op.imm;
          break;
      }
    }
    return out;
  }

  /// Shadow memory bucket (virtual addressing).
  [[nodiscard]] Word read(const std::string& vmem, MemAddr addr) const {
    return shadow_.at(vmem).read(addr);
  }
  void write(const std::string& vmem, MemAddr addr, Word value) {
    shadow_.at(vmem).write(addr, value);
  }
  [[nodiscard]] const std::map<std::string, rmt::StageMemory>& shadows() const {
    return shadow_;
  }

 private:
  /// The CRC16 variant of the physical stage this node landed on (mirrors
  /// Rpb's per-stage cycle without asking the Rpb).
  [[nodiscard]] rmt::HashAlgo stage_algo(const rp::IrNode& node) const {
    const int logical = program_.image->alloc.x[static_cast<std::size_t>(node.depth - 1)];
    const int phys = dp::physical_rpb(logical, spec_.total_rpbs());
    constexpr rmt::HashAlgo kCycle[] = {
        rmt::HashAlgo::Crc16Buypass, rmt::HashAlgo::Crc16Mcrf4xx,
        rmt::HashAlgo::Crc16AugCcitt, rmt::HashAlgo::Crc16Dds110};
    return kCycle[static_cast<std::size_t>(phys - 1) % 4];
  }

  const ctrl::InstalledProgram& program_;
  const dp::DataplaneSpec& spec_;
  std::map<std::string, rmt::StageMemory> shadow_;
  std::vector<std::vector<const rp::IrNode*>> by_depth_;
};


}  // namespace p4runpro::testutil
