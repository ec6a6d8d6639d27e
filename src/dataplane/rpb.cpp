#include "dataplane/rpb.h"

#include <array>
#include <cassert>

namespace p4runpro::dp {

namespace {
constexpr rmt::HashAlgo kHash16Cycle[] = {
    rmt::HashAlgo::Crc16Buypass,
    rmt::HashAlgo::Crc16Mcrf4xx,
    rmt::HashAlgo::Crc16AugCcitt,
    rmt::HashAlgo::Crc16Dds110,
};

[[nodiscard]] std::array<std::uint8_t, 4> word_bytes(Word v) noexcept {
  return {static_cast<std::uint8_t>(v >> 24), static_cast<std::uint8_t>(v >> 16),
          static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
}
}  // namespace

Rpb::Rpb(int physical_id, bool ingress, std::uint32_t memory_size,
         std::uint32_t table_capacity)
    : physical_id_(physical_id),
      ingress_(ingress),
      table_(kRpbKeyWidth, table_capacity),
      memory_(memory_size),
      hash16_(kHash16Cycle[static_cast<std::size_t>(physical_id - 1) % 4]) {}

void Rpb::process(rmt::Phv& phv) {
  if (phv.program_id == 0) return;  // no program claimed this packet

  const std::array<Word, kRpbKeyWidth> fields = {
      static_cast<Word>(phv.program_id), static_cast<Word>(phv.branch_id),
      static_cast<Word>(phv.recirc_id),  phv.reg(Reg::Har),
      phv.reg(Reg::Sar),                 phv.reg(Reg::Mar)};
  const RpbAction* action =
      bound_ != nullptr ? bound_->lookup(fields) : table_.lookup(fields);
  if (action == nullptr) {
    if (stats_ != nullptr) ++stats_->table_misses;
    ++phv.pkt_table_misses;
    return;
  }
  // The entry's owner tag and the claiming program must agree: entries are
  // keyed exactly on the program id, so a mismatch means a corrupted plan.
  assert(action->owner == 0 || action->owner == phv.program_id);
  if (stats_ != nullptr) {
    ++stats_->table_hits;
    if (action->op.kind == OpKind::Mem) ++stats_->salu_execs;
  }
  ++phv.pkt_table_hits;
  if (action->op.kind == OpKind::Mem) ++phv.pkt_salu_execs;
  if (phv.trace_events != nullptr) {
    rmt::TraceEvent event;
    event.block = rmt::TraceEvent::Block::Rpb;
    event.stage = physical_id_;
    event.round = phv.recirc_id;
    event.branch = phv.branch_id;
    event.op = action->op.str();
    if (action->next_branch) event.next_branch = *action->next_branch;
    phv.trace_events->push_back(std::move(event));
  }
  execute(action->op, phv);
  if (action->next_branch) phv.branch_id = *action->next_branch;
}

void Rpb::execute(const AtomicOp& op, rmt::Phv& phv) {
  switch (op.kind) {
    case OpKind::Nop:
    case OpKind::Branch:
      // Branch semantics live entirely in the key match + next_branch.
      return;
    case OpKind::Extract:
      phv.set_reg(op.reg0, rmt::read_field(phv.pkt, op.field, phv.qdepth));
      return;
    case OpKind::Modify:
      rmt::write_field(phv.pkt, op.field, phv.reg(op.reg0));
      phv.invalidate_five_tuple();
      return;
    case OpKind::Hash5Tuple:
      phv.set_reg(Reg::Har,
                  rmt::run_hash(rmt::HashAlgo::Crc32, phv.five_tuple_bytes()));
      return;
    case OpKind::HashHar: {
      const auto bytes = word_bytes(phv.reg(Reg::Har));
      phv.set_reg(Reg::Har, rmt::run_hash(rmt::HashAlgo::Crc32, bytes));
      return;
    }
    case OpKind::Hash5TupleMem:
      // Mask step merged with the hash action: overflowed hash output is
      // invisible to later primitives (§4.1.2).
      phv.set_reg(Reg::Mar,
                  rmt::run_hash(hash16_, phv.five_tuple_bytes()) & op.mask);
      return;
    case OpKind::HashHarMem: {
      const auto bytes = word_bytes(phv.reg(Reg::Har));
      phv.set_reg(Reg::Mar, rmt::run_hash(hash16_, bytes) & op.mask);
      return;
    }
    case OpKind::Offset:
      phv.phys_addr = phv.reg(Reg::Mar) + op.imm;
      return;
    case OpKind::Mem: {
      const rmt::SaluResult res =
          memory_.execute(op.salu, phv.phys_addr, phv.reg(Reg::Sar));
      if (res.sar_set) phv.set_reg(Reg::Sar, res.sar_out);
      return;
    }
    case OpKind::Loadi:
      phv.set_reg(op.reg0, op.imm);
      return;
    case OpKind::Add:
      phv.set_reg(op.reg0, phv.reg(op.reg0) + phv.reg(op.reg1));
      return;
    case OpKind::And:
      phv.set_reg(op.reg0, phv.reg(op.reg0) & phv.reg(op.reg1));
      return;
    case OpKind::Or:
      phv.set_reg(op.reg0, phv.reg(op.reg0) | phv.reg(op.reg1));
      return;
    case OpKind::Max:
      phv.set_reg(op.reg0, std::max(phv.reg(op.reg0), phv.reg(op.reg1)));
      return;
    case OpKind::Min:
      phv.set_reg(op.reg0, std::min(phv.reg(op.reg0), phv.reg(op.reg1)));
      return;
    case OpKind::Xor:
      phv.set_reg(op.reg0, phv.reg(op.reg0) ^ phv.reg(op.reg1));
      return;
    case OpKind::Backup:
      phv.backup = phv.reg(op.reg0);
      return;
    case OpKind::Restore:
      phv.set_reg(op.reg0, phv.backup);
      return;
    case OpKind::Forward:
      assert(ingress_ && "forwarding primitives are ingress-only");
      phv.decision = rmt::FwdDecision::Forward;
      phv.egress_port = static_cast<Port>(op.imm);
      return;
    case OpKind::Drop:
      assert(ingress_);
      phv.decision = rmt::FwdDecision::Drop;
      return;
    case OpKind::Return:
      assert(ingress_);
      phv.decision = rmt::FwdDecision::Return;
      return;
    case OpKind::Report:
      assert(ingress_);
      phv.decision = rmt::FwdDecision::Report;
      return;
    case OpKind::Multicast:
      assert(ingress_);
      phv.decision = rmt::FwdDecision::Multicast;
      phv.mcast_group = op.imm;
      return;
  }
}

}  // namespace p4runpro::dp
