#include "compiler/entrygen.h"

#include <cassert>

namespace p4runpro::rp {

namespace {

[[nodiscard]] dp::AtomicOp bind_op(const IrOp& ir,
                                   const std::map<std::string, ctrl::VmemPlacement>& placements,
                                   const TranslatedProgram& program) {
  dp::AtomicOp op;
  op.kind = ir.kind;
  op.field = ir.field;
  op.reg0 = ir.reg0;
  op.reg1 = ir.reg1;
  op.imm = ir.imm;
  op.salu = ir.salu;
  switch (ir.kind) {
    case dp::OpKind::Offset: {
      const auto it = placements.find(ir.vmem);
      assert(it != placements.end() && "memory op without placement");
      op.imm = it->second.block.base;
      break;
    }
    case dp::OpKind::Hash5TupleMem:
    case dp::OpKind::HashHarMem: {
      // Mask step: adjust the 16-bit hash output to the virtual size.
      const std::uint32_t size = program.vmem_sizes.at(ir.vmem);
      op.mask = size - 1;
      break;
    }
    default:
      break;
  }
  return op;
}

}  // namespace

EntryPlan generate_entries(const TranslatedProgram& program,
                           const AllocationResult& alloc, ProgramId id,
                           const std::map<std::string, ctrl::VmemPlacement>& placements,
                           const dp::DataplaneSpec& spec) {
  EntryPlan plan;
  plan.program = id;
  plan.filters = program.filters;
  plan.rounds = alloc.rounds;
  plan.rpb_entries.reserve(static_cast<std::size_t>(program.total_entries()));

  const int total_rpbs = spec.total_rpbs();
  for (const auto& node : program.nodes) {
    const int logical = alloc.x[static_cast<std::size_t>(node.depth - 1)];
    // Common control-flag keys; every other component stays a wildcard.
    dp::RpbEntry entry;
    entry.rpb = dp::physical_rpb(logical, total_rpbs);
    entry.keys[dp::kKeyProgram] = rmt::TernaryKey::exact(id);
    entry.keys[dp::kKeyBranch] = rmt::TernaryKey::exact(node.branch);
    entry.keys[dp::kKeyRecirc] = rmt::TernaryKey::exact(
        static_cast<Word>(dp::recirc_round(logical, total_rpbs)));

    if (node.op.kind == dp::OpKind::Branch) {
      // One entry per case; earlier cases take higher priority.
      const int cases = static_cast<int>(node.op.cases.size());
      for (int c = 0; c < cases; ++c) {
        const CaseRule& rule = node.op.cases[static_cast<std::size_t>(c)];
        dp::RpbEntry& case_entry = plan.rpb_entries.emplace_back(entry);
        for (const auto& cond : rule.conditions) {
          const int slot = cond.reg == Reg::Har   ? dp::kKeyHar
                           : cond.reg == Reg::Sar ? dp::kKeySar
                                                  : dp::kKeyMar;
          case_entry.keys[static_cast<std::size_t>(slot)] =
              rmt::TernaryKey{cond.value, cond.mask};
        }
        case_entry.priority = cases - c;
        case_entry.action = dp::RpbAction{dp::AtomicOp::branch(), rule.target, id};
      }
      continue;
    }

    entry.action = dp::RpbAction{bind_op(node.op, placements, program), std::nullopt, id};
    plan.rpb_entries.push_back(entry);
  }
  return plan;
}

void stage_install(const EntryPlan& plan, dp::WriteBatch& batch) {
  // Step 1: recirculation entries (invisible without a program id). Always
  // staged, even for single-pass programs: the channel still syncs one
  // (empty) recirculation batch, matching the bfrt cost model.
  batch.ops.reserve(batch.ops.size() + plan.rpb_entries.size() + 2);
  batch.add_recirc(plan.program, plan.rounds);
  // Step 2: RPB entries, in plan order.
  for (const auto& entry : plan.rpb_entries) batch.add_rpb_entry(plan.program, entry);
  // Step 3: init filters last — this atomically activates the program.
  batch.add_filters(plan.program, plan.filters, plan.filter_priority);
}

void stage_remove(
    const EntryPlan& plan,
    const std::vector<dp::InitBlock::InstalledFilter>& filter_handles,
    const std::vector<std::pair<int, rmt::EntryHandle>>& rpb_handles,
    const std::vector<rmt::EntryHandle>& recirc_handles,
    const std::map<std::string, ctrl::VmemPlacement>& placements,
    dp::WriteBatch& batch) {
  assert(rpb_handles.size() == plan.rpb_entries.size() &&
         "handles must align with the plan's entry order");
  batch.ops.reserve(batch.ops.size() + rpb_handles.size() + 2 + placements.size());
  // Step 1: delete the init filters first; without a program id every later
  // component of the program stops matching at once.
  batch.del_filters(plan.program, filter_handles, plan.filters,
                    plan.filter_priority);
  // Step 2: the remaining entries.
  for (std::size_t i = 0; i < rpb_handles.size(); ++i) {
    batch.del_rpb_entry(plan.program, plan.rpb_entries[i], rpb_handles[i].second);
  }
  batch.del_recirc(plan.program, recirc_handles, plan.rounds);
  // Step 3: lock, reset and release the program's memory (Fig. 6 step 4).
  for (const auto& [vmem, placement] : placements) {
    batch.reset_mem_range(placement.rpb, placement.block.base,
                          placement.block.size, vmem);
  }
}

}  // namespace p4runpro::rp
