// Entry generation: the final compilation step (Fig. 5c -> "generates table
// entries"). Maps every IR node to a concrete RPB table entry with ternary
// keys over (program id, branch id, recirculation id, har, sar, mar),
// binding physical memory bases (offset step), hash masks (mask step) and
// SALU selectors from the allocation result.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/types.h"
#include "compiler/ir.h"
#include "compiler/solver.h"
#include "control/resource_manager.h"
#include "dataplane/rpb.h"
#include "dataplane/write_op.h"

namespace p4runpro::rp {

/// Everything the update engine needs to (consistently) install or remove
/// one program.
struct EntryPlan {
  ProgramId program = 0;
  std::vector<dp::RpbEntry> rpb_entries;
  std::vector<dp::FilterTuple> filters;
  /// Filtering-table priority; the controller assigns a fresh generation
  /// per install so that an incremental update's new version outranks the
  /// old one while both are briefly present.
  int filter_priority = 0;
  int rounds = 1;  // recirculation entries: rounds - 1
};

/// Build the plan for a translated+allocated program. `placements` gives
/// the physical base of each virtual memory block (from the resource
/// manager commit).
[[nodiscard]] EntryPlan generate_entries(
    const TranslatedProgram& program, const AllocationResult& alloc,
    ProgramId id, const std::map<std::string, ctrl::VmemPlacement>& placements,
    const dp::DataplaneSpec& spec);

/// Stage a plan's install into a declarative op-log, in consistent-update
/// order (§4.3, Fig. 6): recirculation entries first, then the RPB entries,
/// then the init filters last — the program stays invisible until the final
/// filter write. The update engine executes the batch; nothing here touches
/// the dataplane.
void stage_install(const EntryPlan& plan, dp::WriteBatch& batch);

/// Stage the removal of an installed plan (handles from the live program):
/// filters first (atomically deactivates the program), then RPB entries,
/// recirculation entries, and finally the lock-and-reset of each virtual
/// memory (Fig. 6 step 4). `rpb_handles`/`recirc_handles`/`filter_handles`
/// must be the handles the install execution returned, aligned with the
/// plan's entry order.
void stage_remove(
    const EntryPlan& plan,
    const std::vector<dp::InitBlock::InstalledFilter>& filter_handles,
    const std::vector<std::pair<int, rmt::EntryHandle>>& rpb_handles,
    const std::vector<rmt::EntryHandle>& recirc_handles,
    const std::map<std::string, ctrl::VmemPlacement>& placements,
    dp::WriteBatch& batch);

}  // namespace p4runpro::rp
