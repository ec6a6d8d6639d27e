// Declarative data-plane write operations (the control plane's op-log).
// Staging a deploy/relink/revoke transaction produces a WriteBatch — a
// flat, enumerable list of WriteOps — instead of mutating the dataplane as
// a side effect of install(); the update engine then *executes* the batch
// through the simulated bfrt channel, and RunproDataplane::apply() returns
// the exact inverse of every applied op, which the executor stacks into a
// rollback journal. A fault at any write index therefore unwinds to a
// byte-identical pre-transaction state (paper §4.3: no intermediate state
// is ever exposed; RBFRT-style batched write plans).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "dataplane/init_block.h"
#include "dataplane/rpb.h"
#include "rmt/tables.h"

namespace p4runpro::dp {

/// One RPB table entry, fully bound (physical RPB, ternary keys, priority,
/// action): what entry generation plans, an op-log adds or deletes and a
/// journal inverse re-adds — the declarative twin of a bfrt table_add. The
/// keys are inline (default: every component a wildcard), so copying an
/// entry from plan to op-log to journal allocates nothing.
struct RpbEntry {
  int rpb = 0;  ///< physical RPB id (1-based)
  std::array<rmt::TernaryKey, kRpbKeyWidth> keys{};
  int priority = 0;
  RpbAction action;
};

/// A single data-plane mutation. Exactly one of the payload groups below is
/// meaningful per kind; unused fields stay default. Ops are self-inverse
/// pairs: applying an Add yields the matching Del (with handles filled in),
/// applying a Del yields the matching Add, and the memory ops yield
/// RestoreMemRange carrying the overwritten words.
struct WriteOp {
  enum class Kind : std::uint8_t {
    AddRecirc,       ///< install recirculation entries (rounds - 1 writes)
    AddRpbEntry,     ///< insert one RPB table entry
    AddFilters,      ///< install the init-block filters (activates the program)
    DelRecirc,       ///< remove recirculation entries by handle
    DelRpbEntry,     ///< erase one RPB table entry by handle
    DelFilters,      ///< remove the init-block filters (deactivates the program)
    WriteMemRange,   ///< write a word range (relink state carry-over)
    ResetMemRange,   ///< zero a word range (termination memory reset)
    RestoreMemRange, ///< write back previously captured words (rollback only)
  };

  Kind kind = Kind::AddRecirc;
  ProgramId program = 0;

  // AddRpbEntry: `entry` is the spec. DelRpbEntry: `rpb_handle` identifies
  // the live entry and `entry` is kept so the inverse (re-add) is exact.
  RpbEntry entry;
  rmt::EntryHandle rpb_handle = 0;

  // AddFilters: tuples + priority. DelFilters: handles (tuples + priority
  // kept for the inverse).
  std::vector<FilterTuple> filters;
  int filter_priority = 0;
  std::vector<InitBlock::InstalledFilter> filter_handles;

  // AddRecirc: rounds. DelRecirc: handles (rounds kept for the inverse).
  int rounds = 1;
  std::vector<rmt::EntryHandle> recirc_handles;

  // Memory ops: physical range inside `mem_rpb`'s stage memory.
  // WriteMemRange/RestoreMemRange carry the words to write in `mem_words`;
  // ResetMemRange zeroes `mem_size` words.
  int mem_rpb = 0;
  std::uint32_t mem_base = 0;
  std::uint32_t mem_size = 0;
  std::vector<Word> mem_words;
  std::string vmem;  ///< memory ops: virtual memory name (spans/diagnostics)

  [[nodiscard]] bool is_memory_op() const noexcept {
    return kind == Kind::WriteMemRange || kind == Kind::ResetMemRange ||
           kind == Kind::RestoreMemRange;
  }
};

/// An ordered op-log: the staged plan of one transaction. Builders append
/// in consistent-update order (adds: recirc -> RPB -> filters last; deletes:
/// filters first -> RPB -> recirc -> memory reset), which the executor
/// relies on for the paper's §4.3 visibility guarantees.
struct WriteBatch {
  std::vector<WriteOp> ops;

  WriteOp& add_recirc(ProgramId program, int rounds) {
    WriteOp op;
    op.kind = WriteOp::Kind::AddRecirc;
    op.program = program;
    op.rounds = rounds;
    return ops.emplace_back(std::move(op));
  }

  WriteOp& add_rpb_entry(ProgramId program, const RpbEntry& entry) {
    WriteOp op;
    op.kind = WriteOp::Kind::AddRpbEntry;
    op.program = program;
    op.entry = entry;
    return ops.emplace_back(std::move(op));
  }

  WriteOp& add_filters(ProgramId program, std::vector<FilterTuple> filters,
                       int priority) {
    WriteOp op;
    op.kind = WriteOp::Kind::AddFilters;
    op.program = program;
    op.filters = std::move(filters);
    op.filter_priority = priority;
    return ops.emplace_back(std::move(op));
  }

  WriteOp& del_recirc(ProgramId program, std::vector<rmt::EntryHandle> handles,
                      int rounds) {
    WriteOp op;
    op.kind = WriteOp::Kind::DelRecirc;
    op.program = program;
    op.recirc_handles = std::move(handles);
    op.rounds = rounds;
    return ops.emplace_back(std::move(op));
  }

  WriteOp& del_rpb_entry(ProgramId program, const RpbEntry& entry,
                         rmt::EntryHandle handle) {
    WriteOp op;
    op.kind = WriteOp::Kind::DelRpbEntry;
    op.program = program;
    op.entry = entry;
    op.rpb_handle = handle;
    return ops.emplace_back(std::move(op));
  }

  WriteOp& del_filters(ProgramId program,
                       std::vector<InitBlock::InstalledFilter> handles,
                       std::vector<FilterTuple> filters, int priority) {
    WriteOp op;
    op.kind = WriteOp::Kind::DelFilters;
    op.program = program;
    op.filter_handles = std::move(handles);
    op.filters = std::move(filters);
    op.filter_priority = priority;
    return ops.emplace_back(std::move(op));
  }

  WriteOp& write_mem_range(int rpb, std::uint32_t base, std::vector<Word> words,
                           std::string vmem) {
    WriteOp op;
    op.kind = WriteOp::Kind::WriteMemRange;
    op.mem_rpb = rpb;
    op.mem_base = base;
    op.mem_size = static_cast<std::uint32_t>(words.size());
    op.mem_words = std::move(words);
    op.vmem = std::move(vmem);
    return ops.emplace_back(std::move(op));
  }

  WriteOp& reset_mem_range(int rpb, std::uint32_t base, std::uint32_t size,
                           std::string vmem) {
    WriteOp op;
    op.kind = WriteOp::Kind::ResetMemRange;
    op.mem_rpb = rpb;
    op.mem_base = base;
    op.mem_size = size;
    op.vmem = std::move(vmem);
    return ops.emplace_back(std::move(op));
  }

  [[nodiscard]] bool empty() const noexcept { return ops.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return ops.size(); }
};

}  // namespace p4runpro::dp
