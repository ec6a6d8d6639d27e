// Runtime programming block: one per pipeline stage (except the stages the
// initialization and recirculation blocks occupy). An RPB is "a large table
// with the keys of control flags and registers and the actions implementing
// the atomic operations" (paper §5), plus this stage's stateful memory and
// hash unit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "common/types.h"
#include "dataplane/atomic_op.h"
#include "rmt/crc.h"
#include "rmt/memory.h"
#include "rmt/pipeline.h"
#include "rmt/tables.h"

namespace p4runpro::dp {

/// Action payload of an RPB entry: the atomic operation plus an optional
/// branch-id transition (BRANCH case entries and the case-body rejoin).
/// `owner` tags the entry with the program it belongs to (entry->program
/// mapping for attribution); entry generation sets it, and because RPB
/// entries match exactly on the program-id key it always equals the
/// claiming packet's program id. 0 means untagged (hand-built entries).
struct RpbAction {
  AtomicOp op;
  std::optional<BranchId> next_branch;
  ProgramId owner = 0;
};

/// Exact/ternary key layout of the RPB table, in order.
enum RpbKeyField : int {
  kKeyProgram = 0,
  kKeyBranch = 1,
  kKeyRecirc = 2,
  kKeyHar = 3,
  kKeySar = 4,
  kKeyMar = 5,
};
inline constexpr int kRpbKeyWidth = 6;

/// The RPB's table type: key width fixed at compile time so every entry
/// stores its keys inline (no per-entry heap hop on the lookup path).
using RpbTable = rmt::TernaryTable<RpbAction, kRpbKeyWidth>;
/// Its published form, read by shard pipes (see dp::TableSnapshot).
using FrozenRpbTable = rmt::FrozenTernaryTable<RpbAction, kRpbKeyWidth>;

class Rpb final : public rmt::PipelineStage {
 public:
  /// `physical_id` is 1-based over all RPBs (ingress then egress); the hash
  /// unit algorithm cycles through the four CRC-16 variants per stage so
  /// that multi-row sketches get independent hash functions (Fig. 13d).
  Rpb(int physical_id, bool ingress, std::uint32_t memory_size,
      std::uint32_t table_capacity);

  void process(rmt::Phv& phv) override;

  /// Entry management (called by the update engine). Always the master
  /// table, even when a snapshot is bound: control writes never touch a
  /// published snapshot.
  RpbTable& table() noexcept { return table_; }
  [[nodiscard]] const RpbTable& table() const noexcept { return table_; }

  /// Redirect match lookups to a frozen snapshot table (nullptr = back to
  /// the own table). Shard instances are re-bound at every batch start.
  void bind_table(const FrozenRpbTable* table) noexcept { bound_ = table; }

  /// Entries in the table lookups currently read from: the bound snapshot
  /// table when sharded, the own/master table otherwise.
  [[nodiscard]] std::size_t read_size() const noexcept {
    return bound_ != nullptr ? bound_->size() : table_.size();
  }

  rmt::StageMemory& memory() noexcept { return memory_; }
  [[nodiscard]] const rmt::StageMemory& memory() const noexcept { return memory_; }

  [[nodiscard]] int physical_id() const noexcept { return physical_id_; }
  [[nodiscard]] bool is_ingress() const noexcept { return ingress_; }
  [[nodiscard]] rmt::HashAlgo hash16_algo() const noexcept { return hash16_; }

  /// Execution-counter sink (the owning pipeline's StageStats); wired once
  /// by the data plane at provisioning time.
  void set_stage_stats(rmt::StageStats* stats) noexcept { stats_ = stats; }

 private:
  void execute(const AtomicOp& op, rmt::Phv& phv);

  int physical_id_;
  bool ingress_;
  RpbTable table_;
  const FrozenRpbTable* bound_ = nullptr;
  rmt::StageMemory memory_;
  rmt::HashAlgo hash16_;
  rmt::StageStats* stats_ = nullptr;
};

}  // namespace p4runpro::dp
