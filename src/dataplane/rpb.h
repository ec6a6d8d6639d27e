// Runtime programming block: one per pipeline stage (except the stages the
// initialization and recirculation blocks occupy). An RPB is "a large table
// with the keys of control flags and registers and the actions implementing
// the atomic operations" (paper §5), plus this stage's stateful memory and
// hash unit.
#pragma once

#include <array>
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

  /// Redirect match lookups to a frozen snapshot table, tagged with the
  /// snapshot's globally unique epoch (nullptr/0 = back to the own table).
  /// Shard instances are re-bound at every batch start. The epoch becomes
  /// the match-cache validity tag: epochs never repeat, so a cache slot
  /// filled against a superseded snapshot can never validate again — a
  /// per-table generation could collide across snapshots whose OTHER
  /// tables differ, and the cached action pointer would dangle into freed
  /// snapshot storage.
  void bind_table(const FrozenRpbTable* table, std::uint64_t epoch) noexcept {
    bound_ = table;
    bound_epoch_ = epoch;
  }

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

  /// Packets whose winning entry was served from the match cache since
  /// provisioning (also mirrored into StageStats::match_cache_hits).
  [[nodiscard]] std::uint64_t match_cache_hits() const noexcept {
    return match_cache_hits_;
  }

 private:
  void execute(const AtomicOp& op, rmt::Phv& phv);

  /// Direct-mapped match cache over the (program, branch, recirc) control
  /// flags. A cached winner is valid only while the validity tag is
  /// unchanged AND no entry that could match the program keys on the
  /// Har/Sar/Mar components (checked via key_use at fill time), so
  /// conditional-branch and register-keyed programs stay exact. Misses
  /// (nullptr winners) are cached too under the same validity rule.
  /// The tag is the own table's generation on the master path and the
  /// bound snapshot's epoch on the sharded path (see bind_table).
  struct CacheSlot {
    std::uint64_t tag = 0;  ///< 0 = empty (generations and epochs start at 1)
    std::uint64_t key = 0;  ///< packed (program, branch, recirc) triple
    const RpbAction* action = nullptr;
  };
  static constexpr std::size_t kMatchCacheSlots = 64;  // power of two
  static constexpr std::uint32_t kRegisterKeyMask =
      (1u << kKeyHar) | (1u << kKeySar) | (1u << kKeyMar);

  /// The (program, branch, recirc) control flags packed into one word so a
  /// cache probe is a single compare (ids are 16/16/8 bits).
  [[nodiscard]] static std::uint64_t cache_key(ProgramId program, BranchId branch,
                                               RecircId recirc) noexcept {
    return (static_cast<std::uint64_t>(program) << 32) |
           (static_cast<std::uint64_t>(branch) << 8) |
           static_cast<std::uint64_t>(recirc);
  }

  [[nodiscard]] static std::size_t cache_slot_index(std::uint64_t key) noexcept {
    const std::uint32_t h =
        static_cast<std::uint32_t>(key >> 32) * 0x9e3779b1u ^
        static_cast<std::uint32_t>(key);
    return (h ^ (h >> 16)) & (kMatchCacheSlots - 1);
  }

  int physical_id_;
  bool ingress_;
  RpbTable table_;
  const FrozenRpbTable* bound_ = nullptr;
  std::uint64_t bound_epoch_ = 0;
  rmt::StageMemory memory_;
  rmt::HashAlgo hash16_;
  rmt::StageStats* stats_ = nullptr;
  std::array<CacheSlot, kMatchCacheSlots> match_cache_{};
  std::uint64_t match_cache_hits_ = 0;
};

}  // namespace p4runpro::dp
