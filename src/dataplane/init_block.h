// Initialization block: first ingress stage. One filtering table per
// parsing path (paper §4.1.1/§5); the only action is assigning the unique
// program ID that all later blocks key on — this is what gives P4runpro
// flow/port-granular program isolation.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "rmt/packet.h"
#include "rmt/pipeline.h"
#include "rmt/tables.h"

namespace p4runpro::dp {

/// The parsing paths of the provisioned parser (K = 5 filtering tables).
enum class ParsePath : std::uint8_t { Eth = 0, Ipv4 = 1, Tcp = 2, Udp = 3, App = 4 };
inline constexpr int kNumParsePaths = 5;

/// Canonical key layout of every filtering table.
enum FilterKeyField : int {
  kFilterIngressPort = 0,
  kFilterIpv4Src = 1,
  kFilterIpv4Dst = 2,
  kFilterIpv4Proto = 3,
  kFilterL4Src = 4,
  kFilterL4Dst = 5,
  kFilterEthType = 6,
};
inline constexpr int kFilterKeyWidth = 7;

/// Filtering-table type: key width fixed at compile time so entries keep
/// their keys inline. A filter that does not match the ingress port exactly
/// (no catalog filter does) sits in the table's wildcard pool, indexed by
/// its first masked field: a claim binary-searches one run per (field,
/// mask) shape in use instead of scanning every installed filter.
using FilterTable = rmt::TernaryTable<ProgramId, kFilterKeyWidth>;
/// The published form of the filtering tables, one per parsing path, read
/// by shard pipes (see dp::TableSnapshot).
using FrozenFilterTable = rmt::FrozenTernaryTable<ProgramId, kFilterKeyWidth>;
using FrozenFilterTables =
    std::array<std::shared_ptr<const FrozenFilterTable>, kNumParsePaths>;

/// One `<field, value, mask>` filter tuple from a program declaration.
struct FilterTuple {
  rmt::FieldId field;
  Word value;
  Word mask;
};

/// Map a DSL field to its filtering-table key slot; nullopt if the field
/// cannot be filtered on (semantic error).
[[nodiscard]] std::optional<int> filter_key_slot(rmt::FieldId field) noexcept;

/// Parsing paths on which a filter with these tuples can match (determined
/// by the headers the filtered fields require).
[[nodiscard]] std::vector<ParsePath> compatible_paths(
    const std::vector<FilterTuple>& filters);

class InitBlock final : public rmt::PipelineStage {
 public:
  explicit InitBlock(std::uint32_t per_table_capacity);

  void process(rmt::Phv& phv) override;

  /// Install one program's filter into every compatible path table.
  /// Returns the handles (pairs of path + entry) for later removal.
  struct InstalledFilter {
    ParsePath path;
    rmt::EntryHandle handle;
  };
  Result<std::vector<InstalledFilter>> install(ProgramId program,
                                               const std::vector<FilterTuple>& filters,
                                               int priority);
  void remove(const std::vector<InstalledFilter>& handles);

  [[nodiscard]] const FilterTable& table(ParsePath path) const;
  [[nodiscard]] std::size_t total_entries() const noexcept;

  /// Redirect claim lookups to a frozen snapshot's filter tables (nullptr =
  /// back to the own/master tables). Shard instances are re-bound at every
  /// batch start; the per-program claim counters stay on THIS instance
  /// (shard-local mutable state), only the match tables are shared.
  void bind_tables(const FrozenFilterTables* tables) noexcept { bound_ = tables; }

  /// Which path a parsed packet takes (deepest parsed header wins).
  [[nodiscard]] static ParsePath path_of(const rmt::Phv& phv) noexcept;

  /// Packets claimed by a program since it was installed (per-program
  /// traffic counters of the monitoring path).
  [[nodiscard]] std::uint64_t claimed_packets(ProgramId program) const;
  void clear_counter(ProgramId program);

 private:
  std::array<FilterTable, kNumParsePaths> tables_;
  const FrozenFilterTables* bound_ = nullptr;
  /// Per-program claim counters, indexed by program id. Fixed capacity
  /// (program ids are recycled, so the max live id is bounded by the total
  /// filter-entry capacity) and relaxed atomics: they model pipe-local
  /// hardware registers, where a control-plane clear racing the owning
  /// pipe's increment resolves per-word without tearing. Only the owning
  /// shard's traffic increments a given instance's counters.
  std::vector<std::atomic<std::uint64_t>> claimed_;
};

}  // namespace p4runpro::dp
