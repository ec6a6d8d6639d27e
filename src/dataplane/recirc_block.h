// Recirculation block: last ingress stage. Rewrites the P4runpro header
// (registers, flags, addresses travel with the packet) and flags the packet
// for another pass when its program spans more logical RPBs than one
// physical circle provides (paper §4.1.3).
#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "rmt/pipeline.h"
#include "rmt/tables.h"

namespace p4runpro::dp {

/// Keyed on (program_id, recirc_id); payload unused. Width fixed at compile
/// time so entries keep their keys inline.
using RecircTable = rmt::TernaryTable<bool, 2>;
/// Its published form, read by shard pipes (see dp::TableSnapshot).
using FrozenRecircTable = rmt::FrozenTernaryTable<bool, 2>;

class RecircBlock final : public rmt::PipelineStage {
 public:
  explicit RecircBlock(std::uint32_t capacity);

  void process(rmt::Phv& phv) override;

  /// Install the recirculation entries for a program needing `rounds` total
  /// passes (rounds - 1 recirculations); one entry per non-final round.
  Result<std::vector<rmt::EntryHandle>> install(ProgramId program, int rounds);
  void remove(const std::vector<rmt::EntryHandle>& handles);

  [[nodiscard]] std::size_t entries() const noexcept { return table_.size(); }

  /// The master table (what snapshots freeze).
  [[nodiscard]] const RecircTable& table() const noexcept { return table_; }

  /// Redirect lookups to a frozen snapshot table (nullptr = back to the
  /// own/master table). Shard instances are re-bound at every batch start.
  void bind_table(const FrozenRecircTable* table) noexcept { bound_ = table; }

 private:
  RecircTable table_;
  const FrozenRecircTable* bound_ = nullptr;
};

}  // namespace p4runpro::dp
