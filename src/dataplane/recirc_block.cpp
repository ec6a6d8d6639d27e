#include "dataplane/recirc_block.h"

#include <array>

namespace p4runpro::dp {

RecircBlock::RecircBlock(std::uint32_t capacity) : table_(2, capacity) {}

void RecircBlock::process(rmt::Phv& phv) {
  if (phv.program_id == 0) return;
  const std::array<Word, 2> fields = {static_cast<Word>(phv.program_id),
                                      static_cast<Word>(phv.recirc_id)};
  // Single-pass deployments leave the table empty: skip the lookup.
  const bool hit = bound_ != nullptr
                       ? bound_->size() != 0 && bound_->lookup(fields) != nullptr
                       : table_.size() != 0 && table_.lookup(fields) != nullptr;
  if (hit) {
    phv.recirculate = true;
    if (phv.trace_events != nullptr) {
      rmt::TraceEvent event;
      event.block = rmt::TraceEvent::Block::Recirc;
      event.round = phv.recirc_id;
      event.op = "recirculate";
      event.value = static_cast<Word>(phv.recirc_id + 1);
      phv.trace_events->push_back(std::move(event));
    }
  }
}

Result<std::vector<rmt::EntryHandle>> RecircBlock::install(ProgramId program,
                                                           int rounds) {
  std::vector<rmt::EntryHandle> handles;
  for (int round = 0; round + 1 < rounds; ++round) {
    auto result = table_.insert(
        {rmt::TernaryKey::exact(program), rmt::TernaryKey::exact(static_cast<Word>(round))},
        /*priority=*/0, true);
    if (!result.ok()) {
      remove(handles);
      return result.error();
    }
    handles.push_back(result.value());
  }
  return handles;
}

void RecircBlock::remove(const std::vector<rmt::EntryHandle>& handles) {
  for (auto h : handles) table_.erase(h);
}

}  // namespace p4runpro::dp
