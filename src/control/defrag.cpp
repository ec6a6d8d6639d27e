#include "control/defrag.h"

#include <algorithm>

namespace p4runpro::ctrl {

namespace {

/// Mirror of ResourceManager::insert_coalesced on a sorted vector.
void release_coalesced(std::vector<MemBlock>& blocks, MemBlock block) {
  auto it = blocks.begin();
  while (it != blocks.end() && it->base < block.base) ++it;
  it = blocks.insert(it, block);
  if (auto next = std::next(it);
      next != blocks.end() && it->base + it->size == next->base) {
    it->size += next->size;
    it = std::prev(blocks.erase(next));
  }
  if (it != blocks.begin()) {
    auto prev = std::prev(it);
    if (prev->base + prev->size == it->base) {
      prev->size += it->size;
      blocks.erase(it);
    }
  }
}

/// Mirror of ResourceManager::allocate_memory's first-fit carve.
[[nodiscard]] bool carve_first_fit(std::vector<MemBlock>& blocks,
                                   std::uint32_t size) {
  for (auto it = blocks.begin(); it != blocks.end(); ++it) {
    if (it->size >= size) {
      it->base += size;
      it->size -= size;
      if (it->size == 0) blocks.erase(it);
      return true;
    }
  }
  return false;
}

}  // namespace

std::uint64_t fragmentation_words(
    const std::vector<std::vector<MemBlock>>& free_mem) {
  std::uint64_t frag = 0;
  for (const auto& blocks : free_mem) {
    std::uint64_t total = 0;
    std::uint64_t largest = 0;
    for (const MemBlock& b : blocks) {
      total += b.size;
      largest = std::max<std::uint64_t>(largest, b.size);
    }
    frag += total - largest;
  }
  return frag;
}

bool simulate_compaction(const ResourceManager::Snapshot& snap,
                         const InstalledProgram& program,
                         std::uint64_t* frag_after) {
  // Transient double occupancy: the copy's table entries are reserved while
  // the old copy still holds its own. The per-RPB demand is the old copy's
  // handle histogram (the stored allocation pins the same stages).
  for (const auto& [rpb, count] : entries_per_rpb(program)) {
    if (rpb < 1 || static_cast<std::size_t>(rpb) > snap.free_entries.size() ||
        snap.free_entries[static_cast<std::size_t>(rpb - 1)] < count) {
      return false;
    }
  }

  std::vector<std::vector<MemBlock>> lists = snap.free_mem;
  // Reserve walk, byte-for-byte the transaction's: alloc.vmem_rpb in map
  // order, first-fit of the IR's vmem size in the pinned RPB.
  const ProgramImage& image = *program.image;
  for (const auto& [vmem, rpb] : image.alloc.vmem_rpb) {
    if (rpb < 1 || static_cast<std::size_t>(rpb) > lists.size()) return false;
    const auto size_it = image.ir.vmem_sizes.find(vmem);
    if (size_it == image.ir.vmem_sizes.end()) return false;
    if (!carve_first_fit(lists[static_cast<std::size_t>(rpb - 1)],
                         size_it->second)) {
      return false;
    }
  }
  // Old copy revoked: its blocks coalesce back.
  for (const auto& [vmem, placement] : program.placements) {
    (void)vmem;
    if (placement.rpb < 1 ||
        static_cast<std::size_t>(placement.rpb) > lists.size()) {
      return false;
    }
    release_coalesced(lists[static_cast<std::size_t>(placement.rpb - 1)],
                      placement.block);
  }
  *frag_after = fragmentation_words(lists);
  return true;
}

}  // namespace p4runpro::ctrl
