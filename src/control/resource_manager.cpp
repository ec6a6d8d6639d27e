#include "control/resource_manager.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "obs/telemetry.h"

namespace p4runpro::ctrl {

ResourceManager::ResourceManager(const dp::DataplaneSpec& spec) : spec_(spec) {
  const int total = spec_.total_rpbs();
  free_mem_.resize(static_cast<std::size_t>(total));
  for (auto& list : free_mem_) {
    list.push_back(MemBlock{0, spec_.memory_per_rpb});
  }
  entries_used_.assign(static_cast<std::size_t>(total), 0);
  memory_used_.assign(static_cast<std::size_t>(total), 0);
}

ResourceManager::~ResourceManager() {
  if (telemetry_ != nullptr) telemetry_->metrics.unregister_probes(this);
}

std::uint32_t ResourceManager::stateful_programs(int rpb) const {
  std::uint32_t count = 0;
  for (const auto& [id, placements] : programs_) {
    for (const auto& [vmem, placement] : placements) {
      if (placement.rpb == rpb) {
        ++count;
        break;  // one occupancy slot per program, however many vmems
      }
    }
  }
  return count;
}

void ResourceManager::attach_telemetry(obs::Telemetry* telemetry) {
  if (telemetry_ != nullptr) telemetry_->metrics.unregister_probes(this);
  telemetry_ = telemetry;
  if (telemetry_ == nullptr) return;
  auto& m = telemetry_->metrics;
  for (int rpb = 1; rpb <= spec_.total_rpbs(); ++rpb) {
    char name[64];
    std::snprintf(name, sizeof name, "ctrl.rpb.%02d.tcam_used", rpb);
    m.register_probe(name, this, [this, rpb] {
      return static_cast<double>(entries_used(rpb));
    });
    std::snprintf(name, sizeof name, "ctrl.rpb.%02d.sram_used", rpb);
    m.register_probe(name, this, [this, rpb] {
      return static_cast<double>(memory_used(rpb));
    });
    // The stage has one SALU and one hash unit; both are occupied by every
    // program with a virtual memory pinned here (hash-addressed access).
    std::snprintf(name, sizeof name, "ctrl.rpb.%02d.salu_programs", rpb);
    m.register_probe(name, this, [this, rpb] {
      return static_cast<double>(stateful_programs(rpb));
    });
    std::snprintf(name, sizeof name, "ctrl.rpb.%02d.hash_programs", rpb);
    m.register_probe(name, this, [this, rpb] {
      return static_cast<double>(stateful_programs(rpb));
    });
  }
  m.register_probe("ctrl.resources.entry_utilization", this,
                   [this] { return total_entry_utilization(); });
  m.register_probe("ctrl.resources.memory_utilization", this,
                   [this] { return total_memory_utilization(); });
  m.register_probe("ctrl.resources.programs", this,
                   [this] { return static_cast<double>(programs_.size()); });
  m.register_probe("ctrl.resources.fragmentation_words", this, [this] {
    return static_cast<double>(total_fragmentation_words());
  });
}

std::uint64_t ResourceManager::fragmentation_words(int rpb) const {
  std::uint64_t total = 0;
  std::uint64_t largest = 0;
  for (const MemBlock& b : free_list(rpb)) {
    total += b.size;
    largest = std::max<std::uint64_t>(largest, b.size);
  }
  return total - largest;
}

std::uint64_t ResourceManager::total_fragmentation_words() const {
  std::uint64_t frag = 0;
  for (int rpb = 1; rpb <= spec_.total_rpbs(); ++rpb) {
    frag += fragmentation_words(rpb);
  }
  return frag;
}

std::uint32_t ResourceManager::largest_free_block(int rpb) const {
  std::uint32_t largest = 0;
  for (const MemBlock& b : free_list(rpb)) largest = std::max(largest, b.size);
  return largest;
}

std::list<MemBlock>& ResourceManager::free_list(int rpb) {
  assert(rpb >= 1 && rpb <= spec_.total_rpbs());
  return free_mem_[static_cast<std::size_t>(rpb - 1)];
}

const std::list<MemBlock>& ResourceManager::free_list(int rpb) const {
  assert(rpb >= 1 && rpb <= spec_.total_rpbs());
  return free_mem_[static_cast<std::size_t>(rpb - 1)];
}

bool ResourceManager::Snapshot::can_allocate(
    int rpb, std::span<const std::uint32_t> sizes) const {
  if (rpb < 1 || static_cast<std::size_t>(rpb) > free_mem.size()) return false;
  const auto& blocks = free_mem[static_cast<std::size_t>(rpb - 1)];
  if (sizes.size() == 1) {
    return std::any_of(blocks.begin(), blocks.end(),
                       [&](const MemBlock& b) { return b.size >= sizes[0]; });
  }
  // Simulate first-fit carving on a copy of the block sizes. The solver
  // asks on every search node that pins memory, so the copy reuses a
  // per-thread buffer.
  thread_local std::vector<std::uint32_t> remaining;
  remaining.clear();
  for (const auto& b : blocks) remaining.push_back(b.size);
  for (std::uint32_t size : sizes) {
    const auto it = std::find_if(remaining.begin(), remaining.end(),
                                 [&](std::uint32_t free) { return free >= size; });
    if (it == remaining.end()) return false;
    *it -= size;
  }
  return true;
}

ResourceManager::Snapshot ResourceManager::snapshot() const {
  Snapshot snap;
  const int total = spec_.total_rpbs();
  snap.free_entries.reserve(static_cast<std::size_t>(total));
  snap.free_mem.reserve(static_cast<std::size_t>(total));
  for (int rpb = 1; rpb <= total; ++rpb) {
    snap.free_entries.push_back(spec_.entries_per_rpb -
                                entries_used_[static_cast<std::size_t>(rpb - 1)]);
    const auto& list = free_list(rpb);
    snap.free_mem.emplace_back(list.begin(), list.end());
  }
  return snap;
}

Result<MemBlock> ResourceManager::allocate_memory(int rpb, std::uint32_t size) {
  auto& list = free_list(rpb);
  for (auto it = list.begin(); it != list.end(); ++it) {
    if (it->size >= size) {
      const MemBlock out{it->base, size};
      it->base += size;
      it->size -= size;
      if (it->size == 0) list.erase(it);
      memory_used_[static_cast<std::size_t>(rpb - 1)] += size;
      return out;
    }
  }
  return Error{"no contiguous free block of size " + std::to_string(size) +
                   " in RPB " + std::to_string(rpb),
               "ResourceManager", ErrorCode::AllocFailed};
}

Status ResourceManager::reclaim_block(int rpb, const MemBlock& block) {
  auto& list = free_list(rpb);
  for (auto it = list.begin(); it != list.end(); ++it) {
    if (it->base > block.base) break;
    if (block.base >= it->base && block.base + block.size <= it->base + it->size) {
      // Split the containing free partition around the reclaimed range.
      const MemBlock before{it->base, block.base - it->base};
      const MemBlock after{block.base + block.size,
                           (it->base + it->size) - (block.base + block.size)};
      it = list.erase(it);
      if (after.size > 0) it = list.insert(it, after);
      if (before.size > 0) list.insert(it, before);
      memory_used_[static_cast<std::size_t>(rpb - 1)] += block.size;
      return {};
    }
  }
  return Error{"block [" + std::to_string(block.base) + ", +" +
                   std::to_string(block.size) + ") of RPB " + std::to_string(rpb) +
                   " is no longer free",
               "ResourceManager", ErrorCode::Conflict};
}

void ResourceManager::insert_coalesced(std::list<MemBlock>& list, MemBlock block) {
  auto it = list.begin();
  while (it != list.end() && it->base < block.base) ++it;
  it = list.insert(it, block);
  // Coalesce with successor.
  auto next = std::next(it);
  if (next != list.end() && it->base + it->size == next->base) {
    it->size += next->size;
    list.erase(next);
  }
  // Coalesce with predecessor.
  if (it != list.begin()) {
    auto prev = std::prev(it);
    if (prev->base + prev->size == it->base) {
      prev->size += it->size;
      list.erase(it);
    }
  }
}

void ResourceManager::free_memory(int rpb, const MemBlock& block) {
  insert_coalesced(free_list(rpb), block);
  auto& used = memory_used_[static_cast<std::size_t>(rpb - 1)];
  assert(used >= block.size);
  used -= block.size;
}

Status ResourceManager::reserve_entries(int rpb, std::uint32_t count) {
  auto& used = entries_used_[static_cast<std::size_t>(rpb - 1)];
  if (used + count > spec_.entries_per_rpb) {
    return Error{"table entries exhausted in RPB " + std::to_string(rpb),
                 "ResourceManager", ErrorCode::AllocFailed};
  }
  used += count;
  push_occupancy(rpb, used);
  return {};
}

void ResourceManager::release_entries(int rpb, std::uint32_t count) {
  auto& used = entries_used_[static_cast<std::size_t>(rpb - 1)];
  assert(used >= count);
  used -= count;
  push_occupancy(rpb, used);
}

void ResourceManager::push_occupancy(int rpb, std::uint32_t used) {
  if (telemetry_ != nullptr) {
    telemetry_->monitor.on_stage_occupancy(rpb, used, spec_.entries_per_rpb);
  }
}

void ResourceManager::record_program(ProgramId id,
                                     std::map<std::string, VmemPlacement> placements) {
  programs_[id] = std::move(placements);
}

void ResourceManager::erase_program(ProgramId id) { programs_.erase(id); }

const std::map<std::string, VmemPlacement>* ResourceManager::program_placements(
    ProgramId id) const {
  const auto it = programs_.find(id);
  return it == programs_.end() ? nullptr : &it->second;
}

std::vector<Word> read_block(const dp::RunproDataplane& dataplane,
                             const VmemPlacement& placement) {
  std::vector<Word> words;
  words.reserve(placement.block.size);
  const auto& memory = dataplane.rpb(placement.rpb).memory();
  for (std::uint32_t a = 0; a < placement.block.size; ++a) {
    words.push_back(memory.read(placement.block.base + a));
  }
  return words;
}

Result<Word> ResourceManager::read_virtual(const dp::RunproDataplane& dataplane,
                                           ProgramId id, const std::string& vmem,
                                           MemAddr vaddr) const {
  const auto* placements = program_placements(id);
  if (placements == nullptr) {
    return Error{"unknown program", "ResourceManager", ErrorCode::NotFound};
  }
  const auto it = placements->find(vmem);
  if (it == placements->end()) {
    return Error{"unknown memory '" + vmem + "'", "ResourceManager",
                 ErrorCode::NotFound};
  }
  if (vaddr >= it->second.block.size) {
    return Error{"virtual address out of range", "ResourceManager",
                 ErrorCode::OutOfRange};
  }
  return dataplane.rpb(it->second.rpb).memory().read(it->second.block.base + vaddr);
}

Status ResourceManager::write_virtual(dp::RunproDataplane& dataplane, ProgramId id,
                                      const std::string& vmem, MemAddr vaddr,
                                      Word value) const {
  const auto* placements = program_placements(id);
  if (placements == nullptr) {
    return Error{"unknown program", "ResourceManager", ErrorCode::NotFound};
  }
  const auto it = placements->find(vmem);
  if (it == placements->end()) {
    return Error{"unknown memory '" + vmem + "'", "ResourceManager",
                 ErrorCode::NotFound};
  }
  if (vaddr >= it->second.block.size) {
    return Error{"virtual address out of range", "ResourceManager",
                 ErrorCode::OutOfRange};
  }
  dataplane.rpb(it->second.rpb).memory().write(it->second.block.base + vaddr, value);
  return {};
}

std::uint32_t ResourceManager::entries_used(int rpb) const {
  return entries_used_[static_cast<std::size_t>(rpb - 1)];
}

std::uint32_t ResourceManager::memory_used(int rpb) const {
  return memory_used_[static_cast<std::size_t>(rpb - 1)];
}

double ResourceManager::total_entry_utilization() const {
  std::uint64_t used = 0;
  for (auto u : entries_used_) used += u;
  const std::uint64_t total =
      static_cast<std::uint64_t>(spec_.entries_per_rpb) *
      static_cast<std::uint64_t>(spec_.total_rpbs());
  return total == 0 ? 0.0 : static_cast<double>(used) / static_cast<double>(total);
}

double ResourceManager::total_memory_utilization() const {
  std::uint64_t used = 0;
  for (auto u : memory_used_) used += u;
  const std::uint64_t total =
      static_cast<std::uint64_t>(spec_.memory_per_rpb) *
      static_cast<std::uint64_t>(spec_.total_rpbs());
  return total == 0 ? 0.0 : static_cast<double>(used) / static_cast<double>(total);
}

}  // namespace p4runpro::ctrl
