// Defragmentation planner: simulation-first compaction of installed
// programs. A long-lived switch accumulates external fragmentation (the
// paper's §7 first-fit allocator only splits, the free lists only coalesce
// on revoke), until programs the solver says fit are rejected at reserve
// time because no single free block is large enough. The defrag pass
// migrates installed programs through relink's one ChainTransaction: it
// installs a copy built from the program's *stored* IR and allocation
// (same pinned stages) with `replacing = old_id`, so memory contents carry
// over and traffic always sees one complete copy, then removes the old
// copy, whose freed blocks coalesce; a fault restores the program.
//
// Simulation-first: because the rebuilt transaction reuses the stored
// allocation, its reservation is exactly reproducible against a free-list
// copy (same first-fit walk, same vmem order, same sizes). A candidate move
// is executed only when the simulated post-move fragmentation improves by
// at least min_gain_words, which is what makes the fragmentation metric
// provably non-increasing across a pass (the invariant the defrag test
// asserts move-by-move).
//
// Metric: sum over RPBs of (free words - largest free block) — the words
// that exist but cannot serve a maximal contiguous request.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "control/resource_manager.h"
#include "control/update_engine.h"

namespace p4runpro::ctrl {

struct DefragOptions {
  /// Upper bound on program migrations in one pass.
  int max_moves = 32;
  /// Minimum simulated fragmentation improvement (words) for a move to be
  /// worth its channel writes.
  std::uint64_t min_gain_words = 1;
};

/// One executed migration.
struct DefragMove {
  ProgramId old_id = 0;
  ProgramId new_id = 0;
  std::string name;
  std::uint64_t frag_before = 0;  ///< global metric just before this move
  std::uint64_t frag_after = 0;   ///< global metric just after this move
};

struct DefragReport {
  std::uint64_t frag_start = 0;
  std::uint64_t frag_end = 0;
  std::vector<DefragMove> moves;
  /// Simulation-approved moves whose commit failed (e.g. injected channel
  /// fault); the rollback journal restored state, so the metric held.
  int failed_moves = 0;
};

/// Fragmentation metric over a set of free lists (each sorted by base).
[[nodiscard]] std::uint64_t fragmentation_words(
    const std::vector<std::vector<MemBlock>>& free_mem);

/// Replay `program`'s reserve (first-fit at its stored allocation) against
/// a copy of the free lists in `snap`, then free its current blocks
/// (coalesced). Returns false when the copy cannot be placed (no block big
/// enough, or too few free table entries for the transient double
/// occupancy); otherwise writes the post-move metric to `frag_after`.
[[nodiscard]] bool simulate_compaction(const ResourceManager::Snapshot& snap,
                                       const InstalledProgram& program,
                                       std::uint64_t* frag_after);

}  // namespace p4runpro::ctrl
