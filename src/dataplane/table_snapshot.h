// Immutable, frozen form of every compiled match table in the data plane,
// published to shard readers by the control plane (RCU-style; see
// SnapshotHub). A snapshot holds:
//   - the five init-block filtering tables (packet -> program claim),
//   - every RPB's match-action table (compiled ternary buckets, priorities,
//     action bindings — the RpbAction payloads live inside the frozen
//     buckets, so a looked-up action pointer stays valid while the batch
//     that looked it up holds the snapshot),
//   - the recirculation table,
//   - the table trace id / generation of the control operation that
//     produced it (satellite of note_table_update: the values travel with
//     the snapshot, so a packet observation always names the exact table
//     state it matched against, never a racy pipeline member).
// Register memory and counters are NOT part of a snapshot: they are
// per-shard mutable state (one StageMemory per pipe per stage).
//
// Tables are rmt::FrozenTernaryTable: a snapshot built against the previous
// one shares with it every table whose generation did not move and, in the
// tables that did move, every bucket (one program's entries, in an RPB
// table) no insert or erase stamped since. A publish therefore copies what
// the control operation wrote, not everything installed. Nothing in a
// snapshot is mutated after construction, so concurrent reads are free of
// data races.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dataplane/init_block.h"
#include "dataplane/recirc_block.h"
#include "dataplane/rpb.h"

namespace p4runpro::dp {

struct TableSnapshot {
  /// Freezes the master tables (the control plane's mutable copies).
  /// `trace` / `generation` are the note_table_update values of the control
  /// operation publishing this snapshot. `previous`, when given, must be a
  /// snapshot of the same master tables (the hub's current one): unchanged
  /// tables and buckets are shared with it instead of copied. Without it
  /// every bucket is copied.
  TableSnapshot(const InitBlock& init, const std::vector<std::shared_ptr<Rpb>>& rpbs,
                const RecircBlock& recirc, std::uint64_t trace,
                std::uint64_t generation, const TableSnapshot* previous = nullptr);

  /// Unique, monotonically increasing publish id, assigned by the hub at
  /// publish time (0 = never published).
  std::uint64_t epoch = 0;

  /// Causal trace id of the control operation whose tables these are, and
  /// the table generation it bumped (see rmt::Pipeline::note_table_update).
  std::uint64_t table_trace = 0;
  std::uint64_t table_generation = 0;

  FrozenFilterTables filters;
  /// index i -> physical RPB id i+1
  std::vector<std::shared_ptr<const FrozenRpbTable>> rpb_tables;
  std::shared_ptr<const FrozenRecircTable> recirc;

  /// Buckets this snapshot copied from the master tables, and buckets it
  /// shares with `previous` (those of wholly shared tables included).
  rmt::FreezeCounts buckets;
};

}  // namespace p4runpro::dp
