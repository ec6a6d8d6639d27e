// The provisioned P4runpro data plane: wires the initialization block, the
// ingress/egress RPBs and the recirculation block into an RMT pipeline
// (Fig. 1). Provisioned once; afterwards only table entries change.
//
// Sharded multi-pipe mode (off by default): enable_sharding(N) models an
// N-pipe switch. Each shard is a full extra pipeline (own register memory,
// ports, claim counters — the hardware's pipe-local state)
// whose match tables are re-bound at every batch start to the current
// immutable TableSnapshot published through the SnapshotHub. The master
// blocks stay the control plane's mutable copy: apply/undo and the rollback
// journal keep operating on them byte-identically, and traffic only sees a
// mutation once note_table_update() publishes the next snapshot (pointer
// swap + epoch grace period; a rolled-back operation never publishes, so
// shards keep matching the last good state). Each snapshot is built against
// the current one and shares its unchanged tables and buckets. See
// docs/ARCHITECTURE.md "Snapshot data plane".
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/result.h"
#include "dataplane/dataplane_spec.h"
#include "dataplane/init_block.h"
#include "dataplane/recirc_block.h"
#include "dataplane/rpb.h"
#include "dataplane/rpb_chain.h"
#include "dataplane/snapshot_hub.h"
#include "dataplane/table_snapshot.h"
#include "dataplane/write_op.h"
#include "rmt/pipeline.h"

namespace p4runpro::obs {
struct Telemetry;
}

namespace p4runpro::dp {

/// The cost of one snapshot publish: wall time to freeze the master tables
/// and swap the snapshot in (reclaiming drained retired snapshots
/// included), and the buckets the new snapshot copied and shared.
struct PublishStats {
  double publish_us = 0.0;
  rmt::FreezeCounts buckets;
};

class RunproDataplane {
 public:
  RunproDataplane(DataplaneSpec spec, rmt::ParserConfig parser_config);

  /// Run one packet through the pipeline (including recirculations, or the
  /// later hops of a chain).
  rmt::PipelineResult inject(const rmt::Packet& pkt) { return master_.pipeline.inject(pkt); }

  /// Run a batch of packets and return aggregate results (the data-plane
  /// fast path; see rmt::Pipeline::inject_batch).
  rmt::Pipeline::BatchResult inject_batch(std::span<const rmt::Packet> pkts) {
    return master_.pipeline.inject_batch(pkts);
  }

  [[nodiscard]] const DataplaneSpec& spec() const noexcept { return spec_; }

  /// Physical RPB access, 1-based id in [1, total_rpbs()].
  [[nodiscard]] Rpb& rpb(int physical_id);
  [[nodiscard]] const Rpb& rpb(int physical_id) const;

  /// Apply one declarative write op and return its exact inverse: the op
  /// that, applied later, undoes this one (Add -> Del with the handles
  /// filled in, Del -> Add, memory writes -> RestoreMemRange carrying the
  /// overwritten words). The returned inverse is what the update engine
  /// stacks into its rollback journal; applying the journal in reverse
  /// order restores a byte-identical dataplane. Memory ops additionally
  /// broadcast to every shard's pipe-local register memory (the hardware
  /// writes registers in all pipes); the inverse captures MASTER bytes, so
  /// a rollback restores control-written values everywhere — control wins
  /// any race with in-flight shard SALU traffic, per 32-bit word.
  Result<WriteOp> apply(const WriteOp& op);

  /// Apply a journal (inverse) op during rollback. Asserts success — an
  /// inverse op re-establishes state that was just present, so it cannot
  /// legitimately fail. Returns the re-created handles' op (the inverse of
  /// the inverse) so callers restoring an InstalledProgram after a failed
  /// revoke can pick up the fresh handles.
  WriteOp undo(const WriteOp& inverse);

  [[nodiscard]] InitBlock& init_block() noexcept { return *master_.init; }
  [[nodiscard]] RecircBlock& recirc_block() noexcept { return *master_.recirc; }
  [[nodiscard]] rmt::Pipeline& pipeline() noexcept { return master_.pipeline; }
  [[nodiscard]] const rmt::Pipeline& pipeline() const noexcept { return master_.pipeline; }

  // --- sharded multi-pipe mode -------------------------------------------

  /// Provision `shards` extra pipes and publish the initial snapshot of the
  /// current master tables. Must be called from the control thread with no
  /// shard traffic in flight; qdepth, CPU-queue capacity and multicast
  /// groups are copied from the master pipeline at this moment. Calling it
  /// again re-provisions from scratch (all pipe-local state resets).
  void enable_sharding(int shards);

  /// Quiesce (grace-period drain) and tear the shards down. No-op when
  /// sharding is off. Callers must have stopped the shard workers first.
  void disable_sharding();

  [[nodiscard]] bool sharded() const noexcept { return hub_ != nullptr; }
  [[nodiscard]] int shard_count() const noexcept {
    return static_cast<int>(shards_.size());
  }

  /// Run one batch on shard `shard` against the snapshot current at batch
  /// start — the lock-free multi-pipe match path. Each shard supports ONE
  /// in-flight batch at a time (distinct shards run fully concurrently,
  /// and concurrently with control-plane commits). The result carries the
  /// exact snapshot boundary: epoch, table trace and generation of the one
  /// snapshot every packet of this batch matched against.
  rmt::Pipeline::BatchResult inject_batch_on(int shard,
                                             std::span<const rmt::Packet> pkts);

  /// Record that a control operation just mutated the master tables: bumps
  /// the master pipeline's generation/trace (as before) and, when sharded,
  /// publishes the next snapshot and returns what that cost (nullopt when
  /// sharding is off). Called by the update engine after each successful
  /// install/remove, on the thread that mutated the tables; rollback paths
  /// never call it, so a faulted operation is invisible to shard traffic.
  std::optional<PublishStats> note_table_update(std::uint64_t trace);

  /// Packets claimed by `program` across the master pipe and every shard
  /// (claim counters are pipe-local). Only exact while no shard batch is
  /// in flight (the controller's locked+quiesced query path).
  [[nodiscard]] std::uint64_t claimed_packets(ProgramId program) const;
  void clear_claim_counter(ProgramId program);

  /// Snapshot hub (null when sharding is off). Exposed for tests and for
  /// telemetry-driven drains; traffic goes through inject_batch_on().
  [[nodiscard]] SnapshotHub* snapshot_hub() noexcept { return hub_.get(); }

  /// Shard-local views (valid while sharding is enabled).
  [[nodiscard]] rmt::Pipeline& shard_pipeline(int shard);
  [[nodiscard]] const InitBlock& shard_init(int shard) const;

  /// One bundle for the whole data plane: master pipeline probes plus,
  /// when sharding is enabled (now or later), the hub's rmt.snapshot.*
  /// probes.
  void attach_telemetry(obs::Telemetry* telemetry);

 private:
  /// One hardware pipe: a full pipeline wired with its own blocks. Their
  /// mutable state (register memory, claim counters, port counters) is
  /// pipe-local. The master pipe's match tables are the control plane's
  /// copy; a shard pipe's are bound per batch to the acquired snapshot and
  /// never consulted unbound.
  struct Pipe {
    Pipe(const DataplaneSpec& spec, rmt::ParserConfig parser_config);
    void bind(const TableSnapshot& snap);

    rmt::Pipeline pipeline;
    std::shared_ptr<InitBlock> init;
    std::vector<std::shared_ptr<Rpb>> rpbs;  // index i -> physical id i+1
    std::shared_ptr<RecircBlock> recirc;
  };

  std::optional<PublishStats> publish_snapshot();

  DataplaneSpec spec_;
  rmt::ParserConfig parser_config_;  ///< kept for shard construction
  Pipe master_;

  std::unique_ptr<SnapshotHub> hub_;  ///< non-null iff sharded
  std::vector<std::unique_ptr<Pipe>> shards_;
  obs::Telemetry* telemetry_ = nullptr;
};

}  // namespace p4runpro::dp
