#include "dataplane/runpro_dataplane.h"

#include <cassert>

#include "common/clock.h"
#include "obs/telemetry.h"

namespace p4runpro::dp {

RunproDataplane::RunproDataplane(DataplaneSpec spec, rmt::ParserConfig parser_config)
    : spec_(spec), parser_config_(parser_config), master_(spec_, std::move(parser_config)) {}

RunproDataplane::Pipe::Pipe(const DataplaneSpec& spec, rmt::ParserConfig parser_config)
    // The pipeline's recirculation allowance is a hardware property; the
    // compiler-facing R in the spec bounds *programs*, while the frame
    // tolerates one extra pass as headroom for misconfigured entries.
    : pipeline(std::move(parser_config), spec.max_recirculations + 1),
      // The filtering tables sit in stage 0 alongside no RPB, so they get a
      // deeper TCAM share: program capacity must not be bottlenecked by
      // filters (the paper's lb capacity of ~2.8K programs needs > 2048
      // filter entries per parse path).
      init(std::make_shared<InitBlock>(spec.entries_per_rpb * 4)),
      recirc(std::make_shared<RecircBlock>(spec.entries_per_rpb)) {
  std::vector<std::shared_ptr<Rpb>> ingress_rpbs;
  for (int i = 1; i <= spec.ingress_rpbs; ++i) {
    auto rpb = std::make_shared<Rpb>(i, /*ingress=*/true, spec.memory_per_rpb,
                                     spec.entries_per_rpb);
    rpb->set_stage_stats(&pipeline.stage_stats());
    rpbs.push_back(rpb);
    ingress_rpbs.push_back(std::move(rpb));
  }
  std::vector<std::shared_ptr<Rpb>> egress_rpbs;
  for (int i = 1; i <= spec.egress_rpbs; ++i) {
    auto rpb = std::make_shared<Rpb>(spec.ingress_rpbs + i, /*ingress=*/false,
                                     spec.memory_per_rpb, spec.entries_per_rpb);
    rpb->set_stage_stats(&pipeline.stage_stats());
    rpbs.push_back(rpb);
    egress_rpbs.push_back(std::move(rpb));
  }
  // The RPBs run through chain stages (one ingress, one egress): a chain
  // skips the whole block sequence for unclaimed packets and empty-table
  // stages for claimed ones, which is where the per-packet pass time goes
  // on a lightly-populated switch (see docs/PERFORMANCE.md).
  pipeline.add_ingress_stage(init);
  pipeline.add_ingress_stage(std::make_shared<RpbChain>(
      std::move(ingress_rpbs), &pipeline.stage_stats()));
  pipeline.add_ingress_stage(recirc);
  pipeline.add_egress_stage(std::make_shared<RpbChain>(
      std::move(egress_rpbs), &pipeline.stage_stats()));
}

void RunproDataplane::Pipe::bind(const TableSnapshot& snap) {
  init->bind_tables(&snap.filters);
  for (std::size_t i = 0; i < rpbs.size(); ++i) {
    rpbs[i]->bind_table(snap.rpb_tables[i].get());
  }
  recirc->bind_table(snap.recirc.get());
  // The observation stamp travels inside the snapshot; mirror it into this
  // pipe so PacketObservation::table_trace names the snapshot the batch
  // actually matched against (never the master's concurrently-moving
  // members).
  pipeline.set_table_stamp(snap.table_trace, snap.table_generation);
}

void RunproDataplane::enable_sharding(int shards) {
  assert(shards >= 1);
  disable_sharding();
  hub_ = std::make_unique<SnapshotHub>(shards);
  if (telemetry_ != nullptr) hub_->attach_telemetry(telemetry_);
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    auto shard = std::make_unique<Pipe>(spec_, parser_config_);
    // Pipe-local frame config mirrors the master at enable time (these are
    // provisioning-time knobs; changing them mid-traffic is not supported
    // on either path).
    shard->pipeline.set_qdepth(master_.pipeline.qdepth());
    shard->pipeline.set_cpu_queue_capacity(master_.pipeline.cpu_queue_capacity());
    for (const auto& [group, ports] : master_.pipeline.multicast_groups()) {
      shard->pipeline.set_multicast_group(group, ports);
    }
    shards_.push_back(std::move(shard));
  }
  publish_snapshot();
}

void RunproDataplane::disable_sharding() {
  if (hub_ == nullptr) return;
  hub_->synchronize();
  shards_.clear();
  hub_.reset();
}

rmt::Pipeline::BatchResult RunproDataplane::inject_batch_on(
    int shard, std::span<const rmt::Packet> pkts) {
  assert(hub_ != nullptr && shard >= 0 && shard < shard_count());
  Pipe& pipe = *shards_[static_cast<std::size_t>(shard)];
  // Pin the current snapshot for the whole batch: every packet matches one
  // consistent table state, and the guard's epoch announcement defers the
  // reclamation of a snapshot superseded mid-batch (the grace period).
  const SnapshotHub::ReadGuard guard = hub_->acquire(shard);
  pipe.bind(*guard);
  rmt::Pipeline::BatchResult result = pipe.pipeline.inject_batch(pkts);
  result.snapshot_epoch = guard->epoch;
  result.table_trace = guard->table_trace;
  result.table_generation = guard->table_generation;
  return result;
}

std::optional<PublishStats> RunproDataplane::note_table_update(std::uint64_t trace) {
  master_.pipeline.note_table_update(trace);
  return publish_snapshot();
}

std::optional<PublishStats> RunproDataplane::publish_snapshot() {
  if (hub_ == nullptr) return std::nullopt;
  const WallTimer timer;
  // Built against the current snapshot: this thread is the only publisher,
  // so nothing can retire that snapshot while the freeze reads it. A new
  // hub (enable_sharding) has none, and the first snapshot copies all.
  auto next = std::make_unique<TableSnapshot>(*master_.init, master_.rpbs, *master_.recirc,
                                              master_.pipeline.table_trace(),
                                              master_.pipeline.table_generation(),
                                              hub_->current());
  PublishStats stats;
  stats.buckets = next->buckets;
  hub_->publish(std::move(next));
  stats.publish_us = timer.elapsed_ms() * 1000.0;
  return stats;
}

std::uint64_t RunproDataplane::claimed_packets(ProgramId program) const {
  std::uint64_t total = master_.init->claimed_packets(program);
  for (const auto& shard : shards_) total += shard->init->claimed_packets(program);
  return total;
}

void RunproDataplane::clear_claim_counter(ProgramId program) {
  master_.init->clear_counter(program);
  for (const auto& shard : shards_) shard->init->clear_counter(program);
}

rmt::Pipeline& RunproDataplane::shard_pipeline(int shard) {
  assert(shard >= 0 && shard < shard_count());
  return shards_[static_cast<std::size_t>(shard)]->pipeline;
}

const InitBlock& RunproDataplane::shard_init(int shard) const {
  assert(shard >= 0 && shard < shard_count());
  return *shards_[static_cast<std::size_t>(shard)]->init;
}

void RunproDataplane::attach_telemetry(obs::Telemetry* telemetry) {
  telemetry_ = telemetry;
  master_.pipeline.attach_telemetry(telemetry);
  if (hub_ != nullptr) hub_->attach_telemetry(telemetry);
}

Result<WriteOp> RunproDataplane::apply(const WriteOp& op) {
  WriteOp inverse;
  inverse.program = op.program;
  switch (op.kind) {
    case WriteOp::Kind::AddRecirc: {
      auto handles = recirc_block().install(op.program, op.rounds);
      if (!handles.ok()) return handles.error();
      inverse.kind = WriteOp::Kind::DelRecirc;
      inverse.recirc_handles = std::move(handles).take();
      inverse.rounds = op.rounds;
      return inverse;
    }
    case WriteOp::Kind::AddRpbEntry: {
      auto handle = rpb(op.entry.rpb).table().insert(op.entry.keys,
                                                     op.entry.priority,
                                                     op.entry.action);
      if (!handle.ok()) return handle.error();
      inverse.kind = WriteOp::Kind::DelRpbEntry;
      inverse.entry = op.entry;
      inverse.rpb_handle = handle.value();
      return inverse;
    }
    case WriteOp::Kind::AddFilters: {
      auto handles = init_block().install(op.program, op.filters,
                                          op.filter_priority);
      if (!handles.ok()) return handles.error();
      inverse.kind = WriteOp::Kind::DelFilters;
      inverse.filter_handles = std::move(handles).take();
      inverse.filters = op.filters;
      inverse.filter_priority = op.filter_priority;
      return inverse;
    }
    case WriteOp::Kind::DelRecirc: {
      recirc_block().remove(op.recirc_handles);
      inverse.kind = WriteOp::Kind::AddRecirc;
      inverse.rounds = op.rounds;
      return inverse;
    }
    case WriteOp::Kind::DelRpbEntry: {
      const bool erased = rpb(op.entry.rpb).table().erase(op.rpb_handle);
      assert(erased);
      (void)erased;
      inverse.kind = WriteOp::Kind::AddRpbEntry;
      inverse.entry = op.entry;
      return inverse;
    }
    case WriteOp::Kind::DelFilters: {
      init_block().remove(op.filter_handles);
      inverse.kind = WriteOp::Kind::AddFilters;
      inverse.filters = op.filters;
      inverse.filter_priority = op.filter_priority;
      return inverse;
    }
    case WriteOp::Kind::WriteMemRange:
    case WriteOp::Kind::RestoreMemRange: {
      auto& memory = rpb(op.mem_rpb).memory();
      inverse.kind = WriteOp::Kind::RestoreMemRange;
      inverse.mem_rpb = op.mem_rpb;
      inverse.mem_base = op.mem_base;
      inverse.mem_size = op.mem_size;
      inverse.vmem = op.vmem;
      inverse.mem_words.reserve(op.mem_words.size());
      for (std::uint32_t a = 0; a < op.mem_words.size(); ++a) {
        inverse.mem_words.push_back(memory.read(op.mem_base + a));
        memory.write(op.mem_base + a, op.mem_words[a]);
      }
      // Register writes land in every pipe (pipe-local register memories;
      // the inverse captured the master bytes above, so a later rollback
      // re-broadcasts those — control values win over in-flight traffic).
      for (const auto& shard : shards_) {
        auto& shard_mem =
            shard->rpbs[static_cast<std::size_t>(op.mem_rpb - 1)]->memory();
        for (std::uint32_t a = 0; a < op.mem_words.size(); ++a) {
          shard_mem.write(op.mem_base + a, op.mem_words[a]);
        }
      }
      return inverse;
    }
    case WriteOp::Kind::ResetMemRange: {
      auto& memory = rpb(op.mem_rpb).memory();
      inverse.kind = WriteOp::Kind::RestoreMemRange;
      inverse.mem_rpb = op.mem_rpb;
      inverse.mem_base = op.mem_base;
      inverse.mem_size = op.mem_size;
      inverse.vmem = op.vmem;
      inverse.mem_words.reserve(op.mem_size);
      for (std::uint32_t a = 0; a < op.mem_size; ++a) {
        inverse.mem_words.push_back(memory.read(op.mem_base + a));
      }
      memory.reset_range(op.mem_base, op.mem_size);
      for (const auto& shard : shards_) {
        shard->rpbs[static_cast<std::size_t>(op.mem_rpb - 1)]->memory().reset_range(
            op.mem_base, op.mem_size);
      }
      return inverse;
    }
  }
  return Error{"unknown write op", "dataplane", ErrorCode::InvalidArgument};
}

WriteOp RunproDataplane::undo(const WriteOp& inverse) {
  auto redone = apply(inverse);
  // Journal invariant: an inverse op restores state that existed moments
  // ago (handles still free, capacity available), so it cannot fail.
  assert(redone.ok() && "rollback journal op failed");
  return std::move(redone).take();
}

Rpb& RunproDataplane::rpb(int physical_id) {
  assert(physical_id >= 1 && physical_id <= spec_.total_rpbs());
  return *master_.rpbs[static_cast<std::size_t>(physical_id - 1)];
}

const Rpb& RunproDataplane::rpb(int physical_id) const {
  assert(physical_id >= 1 && physical_id <= spec_.total_rpbs());
  return *master_.rpbs[static_cast<std::size_t>(physical_id - 1)];
}

}  // namespace p4runpro::dp
