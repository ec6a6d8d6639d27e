#include "control/update_engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>

#include "obs/telemetry.h"

namespace p4runpro::ctrl {

namespace {

/// Batch label an op is charged under, or nullptr for memory ops (carry-over
/// writes are CPU-side copies; resets have their own block-API cost model).
[[nodiscard]] const char* charge_label(dp::WriteOp::Kind kind) {
  switch (kind) {
    case dp::WriteOp::Kind::AddRecirc:
      return "add.recirc";
    case dp::WriteOp::Kind::AddRpbEntry:
      return "add.rpb";
    case dp::WriteOp::Kind::AddFilters:
      return "add.filters";
    case dp::WriteOp::Kind::DelFilters:
      return "del.filters";
    case dp::WriteOp::Kind::DelRpbEntry:
      return "del.rpb";
    case dp::WriteOp::Kind::DelRecirc:
      return "del.recirc";
    default:
      return nullptr;
  }
}

[[nodiscard]] Error channel_fault() {
  return Error{"injected control-channel fault", "bfrt", ErrorCode::ChannelError};
}

/// Channel time of `us` microseconds, rounded exactly like
/// SimClock::advance_us.
[[nodiscard]] SimClock::Nanos channel_ns(double us) {
  return static_cast<SimClock::Nanos>(std::llround(us * 1000.0));
}

}  // namespace

struct UpdateEngine::Metrics {
  obs::CounterRef batches{"ctrl.bfrt.batches"};
  obs::CounterRef entry_writes{"ctrl.bfrt.entry_writes"};
  obs::CounterRef maintenance_batches{"ctrl.bfrt.maintenance_batches"};
  obs::CounterRef coalesced_batches{"ctrl.bfrt.coalesced_batches"};
  obs::CounterRef mem_resets{"ctrl.bfrt.mem_resets"};
  obs::HistogramRef batch_entries{"ctrl.bfrt.batch_entries", &obs::Histogram::count_bounds};
  obs::GaugeRef queue_depth{"ctrl.channel.queue_depth"};
  obs::HistogramRef publish_us{"rmt.snapshot.publish_us"};
  obs::CounterRef buckets_frozen{"rmt.snapshot.buckets_frozen"};
  obs::CounterRef buckets_shared{"rmt.snapshot.buckets_shared"};
};

UpdateEngine::UpdateEngine(dp::RunproDataplane& dataplane, ResourceManager& resources,
                           SimClock& clock, BfrtCostModel cost)
    : dataplane_(dataplane),
      resources_(resources),
      clock_(clock),
      cost_(cost),
      metrics_(std::make_unique<Metrics>()) {}

UpdateEngine::~UpdateEngine() = default;

void UpdateEngine::charge_batch(std::size_t count, const char* what,
                                ChannelCursor& cursor) {
  // A batch directly behind a same-kind batch (no idle gap, no other kind
  // between) coalesces into the predecessor's submission and skips the
  // per-batch sync overhead.
  ChannelCharge charge;
  charge.kind = ChannelCharge::Kind::Batch;
  charge.label = what;
  charge.entries = count;
  charge.coalesced = cursor.coalesce && cursor.last_label == what;
  const double us = (charge.coalesced ? 0.0 : cost_.per_batch_overhead_us) +
                    cost_.per_entry_write_us * static_cast<double>(count);
  charge.start_ns = cursor.now;
  cursor.now += channel_ns(us);
  charge.end_ns = cursor.now;
  cursor.last_label = what;
  cursor.charges->push_back(std::move(charge));
}

void UpdateEngine::unwind(std::vector<JournalEntry>& journal) {
  for (auto it = journal.rbegin(); it != journal.rend(); ++it) {
    dataplane_.undo(it->inverse);
  }
  journal.clear();
}

Result<UpdateEngine::AppliedEntries> UpdateEngine::run_install(
    const dp::WriteBatch& batch, ChannelCursor& cursor) {
  AppliedEntries out;
  out.rpb_handles.reserve(batch.ops.size());
  std::vector<JournalEntry> journal;
  journal.reserve(batch.ops.size());

  // Consecutive ops of one kind form a single bfrt batch; the charge is
  // flushed at every kind boundary so per-batch overheads match the channel
  // model (one sync per batch, one write per entry).
  dp::WriteOp::Kind group_kind = dp::WriteOp::Kind::AddRecirc;
  bool group_open = false;
  std::size_t group_count = 0;
  auto flush = [&] {
    if (group_open) charge_batch(group_count, charge_label(group_kind), cursor);
    group_open = false;
    group_count = 0;
  };
  auto fail = [&](Error err) -> Error {
    unwind(journal);
    return err;
  };

  for (std::size_t i = 0; i < batch.ops.size(); ++i) {
    const dp::WriteOp& op = batch.ops[i];
    const bool charged = charge_label(op.kind) != nullptr;
    if (group_open && (!charged || op.kind != group_kind)) flush();

    if (inject_fault()) return fail(channel_fault());
    auto applied = dataplane_.apply(op);
    if (!applied.ok()) return fail(applied.error());
    dp::WriteOp inverse = std::move(applied).take();

    switch (op.kind) {
      case dp::WriteOp::Kind::AddRecirc:
        out.recirc_handles = inverse.recirc_handles;
        group_count += inverse.recirc_handles.size();
        break;
      case dp::WriteOp::Kind::AddRpbEntry:
        out.rpb_handles.emplace_back(op.entry.rpb, inverse.rpb_handle);
        ++group_count;
        break;
      case dp::WriteOp::Kind::AddFilters:
        out.filter_handles = inverse.filter_handles;
        group_count += inverse.filter_handles.size();
        break;
      case dp::WriteOp::Kind::WriteMemRange:
        break;  // relink carry-over: uncharged CPU-side prefill
      default:
        return fail(Error{"unsupported op kind in install batch", "UpdateEngine",
                          ErrorCode::InvalidArgument});
    }
    if (charged) {
      group_kind = op.kind;
      group_open = true;
    }
    journal.push_back(JournalEntry{i, std::move(inverse)});
    observe_step();
  }
  flush();
  return out;
}

dp::WriteOp UpdateEngine::apply_mem_reset(const dp::WriteOp& op,
                                          ChannelCursor& cursor) {
  auto applied = dataplane_.apply(op);  // captures the words -> RestoreMemRange
  ChannelCharge charge;
  charge.kind = ChannelCharge::Kind::MemReset;
  charge.label = op.vmem;
  charge.entries = op.mem_size;
  charge.start_ns = cursor.now;
  cursor.now += channel_ns(cost_.memory_reset_us_per_kb *
                           static_cast<double>(op.mem_size) * 4.0 / 1024.0);
  charge.end_ns = cursor.now;
  cursor.last_label.clear();  // a reset breaks batch adjacency on the channel
  cursor.charges->push_back(std::move(charge));
  return std::move(applied).take();  // throws if the dataplane rejected the range
}

Status UpdateEngine::run_remove(const dp::WriteBatch& batch,
                                InstalledProgram& program, ChannelCursor& cursor) {
  std::vector<JournalEntry> journal;
  journal.reserve(batch.ops.size());

  dp::WriteOp::Kind group_kind = dp::WriteOp::Kind::DelFilters;
  bool group_open = false;
  std::size_t group_count = 0;
  auto flush = [&] {
    if (group_open) charge_batch(group_count, charge_label(group_kind), cursor);
    group_open = false;
    group_count = 0;
  };
  auto fail = [&](Error err) -> Error {
    rollback_remove(batch, journal, program);
    return err;
  };

  for (std::size_t i = 0; i < batch.ops.size(); ++i) {
    const dp::WriteOp& op = batch.ops[i];
    if (op.kind == dp::WriteOp::Kind::ResetMemRange) {
      flush();
      if (inject_fault()) return fail(channel_fault());
      journal.push_back(JournalEntry{i, apply_mem_reset(op, cursor)});
      observe_step();
      continue;
    }
    if (group_open && op.kind != group_kind) flush();
    if (inject_fault()) return fail(channel_fault());
    auto applied = dataplane_.apply(op);
    if (!applied.ok()) return fail(applied.error());
    switch (op.kind) {
      case dp::WriteOp::Kind::DelFilters:
        group_count += op.filter_handles.size();
        break;
      case dp::WriteOp::Kind::DelRpbEntry:
        ++group_count;
        break;
      case dp::WriteOp::Kind::DelRecirc:
        group_count += op.recirc_handles.size();
        break;
      default:
        return fail(Error{"unsupported op kind in remove batch", "UpdateEngine",
                          ErrorCode::InvalidArgument});
    }
    group_kind = op.kind;
    group_open = true;
    journal.push_back(JournalEntry{i, std::move(applied).take()});
    observe_step();
  }
  flush();

  program.filter_handles.clear();
  program.rpb_handles.clear();
  program.recirc_handles.clear();
  program.placements.clear();
  return {};
}

void UpdateEngine::rollback_remove(const dp::WriteBatch& batch,
                                   std::vector<JournalEntry>& journal,
                                   InstalledProgram& program) {
  for (auto it = journal.rbegin(); it != journal.rend(); ++it) {
    const dp::WriteOp& original = batch.ops[it->batch_index];
    // Re-adding yields fresh handles; patch them back into the program so a
    // later revoke can find its entries. stage_remove's batch layout is
    // [DelFilters][DelRpbEntry x N (plan order)][DelRecirc][resets...], so
    // batch_index - 1 is the plan index of an RPB entry. A reset's inverse
    // just writes the bytes back: its block was never freed.
    dp::WriteOp redo = dataplane_.undo(it->inverse);
    switch (original.kind) {
      case dp::WriteOp::Kind::DelFilters:
        program.filter_handles = std::move(redo.filter_handles);
        break;
      case dp::WriteOp::Kind::DelRpbEntry:
        program.rpb_handles[it->batch_index - 1] = {original.entry.rpb,
                                                    redo.rpb_handle};
        break;
      case dp::WriteOp::Kind::DelRecirc:
        program.recirc_handles = std::move(redo.recirc_handles);
        break;
      default:
        break;
    }
  }
  journal.clear();
}

// --- the channel -------------------------------------------------------------

void UpdateEngine::set_async(bool enabled) {
  if (enabled == async()) return;
  if (enabled) {
    writer_ = std::make_unique<AsyncWriter>();
    channel_cursor_ns_ = clock_.now_ns();
    channel_last_label_.clear();
  } else {
    writer_->wait_idle();
    writer_.reset();
    if (telemetry_ != nullptr) metrics_->queue_depth.in(telemetry_->metrics).set(0.0);
  }
}

UpdateEngine::ChannelCursor UpdateEngine::begin_job(SimClock::Nanos submitted_ns,
                                                    WriteOutcome& outcome) {
  ChannelCursor cursor;
  cursor.now = std::max(submitted_ns, channel_cursor_ns_);
  cursor.coalesce = writer_ != nullptr;
  if (cursor.coalesce && cursor.now == channel_cursor_ns_) {
    // Back-to-back on the channel: the predecessor's trailing batch can
    // still absorb a same-kind follow-up.
    cursor.last_label = channel_last_label_;
  }
  // (Idle gap: the previous batch's sync completed long ago, nothing to
  // coalesce with — last_label stays empty.)
  cursor.charges = &outcome.charges;
  return cursor;
}

void UpdateEngine::end_job(const ChannelCursor& cursor, WriteOutcome& outcome) {
  channel_cursor_ns_ = cursor.now;
  channel_last_label_ = cursor.last_label;
  outcome.completion_ns = cursor.now;
}

template <typename Run>
UpdateEngine::PendingWrite UpdateEngine::submit_job(
    std::shared_ptr<WriteOutcome> outcome, std::size_t ops, Run run) {
  PendingWrite pending;
  pending.outcome = outcome;
  pending.submitted_ns = clock_.now_ns();
  pending.ops = ops;
  outcome->trace = telemetry_ != nullptr ? telemetry_->active_trace.trace_id : 0;
  outcome->maintenance = maintenance_;
  auto job = [this, outcome = std::move(outcome), submitted = pending.submitted_ns,
              run] {
    ChannelCursor cursor = begin_job(submitted, *outcome);
    // Publish right after a clean run, inside the job: on the threaded
    // channel the writer is the only table mutator, so the snapshot freeze
    // cannot race a later queued job (finish_* may run concurrently with
    // one). A fault-unwind publishes nothing — shard traffic never sees the
    // faulted intermediate state.
    if (run(*outcome, cursor)) {
      outcome->publish = dataplane_.note_table_update(outcome->trace);
    }
    end_job(cursor, *outcome);
  };
  if (writer_ == nullptr) {
    job();  // serial: the writer's job, run on the caller's thread
    return pending;
  }
  auto promise = std::make_shared<std::promise<void>>();
  pending.done = promise->get_future();
  writer_->enqueue([job = std::move(job), promise = std::move(promise)] {
    job();
    promise->set_value();
  });
  update_queue_gauge();
  return pending;
}

UpdateEngine::PendingWrite UpdateEngine::submit_install(
    const dp::WriteBatch& batch) {
  // The caller keeps `batch` alive until finish_install.
  return submit_job(std::make_shared<WriteOutcome>(), batch.ops.size(),
                    [this, &batch](WriteOutcome& outcome, ChannelCursor& cursor) {
                      outcome.applied = run_install(batch, cursor);
                      return outcome.applied->ok();
                    });
}

UpdateEngine::PendingWrite UpdateEngine::submit_remove(
    InstalledProgram& program) {
  if (telemetry_ != nullptr) {
    // The program is logically retired at submission: its first delete step
    // (filters) is ordered on the channel before anything submitted later.
    telemetry_->monitor.program_revoked(program.id);
  }
  auto outcome = std::make_shared<WriteOutcome>();
  rp::stage_remove(program.image->plan, program.filter_handles, program.rpb_handles,
                   program.recirc_handles, program.placements, outcome->batch);
  const std::size_t ops = outcome->batch.ops.size();
  // The caller guards `program` (busy set) until finish_remove.
  return submit_job(std::move(outcome), ops,
                    [this, &program](WriteOutcome& outcome, ChannelCursor& cursor) {
                      outcome.removed = run_remove(outcome.batch, program, cursor);
                      return outcome.removed->ok();
                    });
}

UpdateEngine::WriteOutcome& UpdateEngine::settle(PendingWrite& pending) {
  pending.wait();  // happens-before: the outcome is ours now
  WriteOutcome& outcome = *pending.outcome;
  clock_.advance_to_ns(outcome.completion_ns);
  emit_charges(outcome);
  update_queue_gauge();
  // The table stamp + snapshot publication already happened inside the job.
  observe_publish(outcome.publish);
  return outcome;
}

Result<UpdateEngine::AppliedEntries> UpdateEngine::finish_install(
    PendingWrite& pending) {
  WriteOutcome& outcome = settle(pending);
  assert(outcome.applied.has_value());
  return std::move(*outcome.applied);
}

Status UpdateEngine::finish_remove(PendingWrite& pending,
                                   InstalledProgram& program) {
  WriteOutcome& outcome = settle(pending);
  assert(outcome.removed.has_value());
  if (outcome.removed->ok()) {
    for (const dp::WriteOp& op : outcome.batch.ops) {
      if (op.kind == dp::WriteOp::Kind::ResetMemRange) {
        resources_.free_memory(op.mem_rpb, MemBlock{op.mem_base, op.mem_size});
      }
    }
  } else {
    // The fault-unwind restored the program with fresh handles; re-announce
    // it so the monitor's installed set matches reality.
    announce_deploy(program);
  }
  return *outcome.removed;
}

void UpdateEngine::emit_charges(const WriteOutcome& outcome) {
  if (telemetry_ == nullptr) return;
  auto& m = telemetry_->metrics;
  auto& tracer = telemetry_->tracer;
  for (const ChannelCharge& charge : outcome.charges) {
    const bool batch = charge.kind == ChannelCharge::Kind::Batch;
    // Args only for a span the tracer keeps: at capacity record_span just
    // counts the drop, and a saturated run must not pay for the strings.
    std::vector<std::pair<std::string, std::string>> args;
    if (!tracer.full()) {
      args.emplace_back(batch ? "what" : "vmem", charge.label);
      args.emplace_back(batch ? "entries" : "buckets", std::to_string(charge.entries));
      if (hop_label_ >= 0) args.emplace_back("hop", std::to_string(hop_label_));
      if (charge.coalesced) args.emplace_back("coalesced", "1");
    }
    tracer.record_span(batch ? "bfrt.batch" : "bfrt.mem_reset", "bfrt",
                       charge.start_ns, charge.end_ns, outcome.trace,
                       std::move(args));
    if (!batch) {
      metrics_->mem_resets.in(m).inc();
      continue;
    }
    metrics_->batches.in(m).inc();
    metrics_->entry_writes.in(m).inc(charge.entries);
    if (outcome.maintenance) metrics_->maintenance_batches.in(m).inc();
    metrics_->batch_entries.in(m).observe(static_cast<double>(charge.entries));
    if (charge.coalesced) metrics_->coalesced_batches.in(m).inc();
  }
}

void UpdateEngine::observe_publish(const std::optional<dp::PublishStats>& publish) {
  if (telemetry_ == nullptr || !publish) return;
  auto& m = telemetry_->metrics;
  metrics_->publish_us.in(m).observe(publish->publish_us);
  metrics_->buckets_frozen.in(m).inc(publish->buckets.frozen);
  metrics_->buckets_shared.in(m).inc(publish->buckets.shared);
}

void UpdateEngine::update_queue_gauge() {
  if (telemetry_ == nullptr || writer_ == nullptr) return;
  metrics_->queue_depth.in(telemetry_->metrics).set(static_cast<double>(writer_->depth()));
}

void UpdateEngine::announce_deploy(const InstalledProgram& program) {
  if (telemetry_ == nullptr) return;
  telemetry_->monitor.program_deployed(
      program.id, program.name,
      program.filter_handles.size() + program.rpb_handles.size() +
          program.recirc_handles.size());
}

}  // namespace p4runpro::ctrl
