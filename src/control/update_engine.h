// Consistent update engine (paper §4.3 "Consistent Update", Fig. 6) —
// the *executor* of staged op-logs. Each install or remove record of a
// ctrl::ChainTransaction hands it a dp::WriteBatch (a remove's is staged
// here, from the program's handles); the engine walks it, pushing every
// write through a simulated bfrt channel whose latency model is charged to
// the virtual clock (the paper's update-delay numbers are dominated by
// exactly these per-entry gRPC writes), and stacks the exact inverse of
// every applied op into a rollback journal. A control-channel fault at ANY write index unwinds the
// journal in reverse, restoring a byte-identical pre-transaction dataplane
// — tables, memory contents and resource-manager occupancy included.
//
// Ordering guarantees (no incorrectly processed packet is ever exposed):
//   add:    recirculation entries -> RPB entries -> init filters last
//   delete: init filters first -> RPB/recirculation entries -> reset
//           memory (the blocks stay reserved until finish_remove frees them)
// Because the program id is assigned only by the init filter, a program is
// invisible until its last add step and atomically disabled by the first
// delete step. The op-log builders (rp::stage_install / rp::stage_remove)
// encode this order; the executor never reorders.
//
// One channel, two places to run it (docs/ARCHITECTURE.md "Async control
// channel"). Every write is one *job*: submit_install / submit_remove capture
// the virtual submission time and trace id under the session lock, then the
// job positions a channel cursor (begin_job), applies the op-log while
// *recording* each bfrt charge against the cursor, publishes the tables
// after a clean run and persists the cursor (end_job). With no writer
// attached (serial mode) the job runs inline on the caller's thread; after
// set_async(true) it runs on a per-engine writer thread (AsyncWriter) that
// never touches the clock, the telemetry bundle or the resource manager.
// finish_* is the only place that advances the clock to the channel's
// completion time, replays the recorded charges as closed "bfrt.*" spans
// carrying the submit-time trace id, frees the memory blocks a remove reset
// and re-announces a program a faulted remove restored. execute_install /
// remove are submit + finish. Only the threaded channel coalesces: a batch
// directly behind a same-kind batch (no idle channel gap) rides its
// predecessor's submission and skips the per-batch overhead
// (ctrl.bfrt.coalesced_batches counts them). A fault at any write index
// unwinds the journal inside the job, in both modes, so it always restores
// byte-identical state.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "compiler/entrygen.h"
#include "compiler/ir.h"
#include "compiler/solver.h"
#include "control/async_writer.h"
#include "control/resource_manager.h"
#include "control/tenant.h"
#include "dataplane/runpro_dataplane.h"
#include "dataplane/write_op.h"

namespace p4runpro::obs {
struct Telemetry;
}

namespace p4runpro::ctrl {

/// Latency model of the control channel (bfrt_grpc on the paper's 4-core
/// ONL switch CPU). Values calibrated so the generated entry counts land in
/// the paper's Table 1 range; see EXPERIMENTS.md.
struct BfrtCostModel {
  double per_entry_write_us = 500.0;      ///< one table-entry add/delete
  double per_batch_overhead_us = 500.0;   ///< per update batch (channel RTT, sync)
  double memory_reset_us_per_kb = 18.0;   ///< register range reset via the fast block API
};

/// One version of a program, planned once (docs/ARCHITECTURE.md "Program
/// images"): the IR, its allocation, the placements its entries were bound
/// to (the Offset bases) and the entry plan. Every hop whose placements
/// equal `placements` shares one image, and the transaction that built it
/// stages its install op-log once for all of them. Never written once
/// built.
struct ProgramImage {
  rp::TranslatedProgram ir;
  rp::AllocationResult alloc;
  std::map<std::string, VmemPlacement> placements;
  rp::EntryPlan plan;
};

/// A linked (running) program on one hop: its shared image plus what is the
/// hop's own, the entry handles and the live placements.
struct InstalledProgram {
  ProgramId id = 0;
  std::string name;
  /// Owning tenant (quota accounting); 0 = default tenant.
  TenantId tenant = 0;
  std::shared_ptr<const ProgramImage> image;
  /// The image's placements while installed; cleared by a removal.
  std::map<std::string, VmemPlacement> placements;

  // data-plane handles
  std::vector<dp::InitBlock::InstalledFilter> filter_handles;
  std::vector<std::pair<int, rmt::EntryHandle>> rpb_handles;  // (rpb, handle)
  std::vector<rmt::EntryHandle> recirc_handles;
};

/// Table entries `program` holds per physical RPB (counted from its entry
/// handles; what a removal releases and a re-install reserves again).
[[nodiscard]] inline std::map<int, std::uint32_t> entries_per_rpb(
    const InstalledProgram& program) {
  std::map<int, std::uint32_t> counts;
  for (const auto& [rpb, handle] : program.rpb_handles) {
    (void)handle;
    ++counts[rpb];
  }
  return counts;
}

class UpdateEngine {
 public:
  UpdateEngine(dp::RunproDataplane& dataplane, ResourceManager& resources,
               SimClock& clock, BfrtCostModel cost = {});
  ~UpdateEngine();

  /// The handles an executed install op-log produced, in batch order.
  struct AppliedEntries {
    std::vector<dp::InitBlock::InstalledFilter> filter_handles;
    std::vector<std::pair<int, rmt::EntryHandle>> rpb_handles;
    std::vector<rmt::EntryHandle> recirc_handles;
  };

  /// One charge a job pushed through the virtual channel, in channel order.
  /// Replayed into the tracer/metrics at finish time.
  struct ChannelCharge {
    enum class Kind : std::uint8_t { Batch, MemReset };
    Kind kind = Kind::Batch;
    std::string label;        ///< batch: "add.rpb" etc.; mem reset: vmem name
    std::size_t entries = 0;  ///< batch: entry count; mem reset: bucket count
    SimClock::Nanos start_ns = 0;
    SimClock::Nanos end_ns = 0;
    bool coalesced = false;   ///< batch rode a same-kind predecessor's sync
  };

  /// Everything a write job produces. Filled by the job (on the writer
  /// thread in async mode), read by finish_* after PendingWrite::wait (the
  /// future wait is the happens-before edge).
  struct WriteOutcome {
    std::optional<Result<AppliedEntries>> applied;  ///< install jobs
    std::optional<Status> removed;                  ///< remove jobs
    std::vector<ChannelCharge> charges;
    /// Cost of the snapshot publish the job ran after a clean run (sharded
    /// mode only); observed into the registry at finish time.
    std::optional<dp::PublishStats> publish;
    SimClock::Nanos completion_ns = 0;
    std::uint64_t trace = 0;  ///< trace id active at submission
    bool maintenance = false;  ///< submitted while in maintenance mode
    /// Remove jobs own their staged batch; finish_remove frees the blocks
    /// of its memory resets (install batches are owned by the transaction,
    /// which outlives the finish).
    dp::WriteBatch batch;
  };

  /// Handle to a submitted write. Obtain with submit_*, settle with the
  /// matching finish_* (every submit MUST be finished — the job references
  /// caller-owned state).
  struct PendingWrite {
    std::shared_ptr<WriteOutcome> outcome;
    std::future<void> done;  ///< invalid when the job already ran inline
    SimClock::Nanos submitted_ns = 0;
    std::size_t ops = 0;

    /// Block until the job has run. Lock-free: touches no engine state.
    void wait() {
      if (done.valid()) done.wait();
    }
  };

  /// Execute a staged install op-log (WriteMemRange carry-over ops plus
  /// Add* entry ops in consistent-update order). Consecutive ops of one
  /// kind are charged as one bfrt batch. On any failure — injected channel
  /// fault or a rejected write — the rollback journal unwinds every applied
  /// op and the error (ChannelError for faults) is returned; the dataplane
  /// is then byte-identical to its pre-call state. Submit + finish.
  Result<AppliedEntries> execute_install(const dp::WriteBatch& batch) {
    PendingWrite pending = submit_install(batch);
    return finish_install(pending);
  }

  /// Consistently remove a program and release its memory. On success the
  /// program's handle vectors and placements are cleared (entry
  /// reservations stay the caller's to release). On a mid-removal channel
  /// fault the journal restores everything already deleted — including
  /// writing reset memory contents back — and `program` is left fully
  /// installed with its fresh handles. Submit + finish.
  Status remove(InstalledProgram& program) {
    PendingWrite pending = submit_remove(program);
    return finish_remove(pending, program);
  }

  // --- the channel: submit, then settle -----------------------------------

  /// Attach (true) or drain-and-detach (false) the writer thread. Call only
  /// under the session lock with no write in flight. Detached (the
  /// default), every job runs inline on the submitting thread.
  void set_async(bool enabled);
  [[nodiscard]] bool async() const noexcept { return writer_ != nullptr; }

  /// Submit an install op-log job. Caller must hold the session lock (the
  /// submission time is read off the virtual clock) and must keep `batch`
  /// alive until finish_install returns. Async, returns at once; serial,
  /// returns after running the job inline. Either way the channel latency
  /// is charged only when finish_install settles the write.
  [[nodiscard]] PendingWrite submit_install(const dp::WriteBatch& batch);
  /// Settle a submitted install: wait for the job, advance the clock to
  /// the channel completion time, replay the recorded charges into the
  /// telemetry bundle and return the applied handles (or the fault, with
  /// the dataplane already unwound). Caller must hold the session lock.
  Result<AppliedEntries> finish_install(PendingWrite& pending);

  /// Submit a consistent remove. Stages the op-log from the program's
  /// current handles under the session lock and announces the revoke (the
  /// program is logically retired at submission — its first delete step is
  /// ordered before any later submission on this channel). The job mutates
  /// `program`'s handles (cleared on success, patched fresh on a
  /// fault-unwind); callers must not touch the program until finish_remove.
  [[nodiscard]] PendingWrite submit_remove(InstalledProgram& program);
  /// Settle a submitted remove: on success frees the reset memory blocks
  /// (the job never touches the resource manager) — entry reservations stay
  /// the caller's to release; on a fault re-announces the restored program.
  /// Caller must hold the session lock.
  Status finish_remove(PendingWrite& pending, InstalledProgram& program);

  /// Block until the writer has drained every submitted job (no-op in
  /// serial mode). The read-side quiesce point: const queries take the
  /// session lock and wait here, so they never observe a half-written
  /// program. Deadlock-free because the writer never takes the session
  /// lock.
  void wait_idle() const {
    if (writer_) writer_->wait_idle();
  }

  /// Announce a completed deploy to the health monitor (the program became
  /// visible to traffic with its last filter write). Entry count =
  /// everything the update wrote, the same figure the dashboard reports.
  void announce_deploy(const InstalledProgram& program);

  /// Telemetry sink for the replayed write spans ("bfrt.*") and the
  /// "ctrl.bfrt.*" write counters; null disables (set by the controller).
  void set_telemetry(obs::Telemetry* telemetry) noexcept { telemetry_ = telemetry; }

  /// Maintenance mode: batches charged while set also count toward
  /// "ctrl.bfrt.maintenance_batches", so operator dashboards can separate
  /// defrag/compaction channel traffic from tenant-driven deploys. Toggled
  /// by Controller::defragment around its moves (under the session lock).
  void set_maintenance(bool on) noexcept { maintenance_ = on; }
  [[nodiscard]] bool maintenance() const noexcept { return maintenance_; }

  /// Chain-hop label for this engine's write spans: a chain Controller tags
  /// each hop's engine with its index so "bfrt.batch" and "bfrt.mem_reset"
  /// spans (and trace reports built from them) say which switch the write
  /// landed on. -1 (the default, single-switch) omits the tag.
  void set_hop_label(int hop) noexcept { hop_label_ = hop; }

  /// Fault injection (tests): make the Nth subsequent entry write fail,
  /// simulating a control-channel error mid-update. The fault fires once
  /// and disarms (rollback writes are never faulted). -1 disables. Each
  /// engine drives one switch's channel, so a chain harness arms exactly
  /// the hop it wants to fault (per-hop injection; Controller exposes
  /// `updates(hop)` for this). The fault fires inside the job (on the
  /// writer thread in async mode), at the same write index in both modes.
  void set_fault_after_writes(int writes) { fault_after_ = writes; }
  /// True while an injected fault is armed and has not fired yet. Lets
  /// fault-matrix sweeps distinguish "op succeeded past the batch end"
  /// (fault still armed) from "fault fired and rolled back". In async mode
  /// call only with the channel quiesced (e.g. after a finish).
  [[nodiscard]] bool fault_armed() const noexcept { return fault_after_ >= 0; }

  /// Lifetime count of write ops this engine applied on the forward path
  /// (entry writes, memory carry-overs and resets; journal unwinds are not
  /// counted). One unit here is one fault index of set_fault_after_writes,
  /// so `writes_applied()` after a clean run bounds a full fault sweep.
  [[nodiscard]] std::uint64_t writes_applied() const noexcept {
    return writes_applied_;
  }

  /// Test/verification hook: invoked after every individual entry
  /// operation, i.e. at every intermediate data-plane state of an update.
  /// Used by the consistency property tests to inject packets mid-update
  /// and assert no incorrectly processed packet is ever exposed (§4.3).
  /// Runs inside the job: on the caller's thread in serial mode, on the
  /// writer thread in async mode.
  void set_step_observer(std::function<void()> observer) {
    step_observer_ = std::move(observer);
  }

 private:
  /// One rollback-journal record: the inverse of an applied op, tagged with
  /// the batch index it undoes (handle restoration after a failed remove).
  struct JournalEntry {
    std::size_t batch_index = 0;
    dp::WriteOp inverse;
  };

  /// A job's position on the virtual channel. `now` advances as charges
  /// are recorded; `last_label` is the label of the last batch pushed with
  /// no idle gap after it (the coalescing predecessor, consulted only when
  /// `coalesce` is set — the threaded channel). Owned by the job while it
  /// runs; persisted into the engine's channel state between jobs.
  struct ChannelCursor {
    SimClock::Nanos now = 0;
    std::string last_label;
    bool coalesce = false;
    std::vector<ChannelCharge>* charges = nullptr;
  };

  /// Record one batched bfrt write of `count` entries against the cursor,
  /// coalescing with a same-label predecessor (skips the per-batch
  /// overhead).
  void charge_batch(std::size_t count, const char* what, ChannelCursor& cursor);
  /// Zero one memory range and record the block-reset charge. The block
  /// stays reserved: finish_remove frees it after a clean run.
  dp::WriteOp apply_mem_reset(const dp::WriteOp& op, ChannelCursor& cursor);
  /// Unwind a journal in reverse order (uncharged — rollback writes are
  /// free).
  void unwind(std::vector<JournalEntry>& journal);
  /// Unwind a failed removal: restore reset bytes (the blocks were never
  /// freed), re-add deleted entries and patch the fresh handles back into
  /// `program`.
  void rollback_remove(const dp::WriteBatch& batch,
                       std::vector<JournalEntry>& journal,
                       InstalledProgram& program);

  /// The job bodies: apply an op-log, journal every inverse, record the
  /// channel charges against `cursor`.
  Result<AppliedEntries> run_install(const dp::WriteBatch& batch,
                                     ChannelCursor& cursor);
  Status run_remove(const dp::WriteBatch& batch, InstalledProgram& program,
                    ChannelCursor& cursor);

  /// Build one job around `run` (which fills `outcome` and returns true on
  /// a clean run) and run it: inline without a writer, else on the writer.
  template <typename Run>
  [[nodiscard]] PendingWrite submit_job(std::shared_ptr<WriteOutcome> outcome,
                                        std::size_t ops, Run run);
  /// Bracket around one job: position the cursor at max(submission,
  /// channel backlog), dropping the coalescing label across idle gaps;
  /// persist the cursor and the completion time when the job ends.
  [[nodiscard]] ChannelCursor begin_job(SimClock::Nanos submitted_ns,
                                        WriteOutcome& outcome);
  void end_job(const ChannelCursor& cursor, WriteOutcome& outcome);
  /// Shared head of finish_*: wait for the job, advance the clock to its
  /// completion, replay its charges and observe its publish.
  WriteOutcome& settle(PendingWrite& pending);

  /// Replay a completed job's charges into the tracer (closed spans at the
  /// recorded virtual times, stamped with the submit-time trace id) and the
  /// ctrl.bfrt.* counters. Caller holds the session lock.
  void emit_charges(const WriteOutcome& outcome);
  /// Record a snapshot publish into rmt.snapshot.publish_us and the
  /// rmt.snapshot.buckets_{frozen,shared} counters (no-op for nullopt: no
  /// publish happened). Session thread only: the registry is not
  /// thread-safe, so writer-thread publishes arrive via WriteOutcome.
  void observe_publish(const std::optional<dp::PublishStats>& publish);
  void update_queue_gauge();

  /// Called once per applied forward op — the same granularity as the fault
  /// indices — so it also maintains writes_applied().
  void observe_step() {
    ++writes_applied_;
    if (step_observer_) step_observer_();
  }

  /// Returns true when the next write should fail (and disarms).
  [[nodiscard]] bool inject_fault() {
    if (fault_after_ < 0) return false;
    if (fault_after_ == 0) {
      fault_after_ = -1;
      return true;
    }
    --fault_after_;
    return false;
  }

  /// The ctrl.bfrt.*, channel and snapshot-publish metric handles.
  struct Metrics;

  int fault_after_ = -1;
  int hop_label_ = -1;
  bool maintenance_ = false;
  std::uint64_t writes_applied_ = 0;
  std::function<void()> step_observer_;
  obs::Telemetry* telemetry_ = nullptr;
  dp::RunproDataplane& dataplane_;
  ResourceManager& resources_;
  SimClock& clock_;
  BfrtCostModel cost_;

  // Channel-cursor state between jobs: virtual time the channel drains at,
  // and the coalescing label. Touched only by jobs (begin_job/end_job),
  // whose FIFO order makes it deterministic.
  SimClock::Nanos channel_cursor_ns_ = 0;
  std::string channel_last_label_;
  std::unique_ptr<AsyncWriter> writer_;  ///< non-null = async mode
  std::unique_ptr<Metrics> metrics_;
};

}  // namespace p4runpro::ctrl
