// Deploy transaction: the staged, rollback-safe core of link / relink.
// One DeployTransaction owns a single program deployment and walks it
// through explicit phases:
//
//   compile (caller) -> reserve -> plan-entries -> stage -> commit
//                                                        \-> rollback
//
// reserve() takes memory blocks and table-entry reservations from the
// resource manager; plan_entries() binds the IR to concrete RPB entries;
// stage() builds the declarative op-log (dp::WriteBatch) — relink
// carry-over memory writes first, then the consistent-update install order —
// WITHOUT touching the dataplane; commit_submit() hands the batch to the
// update engine and commit_finish() settles it — the engine's rollback
// journal guarantees a fault at any write index leaves the dataplane
// byte-identical. rollback() (also run by the
// destructor on abandonment) returns every reservation; after it, no trace
// of the transaction remains anywhere but the audit log.
//
// Locking discipline: a transaction is single-threaded and must run under
// the controller's session lock from reserve() onward — compile/solve are
// the only phases safe to run concurrently (they work on snapshots).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/result.h"
#include "compiler/entrygen.h"
#include "compiler/ir.h"
#include "compiler/solver.h"
#include "control/resource_manager.h"
#include "control/update_engine.h"
#include "dataplane/runpro_dataplane.h"
#include "dataplane/write_op.h"
#include "obs/trace.h"

namespace p4runpro::obs {
struct Telemetry;
}

namespace p4runpro::ctrl {

/// Everything a transaction acts on. The references outlive the transaction
/// (they are the controller's members).
struct DeployContext {
  dp::RunproDataplane& dataplane;
  ResourceManager& resources;
  UpdateEngine& updates;
  obs::Telemetry* telemetry = nullptr;  ///< null: span-free (worker threads)
};

class DeployTransaction {
 public:
  enum class Phase : std::uint8_t {
    Compiled,    ///< inputs bound, nothing reserved yet
    Reserved,    ///< memory blocks + table entries held
    Planned,     ///< entry plan generated against the reservations
    Staged,      ///< op-log built, dataplane still untouched
    Submitted,   ///< op-log handed to the channel, not yet settled
    Committed,   ///< op-log executed; resources belong to the program now
    RolledBack,  ///< every reservation returned
  };

  /// `replacing` != 0 marks an incremental update: stage() carries over the
  /// contents of virtual memories shared with the old version.
  DeployTransaction(DeployContext ctx, const rp::TranslatedProgram& ir,
                    rp::AllocationResult alloc, ProgramId id,
                    int filter_priority, ProgramId replacing = 0);

  /// Abandoning an uncommitted transaction rolls it back.
  ~DeployTransaction();
  DeployTransaction(const DeployTransaction&) = delete;
  DeployTransaction& operator=(const DeployTransaction&) = delete;

  /// Reserve memory blocks (first-fit at the allocation's pinned stages)
  /// and table entries per physical RPB. On failure everything reserved so
  /// far is returned and the transaction is RolledBack.
  Status reserve();
  /// Generate the entry plan (entrygen) against the reserved placements.
  void plan_entries();
  /// Build the op-log: carry-over WriteMemRange ops first (relink), then
  /// the install sequence in consistent-update order.
  void stage();
  // --- commit: submit, then settle ---------------------------------------
  // Submission is separate from settlement so a pipelined session can
  // release its lock (or submit the next hop) while the writer drains the
  // channel:
  //   commit_submit()  — under the session lock: hand the op-log to the
  //                      engine, phase -> Submitted. Async, returns at once;
  //                      serial, the write has run inline when it returns.
  //   commit_wait()    — OPTIONAL, lock-free: block until the write has run
  //                      (no shared state touched).
  //   commit_finish()  — under the session lock: settle the write (clock
  //                      advance, telemetry replay), then record the program
  //                      or roll the reservations back.
  // The txn.commit span stays open from submit to finish in serial mode (so
  // the replayed bfrt.* spans nest under it); async, it closes at submit.

  /// Submit the staged op-log. Caller must hold the session lock and must
  /// keep this transaction alive until commit_finish (the job references
  /// the staged batch).
  void commit_submit();
  /// Block until the submitted write has run. Safe to call WITHOUT the
  /// session lock — this is the point a session parks while other sessions
  /// (or other hops) use the lock and the channel.
  void commit_wait();
  /// Settle the submitted write under the session lock: on success record +
  /// announce the program (phase Committed); on a fault the engine's journal
  /// already unwound the dataplane — roll reservations back and return the
  /// error.
  Result<InstalledProgram> commit_finish();
  /// Virtual milliseconds the write spent on the channel, from submission
  /// to completion (valid after commit_finish). The pipelined chain uses it
  /// to report per-hop channel occupancy.
  [[nodiscard]] double channel_ms() const noexcept { return channel_ms_; }
  /// Release reservations (idempotent; no-op once Committed).
  void rollback();

  [[nodiscard]] Phase phase() const noexcept { return phase_; }
  [[nodiscard]] ProgramId id() const noexcept { return id_; }
  [[nodiscard]] const std::map<std::string, VmemPlacement>& placements() const noexcept {
    return placements_;
  }
  [[nodiscard]] const dp::WriteBatch& staged_batch() const noexcept { return batch_; }

 private:
  /// Tail of commit_finish(): on success build + record + announce the
  /// InstalledProgram; on failure roll reservations back.
  Result<InstalledProgram> finalize(Result<UpdateEngine::AppliedEntries> applied);

  DeployContext ctx_;
  const rp::TranslatedProgram& ir_;
  rp::AllocationResult alloc_;
  ProgramId id_;
  int filter_priority_;
  ProgramId replacing_;

  Phase phase_ = Phase::Compiled;
  std::map<std::string, VmemPlacement> placements_;
  std::map<int, std::uint32_t> reserved_entries_;  ///< rpb -> count held
  rp::EntryPlan plan_;
  dp::WriteBatch batch_;
  UpdateEngine::PendingWrite pending_;  ///< valid while Submitted
  obs::SpanTracer::Scope commit_span_;  ///< serial: open submit -> finish
  double channel_ms_ = 0.0;
};

}  // namespace p4runpro::ctrl
