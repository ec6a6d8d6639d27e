// Deploy transaction: the staged, rollback-safe core of link / relink, on
// one switch or across every hop of a dp::SwitchChain (mirror mode: the
// same program, the same allocation, on every switch). One ChainTransaction
// owns a single program deployment and guarantees the paper's
// update-consistency property end to end:
//
//   stage_all: per hop, reserve -> plan -> stage. reserve takes memory
//     blocks and table-entry reservations from the hop's resource manager,
//     plan binds the IR to concrete RPB entries (entrygen), stage builds
//     the declarative op-log (dp::WriteBatch) — relink carry-over memory
//     writes first, then the consistent-update install order. Every hop
//     reserves before any hop plans, and no hop's dataplane is touched:
//     any hop's AllocFailed aborts the whole transaction with nothing but
//     reservation churn to undo.
//   commit_all: per hop, submit the staged op-log to the hop's UpdateEngine
//     and settle it. A channel fault at ANY (hop, write index) pair
//     unwinds: the faulted hop is restored by its engine's rollback
//     journal, and every hop that committed is un-committed (consistent
//     remove + reservation release + residual-byte restore), leaving every
//     hop byte-identical to its pre-transaction state.
//
// Residual bytes: un-committing a hop runs the consistent-remove path,
// whose memory-reset step zeroes the program's memory blocks — but the
// pre-transaction bytes of those (then-free) blocks were not necessarily
// zero. Staging therefore captures the residual contents of every reserved
// block, and the unwind writes them back after the remove, so the
// "byte-identical" guarantee covers free memory too.
//
// One hop: a single recirculating switch runs the same phases and opens no
// chain_txn.* span, so its span tree is the single-switch one (txn.reserve,
// entrygen, txn.stage, txn.commit).
//
// Locking discipline: a transaction is single-threaded and must run under
// the controller's session lock from stage_all() onward — except
// commit_wait(), the lock-free park between commit_submit() and
// commit_finish(); only the allocation solving that feeds it may run
// concurrently (on snapshots).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

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

/// One hop's execution context (pointers owned by the controller and
/// outliving the transaction).
struct ChainHop {
  dp::RunproDataplane* dataplane = nullptr;
  ResourceManager* resources = nullptr;
  UpdateEngine* updates = nullptr;
};

class ChainTransaction {
 public:
  enum class Phase : std::uint8_t {
    Solved,      ///< per-hop allocations bound, nothing reserved yet
    Staged,      ///< every hop reserved + staged, no dataplane writes yet
    Submitted,   ///< every hop's op-log in flight on its async channel
                 ///< (pipelined only; serial hops submit as they settle)
    Committed,   ///< op-logs executed on every hop
    RolledBack,  ///< pre-transaction state restored on every hop
  };

  /// `allocs` is positional: allocs[h] is hop h's allocation (the caller
  /// verified they agree on rounds — mirror mode). `replacing` != 0 marks
  /// an incremental update: staging carries over the contents of virtual
  /// memories shared with the old version, on every hop.
  ChainTransaction(std::vector<ChainHop> hops, const rp::TranslatedProgram& ir,
                   std::vector<rp::AllocationResult> allocs, ProgramId id,
                   int filter_priority, ProgramId replacing,
                   obs::Telemetry* telemetry);

  /// Abandoning a staged, uncommitted transaction rolls it back.
  ~ChainTransaction();
  ChainTransaction(const ChainTransaction&) = delete;
  ChainTransaction& operator=(const ChainTransaction&) = delete;

  /// Phase 1: reserve, plan and stage on every hop. On any hop's failure
  /// every hop's reservations are returned and the transaction is
  /// RolledBack (faulted_hop() names the hop that failed).
  Status stage_all();

  /// Phase 2: commit every hop. On a fault every hop is restored (see
  /// class comment) and the transaction is RolledBack; faulted_hop() names
  /// the hop whose write failed. Pipelined, this is commit_submit()
  /// followed by commit_finish(); serial, commit_finish() alone.
  ///
  /// Serial mode submits and settles hop by hop and stops at the first
  /// fault, so the chain's update latency is the sum of the hops' channel
  /// times. Pipelined mode (EVERY hop's update engine async) submits all
  /// hops' op-logs up front and the per-hop writer threads drain their
  /// channels concurrently — latency becomes max(per-hop channel time).
  /// Consistency is the same in both: each hop's op-log runs in
  /// consistent-update order on its own channel (filters land last per
  /// hop), settlement is in hop order, and a fault on any hop restores the
  /// whole chain byte-identically (committed hops are un-committed whether
  /// they settled before or after the faulted one).
  Status commit_all();

  // --- split pipelined commit (every hop async) ---------------------------
  // The controller parks a session off-lock between the halves:
  //   commit_submit() — under the session lock: submit every hop's op-log.
  //   commit_wait()   — OPTIONAL, lock-free: block until every hop's writer
  //                     has completed (no shared state touched).
  //   commit_finish() — under the session lock: settle the hops in order
  //                     (serial: submitting each first), unwinding the
  //                     chain on any hop's fault. The one settle body.
  // A hop's txn.commit span stays open from submit to settle in serial mode
  // (so the replayed bfrt.* spans nest under it); async, it closes at submit.

  /// True when every hop's update engine is async (phase 2 pipelines).
  [[nodiscard]] bool pipelined() const;
  void commit_submit();
  void commit_wait();
  Status commit_finish();
  /// Virtual ms from submission to the last hop's completion (the chain's
  /// pipelined update delay); valid after commit_finish.
  [[nodiscard]] double channel_ms() const;

  /// Un-commit a COMMITTED transaction: consistently remove the program
  /// from every hop (reverse hop order), release its resources and restore
  /// residual bytes. Used by the controller's relink (and defrag move) when
  /// retiring the old version faults after the new version already
  /// committed on every hop. The unwind itself must not fault (single-fault
  /// model, the same assumption the single-switch journal unwind makes).
  void unwind_commit();

  [[nodiscard]] Phase phase() const noexcept { return phase_; }
  /// Hop whose reserve/commit failed; -1 while nothing faulted.
  [[nodiscard]] int faulted_hop() const noexcept { return faulted_hop_; }
  /// Per-hop installed programs; valid only while Committed.
  [[nodiscard]] std::vector<InstalledProgram>& installed() noexcept { return installed_; }
  /// Total staged ops across the chain.
  [[nodiscard]] std::size_t total_staged_ops() const;

 private:
  /// Pre-transaction contents of one reserved block (captured at staging).
  struct Residual {
    std::string vmem;
    VmemPlacement placement;
    std::vector<Word> words;
  };

  /// One hop's share of the transaction.
  struct HopTxn {
    ChainHop ctx;
    rp::AllocationResult alloc;
    std::map<std::string, VmemPlacement> placements;
    std::map<int, std::uint32_t> reserved_entries;  ///< rpb -> count held
    rp::EntryPlan plan;
    dp::WriteBatch batch;
    std::vector<Residual> residuals;
    UpdateEngine::PendingWrite pending;   ///< set at submission
    obs::SpanTracer::Scope commit_span;   ///< serial: open submit -> settle
    /// Committed, or reservations returned: nothing left to roll back.
    bool closed = false;
  };

  /// Memory blocks (first-fit at the allocation's pinned stages) and table
  /// entries per physical RPB. On failure the hop's reservations are
  /// returned.
  Status reserve(HopTxn& hop);
  /// Entry plan, op-log and residual bytes of a reserved hop.
  void stage(HopTxn& hop);
  /// Hand the hop's op-log to its engine (inline when the engine is
  /// serial).
  void submit(HopTxn& hop);
  /// Settle a submitted hop: on success record + announce its program; on
  /// a fault the engine's journal already unwound the dataplane — return
  /// the reservations and the error.
  Result<InstalledProgram> settle(HopTxn& hop);
  /// Return one hop's reservations (once; never after it committed).
  void release(HopTxn& hop);
  /// Release every hop that neither committed nor released yet.
  void rollback_all();
  /// Un-commit one hop's `program`: consistent remove, release entries,
  /// erase the program record, restore the blocks' residual bytes.
  void unwind_committed_hop(HopTxn& hop, InstalledProgram& program);
  /// A chain_txn.* span: inert on one hop, which keeps the single-switch
  /// span tree.
  [[nodiscard]] obs::SpanTracer::Scope chain_span(const char* name) const;

  std::vector<HopTxn> hops_;
  const rp::TranslatedProgram& ir_;
  ProgramId id_;
  int filter_priority_;
  ProgramId replacing_;
  obs::Telemetry* telemetry_;

  Phase phase_ = Phase::Solved;
  int faulted_hop_ = -1;
  std::vector<InstalledProgram> installed_;  // [hop], when Committed
};

}  // namespace p4runpro::ctrl
