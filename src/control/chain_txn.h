// Chain transaction: the two-phase, chain-wide extension of
// ctrl::DeployTransaction. One ChainTransaction owns a single program
// deployment across every hop of a dp::SwitchChain (mirror mode: the same
// program, the same allocation, on every switch) and guarantees the
// paper's update-consistency property end to end:
//
//   phase 1 (stage_all): per-hop reserve -> plan -> stage. Reservations and
//     op-logs are built on EVERY hop before a single control-channel write
//     lands anywhere; any hop's AllocFailed / staging error aborts the
//     whole chain with nothing but reservation churn to undo.
//   phase 2 (commit_all): submit each hop's staged op-log to that hop's
//     UpdateEngine and settle it. A channel fault at ANY (hop, write index)
//     pair unwinds: the faulted hop is restored by its engine's rollback
//     journal, and every hop that committed is un-committed (consistent
//     remove + reservation release + residual-byte restore), leaving the
//     whole chain byte-identical to its pre-transaction state.
//
// Residual bytes: un-committing a hop runs the consistent-remove path,
// whose memory-reset step zeroes the program's memory blocks — but the
// pre-transaction bytes of those (then-free) blocks were not necessarily
// zero. stage_all() therefore captures the residual contents of every
// reserved block, and the unwind writes them back after the remove, so the
// "byte-identical" guarantee covers free memory too.
//
// One hop: a single recirculating switch runs the same two phases through
// one DeployTransaction and opens no chain_txn.* span, so its span tree is
// the single-switch one (txn.reserve, entrygen, txn.stage, txn.commit).
//
// Locking discipline: like DeployTransaction, a chain transaction is
// single-threaded and must run under the controller's session lock from
// stage_all() onward — except commit_wait(), the lock-free park between
// commit_submit() and commit_finish(); only the per-hop allocation solving
// that feeds it may run concurrently (on snapshots).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "control/deploy_txn.h"
#include "obs/trace.h"

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
    RolledBack,  ///< chain-wide pre-transaction state restored
  };

  /// `allocs` is positional: allocs[h] is hop h's allocation (the caller
  /// verified they agree on rounds — mirror mode). `replacing` != 0 marks
  /// an incremental update carried out per hop (see DeployTransaction).
  ChainTransaction(std::vector<ChainHop> hops, const rp::TranslatedProgram& ir,
                   std::vector<rp::AllocationResult> allocs, ProgramId id,
                   int filter_priority, ProgramId replacing,
                   obs::Telemetry* telemetry);

  /// Abandoning an uncommitted chain transaction rolls it back.
  ~ChainTransaction();
  ChainTransaction(const ChainTransaction&) = delete;
  ChainTransaction& operator=(const ChainTransaction&) = delete;

  /// Phase 1: reserve, plan and stage on every hop. On any hop's failure
  /// every hop's reservations are returned and the transaction is
  /// RolledBack (faulted_hop() names the hop that failed).
  Status stage_all();

  /// Phase 2: commit every hop. On a fault the whole chain is restored (see
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

  /// True when every hop's update engine is async (phase 2 pipelines).
  [[nodiscard]] bool pipelined() const;
  void commit_submit();
  void commit_wait();
  Status commit_finish();
  /// Virtual ms from submission to the last hop's completion (the chain's
  /// pipelined update delay); valid after commit_finish.
  [[nodiscard]] double channel_ms() const;

  /// Release phase-1 reservations on every hop (idempotent; no-op once
  /// Committed).
  void rollback_all();

  /// Un-commit a COMMITTED transaction: consistently remove the program
  /// from every hop (reverse hop order), release its resources and restore
  /// residual bytes. Used by the controller's relink (and defrag move) when
  /// retiring the old version faults after the new version already
  /// committed on every hop. The unwind itself must not fault (single-fault
  /// model, the same assumption the single-switch journal unwind makes).
  void unwind_commit();

  [[nodiscard]] Phase phase() const noexcept { return phase_; }
  [[nodiscard]] ProgramId id() const noexcept { return id_; }
  [[nodiscard]] int length() const noexcept { return static_cast<int>(hops_.size()); }
  /// Hop whose reserve/commit failed; -1 while nothing faulted.
  [[nodiscard]] int faulted_hop() const noexcept { return faulted_hop_; }
  /// Per-hop installed programs; valid only while Committed.
  [[nodiscard]] std::vector<InstalledProgram>& installed() noexcept { return installed_; }
  /// Staged op count of one hop (valid once Staged).
  [[nodiscard]] std::size_t staged_ops(int hop) const;
  /// Total staged ops across the chain.
  [[nodiscard]] std::size_t total_staged_ops() const;

 private:
  /// Pre-transaction contents of one reserved block (captured in phase 1).
  struct Residual {
    std::string vmem;
    VmemPlacement placement;
    std::vector<Word> words;
  };

  /// Un-commit one hop's `program`: consistent remove, release entries,
  /// erase the program record, restore the blocks' residual bytes.
  void unwind_committed_hop(int hop, InstalledProgram& program);
  /// A chain_txn.* span: inert on one hop, which keeps the single-switch
  /// span tree.
  [[nodiscard]] obs::SpanTracer::Scope chain_span(const char* name) const;

  std::vector<ChainHop> hops_;
  const rp::TranslatedProgram& ir_;
  std::vector<rp::AllocationResult> allocs_;
  ProgramId id_;
  int filter_priority_;
  ProgramId replacing_;
  obs::Telemetry* telemetry_;

  Phase phase_ = Phase::Solved;
  int faulted_hop_ = -1;
  std::vector<std::unique_ptr<DeployTransaction>> txns_;   // [hop]
  std::vector<std::vector<Residual>> residuals_;           // [hop]
  std::vector<InstalledProgram> installed_;                // [hop], when Committed
};

}  // namespace p4runpro::ctrl
