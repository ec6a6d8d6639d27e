// Chain transaction: the staged, rollback-safe core of link, relink, defrag
// move and revoke, on one switch or across every hop of a dp::SwitchChain
// (mirror mode: the same program, the same allocation, on every switch). A
// transaction is a list of per-hop records, each with a direction: install
// records put a new program on every hop, remove records take a running
// one off. A link installs, a revoke removes, and a relink or defrag move
// installs the new version, then removes the old one (paper §4.3, Fig. 6:
// add and delete are the two orders of one consistent update). Every
// record runs through one phase machine:
//
//   stage_all: per install record, reserve -> plan -> stage. reserve takes
//     memory blocks and table-entry reservations from the hop's resource
//     manager, plan binds the IR to concrete RPB entries (entrygen), stage
//     builds the declarative op-log (dp::WriteBatch) — relink carry-over
//     memory writes first, then the consistent-update install order. Every
//     hop reserves before any hop plans and no dataplane is touched, so any
//     hop's AllocFailed aborts with nothing but reservation churn to undo.
//     A remove record counts its program's entries per RPB and, on a chain,
//     captures its blocks.
//   commit_all: per record, submit to the hop's UpdateEngine and settle. The
//     install records settle on every hop before any remove record is
//     submitted, so traffic always sees one complete version. A channel
//     fault at ANY (record, write index) unwinds: the faulted hop is
//     restored by its engine's rollback journal, and every settled record is
//     un-committed in reverse record order (removed hops re-installed, then
//     installed hops removed), leaving every hop byte-identical to its
//     pre-transaction state.
//
// Residual bytes: staging captures the contents of every block a record
// touches and an un-commit writes them back (an install's removal zeroes
// blocks that were not necessarily zero), so "byte-identical" covers free
// memory too.
//
// Spans: the chain_txn.* spans wrap a chain's install records; one switch
// opens none (its tree is txn.reserve, entrygen, txn.stage, txn.commit). A
// remove record opens no span: a removal shows as the replayed bfrt.* spans.
//
// Locking discipline: a transaction is single-threaded and must run under
// the controller's session lock from stage_all() onward — except
// commit_wait(), the lock-free park between commit_submit() and
// commit_finish(); only the allocation solving that feeds it may run
// concurrently (on snapshots).
#pragma once

#include <cstdint>
#include <functional>
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
  std::map<ProgramId, InstalledProgram>* programs = nullptr;  ///< removals only
};

class ChainTransaction {
 public:
  enum class Phase : std::uint8_t {
    Solved,      ///< per-hop allocations bound, nothing reserved yet
    Staged,      ///< every record reserved + staged, no dataplane writes yet
    Submitted,   ///< first wave in flight on the async channels (pipelined
                 ///< only; serial records submit as they settle)
    Committed,   ///< every record's op-log executed
    RolledBack,  ///< pre-transaction state restored on every hop
  };

  /// Install `ir` on every hop. `allocs` is positional: allocs[h] is hop h's
  /// allocation (the caller verified they agree on rounds — mirror mode).
  /// `replacing` != 0 marks an incremental update: staging carries over the
  /// contents of virtual memories shared with the old version, on every hop.
  ChainTransaction(std::vector<ChainHop> hops, const rp::TranslatedProgram& ir,
                   std::vector<rp::AllocationResult> allocs, ProgramId id,
                   int filter_priority, ProgramId replacing,
                   obs::Telemetry* telemetry);
  /// Remove running program `id` from every hop (a revoke); see retire().
  ChainTransaction(std::vector<ChainHop> hops, ProgramId id, obs::Telemetry* telemetry);

  /// Abandoning a staged, uncommitted transaction rolls it back.
  ~ChainTransaction();
  ChainTransaction(const ChainTransaction&) = delete;
  ChainTransaction& operator=(const ChainTransaction&) = delete;

  /// Add remove records for program `id` before staging. Its entry in each
  /// hop's books stays for the caller to erase after the commit (handles
  /// cleared by the removal, patched fresh by an un-commit).
  void retire(ProgramId id);

  /// Phase 1: reserve, plan and stage every record. On any hop's failure
  /// every hop's reservations are returned and the transaction is
  /// RolledBack (faulted_hop() names the hop that failed).
  Status stage_all();

  /// Phase 2: commit every record; on a fault every hop is restored and the
  /// transaction is RolledBack (faulted_hop() names the hop whose write
  /// failed). `on_installed` (may be empty) runs once the install records
  /// settled on every hop — the new version is live — before any remove is
  /// submitted. Serial, records submit and settle one by one and the first
  /// fault stops the walk (latency: the sum of the hops' channel times).
  /// Pipelined (EVERY hop's engine async), a wave — the install records,
  /// then the remove records — is submitted up front so the per-hop writers
  /// drain concurrently (latency: the slowest hop, per wave). Both settle in
  /// hop order and restore every hop on a fault.
  Status commit_all(const std::function<void()>& on_installed = {});

  // --- split pipelined commit (every hop async) ---------------------------
  // The controller parks a session off-lock between the halves: under the
  // session lock commit_submit() submits the first wave; lock-free,
  // commit_wait() (optional) blocks until its writers completed; under the
  // lock again commit_finish() — the one settle body — settles the records
  // in order (serial: submitting each first), un-committing on any fault.
  // An install record's txn.commit span stays open from submit to settle in
  // serial mode (the replayed bfrt.* spans nest under it); async, it closes
  // at submit.

  /// True when every hop's update engine is async (phase 2 pipelines).
  [[nodiscard]] bool pipelined() const;
  void commit_submit();
  void commit_wait();
  Status commit_finish(const std::function<void()>& on_installed = {});
  /// Virtual ms from submission to the last record's completion (a one-wave
  /// pipelined update delay); valid after commit_finish.
  [[nodiscard]] double channel_ms() const;

  /// Un-commit a COMMITTED link (install records only) as a fault would. The
  /// unwind itself must not fault (single-fault model, the same assumption
  /// the single-switch journal unwind makes).
  void unwind_commit();

  [[nodiscard]] Phase phase() const noexcept { return phase_; }
  [[nodiscard]] bool installs() const noexcept { return installs_ > 0; }  ///< not a revoke
  /// Hop whose reserve/commit failed; -1 while nothing faulted.
  [[nodiscard]] int faulted_hop() const noexcept { return faulted_hop_; }
  /// Hop `hop`'s installed program; valid only while Committed.
  [[nodiscard]] InstalledProgram& installed(int hop) noexcept {
    return records_[static_cast<std::size_t>(hop)].installed;
  }
  /// Total staged install ops across the chain.
  [[nodiscard]] std::size_t total_staged_ops() const;

 private:
  /// Pre-transaction contents of one block a record touches.
  struct Residual {
    std::string vmem;
    VmemPlacement placement;
    std::vector<Word> words;
  };

  enum class Direction : std::uint8_t { Install, Remove };

  /// One hop's share of the transaction, in one direction: `placements`,
  /// `entries` (per physical RPB) and `residuals` are what an install
  /// reserved, or what a remove's program holds (blocks: chain only).
  struct Record {
    Record(Direction d, std::size_t h, ChainHop c)
        : direction(d), hop(static_cast<int>(h)), ctx(c) {}
    Direction direction;
    int hop;
    ChainHop ctx;
    InstalledProgram* program = nullptr;  ///< remove: the hop's books entry
    std::map<std::string, VmemPlacement> placements;
    std::map<int, std::uint32_t> entries;
    std::vector<Residual> residuals;
    rp::AllocationResult alloc;  ///< install
    rp::EntryPlan plan;          ///< install
    dp::WriteBatch batch;        ///< install
    InstalledProgram installed;  ///< install, once settled
    UpdateEngine::PendingWrite pending;   ///< set at submission
    obs::SpanTracer::Scope commit_span;   ///< install, serial: submit -> settle
    bool settled = false;  ///< op-log executed: an un-commit must undo it
    bool closed = false;   ///< install: no reservation left to release
  };

  /// Install: memory blocks (first-fit at the pinned stages) and entries;
  /// on failure the reservations are returned.
  Status reserve(Record& record);
  /// Install: entry plan and op-log (stage_install); remove: entry counts
  /// and, on a chain, the program's blocks. Then the residual bytes.
  void stage(Record& record);
  void stage_install(Record& record);
  void submit(Record& record);
  Status settle(Record& record);
  /// End of the wave (install records, then remove records) at `begin`.
  [[nodiscard]] std::size_t wave_end(std::size_t begin) const;
  /// Return an install record's reservations (once; never once committed).
  void release(Record& record);
  /// After a clean removal of `id`: drop its entries, resource record and
  /// claim counter on the record's hop.
  void forget(const Record& record, ProgramId id);
  void rollback_all();
  /// Un-commit every settled record in reverse record order (see class
  /// comment), then release what is still reserved.
  void uncommit();
  void remove_installed(Record& record);
  void reinstall_removed(Record& record);
  /// The record's saved block contents as WriteMemRange ops (moved out).
  static dp::WriteBatch saved_blocks(Record& record);
  /// A chain_txn.* span: inert on one hop and without install records.
  [[nodiscard]] obs::SpanTracer::Scope chain_span(const char* name) const;

  std::vector<ChainHop> hops_;
  std::vector<Record> records_;  ///< install records first, then remove
  std::size_t installs_ = 0;
  const rp::TranslatedProgram* ir_ = nullptr;
  ProgramId id_ = 0;
  int filter_priority_ = 0;
  ProgramId replacing_ = 0;
  obs::Telemetry* telemetry_;

  Phase phase_ = Phase::Solved;
  int faulted_hop_ = -1;
  obs::SpanTracer::Scope commit_span_;  ///< chain_txn.commit: the install wave
};

}  // namespace p4runpro::ctrl
