// P4runpro control plane controller: the public runtime-programming API.
// Drives the full link pipeline (parse -> check -> translate -> allocate ->
// generate entries -> consistent update) and program lifecycle
// (monitor / revoke), mirroring the prototype's runtime CLI (paper §5).
//
// One controller drives 1..N hops (paper §4.1.3: a chain of switches is
// recirculation spread over several switches, under the same control
// model). The constructor picks the mode: a RunproDataplane is one
// recirculating switch; a SwitchChain mirrors every program on every hop
// under one ProgramId (RPB entry keys embed the program id and the
// recirculation id doubles as the hop count, so ids must match chain-wide).
// Each hop keeps its own books — resource manager, update engine and
// installed programs — and every mutation runs through one ChainTransaction
// of per-hop install and remove records: a link installs, a revoke removes,
// a relink or defrag move installs the new version, then removes the old.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "compiler/compiler.h"
#include "compiler/solver.h"
#include "control/admission.h"
#include "control/chain_txn.h"
#include "control/defrag.h"
#include "control/resource_manager.h"
#include "control/tenant.h"
#include "control/update_engine.h"
#include "dataplane/runpro_dataplane.h"
#include "dataplane/switch_chain.h"

namespace p4runpro::obs {
struct Telemetry;
class ProgramHealthMonitor;
class FlightRecorder;
}  // namespace p4runpro::obs

namespace p4runpro::ctrl {

/// Timing breakdown of one program deployment (§6.2.1: deployment delay =
/// parse + allocation + update delay), the same whatever entry point links.
/// `parse_ms` is the fixed parse charge (split across a unit's programs),
/// `alloc_ms` the solver's measured wall time (or the fixed charge) and
/// `update_ms` the simulated control channel's whole update window: a
/// relink's covers the new version's install and the old version's retire.
struct LinkStats {
  double parse_ms = 0.0;
  double alloc_ms = 0.0;
  double update_ms = 0.0;

  [[nodiscard]] double deploy_ms() const noexcept {
    return parse_ms + alloc_ms + update_ms;
  }
};

struct LinkResult {
  ProgramId id = 0;
  std::string name;
  LinkStats stats;
  /// Causal trace id minted for the link operation (obs::TraceScope); pass
  /// it to ctrl::trace_report to assemble the operation's cross-tier story.
  std::uint64_t trace = 0;
};

/// One control-plane lifecycle event (operator audit log).
struct ControlEvent {
  enum class Kind : std::uint8_t {
    Link, Relink, Revoke, LinkFailed, RevokeFailed
  } kind;
  double t_ms = 0.0;  ///< virtual time
  ProgramId id = 0;
  std::string name;
  std::string detail;  ///< error text (with its [ErrorCode]) for *Failed kinds
};

/// One concurrent link session: a single-program source unit tagged with the
/// tenant whose quota and fair share it runs under (0 = default tenant).
struct SessionSpec {
  std::string source;
  TenantId tenant = 0;
};

class Controller {
 public:
  /// One recirculating switch. `telemetry` routes all observations
  /// (metrics, phase spans) of this controller, its update engine, resource
  /// manager and the dataplane's pipeline through one bundle; null selects
  /// obs::default_telemetry().
  Controller(dp::RunproDataplane& dataplane, SimClock& clock,
             rp::Objective objective = {}, BfrtCostModel cost = {},
             obs::Telemetry* telemetry = nullptr);

  /// A switch chain: every program is mirrored on every hop. The chain must
  /// have uniform specs (checked on every deploy; see
  /// dp::SwitchChain::uniform_specs). Unlike the single-switch mode this
  /// attaches no pipeline observer and no resource probes — hop-level
  /// gauges would collide in one registry; the chain-wide monitor events
  /// (chain_txn_commit / chain_txn_rollback) are the chain's lifecycle feed.
  Controller(dp::SwitchChain& chain, SimClock& clock, rp::Objective objective = {},
             BfrtCostModel cost = {}, obs::Telemetry* telemetry = nullptr);

  /// Link every program of a source unit to the running data plane.
  /// All-or-nothing: every program is staged (solved, reserved, planned)
  /// before any commits; a commit fault un-commits those committed before.
  Result<std::vector<LinkResult>> link(std::string_view source);

  /// Link a unit that must contain exactly one program. Any other count is
  /// rejected (InvalidArgument, audited as LinkFailed) before any deploy.
  Result<LinkResult> link_single(std::string_view source);

  /// Concurrent link sessions: link every source (each a single-program
  /// unit) on `pool` workers. Compile and allocation-solving run in
  /// parallel against resource snapshots; reservation + staged commit are
  /// serialized under the controller's session lock, so deployments stay
  /// all-or-nothing and allocations never overlap. Results are positional
  /// (results[i] belongs to sources[i]); each failure is per-session and
  /// rolls back only its own transaction.
  std::vector<Result<LinkResult>> link_many(const std::vector<std::string>& sources,
                                            common::ThreadPool& pool);
  /// Tenant-attributed variant: every session passes admission (bounded
  /// in-flight reservations, weighted fair queuing, shed past the queue
  /// bound with ErrorCode::AdmissionShed) and its tenant's quota gate
  /// (ErrorCode::QuotaExceeded) before reserving.
  std::vector<Result<LinkResult>> link_many(const std::vector<SessionSpec>& sessions,
                                            common::ThreadPool& pool);
  /// One admission-gated link session (the unit link_many maps over a
  /// pool). Safe to call concurrently from any thread — this is the
  /// entry point for callers that drive their own session threads (e.g.
  /// bench/tenant_churn measuring per-session latency). It runs the serial
  /// link's pipeline and leaves its span tree, but compiles and solves
  /// off-lock and takes the session lock per attempt; an async session's
  /// spans close where it parks, and the writes settled after the park
  /// keep its trace id.
  Result<LinkResult> link_session(const SessionSpec& session);

  /// Incremental update (paper §7): atomically replace a running program
  /// with a new version compiled from `source`, preserving the contents of
  /// virtual memories present in both versions. One transaction installs
  /// the new version on every hop before it retires the old one, so traffic
  /// always sees exactly one complete version; a fault in either half
  /// restores the old version everywhere and unwinds the new one.
  Result<LinkResult> relink(ProgramId old_id, std::string_view source);

  /// Consistently remove a running program (from every hop) and release its
  /// resources. A control-channel fault mid-removal rolls the removal back:
  /// the program keeps running (with fresh entry handles) and the error is
  /// returned.
  Status revoke(ProgramId id);
  /// Revoke by program name (names are unique among running programs).
  Status revoke_by_name(const std::string& name);

  /// Toggle the asynchronous control channel on every hop: a per-engine
  /// writer thread drains committed op-logs through the simulated bfrt
  /// channel so commit paths can release the session lock (and pipeline
  /// hops) while writes are in flight (docs/ARCHITECTURE.md "Async control
  /// channel"). Off by default; toggling drains any in-flight writes first.
  /// Call with no deployment in progress.
  void set_async_writes(bool enabled);
  [[nodiscard]] bool async_writes() const;

  // --- monitoring --------------------------------------------------------
  // Read-side queries take the session lock and quiesce the async channels
  // (writers drained) before reading, so they are safe to call while
  // sessions run on other threads. The pointer-returning queries release
  // the lock before returning: the pointee is stable (map nodes never
  // move) but its *contents* are only guaranteed until the next mutating
  // call on this controller — hold results across sessions by value, not by
  // pointer. Single-program views read hop 0.
  [[nodiscard]] const InstalledProgram* program(ProgramId id) const;
  [[nodiscard]] const InstalledProgram* program_by_name(const std::string& name) const;
  [[nodiscard]] const InstalledProgram* program_at(int hop, ProgramId id) const;
  [[nodiscard]] std::vector<ProgramId> running_programs() const;
  [[nodiscard]] std::size_t program_count() const;

  /// The hop whose switch physically holds `vmem` of program `id`: the hop
  /// of the (single, chain-compatibility-guaranteed) round that accesses it.
  /// Always 0 on a single switch.
  [[nodiscard]] Result<int> owning_hop(ProgramId id, const std::string& vmem) const;

  /// Control-plane memory access (virtual addresses), routed to the owning
  /// hop.
  [[nodiscard]] Result<Word> read_memory(ProgramId id, const std::string& vmem,
                                         MemAddr vaddr) const;
  /// Drain the packets REPORTed to the switch CPUs since the last drain
  /// (e.g. heavy-hitter notifications), in hop order.
  [[nodiscard]] std::vector<rmt::Packet> drain_reports();
  /// Packets the program's filter has claimed since it was linked (at the
  /// chain entry: hop 0 sees every packet).
  [[nodiscard]] std::uint64_t program_packets(ProgramId id) const;
  /// Dump a whole virtual memory block (the resource manager's
  /// memory-monitoring path, §3.1).
  [[nodiscard]] Result<std::vector<Word>> dump_memory(ProgramId id,
                                                      const std::string& vmem) const;
  /// The hash algorithm whose (masked) output indexes `vmem` — i.e. the
  /// hash unit of the stage that executes the program's HASH_*_MEM on that
  /// memory. Lets the control plane compute bucket indices when populating
  /// or monitoring sketch memories.
  [[nodiscard]] Result<rmt::HashAlgo> hash_algo_for(ProgramId id,
                                                    const std::string& vmem) const;
  Status write_memory(ProgramId id, const std::string& vmem, MemAddr vaddr, Word value);

  /// Lifecycle audit log (most recent last; bounded to the last 1,024
  /// events). Returned by value: a snapshot taken under the session lock,
  /// safe to iterate while sessions keep appending.
  [[nodiscard]] std::deque<ControlEvent> events() const;

  /// Number of hops (1 for a single switch).
  [[nodiscard]] int length() const noexcept { return static_cast<int>(hops_.size()); }
  /// Per-hop internals (fault injection arms exactly one hop's engine).
  /// Unlocked test-harness access — do not call while sessions run on other
  /// threads.
  [[nodiscard]] ResourceManager& resources(int hop = 0) { return at(hop).resources; }
  [[nodiscard]] const ResourceManager& resources(int hop = 0) const {
    return at(hop).resources;
  }
  [[nodiscard]] UpdateEngine& updates(int hop = 0) { return at(hop).updates; }
  [[nodiscard]] rp::Objective objective() const noexcept { return objective_; }
  void set_objective(rp::Objective objective) noexcept { objective_ = objective; }

  /// The telemetry bundle this controller reports into.
  [[nodiscard]] obs::Telemetry& telemetry() noexcept { return *telemetry_; }
  [[nodiscard]] const obs::Telemetry& telemetry() const noexcept { return *telemetry_; }

  /// Shortcuts into the bundle's data-plane health instrumentation: the
  /// per-program monitor (a single switch's pipeline observer), and the
  /// flight recorder it freezes when an alert trips.
  [[nodiscard]] obs::ProgramHealthMonitor& monitor() noexcept;
  [[nodiscard]] const obs::ProgramHealthMonitor& monitor() const noexcept;
  [[nodiscard]] obs::FlightRecorder& flight_recorder() noexcept;

  /// Charge a fixed virtual-time cost per allocation instead of the solver's
  /// measured wall time. Makes full link runs deterministic in virtual time
  /// (reproducible trace exports); reset with std::nullopt.
  void set_fixed_alloc_charge_ms(std::optional<double> ms) noexcept {
    fixed_alloc_charge_ms_ = ms;
  }

  // --- multi-tenant control plane -----------------------------------------
  // (docs/ARCHITECTURE.md "Multi-tenant control plane")

  /// Per-tenant quotas and usage. Internally synchronized; register quotas
  /// before launching the tenant's sessions. A chain program is charged
  /// once, at its IR demand, not once per hop.
  [[nodiscard]] TenantRegistry& tenants() noexcept { return tenants_; }
  [[nodiscard]] const TenantRegistry& tenants() const noexcept { return tenants_; }

  /// Admission bounds for link sessions (in-flight cap + queue bound).
  /// Reconfigure only with no session in flight.
  void set_admission_config(AdmissionConfig config) {
    admission_.set_config(config);
  }
  [[nodiscard]] const AdmissionController& admission() const noexcept {
    return admission_;
  }

  /// Run one defragmentation pass: greedily migrate installed programs
  /// (best simulated fragmentation gain first) through relink transactions
  /// until no move gains at least `min_gain_words` or `max_moves` is
  /// reached. Quiesces the async channels first; commits route through the
  /// writers (inline) in async mode. The fragmentation metric is
  /// non-increasing across every executed move by construction; on a chain
  /// every move runs on every hop, so the hops' books stay in lockstep.
  Result<DefragReport> defragment(DefragOptions options = {});

  /// Auto-defrag: when a session's reservation fails with AllocFailed, run
  /// a bounded defrag pass under the lock and retry the reservation (still
  /// within the session's retry cap). Off by default.
  void set_auto_defrag(bool enabled);
  [[nodiscard]] bool auto_defrag() const;

  ~Controller();

 private:
  // Locking discipline (docs/ARCHITECTURE.md "Async control channel"): all
  // mutations of controller/resource/clock/telemetry state happen under
  // mu_. Public mutators take the lock (a Session) and delegate to the
  // *_locked internals; sessions do their pure compute (compile, solve)
  // off-lock against snapshots and re-enter mu_ to record it and for
  // reserve+commit.
  // Const queries take mu_ and quiesce the async channels before reading
  // (use the *_unlocked internals from code already holding mu_ — the
  // public versions would self-deadlock). Dataplane writes are serialized
  // per hop by its engine: on the caller's thread under mu_ in serial mode,
  // on the engine's writer thread in async mode (writers never take mu_,
  // which is why quiescing under mu_ is deadlock-free). Async sessions that
  // release mu_ mid-commit leave a guard behind — pending_names_ for an
  // in-flight install, busy_ids_ for an in-flight revoke — so concurrent
  // sessions can't double-book a name or mutate a program a writer still
  // owns.

  /// One hop's control-plane books. ResourceManager is non-movable, hence
  /// the unique_ptr indirection in hops_.
  struct Hop {
    dp::RunproDataplane& dataplane;
    ResourceManager resources;
    UpdateEngine updates;
    std::map<ProgramId, InstalledProgram> programs;

    Hop(dp::RunproDataplane& plane, SimClock& clock, BfrtCostModel cost)
        : dataplane(plane), resources(plane.spec()),
          updates(plane, resources, clock, cost) {}
  };

  /// One program's staged transaction and the result its commit fills in,
  /// kept until the controller adopts the per-hop InstalledPrograms it
  /// holds (a unit link, until the whole unit committed).
  struct Staged {
    LinkResult result;
    std::unique_ptr<ChainTransaction> txn;
  };

  /// A source unit through the pure compiler, with what it measured.
  struct Compiled {
    Result<std::vector<rp::TranslatedProgram>> programs;
    rp::CompileReport report;
    std::size_t source_bytes = 0;
  };

  /// Per-hop allocations for one deploy: a fresh solve (under the lock, or
  /// off-lock for a session), recorded when it stages, or a defrag move's
  /// stored allocation (no wall time: it charges nothing and records no
  /// solve).
  struct Solved {
    Result<std::vector<rp::AllocationResult>> allocs;
    std::optional<double> wall_ms;  ///< the fresh solve's measured wall time
    /// Hop 0's search, the one the compiler.solver.* metrics count: nodes
    /// explored and rounds; unset when hop 0 found no allocation.
    std::optional<std::pair<std::uint64_t, int>> hop0;
  };

  /// The locked part of one control operation: session lock, trace scope
  /// and lock-hold timer (defined in controller.cpp).
  class Session;

  Controller(dp::SwitchChain* chain, const std::vector<dp::RunproDataplane*>& switches,
             SimClock& clock, rp::Objective objective, BfrtCostModel cost,
             obs::Telemetry* telemetry);

  [[nodiscard]] Hop& at(int hop) { return *hops_[static_cast<std::size_t>(hop)]; }
  [[nodiscard]] const Hop& at(int hop) const {
    return *hops_[static_cast<std::size_t>(hop)];
  }

  // The link pipeline: compile -> quota -> solve -> stage -> commit ->
  // adopt. A serial link (link, link_single) runs it inline under the
  // session lock; a session compiles, passes the quota gate and solves
  // off-lock, and takes the lock per attempt for the rest. Both leave the
  // same span tree: the root, then parse, translate, solve and install.

  /// The serial link body, under the lock throughout.
  Result<std::vector<LinkResult>> link_locked(Session& session, std::string_view source,
                                              bool single);
  /// A session after its admission grant, which the caller releases: quota
  /// gate, then attempts of off-lock solve and locked install.
  Result<LinkResult> link_session_admitted(const Compiled& compiled, TenantId tenant);
  /// Stage every program of a unit, then commit each (parked off-lock when
  /// `parks`), then adopt them all, or unwind and audit every one. `solved`
  /// holds a session's off-lock solves; empty, each program is solved here.
  Result<std::vector<LinkResult>> install_unit_locked(
      Session& session, const std::vector<rp::TranslatedProgram>& programs,
      std::vector<Solved> solved, TenantId tenant, bool parks, bool* retry);
  /// Compile `source` on the calling thread (the compiler is pure).
  [[nodiscard]] static Compiled compile(std::string_view source);
  /// Record a compile: the "parse" and "translate" spans, at the current
  /// virtual instant with the measured wall times. Its `first` record also
  /// counts the compiler.* metrics, charges the parse time and audits a
  /// unit that failed to compile or, with `single`, does not hold exactly
  /// one program (LinkFailed "<compile>"). A retried session attempt
  /// records the spans again, so every attempt's trace holds a whole link.
  Status record_compile_locked(const Compiled& compiled, bool single, bool first);
  /// Record a fresh solve: charge the allocation delay (the fixed charge,
  /// else the measured wall time), the "solve" span over it and the
  /// compiler.solver.* metrics. Returns the charged ms.
  double record_solve_locked(const Solved& solved);
  /// Audit a link the quota gate refused and return `err`.
  Error reject_quota_locked(const std::string& name, const Error& err);
  /// Name check, the solve's record, chain checks, id and a staged
  /// ChainTransaction (which retires `replacing`, if set, once the new
  /// program is live); every failure is audited and returns the id. With
  /// `retry` non-null, AllocFailed failures a re-solve may fix return
  /// unaudited with *retry set.
  Result<Staged> stage_locked(const rp::TranslatedProgram& ir, ProgramId replacing,
                              Solved solved, bool* retry);
  /// Commit a staged transaction (link, relink or revoke): inline, or with
  /// `park` (may be null) and every hop async, parked off-lock under the
  /// name and id guards while the writers drain. A transaction with install
  /// records opens the "install" span. Announces the new version; audits
  /// nothing.
  Status commit_locked(Staged& staged, Session* park);
  /// Audit a failed deploy (LinkFailed, plus a monitor rollback once an id
  /// was assigned) and return `err`.
  Error fail_locked(ProgramId id, const std::string& name, int faulted_hop,
                    const Error& err);
  /// Move a committed deploy's per-hop InstalledPrograms into the hop books.
  void adopt_locked(Staged& staged, TenantId tenant);
  /// Erase a removed program from the books; release its charge and id.
  void forget_locked(ProgramId id);
  /// Replace `old_id` by `ir` in one transaction (a relink's fresh solve,
  /// or a defrag move's stored allocation). Shared by relink and defrag.
  Result<LinkResult> replace_locked(ProgramId old_id, const rp::TranslatedProgram& ir,
                                    Solved solved, const std::string& detail);
  /// NotFound unless `id` runs; Conflict while an async revoke owns it.
  [[nodiscard]] Status check_running(ProgramId id) const;
  /// Audited revoke: a transaction of remove records (an async removal
  /// parks the session off-lock under the busy guard).
  Status revoke_locked(ProgramId id, Session& session);
  /// Per-hop allocations of `ir` against `snapshots`, timed, on the calling
  /// thread (the solver is pure): one solve of hop 0 serves every hop whose
  /// snapshot equals hop 0's; a hop whose books differ is solved on its own.
  [[nodiscard]] Solved solve(const rp::TranslatedProgram& ir,
                             const std::vector<ResourceManager::Snapshot>& snapshots) const;
  /// Chain-only checks: per-hop allocations agree, the program is chain
  /// compatible and needs no more rounds than there are hops.
  [[nodiscard]] Status check_chain(const rp::TranslatedProgram& ir,
                                   const std::vector<rp::AllocationResult>& allocs) const;
  [[nodiscard]] std::vector<ResourceManager::Snapshot> snapshots() const;
  /// Take mu_ and drain every hop's async channel (the read-side quiesce).
  [[nodiscard]] std::unique_lock<std::mutex> quiesced() const;
  /// One defrag pass under mu_ (channels quiesced inside).
  DefragReport defragment_locked(const DefragOptions& options);
  [[nodiscard]] const InstalledProgram* program_unlocked(ProgramId id,
                                                        int hop = 0) const;
  [[nodiscard]] const InstalledProgram* program_by_name_unlocked(
      const std::string& name) const;
  [[nodiscard]] Result<int> owning_hop_unlocked(ProgramId id,
                                                const std::string& vmem) const;
  [[nodiscard]] int hop_of(int logical_rpb) const;
  [[nodiscard]] ProgramId next_program_id();
  /// Return the id of a rolled-back deploy: the freshest id un-allocates
  /// (next_id_ decrements), an id drawn from the recycle pool goes back to
  /// it. A failed deploy never *adds* a new id to free_ids_ — only a
  /// successful revoke does — so ids of programs that never ran can't leak
  /// into the pool and alias monitor history.
  void recycle_failed_id(ProgramId id);
  /// A root span's name: `op` on one switch, "chain_" + `op` on a chain.
  [[nodiscard]] std::string op_name(std::string_view op) const;
  /// Monitor feed: txn_* on a single switch, chain_txn_* on a chain.
  void announce_commit(ProgramId id, const std::string& name);
  void announce_rollback(ProgramId id, const std::string& name, int faulted_hop,
                         const Error& err);
  void record_event(ControlEvent::Kind kind, ProgramId id, const std::string& name,
                    const std::string& detail = "");

  dp::SwitchChain* chain_;  ///< null: single recirculating switch
  SimClock& clock_;
  rp::Objective objective_;
  obs::Telemetry* telemetry_;
  std::optional<double> fixed_alloc_charge_ms_;
  std::vector<std::unique_ptr<Hop>> hops_;
  std::vector<ChainHop> contexts_;  ///< hops_ as ChainTransaction contexts

  mutable std::mutex mu_;  ///< session lock (see locking discipline above)
  std::deque<ControlEvent> events_;
  /// Names of installs submitted to the async channel whose session released
  /// mu_ before settling — name-conflict checks treat them as running.
  std::set<std::string> pending_names_;
  /// Programs with an async revoke in flight: the writers own their handle
  /// vectors, so relink/revoke of these ids conflicts until settled.
  std::set<ProgramId> busy_ids_;
  ProgramId next_id_ = 1;
  std::vector<ProgramId> free_ids_;  ///< fed only by successful revokes
  int filter_generation_ = 0;

  // Multi-tenant state. Both are internally synchronized leaf locks that
  // never acquire anything themselves. The admission controller BLOCKS
  // (queued sessions wait on its cv), so it is never entered with mu_ held
  // — sessions acquire their grant first, then take mu_. The tenant
  // registry never blocks, so charging/releasing under mu_ is fine.
  // auto_defrag_ is guarded by mu_.
  TenantRegistry tenants_;
  AdmissionController admission_;
  bool auto_defrag_ = false;
};

}  // namespace p4runpro::ctrl
