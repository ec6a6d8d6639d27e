#include "control/controller.h"

#include <cassert>
#include <future>
#include <utility>

#include "control/lock_hold.h"
#include "obs/telemetry.h"

namespace p4runpro::ctrl {

namespace {

/// Virtual parse time charged per compiled source unit: the ~2 ms the paper
/// measures for parsing on the switch CPU (§6.2.1).
constexpr double kParseChargeMs = 2.0;

/// A session solves against a resource snapshot off-lock; by commit time
/// another session may have taken those resources. On such a reservation
/// conflict the session re-snapshots and re-solves, up to this many extra
/// attempts, before giving up with the conflict error. A hard cap on the
/// retry spin: every extra attempt bumps "ctrl.link.retries", so an
/// oversubscribed switch shows up as a counter, not as livelock.
constexpr int kMaxSolveRetries = 3;

// A session's resource demand is computable straight from the IR — before
// solving — and equals the committed footprint exactly (reserve takes
// ir.vmem_sizes words per vmem and one entry per node / per branch case).
// That exactness is what makes charge-at-admission quota accounting sound.
[[nodiscard]] std::uint64_t memory_demand(const rp::TranslatedProgram& ir) {
  std::uint64_t words = 0;
  for (const auto& vmem : ir.vmem_sizes) words += vmem.second;
  return words;
}

[[nodiscard]] std::uint64_t entry_demand(const rp::TranslatedProgram& ir) {
  return static_cast<std::uint64_t>(ir.total_entries());
}

/// A compile error, or with `single` a unit not holding exactly one program.
[[nodiscard]] Status unit_status(
    const Result<std::vector<rp::TranslatedProgram>>& compiled, bool single) {
  if (!compiled.ok()) return compiled.error();
  if (!single || compiled.value().size() == 1) return {};
  return Error{"expected exactly one program in source unit, got " +
                   std::to_string(compiled.value().size()),
               "Controller", ErrorCode::InvalidArgument};
}

/// The quota charges of one link's programs: each admitted at the gate
/// (once per program, however many hops mirror it) and refunded on every
/// failure path, until the installs keep them. Charging before reserving
/// keeps the invariant one-sided: registry usage >= sum of installed
/// footprints, so concurrent sessions can never oversubscribe a quota
/// between check and commit. An unregistered tenant is unlimited.
class QuotaCharges {
 public:
  QuotaCharges(TenantRegistry& tenants, TenantId tenant)
      : tenants_(tenants), tenant_(tenant) {}
  QuotaCharges(const QuotaCharges&) = delete;
  QuotaCharges& operator=(const QuotaCharges&) = delete;
  ~QuotaCharges() {
    for (const auto* ir : charged_) {
      tenants_.refund(tenant_, memory_demand(*ir), entry_demand(*ir));
    }
  }

  Status admit(const rp::TranslatedProgram& ir) {
    Status s = tenants_.admit(tenant_, memory_demand(ir), entry_demand(ir));
    if (s.ok()) charged_.push_back(&ir);
    return s;
  }
  void keep() { charged_.clear(); }

 private:
  TenantRegistry& tenants_;
  TenantId tenant_;
  std::vector<const rp::TranslatedProgram*> charged_;
};

[[nodiscard]] std::vector<dp::RunproDataplane*> switches_of(dp::SwitchChain& chain) {
  std::vector<dp::RunproDataplane*> switches;
  for (int h = 0; h < chain.length(); ++h) switches.push_back(&chain.switch_at(h));
  return switches;
}

}  // namespace

/// The locked part of one control operation. Holds the session lock, the
/// operation's causal trace scope (the context is lock-protected shared
/// state), its lock-hold timer and its root span.
class Controller::Session {
 public:
  explicit Session(Controller& controller)
      : telemetry_(controller.telemetry_),
        lock_(controller.mu_),
        trace_(std::in_place, controller.telemetry_),
        hold_(controller.clock_, controller.telemetry_) {}

  [[nodiscard]] std::uint64_t trace_id() const { return trace_->trace_id(); }

  /// Open the operation's root span. It closes when the session ends, or
  /// at a park.
  void open(std::string_view name) { root_ = telemetry_->tracer.span(name, "ctrl"); }
  [[nodiscard]] obs::SpanTracer::Scope& root() { return root_; }

  /// Run `wait` off-lock (an async write draining). No span stays open
  /// off-lock, where another session's spans would nest under it: the root
  /// closes here, and every span still open under it with it. The trace
  /// context never stays installed off-lock; it is re-adopted after
  /// re-locking so the settle-side spans carry this operation's id.
  template <typename Wait>
  void park(Wait&& wait) {
    root_.end();
    const obs::TraceContext ctx = telemetry_->active_trace;
    trace_.reset();
    hold_.pause();
    lock_.unlock();
    wait();
    lock_.lock();
    hold_.resume();
    trace_.emplace(telemetry_, ctx);
  }

 private:
  obs::Telemetry* telemetry_;
  std::unique_lock<std::mutex> lock_;
  std::optional<obs::TraceScope> trace_;
  LockHoldTimer hold_;
  obs::SpanTracer::Scope root_;  ///< declared last: closes first, under the lock
};

Controller::Controller(dp::RunproDataplane& dataplane, SimClock& clock,
                       rp::Objective objective, BfrtCostModel cost,
                       obs::Telemetry* telemetry)
    : Controller(nullptr, {&dataplane}, clock, objective, cost, telemetry) {
  // A single switch recirculates: the monitor observes its pipeline, and its
  // pipeline and resource probes register (hop probes of a chain would
  // collide in one registry).
  dataplane.attach_telemetry(telemetry_);
  dataplane.pipeline().set_observer(&telemetry_->monitor);
  at(0).resources.attach_telemetry(telemetry_);
}

Controller::Controller(dp::SwitchChain& chain, SimClock& clock,
                       rp::Objective objective, BfrtCostModel cost,
                       obs::Telemetry* telemetry)
    : Controller(&chain, switches_of(chain), clock, objective, cost, telemetry) {
  // "bfrt.batch" spans (and trace reports) name the switch a write hit.
  for (int h = 0; h < length(); ++h) at(h).updates.set_hop_label(h);
}

Controller::Controller(dp::SwitchChain* chain,
                       const std::vector<dp::RunproDataplane*>& switches,
                       SimClock& clock, rp::Objective objective, BfrtCostModel cost,
                       obs::Telemetry* telemetry)
    : chain_(chain),
      clock_(clock),
      objective_(objective),
      telemetry_(&obs::telemetry_or_default(telemetry)) {
  // One bundle for the whole stack: phase spans are stamped with this
  // controller's virtual clock, and every layer reports into one registry.
  telemetry_->tracer.set_clock(&clock_);
  telemetry_->monitor.set_clock(&clock_);
  for (dp::RunproDataplane* dataplane : switches) {
    hops_.push_back(std::make_unique<Hop>(*dataplane, clock_, cost));
    Hop& hop = *hops_.back();
    hop.updates.set_telemetry(telemetry_);
    contexts_.push_back(ChainHop{dataplane, &hop.resources, &hop.updates, &hop.programs});
  }
  // Admission gauges as probes: the admission controller is internally
  // synchronized, so sampling at export time is safe from any thread.
  telemetry_->metrics.register_probe("ctrl.tenant.queue_depth", this, [this] {
    return static_cast<double>(admission_.queue_depth());
  });
  telemetry_->metrics.register_probe("ctrl.tenant.inflight", this, [this] {
    return static_cast<double>(admission_.inflight());
  });
}

Controller::~Controller() { telemetry_->metrics.unregister_probes(this); }

obs::ProgramHealthMonitor& Controller::monitor() noexcept {
  return telemetry_->monitor;
}

const obs::ProgramHealthMonitor& Controller::monitor() const noexcept {
  return telemetry_->monitor;
}

obs::FlightRecorder& Controller::flight_recorder() noexcept {
  return telemetry_->flight;
}

ProgramId Controller::next_program_id() {
  if (!free_ids_.empty()) {
    const ProgramId id = free_ids_.back();
    free_ids_.pop_back();
    return id;
  }
  return next_id_++;
}

void Controller::recycle_failed_id(ProgramId id) {
  if (id == next_id_ - 1) {
    --next_id_;
    return;
  }
  // The id was drawn from the recycle pool (its previous occupant was
  // cleanly revoked); put it back.
  free_ids_.push_back(id);
}

void Controller::record_event(ControlEvent::Kind kind, ProgramId id,
                              const std::string& name, const std::string& detail) {
  events_.push_back(ControlEvent{kind, clock_.now_ms(), id, name, detail});
  if (events_.size() > 1024) events_.pop_front();
  const char* counter = nullptr;
  switch (kind) {
    case ControlEvent::Kind::Link: counter = "ctrl.events.link"; break;
    case ControlEvent::Kind::Relink: counter = "ctrl.events.relink"; break;
    case ControlEvent::Kind::Revoke: counter = "ctrl.events.revoke"; break;
    case ControlEvent::Kind::LinkFailed: counter = "ctrl.events.link_failed"; break;
    case ControlEvent::Kind::RevokeFailed:
      counter = "ctrl.events.revoke_failed";
      break;
  }
  if (counter != nullptr) telemetry_->metrics.counter(counter).inc();
}

void Controller::announce_commit(ProgramId id, const std::string& name) {
  if (chain_ != nullptr) {
    telemetry_->monitor.chain_txn_committed(id, name, length());
  } else {
    telemetry_->monitor.txn_committed(id, name);
  }
}

void Controller::announce_rollback(ProgramId id, const std::string& name,
                                   int faulted_hop, const Error& err) {
  if (chain_ != nullptr) {
    telemetry_->monitor.chain_txn_rolled_back(id, name, length(), faulted_hop,
                                              err.str());
  } else {
    telemetry_->monitor.txn_rolled_back(id, name, err.str());
  }
}

std::string Controller::op_name(std::string_view op) const {
  return (chain_ != nullptr ? "chain_" : "") + std::string(op);
}

Result<std::vector<LinkResult>> Controller::link(std::string_view source) {
  Session session(*this);
  return link_locked(session, source, /*single=*/false);
}

Result<LinkResult> Controller::link_single(std::string_view source) {
  Session session(*this);
  auto results = link_locked(session, source, /*single=*/true);
  if (!results.ok()) return results.error();
  return std::move(results.value().front());
}

Result<std::vector<LinkResult>> Controller::link_locked(Session& session,
                                                        std::string_view source,
                                                        bool single) {
  // The link pipeline inline, under the session lock throughout.
  session.open(op_name("link"));
  const Compiled compiled = compile(source);
  if (auto s = record_compile_locked(compiled, single, /*first=*/true); !s.ok()) {
    return s.error();
  }
  const auto& programs = compiled.programs.value();
  QuotaCharges charges(tenants_, 0);
  for (const auto& ir : programs) {
    if (auto s = charges.admit(ir); !s.ok()) return reject_quota_locked(ir.name, s.error());
  }
  auto linked = install_unit_locked(session, programs, {}, 0, /*parks=*/false, nullptr);
  if (linked.ok()) charges.keep();
  return linked;
}

std::vector<Result<LinkResult>> Controller::link_many(
    const std::vector<std::string>& sources, common::ThreadPool& pool) {
  std::vector<SessionSpec> sessions;
  sessions.reserve(sources.size());
  for (const auto& source : sources) sessions.push_back(SessionSpec{source, 0});
  return link_many(sessions, pool);
}

std::vector<Result<LinkResult>> Controller::link_many(
    const std::vector<SessionSpec>& sessions, common::ThreadPool& pool) {
  std::vector<std::future<Result<LinkResult>>> futures;
  futures.reserve(sessions.size());
  for (const auto& session : sessions) {
    futures.push_back(pool.submit([this, &session] { return link_session(session); }));
  }
  std::vector<Result<LinkResult>> results;
  results.reserve(futures.size());
  for (auto& future : futures) results.push_back(future.get());
  return results;
}

Result<LinkResult> Controller::link_session(const SessionSpec& session) {
  // Compile off-lock: the compiler is pure. What it measured is recorded
  // under the lock, in the link it belongs to.
  const Compiled compiled = compile(session.source);
  if (!unit_status(compiled.programs, /*single=*/true).ok()) {
    Session locked(*this);
    locked.open(op_name("link"));
    return record_compile_locked(compiled, /*single=*/true, /*first=*/true).error();
  }
  const rp::TranslatedProgram& ir = compiled.programs.value().front();
  const TenantId tenant = session.tenant;

  // Admission gate. The controller BLOCKS queued sessions (weighted fair
  // order), so it runs strictly before mu_ is taken; a shed returns
  // immediately with AdmissionShed instead of spinning retries against a
  // saturated switch.
  WallTimer wait_timer;
  auto grant = admission_.acquire(tenant, tenants_.weight(tenant));
  if (!grant.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    telemetry_->metrics.counter("ctrl.tenant.shed").inc();
    telemetry_->monitor.admission_shed(tenant, ir.name, grant.error().str());
    record_event(ControlEvent::Kind::LinkFailed, 0, ir.name, grant.error().str());
    return grant.error();
  }
  const double queue_wait_ms = wait_timer.elapsed_ms();

  auto result = link_session_admitted(compiled, tenant);
  admission_.release();

  std::lock_guard<std::mutex> lock(mu_);
  auto& m = telemetry_->metrics;
  m.counter("ctrl.tenant.admitted").inc();
  m.histogram("ctrl.tenant.queue_wait_ms").observe(queue_wait_ms);
  return result;
}

Result<LinkResult> Controller::link_session_admitted(const Compiled& compiled,
                                                    TenantId tenant) {
  const rp::TranslatedProgram& ir = compiled.programs.value().front();
  // The quota gate runs off-lock (the registry is a leaf lock), before the
  // solve an over-quota session would waste.
  QuotaCharges charges(tenants_, tenant);
  if (auto s = charges.admit(ir); !s.ok()) {
    Session session(*this);
    session.open(op_name("link"));
    (void)record_compile_locked(compiled, /*single=*/true, /*first=*/true);
    return reject_quota_locked(ir.name, s.error());
  }

  Error conflict{"parallel link: retries exhausted", "Controller",
                 ErrorCode::AllocFailed};
  for (int attempt = 0; attempt <= kMaxSolveRetries; ++attempt) {
    // Solve against per-hop snapshots off-lock (the expensive phase runs in
    // parallel across sessions).
    std::vector<ResourceManager::Snapshot> snaps;
    {
      std::lock_guard<std::mutex> lock(mu_);
      snaps = snapshots();
    }
    std::vector<Solved> solved;
    solved.push_back(solve(ir, snaps));

    // The rest of the pipeline runs under the session lock, one attempt per
    // trace: each attempt is a whole link tree, and the successful
    // attempt's id is the one the LinkResult reports.
    Session session(*this);
    session.open(op_name("link"));
    (void)record_compile_locked(compiled, /*single=*/true, /*first=*/attempt == 0);
    bool retry = false;
    auto linked = install_unit_locked(session, compiled.programs.value(), std::move(solved),
                                      tenant, /*parks=*/true,
                                      attempt < kMaxSolveRetries ? &retry : nullptr);
    if (retry) {
      // Re-snapshot and re-solve (after compacting, with auto-defrag on).
      // Bounded like every retry — a genuinely full switch still exhausts
      // the cap and reports AllocFailed.
      conflict = linked.error();
      telemetry_->metrics.counter("ctrl.link.retries").inc();
      if (auto_defrag_) defragment_locked(DefragOptions{});
      continue;
    }
    if (!linked.ok()) return linked.error();
    charges.keep();
    return std::move(linked.value().front());
  }
  return conflict;
}

Result<std::vector<LinkResult>> Controller::install_unit_locked(
    Session& session, const std::vector<rp::TranslatedProgram>& programs,
    std::vector<Solved> solved, TenantId tenant, bool parks, bool* retry) {
  // All-or-nothing: stage every program of the unit (solve, reserve, plan)
  // before committing any. A program that cannot stage drops the staged
  // ones without a write; a commit fault un-commits the programs committed
  // before it, which cannot fault (the single fault has fired). Without
  // solutions brought in, each program is solved here, so it sees the
  // programs staged before it.
  std::vector<Staged> unit;
  Status status;
  for (std::size_t k = 0; k < programs.size(); ++k) {
    const rp::TranslatedProgram& ir = programs[k];
    auto staged = stage_locked(
        ir, 0, solved.empty() ? solve(ir, snapshots()) : std::move(solved[k]), retry);
    if (!staged.ok()) {
      status = staged.error();
      break;
    }
    unit.push_back(std::move(staged).take());
  }
  for (std::size_t k = 0; status.ok() && k < unit.size(); ++k) {
    status = commit_locked(unit[k], parks ? &session : nullptr);
  }
  if (!status.ok()) {
    // Newest first, so every id is returned: un-commit or drop (the
    // destructor returns the reservations) and audit every staged program.
    for (std::size_t k = unit.size(); k-- > 0;) {
      ChainTransaction& txn = *unit[k].txn;
      if (txn.phase() == ChainTransaction::Phase::Committed) txn.unwind_commit();
      const LinkResult& r = unit[k].result;
      fail_locked(r.id, r.name, txn.faulted_hop(), status.error());
      unit[k].txn.reset();
      recycle_failed_id(unit[k].result.id);
    }
    return status.error();
  }
  std::vector<LinkResult> results;
  auto& m = telemetry_->metrics;
  for (Staged& staged : unit) {
    adopt_locked(staged, tenant);
    record_event(ControlEvent::Kind::Link, staged.result.id, staged.result.name);
    LinkResult& result = results.emplace_back(std::move(staged.result));
    result.stats.parse_ms = kParseChargeMs / static_cast<double>(unit.size());
    result.trace = session.trace_id();
    // The deployment-delay breakdown (§6.2.1) as queryable histograms.
    m.histogram("ctrl.link.parse_ms").observe(result.stats.parse_ms);
    m.histogram("ctrl.link.alloc_ms").observe(result.stats.alloc_ms);
    m.histogram("ctrl.link.update_ms").observe(result.stats.update_ms);
    m.histogram("ctrl.link.deploy_ms").observe(result.stats.deploy_ms());
  }
  session.root().arg("programs", static_cast<std::uint64_t>(results.size()));
  return results;
}

Controller::Compiled Controller::compile(std::string_view source) {
  rp::CompileReport report;
  auto programs = rp::compile_source(source, &report);
  return Compiled{std::move(programs), report, source.size()};
}

Status Controller::record_compile_locked(const Compiled& compiled, bool single,
                                         bool first) {
  using Layer = rp::CompileReport::Layer;
  const rp::CompileReport& report = compiled.report;
  auto& tracer = telemetry_->tracer;
  const SimClock::Nanos now_ns = clock_.now_ns();
  const std::uint64_t trace = telemetry_->active_trace.trace_id;
  // Args only for a span the tracer keeps, as for the channel's bfrt spans.
  std::vector<std::pair<std::string, std::string>> args;
  if (!tracer.full()) {
    args.emplace_back("source_bytes", std::to_string(compiled.source_bytes));
    if (report.checked()) args.emplace_back("programs", std::to_string(report.programs));
  }
  tracer.record_span("parse", "compiler", now_ns, now_ns, trace, std::move(args),
                     report.parse_ms);
  if (report.checked()) {
    tracer.record_span("translate", "compiler", now_ns, now_ns, trace, {},
                       report.translate_ms);
  }
  if (!first) return {};

  auto& m = telemetry_->metrics;
  switch (report.failed) {
    case Layer::None: m.counter("compiler.programs_compiled").inc(report.programs); break;
    case Layer::Parse: m.counter("compiler.parse_errors").inc(); break;
    case Layer::Check: m.counter("compiler.check_errors").inc(); break;
    case Layer::Translate: m.counter("compiler.translate_errors").inc(); break;
  }
  // Parse + check + translate, charged to the simulated clock at the
  // paper's parse time.
  clock_.advance_ms(kParseChargeMs);
  const Status unit = unit_status(compiled.programs, single);
  if (!unit.ok()) {
    record_event(ControlEvent::Kind::LinkFailed, 0, "<compile>", unit.error().str());
  }
  return unit;
}

double Controller::record_solve_locked(const Solved& solved) {
  // Allocation delay (§6.2.1): the solver's measured wall time, unless a
  // fixed charge makes the run deterministic in virtual time.
  const double charge_ms =
      fixed_alloc_charge_ms_ ? *fixed_alloc_charge_ms_ : *solved.wall_ms;
  const SimClock::Nanos start_ns = clock_.now_ns();
  clock_.advance_ms(charge_ms);
  auto& tracer = telemetry_->tracer;
  std::vector<std::pair<std::string, std::string>> args;
  if (!tracer.full() && solved.allocs.ok()) {
    const rp::AllocationResult& alloc = solved.allocs.value().front();
    args.emplace_back("nodes_explored", std::to_string(alloc.nodes_explored));
    args.emplace_back("rounds", std::to_string(alloc.rounds));
  }
  tracer.record_span("solve", "ctrl", start_ns, clock_.now_ns(),
                     telemetry_->active_trace.trace_id, std::move(args), *solved.wall_ms);
  auto& m = telemetry_->metrics;
  m.counter("compiler.solver.calls").inc();
  if (solved.hop0) {
    static const std::vector<double> kCountBounds = obs::Histogram::count_bounds();
    m.histogram("compiler.solver.nodes_explored", kCountBounds)
        .observe(static_cast<double>(solved.hop0->first));
    m.histogram("compiler.solver.rounds", kCountBounds)
        .observe(static_cast<double>(solved.hop0->second));
  } else {
    m.counter("compiler.solver.infeasible").inc();
  }
  return charge_ms;
}

Error Controller::fail_locked(ProgramId id, const std::string& name, int faulted_hop,
                              const Error& err) {
  // Every rollback leaves an audit trail: a LinkFailed event carrying the
  // coded error, plus a rollback entry in the monitor stream when a
  // transaction (id assigned) was actually begun.
  if (id != 0) announce_rollback(id, name, faulted_hop, err);
  record_event(ControlEvent::Kind::LinkFailed, id, name, err.str());
  return err;
}

Error Controller::reject_quota_locked(const std::string& name, const Error& err) {
  telemetry_->metrics.counter("ctrl.tenant.quota_rejected").inc();
  record_event(ControlEvent::Kind::LinkFailed, 0, name, err.str());
  return err;
}

Result<Controller::Staged> Controller::stage_locked(const rp::TranslatedProgram& ir,
                                                      ProgramId replacing, Solved solved,
                                                      bool* retry) {
  auto fail = [&](ProgramId id, int faulted_hop, const Error& err) {
    return fail_locked(id, ir.name, faulted_hop, err);
  };
  // AllocFailed is what a re-solve against a fresh snapshot may fix.
  auto retryable = [&](const Error& err) {
    return retry != nullptr && err.code == ErrorCode::AllocFailed;
  };

  if (chain_ != nullptr) {
    if (auto s = chain_->uniform_specs(); !s.ok()) return fail(0, -1, s.error());
  }
  if (const InstalledProgram* existing = program_by_name_unlocked(ir.name);
      (existing != nullptr && existing->id != replacing) ||
      pending_names_.count(ir.name) != 0) {
    return fail(0, -1, Error{"a program named '" + ir.name + "' is already running",
                             "Controller", ErrorCode::Conflict});
  }

  // A fresh solve is charged and recorded once the deploy passed its
  // checks; a defrag move's stored allocation charges nothing.
  const double alloc_ms = solved.wall_ms ? record_solve_locked(solved) : 0.0;
  if (!solved.allocs.ok()) {
    // With auto-defrag the snapshot had the words but not the contiguity:
    // the caller compacts and burns a retry on the improved memory map.
    if (retryable(solved.allocs.error()) && auto_defrag_) {
      *retry = true;
      return solved.allocs.error();
    }
    return fail(0, -1, solved.allocs.error());
  }
  std::vector<rp::AllocationResult> allocs = std::move(solved.allocs).take();
  if (chain_ != nullptr) {
    if (auto s = check_chain(ir, allocs); !s.ok()) return fail(0, -1, s.error());
  }

  // Transaction: reserve -> plan -> stage on every hop, then commit; any
  // fault rolls every hop back. A relink or defrag move retires the old
  // version in the same transaction, once the new one is live on every hop.
  const ProgramId id = next_program_id();
  auto txn = std::make_unique<ChainTransaction>(contexts_, ir, std::move(allocs), id,
                                                ++filter_generation_, replacing,
                                                telemetry_);
  if (replacing != 0) txn->retire(replacing);
  if (auto s = txn->stage_all(); !s.ok()) {
    recycle_failed_id(id);
    // Another session took the resources between snapshot and lock.
    if (retryable(s.error())) {
      *retry = true;
      return s.error();
    }
    return fail(id, txn->faulted_hop(), s.error());
  }
  return Staged{{id, ir.name, LinkStats{0.0, alloc_ms, 0.0}}, std::move(txn)};
}

Status Controller::commit_locked(Staged& staged, Session* park) {
  ChainTransaction& txn = *staged.txn;
  const ProgramId id = staged.result.id;
  const std::string& name = staged.result.name;
  // Consistent update (simulated bfrt writes; §6.2.1 "update delay").
  const bool parked = park != nullptr && txn.pipelined();
  // Intervals are taken in integer nanoseconds and converted once: the
  // difference of two millisecond doubles depends on the absolute time,
  // which wall-clock allocation charges make differ from run to run.
  const SimClock::Nanos update_start_ns = clock_.now_ns();
  // Every install opens "install"; at a park it closes with the root.
  obs::SpanTracer::Scope install_span;
  if (txn.installs()) install_span = telemetry_->tracer.span("install", "ctrl");
  // The new version is live on every hop (before a relink's retire).
  auto on_installed = [&] {
    install_span.end();
    announce_commit(id, name);
  };
  Status committed;
  if (parked) {
    // Pipelined commit: submit under the lock, park OFF-lock while the
    // writers drain the channels, settle under the lock again. Meanwhile the
    // guards keep sessions from double-booking the name or touching the
    // program, whose handle vectors the writers own.
    pending_names_.insert(name);
    busy_ids_.insert(id);
    txn.commit_submit();
    park->park([&] { txn.commit_wait(); });
    busy_ids_.erase(id);
    pending_names_.erase(name);
    committed = txn.commit_finish(on_installed);
  } else {
    committed = txn.commit_all(on_installed);
  }
  staged.result.stats.update_ms =
      parked ? txn.channel_ms()
             : static_cast<double>(clock_.now_ns() - update_start_ns) / 1e6;
  return committed;
}

void Controller::adopt_locked(Staged& staged, TenantId tenant) {
  for (std::size_t h = 0; h < hops_.size(); ++h) {
    InstalledProgram& installed = staged.txn->installed(static_cast<int>(h));
    installed.tenant = tenant;
    hops_[h]->programs.emplace(staged.result.id, std::move(installed));
  }
}

void Controller::forget_locked(ProgramId id) {
  // The removal cleared the program's placements and handles; its IR still
  // gives the footprint (demand equals the committed footprint exactly).
  const InstalledProgram& program = at(0).programs.at(id);
  tenants_.release(program.tenant, memory_demand(program.ir), entry_demand(program.ir));
  for (auto& hop : hops_) hop->programs.erase(id);
  free_ids_.push_back(id);
}

Result<LinkResult> Controller::relink(ProgramId old_id, std::string_view source) {
  Session session(*this);
  if (auto s = check_running(old_id); !s.ok()) return s.error();
  session.open(op_name("relink"));
  const Compiled compiled = compile(source);
  if (auto s = record_compile_locked(compiled, /*single=*/true, /*first=*/true); !s.ok()) {
    return s.error();
  }
  const rp::TranslatedProgram& ir = compiled.programs.value().front();
  auto relinked = replace_locked(old_id, ir, solve(ir, snapshots()), "");
  if (relinked.ok()) {
    relinked.value().stats.parse_ms = kParseChargeMs;  // defrag moves parse nothing
    relinked.value().trace = session.trace_id();
  }
  return relinked;
}

Result<LinkResult> Controller::replace_locked(ProgramId old_id,
                                              const rp::TranslatedProgram& ir,
                                              Solved solved, const std::string& detail) {
  // The new version stays attributed to the old version's tenant.
  const InstalledProgram& old_program = at(0).programs.at(old_id);
  const TenantId tenant = old_program.tenant;
  const std::string old_name = old_program.name;

  // One transaction installs the new version first (invisible until its
  // filters land on each hop, and the fresh filter generation outranks the
  // old one) and only then retires the old version; a fault in either half
  // restores exactly the pre-relink truth (residual bytes included).
  auto staged = stage_locked(ir, old_id, std::move(solved), nullptr);
  if (!staged.ok()) return staged.error();
  Staged& deployed = staged.value();
  if (auto s = commit_locked(deployed, nullptr); !s.ok()) {
    recycle_failed_id(deployed.result.id);
    return fail_locked(deployed.result.id, ir.name, deployed.txn->faulted_hop(), s.error());
  }
  const ProgramId new_id = deployed.result.id;
  forget_locked(old_id);
  adopt_locked(deployed, tenant);
  // Unchecked charge: a replacement is never blocked by a full quota — the
  // old version's release above keeps the net usage unchanged.
  tenants_.charge(tenant, memory_demand(ir), entry_demand(ir));
  record_event(ControlEvent::Kind::Relink, new_id, ir.name, detail);
  record_event(ControlEvent::Kind::Revoke, old_id, old_name);
  return std::move(deployed.result);
}

Status Controller::revoke(ProgramId id) {
  Session session(*this);
  return revoke_locked(id, session);
}

Status Controller::revoke_by_name(const std::string& name) {
  Session session(*this);
  if (const InstalledProgram* program = program_by_name_unlocked(name)) {
    return revoke_locked(program->id, session);
  }
  return Error{"no running program named '" + name + "'", "Controller",
               ErrorCode::NotFound};
}

Status Controller::check_running(ProgramId id) const {
  if (program_unlocked(id) == nullptr) {
    return Error{"no running program with id " + std::to_string(id), "Controller",
                 ErrorCode::NotFound};
  }
  if (busy_ids_.count(id) != 0) {
    return Error{"program " + std::to_string(id) +
                     " has a revoke in flight on the async channel",
                 "Controller", ErrorCode::Conflict};
  }
  return {};
}

Status Controller::revoke_locked(ProgramId id, Session& session) {
  if (auto s = check_running(id); !s.ok()) return s;
  const std::string name = program_unlocked(id)->name;
  // One transaction of remove records, one per hop. Staging a removal
  // reserves nothing, so it cannot fail.
  Staged removal{{id, name, {}},
                 std::make_unique<ChainTransaction>(contexts_, id, telemetry_)};
  (void)removal.txn->stage_all();
  session.open(op_name("revoke"));
  if (auto s = commit_locked(removal, &session); !s.ok()) {
    // The transaction restored the program on every hop (fresh handles); it
    // keeps running and keeps all its resources.
    announce_rollback(id, name, removal.txn->faulted_hop(), s.error());
    record_event(ControlEvent::Kind::RevokeFailed, id, name, s.error().str());
    return s;
  }
  forget_locked(id);
  record_event(ControlEvent::Kind::Revoke, id, name);
  return {};
}

Controller::Solved Controller::solve(
    const rp::TranslatedProgram& ir,
    const std::vector<ResourceManager::Snapshot>& snapshots) const {
  // Occupancies evolve in lockstep and the solver is deterministic, so a hop
  // whose books equal hop 0's takes hop 0's answer. A hop whose books differ
  // is solved on its own; check_chain rejects an answer that differs.
  const WallTimer timer;
  std::optional<std::pair<std::uint64_t, int>> hop0;
  std::vector<rp::AllocationResult> allocs;
  allocs.reserve(hops_.size());
  for (std::size_t h = 0; h < hops_.size(); ++h) {
    if (h > 0 && snapshots[h] == snapshots[0]) {
      allocs.push_back(allocs.front());
      continue;
    }
    auto alloc =
        rp::solve_allocation(ir, hops_[h]->dataplane.spec(), snapshots[h], objective_);
    if (!alloc.ok()) return Solved{alloc.error(), timer.elapsed_ms(), hop0};
    if (h == 0) hop0.emplace(alloc.value().nodes_explored, alloc.value().rounds);
    allocs.push_back(std::move(alloc).take());
  }
  return Solved{std::move(allocs), timer.elapsed_ms(), hop0};
}

Status Controller::check_chain(const rp::TranslatedProgram& ir,
                               const std::vector<rp::AllocationResult>& allocs) const {
  for (std::size_t h = 1; h < allocs.size(); ++h) {
    if (allocs[h].x != allocs[0].x || allocs[h].vmem_rpb != allocs[0].vmem_rpb) {
      return Error{"per-hop allocations diverged at hop " + std::to_string(h) +
                       " — chain occupancies must evolve in lockstep",
                   "Controller", ErrorCode::Conflict};
    }
  }
  const int total_rpbs = at(0).dataplane.spec().total_rpbs();
  if (auto s = dp::SwitchChain::chain_compatibility(ir.vmem_depths, allocs[0].x,
                                                    total_rpbs);
      !s.ok()) {
    return s;
  }
  if (allocs[0].rounds > length()) {
    return Error{"program '" + ir.name + "' needs " +
                     std::to_string(allocs[0].rounds) + " rounds but the chain "
                     "has only " + std::to_string(length()) + " hops",
                 "Controller", ErrorCode::InvalidArgument};
  }
  return {};
}

std::vector<ResourceManager::Snapshot> Controller::snapshots() const {
  std::vector<ResourceManager::Snapshot> snaps;
  snaps.reserve(hops_.size());
  for (const auto& hop : hops_) snaps.push_back(hop->resources.snapshot());
  return snaps;
}

std::unique_lock<std::mutex> Controller::quiesced() const {
  std::unique_lock<std::mutex> lock(mu_);
  for (const auto& hop : hops_) hop->updates.wait_idle();
  return lock;
}

void Controller::set_async_writes(bool enabled) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& hop : hops_) hop->updates.set_async(enabled);
}

bool Controller::async_writes() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& hop : hops_) {
    if (!hop->updates.async()) return false;
  }
  return true;
}

const InstalledProgram* Controller::program_unlocked(ProgramId id, int hop) const {
  const auto& programs = at(hop).programs;
  const auto it = programs.find(id);
  return it == programs.end() ? nullptr : &it->second;
}

const InstalledProgram* Controller::program_by_name_unlocked(
    const std::string& name) const {
  for (const auto& [id, program] : at(0).programs) {
    if (program.name == name) return &program;
  }
  return nullptr;
}

const InstalledProgram* Controller::program(ProgramId id) const {
  const auto lock = quiesced();
  return program_unlocked(id);
}

const InstalledProgram* Controller::program_by_name(const std::string& name) const {
  const auto lock = quiesced();
  return program_by_name_unlocked(name);
}

const InstalledProgram* Controller::program_at(int hop, ProgramId id) const {
  const auto lock = quiesced();
  return program_unlocked(id, hop);
}

std::vector<ProgramId> Controller::running_programs() const {
  const auto lock = quiesced();
  std::vector<ProgramId> ids;
  ids.reserve(at(0).programs.size());
  for (const auto& [id, program] : at(0).programs) ids.push_back(id);
  return ids;
}

std::size_t Controller::program_count() const {
  const auto lock = quiesced();
  return at(0).programs.size();
}

std::deque<ControlEvent> Controller::events() const {
  const auto lock = quiesced();
  return events_;
}

int Controller::hop_of(int logical_rpb) const {
  if (chain_ == nullptr) return 0;
  return dp::recirc_round(logical_rpb, at(0).dataplane.spec().total_rpbs());
}

Result<int> Controller::owning_hop_unlocked(ProgramId id,
                                            const std::string& vmem) const {
  if (chain_ == nullptr) return 0;  // one switch holds every memory
  const InstalledProgram* program = program_unlocked(id);
  if (program == nullptr) {
    return Error{"unknown program", "Controller", ErrorCode::NotFound};
  }
  const auto it = program->ir.vmem_depths.find(vmem);
  if (it == program->ir.vmem_depths.end() || it->second.empty()) {
    return Error{"unknown memory '" + vmem + "'", "Controller", ErrorCode::NotFound};
  }
  // Chain compatibility guarantees every access shares one round = one hop.
  return hop_of(program->alloc.x[static_cast<std::size_t>(it->second.front() - 1)]);
}

Result<int> Controller::owning_hop(ProgramId id, const std::string& vmem) const {
  const auto lock = quiesced();
  return owning_hop_unlocked(id, vmem);
}

Result<Word> Controller::read_memory(ProgramId id, const std::string& vmem,
                                     MemAddr vaddr) const {
  const auto lock = quiesced();
  auto hop = owning_hop_unlocked(id, vmem);
  if (!hop.ok()) return hop.error();
  const Hop& h = at(hop.value());
  return h.resources.read_virtual(h.dataplane, id, vmem, vaddr);
}

std::vector<rmt::Packet> Controller::drain_reports() {
  const auto lock = quiesced();
  std::vector<rmt::Packet> reports;
  for (auto& hop : hops_) {
    auto drained = hop->dataplane.pipeline().drain_cpu_queue();
    reports.insert(reports.end(), std::make_move_iterator(drained.begin()),
                   std::make_move_iterator(drained.end()));
  }
  return reports;
}

std::uint64_t Controller::program_packets(ProgramId id) const {
  const auto lock = quiesced();
  return at(0).dataplane.claimed_packets(id);
}

Result<std::vector<Word>> Controller::dump_memory(ProgramId id,
                                                  const std::string& vmem) const {
  const auto lock = quiesced();
  auto hop = owning_hop_unlocked(id, vmem);
  if (!hop.ok()) return hop.error();
  const Hop& h = at(hop.value());
  const auto* placements = h.resources.program_placements(id);
  if (placements == nullptr) {
    return Error{"unknown program", "Controller", ErrorCode::NotFound};
  }
  const auto it = placements->find(vmem);
  if (it == placements->end()) {
    return Error{"unknown memory '" + vmem + "'", "Controller", ErrorCode::NotFound};
  }
  return read_block(h.dataplane, it->second);
}

Result<rmt::HashAlgo> Controller::hash_algo_for(ProgramId id,
                                                const std::string& vmem) const {
  const auto lock = quiesced();
  const InstalledProgram* prog = program_unlocked(id);
  if (prog == nullptr) {
    return Error{"unknown program", "Controller", ErrorCode::NotFound};
  }
  for (const auto& node : prog->ir.nodes) {
    const bool hashes_mem = node.op.kind == dp::OpKind::Hash5TupleMem ||
                            node.op.kind == dp::OpKind::HashHarMem;
    if (!hashes_mem || node.op.vmem != vmem) continue;
    const int logical = prog->alloc.x[static_cast<std::size_t>(node.depth - 1)];
    const dp::RunproDataplane& dataplane = at(hop_of(logical)).dataplane;
    const int phys = dp::physical_rpb(logical, dataplane.spec().total_rpbs());
    return dataplane.rpb(phys).hash16_algo();
  }
  return Error{"program has no hash-addressed access to '" + vmem + "'",
               "Controller", ErrorCode::NotFound};
}

Status Controller::write_memory(ProgramId id, const std::string& vmem, MemAddr vaddr,
                                Word value) {
  // Quiesce the async channels: the writers own the dataplanes while jobs
  // are in flight, and a CPU-side memory write must not race their writes.
  const auto lock = quiesced();
  auto hop = owning_hop_unlocked(id, vmem);
  if (!hop.ok()) return hop.error();
  Hop& h = at(hop.value());
  return h.resources.write_virtual(h.dataplane, id, vmem, vaddr, value);
}

Result<DefragReport> Controller::defragment(DefragOptions options) {
  Session session(*this);
  return defragment_locked(options);
}

DefragReport Controller::defragment_locked(const DefragOptions& options) {
  auto defrag_span = telemetry_->tracer.span("defrag", "ctrl");
  // Quiesce the channels: a move revokes the old copy, and the writers must
  // not own any handle vectors while we walk the program table. Moves
  // themselves commit inline *through* the writers in async mode.
  for (auto& hop : hops_) hop->updates.wait_idle();
  for (auto& hop : hops_) hop->updates.set_maintenance(true);

  // Hops move in lockstep, so hop 0's books stand for every hop's.
  const ResourceManager& books = at(0).resources;
  DefragReport report;
  report.frag_start = books.total_fragmentation_words();
  std::set<ProgramId> skip;  // programs whose move failed this pass
  while (static_cast<int>(report.moves.size()) < options.max_moves) {
    const std::uint64_t frag_now = books.total_fragmentation_words();
    if (frag_now < options.min_gain_words) break;

    // Pick the move with the best *simulated* gain. Simulation replays the
    // exact reserve/release walk the transaction will take, so "gain" here
    // is what the metric will actually do — the monotonicity guarantee is
    // decided before any state changes.
    const auto snap = books.snapshot();
    ProgramId best_id = 0;
    std::uint64_t best_after = frag_now;
    for (const auto& [id, program] : at(0).programs) {
      if (busy_ids_.count(id) != 0 || skip.count(id) != 0) continue;
      if (program.placements.empty()) continue;
      std::uint64_t after = 0;
      if (!simulate_compaction(snap, program, &after)) continue;
      if (after < best_after) {
        best_after = after;
        best_id = id;
      }
    }
    if (best_id == 0 || frag_now - best_after < options.min_gain_words) break;

    // Migrate: commit a copy at its stored allocation (same pinned stages,
    // fresh first-fit placements; replacing = old id carries the memory
    // bytes over inside the same transaction), then retire the old copy.
    // The IR is a local copy: the transaction holds it by reference, and
    // retiring the old copy erases its map node.
    const rp::TranslatedProgram ir = at(0).programs.at(best_id).ir;
    std::vector<rp::AllocationResult> stored;
    for (const auto& hop : hops_) stored.push_back(hop->programs.at(best_id).alloc);
    auto moved = replace_locked(
        best_id, ir, Solved{std::move(stored), std::nullopt, std::nullopt}, "defrag move");
    if (!moved.ok()) {
      // Rolled back (injected fault or transient entry pressure): state is
      // exactly as before the attempt. Skip the program for this pass.
      ++report.failed_moves;
      skip.insert(best_id);
      continue;
    }
    const std::uint64_t frag_after = books.total_fragmentation_words();
    assert(frag_after == best_after && "defrag move diverged from simulation");

    DefragMove move;
    move.old_id = best_id;
    move.new_id = moved.value().id;
    move.name = moved.value().name;
    move.frag_before = frag_now;
    move.frag_after = frag_after;
    telemetry_->monitor.defrag_moved(best_id, move.new_id, move.name, frag_now,
                                     frag_after);
    auto& m = telemetry_->metrics;
    m.counter("ctrl.defrag.moves").inc();
    m.counter("ctrl.defrag.words_reclaimed").inc(frag_now - frag_after);
    report.moves.push_back(std::move(move));
  }

  for (auto& hop : hops_) hop->updates.set_maintenance(false);
  report.frag_end = books.total_fragmentation_words();
  telemetry_->metrics.counter("ctrl.defrag.passes").inc();
  defrag_span.arg("moves", static_cast<std::uint64_t>(report.moves.size()));
  defrag_span.arg("reclaimed_words", report.frag_start - report.frag_end);
  return report;
}

void Controller::set_auto_defrag(bool enabled) {
  std::lock_guard<std::mutex> lock(mu_);
  auto_defrag_ = enabled;
}

bool Controller::auto_defrag() const {
  std::lock_guard<std::mutex> lock(mu_);
  return auto_defrag_;
}

}  // namespace p4runpro::ctrl
