#include "control/controller.h"

#include <cassert>
#include <future>
#include <utility>

#include "control/lock_hold.h"
#include "obs/telemetry.h"

namespace p4runpro::ctrl {

namespace {

// A session's resource demand is computable straight from the IR — before
// solving — and equals the committed footprint exactly (reserve takes
// ir.vmem_sizes words per vmem and one entry per node / per branch case).
// That exactness is what makes charge-at-admission quota accounting sound.
[[nodiscard]] std::uint64_t memory_demand(const rp::TranslatedProgram& ir) {
  std::uint64_t words = 0;
  for (const auto& [vmem, size] : ir.vmem_sizes) {
    (void)vmem;
    words += size;
  }
  return words;
}

[[nodiscard]] std::uint64_t entry_demand(const rp::TranslatedProgram& ir) {
  return static_cast<std::uint64_t>(ir.total_entries());
}

/// Stage-memory words an installed program holds (== memory_demand of its
/// IR; read from the placements so revoke can release without the IR).
[[nodiscard]] std::uint64_t footprint_words(const InstalledProgram& program) {
  std::uint64_t words = 0;
  for (const auto& [vmem, placement] : program.placements) {
    (void)vmem;
    words += placement.block.size;
  }
  return words;
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

[[nodiscard]] std::vector<dp::RunproDataplane*> switches_of(dp::SwitchChain& chain) {
  std::vector<dp::RunproDataplane*> switches;
  for (int h = 0; h < chain.length(); ++h) switches.push_back(&chain.switch_at(h));
  return switches;
}

}  // namespace

/// The locked part of one control operation. Holds the session lock, the
/// operation's causal trace scope (the context is lock-protected shared
/// state) and its lock-hold timer.
class Controller::Session {
 public:
  explicit Session(Controller& controller)
      : telemetry_(controller.telemetry_),
        lock_(controller.mu_),
        trace_(std::in_place, controller.telemetry_),
        hold_(controller.clock_, controller.telemetry_) {}

  [[nodiscard]] std::uint64_t trace_id() const { return trace_->trace_id(); }

  /// Run `wait` off-lock (an async write draining). The trace context never
  /// stays installed off-lock; it is re-adopted after re-locking so the
  /// finish-side spans carry this operation's id. No span may be open.
  template <typename Wait>
  void park(Wait&& wait) {
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
    contexts_.push_back(ChainHop{dataplane, &hop.resources, &hop.updates});
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

void Controller::record_link_histograms(const LinkResult& result) {
  // Route the deployment-delay breakdown (LinkStats) through the registry:
  // the §6.2.1 quantities become queryable histograms.
  auto& m = telemetry_->metrics;
  m.histogram("ctrl.link.parse_ms").observe(result.stats.parse_ms);
  m.histogram("ctrl.link.alloc_ms").observe(result.stats.alloc_ms);
  m.histogram("ctrl.link.update_ms").observe(result.stats.update_ms);
  m.histogram("ctrl.link.deploy_ms").observe(result.stats.deploy_ms());
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

Result<std::vector<LinkResult>> Controller::link(std::string_view source) {
  Session session(*this);
  auto results = link_locked(source, /*single=*/false);
  if (results.ok()) {
    for (auto& r : results.value()) r.trace = session.trace_id();
  }
  return results;
}

Result<LinkResult> Controller::link_single(std::string_view source) {
  Session session(*this);
  auto results = link_locked(source, /*single=*/true);
  if (!results.ok()) return results.error();
  LinkResult result = std::move(results.value().front());
  result.trace = session.trace_id();
  return result;
}

Result<std::vector<LinkResult>> Controller::link_locked(std::string_view source,
                                                        bool single) {
  auto link_span =
      telemetry_->tracer.span(chain_ != nullptr ? "chain_link" : "link", "ctrl");
  const SimClock::Nanos parse_start_ns = clock_.now_ns();
  auto compiled = compile_locked(source, single);
  if (!compiled.ok()) return compiled.error();
  const double parse_ms = static_cast<double>(clock_.now_ns() - parse_start_ns) / 1e6;

  std::vector<LinkResult> results;
  for (const auto& ir : compiled.value()) {
    auto deployed = deploy_locked(ir, 0, std::nullopt, nullptr, nullptr);
    if (!deployed.ok()) {
      // All-or-nothing: revoke programs linked earlier in this unit.
      // (deploy_locked already audited the failure.)
      for (const auto& r : results) {
        const Status s = revoke_locked(r.id, nullptr);
        assert(s.ok());
        (void)s;
      }
      return deployed.error();
    }
    adopt_locked(deployed.value(), 0);
    // Unchecked charge: the serial paths bypass the quota gate (concurrent
    // sessions charge at admission instead).
    tenants_.charge(0, memory_demand(ir), entry_demand(ir));
    record_event(ControlEvent::Kind::Link, deployed.value().result.id, ir.name);
    results.push_back(std::move(deployed.value().result));
    results.back().stats.parse_ms = parse_ms / static_cast<double>(compiled.value().size());
  }

  for (const auto& r : results) record_link_histograms(r);
  link_span.arg("programs", static_cast<std::uint64_t>(results.size()));
  return results;
}

Result<std::vector<rp::TranslatedProgram>> Controller::compile_locked(
    std::string_view source, bool single) {
  // Parse + check + translate. The paper measures ~2 ms average parse time
  // on the switch CPU; charge it to the simulated clock. compile_source
  // emits the "parse" and "translate" spans.
  auto compiled = rp::compile_source(source, telemetry_);
  clock_.advance_ms(2.0);
  const Status unit = unit_status(compiled, single);
  if (unit.ok()) return compiled;
  record_event(ControlEvent::Kind::LinkFailed, 0, "<compile>", unit.error().str());
  return unit.error();
}

Result<Controller::Deployed> Controller::deploy_locked(const rp::TranslatedProgram& ir,
                                                       ProgramId replacing,
                                                       std::optional<Solved> solved,
                                                       Session* park, bool* retry) {
  // Every rollback leaves an audit trail: a LinkFailed event carrying the
  // coded error, plus a rollback entry in the monitor stream when a
  // transaction (id assigned) was actually begun.
  auto fail = [&](ProgramId id, int faulted_hop, const Error& err) -> Error {
    if (id != 0) announce_rollback(id, ir.name, faulted_hop, err);
    record_event(ControlEvent::Kind::LinkFailed, id, ir.name, err.str());
    return err;
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

  // Allocation (real measured solver time, §6.2.1 "allocation delay"):
  // solved here, under the lock, unless the caller brought allocations. Only
  // the serial entry points, which solve here, emit the §6.2 phase spans
  // ("solve", "install") under their root span.
  const bool phase_spans = !solved;
  obs::SpanTracer::Scope solve_span;
  if (phase_spans) {
    solve_span = telemetry_->tracer.span("solve", "ctrl");
    WallTimer timer;
    auto allocs = solve_hops(ir, snapshots(), telemetry_);
    solved.emplace(Solved{std::move(allocs), fixed_alloc_charge_ms_
                                                 ? *fixed_alloc_charge_ms_
                                                 : timer.elapsed_ms()});
  }
  const double alloc_ms = solved->charge_ms;
  clock_.advance_ms(alloc_ms);
  if (solved->allocs.ok()) {
    const rp::AllocationResult& alloc = solved->allocs.value().front();
    solve_span.arg("nodes_explored", alloc.nodes_explored);
    solve_span.arg("rounds", static_cast<std::uint64_t>(alloc.rounds));
  }
  solve_span.end();
  if (!solved->allocs.ok()) {
    // With auto-defrag the snapshot had the words but not the contiguity:
    // the caller compacts and burns a retry on the improved memory map.
    if (retryable(solved->allocs.error()) && auto_defrag_) {
      *retry = true;
      return solved->allocs.error();
    }
    return fail(0, -1, solved->allocs.error());
  }
  std::vector<rp::AllocationResult> allocs = std::move(solved->allocs).take();
  if (chain_ != nullptr) {
    if (auto s = check_chain(ir, allocs); !s.ok()) return fail(0, -1, s.error());
  }

  // Transaction: reserve -> plan -> stage on every hop, then commit; any
  // fault rolls every hop back.
  const ProgramId id = next_program_id();
  auto txn = std::make_unique<ChainTransaction>(contexts_, ir, std::move(allocs), id,
                                                ++filter_generation_, replacing,
                                                telemetry_);
  if (auto s = txn->stage_all(); !s.ok()) {
    recycle_failed_id(id);
    // Another session took the resources between snapshot and lock.
    if (retryable(s.error())) {
      *retry = true;
      return s.error();
    }
    return fail(id, txn->faulted_hop(), s.error());
  }

  // Consistent update (simulated bfrt writes; §6.2.1 "update delay").
  const bool parked = park != nullptr && txn->pipelined();
  // Intervals are taken in integer nanoseconds and converted once: the
  // difference of two millisecond doubles depends on the absolute time,
  // which wall-clock allocation charges make differ from run to run.
  const SimClock::Nanos update_start_ns = clock_.now_ns();
  Status committed;
  if (parked) {
    // Pipelined commit: submit under the lock, park OFF-lock while the
    // writers drain the channels, settle under the lock again. The name
    // guard keeps concurrent sessions from double-booking the name while we
    // are away; reservations and the staged batches are already ours.
    pending_names_.insert(ir.name);
    txn->commit_submit();
    park->park([&] { txn->commit_wait(); });
    committed = txn->commit_finish();
    pending_names_.erase(ir.name);
  } else {
    obs::SpanTracer::Scope install_span;
    if (phase_spans) install_span = telemetry_->tracer.span("install", "ctrl");
    committed = txn->commit_all();
  }
  if (!committed.ok()) {
    recycle_failed_id(id);
    return fail(id, txn->faulted_hop(), committed.error());
  }
  announce_commit(id, ir.name);

  Deployed deployed;
  deployed.result.id = id;
  deployed.result.name = ir.name;
  deployed.result.stats.alloc_ms = alloc_ms;
  deployed.result.stats.update_ms =
      parked ? txn->channel_ms()
             : static_cast<double>(clock_.now_ns() - update_start_ns) / 1e6;
  deployed.txn = std::move(txn);
  return deployed;
}

void Controller::adopt_locked(Deployed& deployed, TenantId tenant) {
  auto& installed = deployed.txn->installed();
  for (std::size_t h = 0; h < hops_.size(); ++h) {
    installed[h].tenant = tenant;
    hops_[h]->programs.emplace(deployed.result.id, std::move(installed[h]));
  }
}

std::vector<Result<LinkResult>> Controller::link_many(
    const std::vector<std::string>& sources, common::ThreadPool& pool,
    ParallelLinkOptions options) {
  std::vector<SessionSpec> sessions;
  sessions.reserve(sources.size());
  for (const auto& source : sources) sessions.push_back(SessionSpec{source, 0});
  return link_many(sessions, pool, options);
}

std::vector<Result<LinkResult>> Controller::link_many(
    const std::vector<SessionSpec>& sessions, common::ThreadPool& pool,
    ParallelLinkOptions options) {
  std::vector<std::future<Result<LinkResult>>> futures;
  futures.reserve(sessions.size());
  for (const auto& session : sessions) {
    futures.push_back(pool.submit(
        [this, &session, options] { return link_session(session, options); }));
  }
  std::vector<Result<LinkResult>> results;
  results.reserve(futures.size());
  for (auto& future : futures) results.push_back(future.get());
  return results;
}

Result<LinkResult> Controller::link_session(const SessionSpec& session,
                                            ParallelLinkOptions options) {
  // Compile + translate off-lock: pure compute over the source text. No
  // telemetry — the tracer and clock are shared state behind mu_.
  auto compiled = rp::compile_source(session.source, nullptr);
  if (const Status unit = unit_status(compiled, /*single=*/true); !unit.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    clock_.advance_ms(2.0);
    record_event(ControlEvent::Kind::LinkFailed, 0, "<compile>", unit.error().str());
    return unit.error();
  }
  const rp::TranslatedProgram& ir = compiled.value().front();
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

  auto result = link_session_admitted(ir, tenant, options);
  admission_.release();

  std::lock_guard<std::mutex> lock(mu_);
  auto& m = telemetry_->metrics;
  m.counter("ctrl.tenant.admitted").inc();
  m.histogram("ctrl.tenant.queue_wait_ms").observe(queue_wait_ms);
  return result;
}

Result<LinkResult> Controller::link_session_admitted(
    const rp::TranslatedProgram& ir, TenantId tenant,
    ParallelLinkOptions options) {
  // Quota gate: charge the session's full demand up front (demand equals
  // the committed footprint exactly, see memory_demand; once per program,
  // however many hops mirror it) and refund on every failure path.
  // Charging before reserving keeps the invariant one-sided: registry usage
  // >= sum of installed footprints, so concurrent sessions can never
  // oversubscribe a quota between check and commit.
  const std::uint64_t mem_words = memory_demand(ir);
  const std::uint64_t entry_count = entry_demand(ir);
  if (auto s = tenants_.admit(tenant, mem_words, entry_count); !s.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    telemetry_->metrics.counter("ctrl.tenant.quota_rejected").inc();
    record_event(ControlEvent::Kind::LinkFailed, 0, ir.name, s.error().str());
    return s.error();
  }
  struct ChargeGuard {
    TenantRegistry& tenants;
    TenantId tenant;
    std::uint64_t mem, entries;
    bool armed = true;
    ~ChargeGuard() {
      if (armed) tenants.refund(tenant, mem, entries);
    }
  } charge_guard{tenants_, tenant, mem_words, entry_count};

  Error conflict{"parallel link: retries exhausted", "Controller",
                 ErrorCode::AllocFailed};
  for (int attempt = 0; attempt <= options.max_solve_retries; ++attempt) {
    // Solve against per-hop snapshots off-lock (the expensive phase runs in
    // parallel across sessions).
    std::vector<ResourceManager::Snapshot> snaps;
    {
      std::lock_guard<std::mutex> lock(mu_);
      snaps = snapshots();
    }
    WallTimer timer;
    auto allocs = solve_hops(ir, snaps, nullptr);
    const double solve_ms = timer.elapsed_ms();

    // Reservation + staged commit serialize under the session lock; the
    // clock, telemetry and audit log are only touched here. The trace scope
    // is per attempt: the successful attempt's id is the one the LinkResult
    // reports.
    Session session(*this);
    if (attempt == 0) clock_.advance_ms(2.0);  // parse charge, once
    bool retry = false;
    auto deployed = deploy_locked(
        ir, 0,
        Solved{std::move(allocs),
               fixed_alloc_charge_ms_ ? *fixed_alloc_charge_ms_ : solve_ms},
        &session, attempt < options.max_solve_retries ? &retry : nullptr);
    if (retry) {
      // Re-snapshot and re-solve (after compacting, with auto-defrag on).
      // Bounded like every retry — a genuinely full switch still exhausts
      // the cap and reports AllocFailed.
      conflict = deployed.error();
      telemetry_->metrics.counter("ctrl.link.retries").inc();
      if (auto_defrag_) defragment_locked(DefragOptions{});
      continue;
    }
    if (!deployed.ok()) return deployed.error();
    adopt_locked(deployed.value(), tenant);
    charge_guard.armed = false;  // install owns the admission charge now
    record_event(ControlEvent::Kind::Link, deployed.value().result.id, ir.name);

    LinkResult result = std::move(deployed.value().result);
    result.stats.parse_ms = 2.0;
    result.trace = session.trace_id();
    record_link_histograms(result);
    return result;
  }
  return conflict;
}

Result<LinkResult> Controller::relink(ProgramId old_id, std::string_view source) {
  Session session(*this);
  if (program_unlocked(old_id) == nullptr) {
    return Error{"no running program with id " + std::to_string(old_id),
                 "Controller", ErrorCode::NotFound};
  }
  if (busy_ids_.count(old_id) != 0) {
    return Error{"program " + std::to_string(old_id) +
                     " has a revoke in flight on the async channel",
                 "Controller", ErrorCode::Conflict};
  }
  auto relink_span =
      telemetry_->tracer.span(chain_ != nullptr ? "chain_relink" : "relink", "ctrl");
  auto compiled = compile_locked(source, /*single=*/true);
  if (!compiled.ok()) return compiled.error();
  auto relinked = replace_locked(old_id, compiled.value().front(), std::nullopt, "");
  if (relinked.ok()) relinked.value().trace = session.trace_id();
  return relinked;
}

Result<LinkResult> Controller::replace_locked(ProgramId old_id,
                                              const rp::TranslatedProgram& ir,
                                              std::optional<Solved> stored,
                                              const std::string& detail) {
  // The new version stays attributed to the old version's tenant.
  const InstalledProgram& old_program = at(0).programs.at(old_id);
  const TenantId tenant = old_program.tenant;
  const std::string old_name = old_program.name;

  // Install the new version first (invisible until its filters land on each
  // hop, and the fresh filter generation outranks the old one); only then
  // retire the old version.
  auto deployed = deploy_locked(ir, old_id, std::move(stored), nullptr, nullptr);
  if (!deployed.ok()) return deployed.error();
  const ProgramId new_id = deployed.value().result.id;
  int faulted_hop = -1;
  if (auto s = remove_locked(old_id, nullptr, &faulted_hop); !s.ok()) {
    // The old version was restored on every hop; unwind the new version so
    // exactly the pre-relink truth remains (residual bytes included).
    deployed.value().txn->unwind_commit();
    recycle_failed_id(new_id);
    announce_rollback(new_id, ir.name, faulted_hop, s.error());
    record_event(ControlEvent::Kind::LinkFailed, new_id, ir.name, s.error().str());
    return s.error();
  }
  adopt_locked(deployed.value(), tenant);
  // Unchecked charge: a replacement is never blocked by a full quota — the
  // old version's release above keeps the net usage unchanged.
  tenants_.charge(tenant, memory_demand(ir), entry_demand(ir));
  record_event(ControlEvent::Kind::Relink, new_id, ir.name, detail);
  record_event(ControlEvent::Kind::Revoke, old_id, old_name);
  return std::move(deployed.value().result);
}

Status Controller::revoke(ProgramId id) {
  Session session(*this);
  return revoke_locked(id, &session);
}

Status Controller::revoke_by_name(const std::string& name) {
  Session session(*this);
  if (const InstalledProgram* program = program_by_name_unlocked(name)) {
    return revoke_locked(program->id, &session);
  }
  return Error{"no running program named '" + name + "'", "Controller",
               ErrorCode::NotFound};
}

Status Controller::revoke_locked(ProgramId id, Session* park) {
  const InstalledProgram* program = program_unlocked(id);
  if (program == nullptr) {
    return Error{"no running program with id " + std::to_string(id), "Controller",
                 ErrorCode::NotFound};
  }
  if (busy_ids_.count(id) != 0) {
    return Error{"program " + std::to_string(id) +
                     " has a revoke in flight on the async channel",
                 "Controller", ErrorCode::Conflict};
  }
  const std::string name = program->name;
  auto revoke_span =
      telemetry_->tracer.span(chain_ != nullptr ? "chain_revoke" : "revoke", "ctrl");
  if (park != nullptr && pipelined()) revoke_span.end();  // no span open off-lock
  int faulted_hop = -1;
  if (auto s = remove_locked(id, park, &faulted_hop); !s.ok()) {
    // The removal restored the program on every hop (fresh handles); it
    // keeps running and keeps all its resources.
    announce_rollback(id, name, faulted_hop, s.error());
    record_event(ControlEvent::Kind::RevokeFailed, id, name, s.error().str());
    return s;
  }
  record_event(ControlEvent::Kind::Revoke, id, name);
  return {};
}

Status Controller::remove_locked(ProgramId id, Session* park, int* faulted_hop) {
  const std::size_t hops = hops_.size();
  // Tenant footprint and per-hop entry counts, captured now: a successful
  // remove clears the program's placement and handle vectors. Pre-removal
  // images too, but only a fault on ANOTHER hop needs them: a hop's own
  // journal restores it, so a single switch captures none.
  const InstalledProgram& first = at(0).programs.at(id);
  const TenantId tenant = first.tenant;
  const std::uint64_t tenant_words = footprint_words(first);
  const auto tenant_entries = static_cast<std::uint64_t>(first.rpb_handles.size());
  std::vector<std::map<int, std::uint32_t>> entries;
  std::vector<HopImage> images;
  for (std::size_t h = 0; h < hops; ++h) {
    const InstalledProgram& program = hops_[h]->programs.at(id);
    entries.push_back(entries_per_rpb(program));
    if (hops > 1) images.push_back(capture_image(static_cast<int>(h), program));
  }

  const bool pipelined = this->pipelined();
  std::vector<UpdateEngine::PendingWrite> pending(hops);
  if (pipelined) {
    // Submit every hop's consistent remove up front so the per-hop channels
    // drain concurrently; settle in hop order below.
    for (std::size_t h = 0; h < hops; ++h) {
      pending[h] = hops_[h]->updates.submit_remove(hops_[h]->programs.at(id));
    }
    if (park != nullptr) {
      // The busy guard keeps relink/revoke sessions off this program while
      // the writers own its handle vectors.
      busy_ids_.insert(id);
      park->park([&] {
        for (auto& write : pending) write.wait();
      });
      busy_ids_.erase(id);
    }
  }

  std::vector<bool> removed(hops, false);
  int fault = -1;
  Status error;
  for (std::size_t h = 0; h < hops; ++h) {
    Hop& hop = *hops_[h];
    InstalledProgram& program = hop.programs.at(id);
    if (!pipelined) {
      // Serial: a hop is submitted only once every hop before it removed
      // cleanly; the first fault stops the chain.
      if (fault >= 0) break;
      pending[h] = hop.updates.submit_remove(program);
    }
    const Status s = hop.updates.finish_remove(pending[h], program);
    if (!s.ok()) {
      // Hop h's removal journal restored the program there (fresh handles,
      // resources intact). Pipelined, keep settling the remaining hops —
      // their writes are already in flight.
      if (fault < 0) {
        fault = static_cast<int>(h);
        error = s;
      }
      continue;
    }
    removed[h] = true;
    for (const auto& [rpb, count] : entries[h]) hop.resources.release_entries(rpb, count);
    hop.resources.erase_program(id);
    hop.dataplane.clear_claim_counter(id);
    hop.programs.erase(id);
  }
  if (fault >= 0) {
    // Re-install every hop that removed cleanly (pipelined: including hops
    // after the faulted one), nearest to the fault first.
    for (std::size_t g = hops; g-- > 0;) {
      if (removed[g]) reinstall_hop(static_cast<int>(g), std::move(images[g]));
    }
    *faulted_hop = fault;
    return error;
  }
  tenants_.release(tenant, tenant_words, tenant_entries);
  free_ids_.push_back(id);
  return {};
}

Controller::HopImage Controller::capture_image(int hop,
                                               const InstalledProgram& program) const {
  HopImage image;
  image.program = program;
  for (const auto& [vmem, placement] : program.placements) {
    image.words.emplace(vmem, read_block(at(hop).dataplane, placement));
  }
  return image;
}

void Controller::reinstall_hop(int hop, HopImage image) {
  Hop& h = at(hop);
  const ProgramId id = image.program.id;

  // The exact blocks are provably still free: nothing allocated between the
  // removal and this unwind (session lock). A reclaim failure is a journal
  // bug, same convention as the single-switch rollback.
  for (const auto& [vmem, placement] : image.program.placements) {
    (void)vmem;
    const Status reclaimed = h.resources.reclaim_block(placement.rpb, placement.block);
    assert(reclaimed.ok() && "chain unwind reclaim must not fail");
    (void)reclaimed;
  }
  for (const auto& [rpb, count] : entries_per_rpb(image.program)) {
    const Status reserved = h.resources.reserve_entries(rpb, count);
    assert(reserved.ok() && "chain unwind re-reserve must not fail");
    (void)reserved;
  }

  // Replay the install: saved memory contents first, then the entry plan in
  // consistent-update order. The engine hands back fresh handles.
  dp::WriteBatch batch;
  for (const auto& [vmem, placement] : image.program.placements) {
    batch.write_mem_range(placement.rpb, placement.block.base,
                          std::move(image.words.at(vmem)), vmem);
  }
  rp::stage_install(image.program.plan, batch);
  auto applied = h.updates.execute_install(batch);
  assert(applied.ok() && "chain unwind reinstall must not fault");
  image.program.filter_handles = std::move(applied.value().filter_handles);
  image.program.rpb_handles = std::move(applied.value().rpb_handles);
  image.program.recirc_handles = std::move(applied.value().recirc_handles);
  h.resources.record_program(id, image.program.placements);
  h.programs.insert_or_assign(id, std::move(image.program));
}

Result<std::vector<rp::AllocationResult>> Controller::solve_hops(
    const rp::TranslatedProgram& ir,
    const std::vector<ResourceManager::Snapshot>& snapshots,
    obs::Telemetry* telemetry) {
  // Occupancies evolve in lockstep and the solver is deterministic, so a hop
  // whose books equal hop 0's takes hop 0's answer. A hop whose books differ
  // is solved on its own; check_chain rejects an answer that differs.
  std::vector<rp::AllocationResult> allocs;
  allocs.reserve(hops_.size());
  for (std::size_t h = 0; h < hops_.size(); ++h) {
    if (h > 0 && snapshots[h] == snapshots[0]) {
      allocs.push_back(allocs.front());
      continue;
    }
    auto alloc = rp::solve_allocation(ir, hops_[h]->dataplane.spec(), snapshots[h],
                                      objective_, h == 0 ? telemetry : nullptr);
    if (!alloc.ok()) return alloc.error();
    allocs.push_back(std::move(alloc).take());
  }
  return allocs;
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

bool Controller::pipelined() const {
  for (const auto& hop : hops_) {
    if (!hop->updates.async()) return false;
  }
  return true;
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
  return pipelined();
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
    auto moved = replace_locked(best_id, ir, Solved{std::move(stored), 0.0},
                                "defrag move");
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
