#include "obs/monitor.h"

#include <chrono>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"

namespace p4runpro::obs {

namespace {

[[nodiscard]] std::string_view event_kind_name(MonitorEvent::Kind kind) noexcept {
  switch (kind) {
    case MonitorEvent::Kind::Deploy: return "deploy";
    case MonitorEvent::Kind::Revoke: return "revoke";
    case MonitorEvent::Kind::Alert: return "alert";
    case MonitorEvent::Kind::TxnCommit: return "txn_commit";
    case MonitorEvent::Kind::TxnRollback: return "txn_rollback";
    case MonitorEvent::Kind::ChainTxnCommit: return "chain_txn_commit";
    case MonitorEvent::Kind::ChainTxnRollback: return "chain_txn_rollback";
    case MonitorEvent::Kind::AdmissionShed: return "admission_shed";
    case MonitorEvent::Kind::DefragMove: return "defrag_move";
  }
  return "?";
}

}  // namespace

std::string_view alert_kind_name(AlertKind kind) noexcept {
  switch (kind) {
    case AlertKind::PacketRate: return "packet_rate";
    case AlertKind::RecircRate: return "recirc_rate";
    case AlertKind::DropRate: return "drop_rate";
    case AlertKind::RecircPerPacket: return "recirc_per_packet";
    case AlertKind::DropFraction: return "drop_fraction";
    case AlertKind::StageOccupancy: return "stage_occupancy";
  }
  return "?";
}

void ProgramHealthMonitor::attach_metrics(MetricsRegistry* registry) {
  registry_ = registry;
  if (registry == nullptr) {
    packets_counter_ = nullptr;
    alerts_counter_ = nullptr;
    return;
  }
  packets_counter_ = &registry->counter("obs.monitor.packets");
  alerts_counter_ = &registry->counter("obs.monitor.alerts");
  // Self-overhead probes: wall time this monitor spends in its packet hook
  // (only accumulates with set_overhead_accounting(true)).
  registry->register_probe("obs.self.monitor_hook_ns", this, [this] {
    return static_cast<double>(hook_ns_);
  });
  registry->register_probe("obs.self.monitor_hook_calls", this, [this] {
    return static_cast<double>(hook_calls_);
  });
}

ProgramHealthMonitor::~ProgramHealthMonitor() {
  if (registry_ != nullptr) registry_->unregister_probes(this);
}

ProgramHealthMonitor::Slot& ProgramHealthMonitor::slot(ProgramId id) {
  if (slots_.size() <= id) slots_.resize(id + 1u, Slot(config_));
  Slot& s = slots_[id];
  if (!s.health.known) {
    s.health.known = true;
    if (id == 0) s.health.name = "(unclaimed)";
  }
  return s;
}

const ProgramHealthMonitor::Slot* ProgramHealthMonitor::find_slot(ProgramId id) const {
  if (slots_.size() <= id || !slots_[id].health.known) return nullptr;
  return &slots_[id];
}

void ProgramHealthMonitor::program_deployed(ProgramId id, std::string_view name,
                                            std::uint64_t entries) {
  Slot& s = slot(id);
  // Program ids are recycled: a redeploy under a reused id starts fresh
  // (the event stream keeps the previous occupant's history).
  s.health = ProgramHealth{};
  s.health.known = true;
  s.health.active = true;
  s.health.name = std::string(name);
  s.health.deployed_at_ms = now_ms();
  s.health.entries = entries;
  s.fired.assign(rules_.size(), false);

  MonitorEvent event;
  event.kind = MonitorEvent::Kind::Deploy;
  event.program = id;
  event.program_name = s.health.name;
  event.entries = entries;
  push_event(std::move(event));
}

void ProgramHealthMonitor::program_revoked(ProgramId id) {
  Slot& s = slot(id);
  s.health.active = false;
  s.health.revoked_at_ms = now_ms();

  MonitorEvent event;
  event.kind = MonitorEvent::Kind::Revoke;
  event.program = id;
  event.program_name = s.health.name;
  push_event(std::move(event));
}

void ProgramHealthMonitor::txn_committed(ProgramId id, std::string_view name) {
  MonitorEvent event;
  event.kind = MonitorEvent::Kind::TxnCommit;
  event.program = id;
  event.program_name = std::string(name);
  push_event(std::move(event));
}

void ProgramHealthMonitor::txn_rolled_back(ProgramId id, std::string_view name,
                                           std::string_view reason) {
  MonitorEvent event;
  event.kind = MonitorEvent::Kind::TxnRollback;
  event.program = id;
  event.program_name = std::string(name);
  event.detail = std::string(reason);
  push_event(std::move(event));
}

void ProgramHealthMonitor::chain_txn_committed(ProgramId id, std::string_view name,
                                               int hops) {
  MonitorEvent event;
  event.kind = MonitorEvent::Kind::ChainTxnCommit;
  event.program = id;
  event.program_name = std::string(name);
  event.hops = hops;
  push_event(std::move(event));
}

void ProgramHealthMonitor::chain_txn_rolled_back(ProgramId id, std::string_view name,
                                                 int hops, int faulted_hop,
                                                 std::string_view reason) {
  MonitorEvent event;
  event.kind = MonitorEvent::Kind::ChainTxnRollback;
  event.program = id;
  event.program_name = std::string(name);
  event.hops = hops;
  event.faulted_hop = faulted_hop;
  event.detail = std::string(reason);
  push_event(std::move(event));
}

void ProgramHealthMonitor::admission_shed(std::uint32_t tenant,
                                          std::string_view name,
                                          std::string_view reason) {
  MonitorEvent event;
  event.kind = MonitorEvent::Kind::AdmissionShed;
  event.program_name = std::string(name);
  event.tenant = tenant;
  event.detail = std::string(reason);
  push_event(std::move(event));
}

void ProgramHealthMonitor::defrag_moved(ProgramId old_id, ProgramId new_id,
                                        std::string_view name,
                                        std::uint64_t frag_before,
                                        std::uint64_t frag_after) {
  MonitorEvent event;
  event.kind = MonitorEvent::Kind::DefragMove;
  event.program = new_id;
  event.program_name = std::string(name);
  event.old_program = old_id;
  event.gain = frag_before >= frag_after ? frag_before - frag_after : 0;
  push_event(std::move(event));
}

void ProgramHealthMonitor::on_stage_occupancy(int rpb, std::uint32_t used,
                                              std::uint32_t capacity) {
  if (rpb < 0) return;
  if (stages_.size() <= static_cast<std::size_t>(rpb)) {
    stages_.resize(static_cast<std::size_t>(rpb) + 1);
  }
  StageState& stage = stages_[static_cast<std::size_t>(rpb)];
  stage.used = used;
  stage.capacity = capacity;
  if (stage.fired.size() < rules_.size()) stage.fired.resize(rules_.size(), false);

  const double frac =
      capacity == 0 ? 0.0 : static_cast<double>(used) / static_cast<double>(capacity);
  for (std::size_t r = 0; r < rules_.size(); ++r) {
    const AlertRule& rule = rules_[r];
    if (rule.kind != AlertKind::StageOccupancy) continue;
    if (rule.rpb != 0 && rule.rpb != rpb) continue;
    if (frac >= rule.threshold) {
      if (!stage.fired[r]) {
        stage.fired[r] = true;
        fire_alert(rule, r, 0, "", frac, rpb);
      }
    } else {
      stage.fired[r] = false;
    }
  }
}

void ProgramHealthMonitor::add_rule(AlertRule rule) {
  rules_.push_back(std::move(rule));
  for (Slot& s : slots_) s.fired.resize(rules_.size(), false);
  for (StageState& stage : stages_) stage.fired.resize(rules_.size(), false);
}

void ProgramHealthMonitor::clear_rules() {
  rules_.clear();
  for (Slot& s : slots_) s.fired.clear();
  for (StageState& stage : stages_) stage.fired.clear();
}

ProgramHealthMonitor::Slot& ProgramHealthMonitor::fold(ProgramId id,
                                                       const rmt::ProgramTally& tally,
                                                       SimClock::Nanos now) {
  packets_observed_ += tally.packets;
  if (packets_counter_ != nullptr) packets_counter_->inc(tally.packets);

  Slot& s = slot(id);
  ProgramHealth& h = s.health;
  h.packets += tally.packets;
  h.table_hits += tally.table_hits;
  h.table_misses += tally.table_misses;
  h.salu_updates += tally.salu_execs;
  h.recirc_passes += tally.recirc_passes;
  h.drops += tally.drops;

  s.packets_w.add(now, tally.packets);
  if (tally.recirc_passes > 0) s.recirc_w.add(now, tally.recirc_passes);
  if (tally.drops > 0) s.drops_w.add(now, tally.drops);
  return s;
}

void ProgramHealthMonitor::tick_series(SimClock::Nanos now) {
  // Cadence-gated time-series tick: a single compare when not due.
  if (series_ != nullptr && registry_ != nullptr) {
    series_->maybe_sample(*registry_, now);
  }
}

void ProgramHealthMonitor::on_packet(const rmt::PacketObservation& obs) {
  // Optional self-overhead accounting: two steady_clock reads bracketing
  // the hook. Off by default — the reads are themselves overhead.
  const auto hook_start = account_overhead_
                              ? std::chrono::steady_clock::now()
                              : std::chrono::steady_clock::time_point{};
  last_table_trace_ = obs.table_trace;

  const bool dropped = obs.fate == rmt::PacketFate::Dropped ||
                       obs.fate == rmt::PacketFate::RecircLimit;
  const rmt::ProgramTally one{.packets = 1,
                              .table_hits = obs.table_hits,
                              .table_misses = obs.table_misses,
                              .salu_execs = obs.salu_execs,
                              .recirc_passes = static_cast<std::uint64_t>(obs.recirc_passes),
                              .drops = dropped ? 1u : 0u};
  const SimClock::Nanos now = now_ns();
  Slot& s = fold(obs.program, one, now);

  // Journey capture first, rule evaluation second: when this packet trips
  // an alert, its own journey is the newest entry of the frozen ring.
  if (obs.events != nullptr && flight_ != nullptr && !flight_->frozen()) {
    PacketJourney journey;
    journey.seq = obs.seq;
    journey.t_ms = now_ms();
    journey.program = obs.program;
    journey.program_name = s.health.name;
    journey.fate = obs.fate;
    journey.ingress_port = obs.ingress_port;
    journey.egress_port = obs.egress_port;
    journey.recirc_passes = obs.recirc_passes;
    journey.table_hits = obs.table_hits;
    journey.salu_execs = obs.salu_execs;
    journey.table_trace = obs.table_trace;
    journey.table_generation = obs.table_generation;
    journey.events = *obs.events;
    flight_->record(std::move(journey));
  }

  if (!rules_.empty()) evaluate_rules(obs.program, s);
  tick_series(now);

  if (account_overhead_) {
    ++hook_calls_;
    hook_ns_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - hook_start)
            .count());
  }
}

void ProgramHealthMonitor::on_batch(const rmt::BatchObservation& batch) {
  const auto hook_start = account_overhead_
                              ? std::chrono::steady_clock::now()
                              : std::chrono::steady_clock::time_point{};
  last_table_trace_ = batch.table_trace;

  // Rules see the batch's totals: a threshold crossed mid-batch fires once,
  // here, with the end-of-batch value.
  const SimClock::Nanos now = now_ns();
  for (const ProgramId id : batch.programs) {
    Slot& s = fold(id, batch.tallies[id], now);
    if (!rules_.empty()) evaluate_rules(id, s);
  }
  tick_series(now);

  if (account_overhead_) {
    // The pipeline timed each packet's tally add; the fold is timed here.
    hook_calls_ += batch.packets;
    hook_ns_ += batch.tally_ns +
                static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - hook_start)
                        .count());
  }
}

double ProgramHealthMonitor::rule_value(const AlertRule& rule, const Slot& s,
                                        SimClock::Nanos now) const {
  switch (rule.kind) {
    case AlertKind::PacketRate:
      return s.packets_w.per_second(now);
    case AlertKind::RecircRate:
      return s.recirc_w.per_second(now);
    case AlertKind::DropRate:
      return s.drops_w.per_second(now);
    case AlertKind::RecircPerPacket: {
      const std::uint64_t pkts = s.packets_w.sum(now);
      return pkts == 0 ? 0.0
                       : static_cast<double>(s.recirc_w.sum(now)) /
                             static_cast<double>(pkts);
    }
    case AlertKind::DropFraction: {
      const std::uint64_t pkts = s.packets_w.sum(now);
      return pkts == 0 ? 0.0
                       : static_cast<double>(s.drops_w.sum(now)) /
                             static_cast<double>(pkts);
    }
    case AlertKind::StageOccupancy:
      return 0.0;  // evaluated in on_stage_occupancy, not per packet
  }
  return 0.0;
}

void ProgramHealthMonitor::evaluate_rules(ProgramId id, Slot& s) {
  const SimClock::Nanos now = now_ns();
  if (s.fired.size() < rules_.size()) s.fired.resize(rules_.size(), false);
  for (std::size_t r = 0; r < rules_.size(); ++r) {
    const AlertRule& rule = rules_[r];
    if (rule.kind == AlertKind::StageOccupancy) continue;
    if (rule.program != 0 && rule.program != id) continue;
    const double value = rule_value(rule, s, now);
    if (value >= rule.threshold) {
      if (!s.fired[r]) {
        s.fired[r] = true;
        fire_alert(rule, r, id, s.health.name, value, 0);
      }
    } else {
      s.fired[r] = false;
    }
  }
}

void ProgramHealthMonitor::fire_alert(const AlertRule& rule, std::size_t rule_index,
                                      ProgramId id, std::string_view name,
                                      double value, int rpb) {
  (void)rule_index;
  ++alerts_fired_;
  if (alerts_counter_ != nullptr) alerts_counter_->inc();

  MonitorEvent event;
  event.kind = MonitorEvent::Kind::Alert;
  event.program = id;
  event.program_name = std::string(name);
  event.rule = rule.name;
  event.value = value;
  event.threshold = rule.threshold;
  event.rpb = rpb;
  // Packet-path alerts fire outside any control operation: attribute them
  // to the operation that installed the table state the traffic ran
  // against. Control-path alerts (occupancy during an install) are stamped
  // from the active context by push_event instead.
  if (trace_ctx_ == nullptr || !trace_ctx_->valid()) {
    event.trace = last_table_trace_;
  }
  push_event(std::move(event));

  if (flight_ != nullptr) flight_->freeze(rule.name, now_ms());
}

void ProgramHealthMonitor::series_alert(std::string_view series,
                                        std::string_view rule, double value,
                                        double threshold) {
  ++alerts_fired_;
  if (alerts_counter_ != nullptr) alerts_counter_->inc();

  MonitorEvent event;
  event.kind = MonitorEvent::Kind::Alert;
  event.rule = std::string(rule);
  event.series = std::string(series);
  event.value = value;
  event.threshold = threshold;
  event.trace = last_table_trace_;
  push_event(std::move(event));

  if (flight_ != nullptr) flight_->freeze(std::string(rule), now_ms());
}

void ProgramHealthMonitor::push_event(MonitorEvent event) {
  event.seq = next_event_seq_++;
  event.t_ms = now_ms();
  // Control-path events inherit the active control operation's trace id;
  // packet-path callers (fire_alert) stamp their own fallback beforehand.
  if (event.trace == 0 && trace_ctx_ != nullptr && trace_ctx_->valid()) {
    event.trace = trace_ctx_->trace_id;
  }
  events_.push_back(std::move(event));
  if (events_.size() > config_.max_events) {
    events_.pop_front();
    ++events_dropped_;
  }
}

const ProgramHealth* ProgramHealthMonitor::health(ProgramId id) const {
  const Slot* s = find_slot(id);
  return s == nullptr ? nullptr : &s->health;
}

std::vector<ProgramId> ProgramHealthMonitor::known_programs() const {
  std::vector<ProgramId> ids;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].health.known) ids.push_back(static_cast<ProgramId>(i));
  }
  return ids;
}

double ProgramHealthMonitor::packet_rate(ProgramId id) const {
  const Slot* s = find_slot(id);
  return s == nullptr ? 0.0 : s->packets_w.per_second(now_ns());
}

double ProgramHealthMonitor::recirc_rate(ProgramId id) const {
  const Slot* s = find_slot(id);
  return s == nullptr ? 0.0 : s->recirc_w.per_second(now_ns());
}

double ProgramHealthMonitor::drop_rate(ProgramId id) const {
  const Slot* s = find_slot(id);
  return s == nullptr ? 0.0 : s->drops_w.per_second(now_ns());
}

double ProgramHealthMonitor::recirc_per_packet(ProgramId id) const {
  const Slot* s = find_slot(id);
  if (s == nullptr) return 0.0;
  const SimClock::Nanos now = now_ns();
  const std::uint64_t pkts = s->packets_w.sum(now);
  return pkts == 0 ? 0.0
                   : static_cast<double>(s->recirc_w.sum(now)) /
                         static_cast<double>(pkts);
}

double ProgramHealthMonitor::drop_fraction(ProgramId id) const {
  const Slot* s = find_slot(id);
  if (s == nullptr) return 0.0;
  const SimClock::Nanos now = now_ns();
  const std::uint64_t pkts = s->packets_w.sum(now);
  return pkts == 0 ? 0.0
                   : static_cast<double>(s->drops_w.sum(now)) /
                         static_cast<double>(pkts);
}

void ProgramHealthMonitor::clear() {
  slots_.clear();
  rules_.clear();
  stages_.clear();
  events_.clear();
  next_event_seq_ = 0;
  events_dropped_ = 0;
  alerts_fired_ = 0;
  packets_observed_ = 0;
  last_table_trace_ = 0;
}

void export_alerts_jsonl(const ProgramHealthMonitor& monitor, std::ostream& out) {
  for (const auto& e : monitor.events()) {
    out << "{\"seq\":" << e.seq << ",\"t_ms\":" << json_number(e.t_ms)
        << ",\"kind\":\"" << event_kind_name(e.kind) << "\",\"program\":"
        << e.program << ",\"name\":\"" << json_escape(e.program_name) << "\"";
    switch (e.kind) {
      case MonitorEvent::Kind::Deploy:
        out << ",\"entries\":" << e.entries;
        break;
      case MonitorEvent::Kind::Revoke:
      case MonitorEvent::Kind::TxnCommit:
        break;
      case MonitorEvent::Kind::TxnRollback:
        out << ",\"detail\":\"" << json_escape(e.detail) << "\"";
        break;
      case MonitorEvent::Kind::ChainTxnCommit:
        out << ",\"hops\":" << e.hops;
        break;
      case MonitorEvent::Kind::ChainTxnRollback:
        out << ",\"hops\":" << e.hops << ",\"faulted_hop\":" << e.faulted_hop
            << ",\"detail\":\"" << json_escape(e.detail) << "\"";
        break;
      case MonitorEvent::Kind::Alert:
        out << ",\"rule\":\"" << json_escape(e.rule)
            << "\",\"value\":" << json_number(e.value)
            << ",\"threshold\":" << json_number(e.threshold);
        if (e.rpb != 0) out << ",\"rpb\":" << e.rpb;
        if (!e.series.empty()) {
          out << ",\"series\":\"" << json_escape(e.series) << "\"";
        }
        break;
      case MonitorEvent::Kind::AdmissionShed:
        out << ",\"tenant\":" << e.tenant << ",\"detail\":\""
            << json_escape(e.detail) << "\"";
        break;
      case MonitorEvent::Kind::DefragMove:
        out << ",\"old_program\":" << e.old_program << ",\"gain\":" << e.gain;
        break;
    }
    if (e.trace != 0) {
      out << ",\"trace\":\"" << format_trace_id(e.trace) << "\"";
    }
    out << "}\n";
  }
}

}  // namespace p4runpro::obs
