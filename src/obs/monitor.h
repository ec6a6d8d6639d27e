// Per-program data-plane health monitor. Implements rmt::PacketObserver:
// the pipeline reports every completed packet once — alone through
// on_packet, or summed per program through on_batch at the end of an
// inject_batch — and the monitor attributes it (packets, table hits/misses,
// SALU updates, recirculation passes, drops) to the deployed program that
// claimed it (slot 0 collects unclaimed traffic). On top of the lifetime
// counters sit rolling-window rate estimators driven by SimClock virtual
// time, and configurable threshold alert rules; a tripped alert freezes the
// attached FlightRecorder so the packet journeys leading up to the anomaly
// survive.
//
// Hot-path discipline: attribution is a direct vector index by program id,
// one fold per program per batch (per packet on the on_packet path), rule
// evaluation touches only the folded program's windows, and every
// metrics-registry handle is resolved once at attach time — no name lookup
// ever happens per packet.
#pragma once

#include <cstdint>
#include <deque>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/types.h"
#include "obs/flight_recorder.h"
#include "obs/trace_context.h"
#include "rmt/pipeline.h"

namespace p4runpro::obs {

class MetricsRegistry;
class Counter;
class TimeSeriesStore;

/// Fixed-bucket rolling window over SimClock virtual time. Events land in
/// the bucket of their timestamp; queries sum the buckets that fall inside
/// the window ending at `now`. Deterministic, O(buckets) per query, O(1)
/// per add.
class RateWindow {
 public:
  RateWindow(SimClock::Nanos bucket_ns, int buckets)
      : bucket_ns_(bucket_ns), counts_(static_cast<std::size_t>(buckets), 0),
        bucket_of_(static_cast<std::size_t>(buckets), kNever) {}

  void add(SimClock::Nanos now, std::uint64_t n = 1) noexcept {
    const std::uint64_t b = now / bucket_ns_;
    const std::size_t slot = b % counts_.size();
    if (bucket_of_[slot] != b) {
      bucket_of_[slot] = b;
      counts_[slot] = 0;
    }
    counts_[slot] += n;
  }

  /// Events inside the window [now - span, now].
  [[nodiscard]] std::uint64_t sum(SimClock::Nanos now) const noexcept {
    const std::uint64_t b = now / bucket_ns_;
    const std::uint64_t oldest = b >= counts_.size() - 1 ? b - (counts_.size() - 1) : 0;
    std::uint64_t total = 0;
    for (std::size_t s = 0; s < counts_.size(); ++s) {
      if (bucket_of_[s] != kNever && bucket_of_[s] >= oldest && bucket_of_[s] <= b) {
        total += counts_[s];
      }
    }
    return total;
  }

  /// sum(now) scaled to events per second of virtual time.
  [[nodiscard]] double per_second(SimClock::Nanos now) const noexcept {
    const double span_s = static_cast<double>(bucket_ns_) *
                          static_cast<double>(counts_.size()) / 1e9;
    return span_s == 0.0 ? 0.0 : static_cast<double>(sum(now)) / span_s;
  }

  [[nodiscard]] SimClock::Nanos span_ns() const noexcept {
    return bucket_ns_ * counts_.size();
  }

 private:
  static constexpr std::uint64_t kNever = static_cast<std::uint64_t>(-1);
  SimClock::Nanos bucket_ns_;
  std::vector<std::uint64_t> counts_;
  std::vector<std::uint64_t> bucket_of_;  ///< absolute bucket index per slot
};

/// What an alert rule thresholds on. Rates are per second of virtual time
/// over the monitor's rolling window; ratios are window-local fractions.
enum class AlertKind : std::uint8_t {
  PacketRate,       ///< claimed packets / s
  RecircRate,       ///< recirculation passes / s
  DropRate,         ///< dropped packets / s
  RecircPerPacket,  ///< recirculation passes per claimed packet
  DropFraction,     ///< dropped / claimed packets
  StageOccupancy,   ///< fraction of an RPB's table entries in use
};

[[nodiscard]] std::string_view alert_kind_name(AlertKind kind) noexcept;

/// One configured threshold rule. Fires edge-triggered per program: when
/// the observed value first reaches `threshold`, one alert is emitted and
/// the rule disarms for that program until the value falls below again.
struct AlertRule {
  std::string name;
  AlertKind kind = AlertKind::RecircPerPacket;
  double threshold = 0.0;
  /// Restrict to one program id; 0 = any program. Ignored for
  /// StageOccupancy (which is per stage, not per program).
  ProgramId program = 0;
  /// Restrict StageOccupancy to one physical RPB; 0 = any stage.
  int rpb = 0;
};

/// One entry of the monitor's event stream: program lifecycle (deploy /
/// revoke, emitted by the update engine), deploy-transaction outcomes
/// (commit / rollback, emitted by the controller) and fired alerts share
/// the stream so a dump shows alerts in deployment context.
struct MonitorEvent {
  enum class Kind : std::uint8_t {
    Deploy, Revoke, Alert, TxnCommit, TxnRollback, ChainTxnCommit,
    ChainTxnRollback, AdmissionShed, DefragMove
  } kind = Kind::Deploy;
  std::uint64_t seq = 0;  ///< monotonically increasing stream position
  double t_ms = 0.0;      ///< virtual time
  ProgramId program = 0;
  std::string program_name;
  std::string rule;          ///< alert only: rule name
  std::string detail;        ///< txn rollback only: the error that aborted it
  double value = 0.0;        ///< alert only: observed value
  double threshold = 0.0;    ///< alert only: rule threshold
  int rpb = 0;               ///< occupancy alerts: the stage
  std::uint64_t entries = 0; ///< deploy only: installed RPB+filter entries
  int hops = 0;              ///< chain txn only: chain length of the deploy
  int faulted_hop = -1;      ///< chain rollback only: hop whose write faulted
                             ///< (-1: aborted before any write, e.g. reserve)
  /// Causal trace id: the control operation this event belongs to (deploy /
  /// revoke / txn events), or — for alerts fired from the packet path — the
  /// operation that installed the table state the alerting traffic ran
  /// against. 0 when no trace is known.
  std::uint64_t trace = 0;
  std::string series;        ///< anomaly alerts only: the offending series
  std::uint32_t tenant = 0;  ///< admission sheds: the shed session's tenant
  ProgramId old_program = 0; ///< defrag moves: the retired copy's id
  std::uint64_t gain = 0;    ///< defrag moves: fragmentation words reclaimed
};

/// Lifetime per-program attribution counters.
struct ProgramHealth {
  std::string name;
  bool active = false;       ///< currently deployed
  bool known = false;        ///< ever seen (deployed or attributed traffic)
  double deployed_at_ms = 0.0;
  double revoked_at_ms = 0.0;
  std::uint64_t entries = 0;  ///< installed table entries (RPB + filters)
  std::uint64_t packets = 0;
  std::uint64_t table_hits = 0;
  std::uint64_t table_misses = 0;
  std::uint64_t salu_updates = 0;
  std::uint64_t recirc_passes = 0;
  std::uint64_t drops = 0;
};

class ProgramHealthMonitor final : public rmt::PacketObserver {
 public:
  struct Config {
    SimClock::Nanos window_bucket_ns = 10'000'000;  ///< 10 ms buckets
    int window_buckets = 10;                        ///< 100 ms rolling window
    std::size_t max_events = 4096;                  ///< event-stream bound
  };

  ProgramHealthMonitor() : ProgramHealthMonitor(Config{}) {}
  explicit ProgramHealthMonitor(Config config) : config_(config) {}
  ~ProgramHealthMonitor() override;

  /// Virtual-time source for event timestamps and window bucketing; unset,
  /// everything lands at t=0 (still deterministic).
  void set_clock(const SimClock* clock) noexcept { clock_ = clock; }
  /// Ring buffer frozen when an alert fires; null disables journey capture.
  void set_flight_recorder(FlightRecorder* recorder) noexcept { flight_ = recorder; }
  [[nodiscard]] FlightRecorder* flight_recorder() const noexcept { return flight_; }
  /// Pre-resolve the monitor's own registry handles (hot-path rule: no
  /// name lookups per packet). Null detaches.
  void attach_metrics(MetricsRegistry* registry);
  /// Active trace context (the Telemetry bundle's; see obs::TraceScope).
  /// Events emitted while it is valid carry its trace id.
  void set_trace_context(const TraceContext* context) noexcept {
    trace_ctx_ = context;
  }
  /// Time-series store to tick from the packet hot path (cadence-gated;
  /// needs attach_metrics for the registry to sample). Null disables.
  void set_series_store(TimeSeriesStore* store) noexcept { series_ = store; }
  /// Account wall nanoseconds spent observing packets (the telemetry
  /// self-overhead the obs_overhead bench measures): on_packet and on_batch
  /// time themselves, and on_batch adds the pipeline's per-packet tally
  /// time; hook_calls counts observed packets either way. Off by default —
  /// the clock reads are themselves overhead.
  void set_overhead_accounting(bool enabled) noexcept { account_overhead_ = enabled; }
  [[nodiscard]] std::uint64_t hook_ns() const noexcept { return hook_ns_; }
  [[nodiscard]] std::uint64_t hook_calls() const noexcept { return hook_calls_; }

  // --- lifecycle feed (update engine) ------------------------------------
  void program_deployed(ProgramId id, std::string_view name, std::uint64_t entries);
  void program_revoked(ProgramId id);

  // --- transaction feed (controller) --------------------------------------
  /// A deploy transaction committed (program fully visible) / rolled back
  /// (journal unwound; `reason` is the aborting error). Health slots are
  /// untouched — a rollback leaves no trace in per-program state, by design.
  void txn_committed(ProgramId id, std::string_view name);
  void txn_rolled_back(ProgramId id, std::string_view name, std::string_view reason);

  /// A chain transaction committed on every hop of an N-hop switch chain /
  /// rolled back chain-wide. `faulted_hop` is the hop whose control-channel
  /// write (or reservation) aborted the transaction, or -1 when the abort
  /// happened before any hop was named (e.g. compile failure).
  void chain_txn_committed(ProgramId id, std::string_view name, int hops);
  void chain_txn_rolled_back(ProgramId id, std::string_view name, int hops,
                             int faulted_hop, std::string_view reason);

  // --- admission / defrag feed (controller) -------------------------------
  /// The admission controller shed a session for `tenant` (queue at its
  /// bound): the session returned AdmissionShed instead of queuing.
  void admission_shed(std::uint32_t tenant, std::string_view name,
                      std::string_view reason);
  /// The defrag pass migrated a program: the copy `new_id` committed and the
  /// old copy `old_id` was retired, reclaiming `frag_before - frag_after`
  /// fragmentation words.
  void defrag_moved(ProgramId old_id, ProgramId new_id, std::string_view name,
                    std::uint64_t frag_before, std::uint64_t frag_after);

  // --- occupancy feed (resource manager) ---------------------------------
  /// Report one stage's table-entry occupancy after it changed; evaluates
  /// the StageOccupancy rules.
  void on_stage_occupancy(int rpb, std::uint32_t used, std::uint32_t capacity);

  // --- anomaly feed (time-series detector) --------------------------------
  /// An anomaly detector tripped on `series` (TimeSeriesStore's EWMA /
  /// z-score watches): emit one Alert event carrying the series name and
  /// freeze the flight recorder. Edge triggering is the detector's job —
  /// every call here produces exactly one event.
  void series_alert(std::string_view series, std::string_view rule, double value,
                    double threshold);

  // --- alert rules --------------------------------------------------------
  void add_rule(AlertRule rule);
  void clear_rules();
  [[nodiscard]] const std::vector<AlertRule>& rules() const noexcept { return rules_; }

  // --- rmt::PacketObserver ------------------------------------------------
  [[nodiscard]] bool sample_packet() override {
    return flight_ != nullptr && flight_->want_sample();
  }
  /// One packet: the one-packet case of on_batch's fold, plus journey
  /// capture for traced packets.
  void on_packet(const rmt::PacketObservation& obs) override;
  /// A batch's tallies: each program folds once, then its rules run once;
  /// one time-series tick per batch.
  void on_batch(const rmt::BatchObservation& batch) override;
  [[nodiscard]] bool accounting_overhead() const override { return account_overhead_; }

  // --- queries ------------------------------------------------------------
  /// Health of one program; null when the id was never seen. Slot 0 is the
  /// unclaimed-traffic bucket.
  [[nodiscard]] const ProgramHealth* health(ProgramId id) const;
  /// Ids with any recorded state (deployed and/or attributed traffic),
  /// ascending; includes 0 when unclaimed traffic was seen.
  [[nodiscard]] std::vector<ProgramId> known_programs() const;

  /// Rolling-window estimators for one program at the current virtual time.
  [[nodiscard]] double packet_rate(ProgramId id) const;
  [[nodiscard]] double recirc_rate(ProgramId id) const;
  [[nodiscard]] double drop_rate(ProgramId id) const;
  [[nodiscard]] double recirc_per_packet(ProgramId id) const;
  [[nodiscard]] double drop_fraction(ProgramId id) const;

  [[nodiscard]] const std::deque<MonitorEvent>& events() const noexcept { return events_; }
  [[nodiscard]] std::uint64_t events_dropped() const noexcept { return events_dropped_; }
  [[nodiscard]] std::uint64_t alerts_fired() const noexcept { return alerts_fired_; }
  [[nodiscard]] std::uint64_t packets_observed() const noexcept { return packets_observed_; }
  [[nodiscard]] double now_ms() const noexcept {
    return clock_ != nullptr ? clock_->now_ms() : 0.0;
  }

  /// Drop all state (programs, rules, events); keeps clock, recorder and
  /// registry attachments.
  void clear();

 private:
  struct Slot {
    ProgramHealth health;
    RateWindow packets_w;
    RateWindow recirc_w;
    RateWindow drops_w;
    std::vector<bool> fired;  ///< per-rule disarm state (edge triggering)

    explicit Slot(const Config& config)
        : packets_w(config.window_bucket_ns, config.window_buckets),
          recirc_w(config.window_bucket_ns, config.window_buckets),
          drops_w(config.window_bucket_ns, config.window_buckets) {}
  };

  [[nodiscard]] Slot& slot(ProgramId id);
  [[nodiscard]] const Slot* find_slot(ProgramId id) const;
  [[nodiscard]] SimClock::Nanos now_ns() const noexcept {
    return clock_ != nullptr ? clock_->now_ns() : 0;
  }
  /// Add one program's packets to its counters, windows and the
  /// packets-observed totals.
  Slot& fold(ProgramId id, const rmt::ProgramTally& tally, SimClock::Nanos now);
  void tick_series(SimClock::Nanos now);
  [[nodiscard]] double rule_value(const AlertRule& rule, const Slot& s,
                                  SimClock::Nanos now) const;
  void evaluate_rules(ProgramId id, Slot& s);
  void fire_alert(const AlertRule& rule, std::size_t rule_index, ProgramId id,
                  std::string_view name, double value, int rpb);
  void push_event(MonitorEvent event);

  Config config_;
  const SimClock* clock_ = nullptr;
  FlightRecorder* flight_ = nullptr;
  const TraceContext* trace_ctx_ = nullptr;
  TimeSeriesStore* series_ = nullptr;
  MetricsRegistry* registry_ = nullptr;
  bool account_overhead_ = false;
  std::uint64_t hook_ns_ = 0;
  std::uint64_t hook_calls_ = 0;
  /// Trace id of the table state the most recent packet executed against
  /// (alerts fired from the packet path inherit it).
  std::uint64_t last_table_trace_ = 0;
  std::vector<Slot> slots_;  ///< indexed by ProgramId (dense, ids are small)
  std::vector<AlertRule> rules_;
  struct StageState {
    std::uint32_t used = 0;
    std::uint32_t capacity = 0;
    std::vector<bool> fired;
  };
  std::vector<StageState> stages_;  ///< indexed by physical RPB id
  std::deque<MonitorEvent> events_;
  std::uint64_t next_event_seq_ = 0;
  std::uint64_t events_dropped_ = 0;
  std::uint64_t alerts_fired_ = 0;
  std::uint64_t packets_observed_ = 0;
  // Cached registry handles (resolved once in attach_metrics).
  Counter* packets_counter_ = nullptr;
  Counter* alerts_counter_ = nullptr;
};

/// JSONL export of the monitor's event stream (lifecycle + alerts), oldest
/// first. Deterministic for identical monitor contents.
void export_alerts_jsonl(const ProgramHealthMonitor& monitor, std::ostream& out);

}  // namespace p4runpro::obs
