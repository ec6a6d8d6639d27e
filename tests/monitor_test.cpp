// Tests for the per-program data-plane health monitor and the packet
// flight recorder: rolling-window semantics, alert edge-triggering,
// ring/freeze behavior, the end-to-end multi-program scenario (two
// deployed programs, attributed traffic, a recirculation alert that fires
// for the offending program only and freezes the journey ring), and the
// batch fold: inject_batch and per-packet inject leave the monitor in the
// same state.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/program_library.h"
#include "common/clock.h"
#include "common/rng.h"
#include "control/controller.h"
#include "control/inspect.h"
#include "dataplane/runpro_dataplane.h"
#include "obs/monitor.h"
#include "obs/telemetry.h"

namespace p4runpro {
namespace {

// ------------------------------------------------------------ RateWindow

TEST(RateWindow, SumCoversOnlyTheWindow) {
  // 10 ms buckets, 4 buckets -> 40 ms window.
  obs::RateWindow w(10'000'000, 4);
  SimClock::Nanos t = 0;
  w.add(t, 3);
  EXPECT_EQ(w.sum(t), 3u);

  t += 15'000'000;  // 15 ms: still inside the window
  w.add(t, 2);
  EXPECT_EQ(w.sum(t), 5u);

  t += 30'000'000;  // 45 ms: the first bucket has aged out
  EXPECT_EQ(w.sum(t), 2u);

  t += 100'000'000;  // far future: everything aged out
  EXPECT_EQ(w.sum(t), 0u);
}

TEST(RateWindow, SlotReuseDropsStaleCounts) {
  obs::RateWindow w(1'000'000, 2);  // 1 ms buckets, 2 slots
  w.add(0, 7);
  // 5 ms later the same physical slot is reused for a new bucket index;
  // the stale count must not leak into the new bucket.
  w.add(4'000'000, 1);
  EXPECT_EQ(w.sum(4'000'000), 1u);
}

TEST(RateWindow, PerSecondScalesBySpan) {
  obs::RateWindow w(10'000'000, 10);  // 100 ms window
  w.add(0, 50);
  EXPECT_DOUBLE_EQ(w.per_second(0), 500.0);  // 50 events / 0.1 s
}

// -------------------------------------------------------- FlightRecorder

obs::PacketJourney journey(std::uint64_t seq) {
  obs::PacketJourney j;
  j.seq = seq;
  return j;
}

TEST(FlightRecorder, RingEvictsOldestWhenFull) {
  obs::FlightRecorder rec(3);
  for (std::uint64_t i = 0; i < 5; ++i) rec.record(journey(i));
  ASSERT_EQ(rec.journeys().size(), 3u);
  EXPECT_EQ(rec.journeys().front().seq, 2u);
  EXPECT_EQ(rec.journeys().back().seq, 4u);
  EXPECT_EQ(rec.recorded(), 5u);
}

TEST(FlightRecorder, SamplingIsOneInN) {
  obs::FlightRecorder rec;
  rec.set_sample_every(3);
  int sampled = 0;
  for (int i = 0; i < 9; ++i) sampled += rec.want_sample() ? 1 : 0;
  EXPECT_EQ(sampled, 3);

  // Disabled by default: a fresh recorder never samples.
  obs::FlightRecorder off;
  EXPECT_FALSE(off.want_sample());
}

TEST(FlightRecorder, FirstFreezeSticksAndThawResumes) {
  obs::FlightRecorder rec(4);
  rec.set_sample_every(1);
  rec.record(journey(1));
  rec.freeze("rule-a", 10.0);
  rec.freeze("rule-b", 20.0);  // ignored: the first anomaly wins
  EXPECT_TRUE(rec.frozen());
  EXPECT_EQ(rec.freeze_reason(), "rule-a");
  EXPECT_DOUBLE_EQ(rec.frozen_at_ms(), 10.0);

  // Frozen: no sampling, no recording.
  EXPECT_FALSE(rec.want_sample());
  rec.record(journey(2));
  EXPECT_EQ(rec.journeys().size(), 1u);

  rec.thaw();
  rec.record(journey(3));
  EXPECT_EQ(rec.journeys().size(), 2u);
}

// ------------------------------------------------- monitor unit behavior

rmt::PacketObservation observation(ProgramId program, rmt::PacketFate fate,
                                   int recirc = 0) {
  rmt::PacketObservation obs;
  obs.program = program;
  obs.fate = fate;
  obs.recirc_passes = recirc;
  return obs;
}

TEST(Monitor, LifecycleEventsAndCounterReset) {
  SimClock clock;
  obs::ProgramHealthMonitor monitor;
  monitor.set_clock(&clock);

  monitor.program_deployed(1, "alpha", 12);
  monitor.on_packet(observation(1, rmt::PacketFate::Forwarded));
  clock.advance_ms(5);
  monitor.program_revoked(1);

  const obs::ProgramHealth* h = monitor.health(1);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->name, "alpha");
  EXPECT_FALSE(h->active);
  EXPECT_EQ(h->packets, 1u);
  EXPECT_DOUBLE_EQ(h->revoked_at_ms, 5.0);

  // Ids are recycled: a redeploy under the same id starts fresh.
  monitor.program_deployed(1, "beta", 7);
  EXPECT_EQ(monitor.health(1)->packets, 0u);
  EXPECT_EQ(monitor.health(1)->name, "beta");
  EXPECT_TRUE(monitor.health(1)->active);

  ASSERT_EQ(monitor.events().size(), 3u);
  EXPECT_EQ(monitor.events()[0].kind, obs::MonitorEvent::Kind::Deploy);
  EXPECT_EQ(monitor.events()[0].entries, 12u);
  EXPECT_EQ(monitor.events()[1].kind, obs::MonitorEvent::Kind::Revoke);
  EXPECT_DOUBLE_EQ(monitor.events()[1].t_ms, 5.0);
  EXPECT_EQ(monitor.events()[2].kind, obs::MonitorEvent::Kind::Deploy);
}

TEST(Monitor, AlertsAreEdgeTriggeredPerProgram) {
  SimClock clock;
  obs::ProgramHealthMonitor monitor;
  monitor.set_clock(&clock);
  monitor.program_deployed(1, "p", 1);
  monitor.add_rule({"high-drops", obs::AlertKind::DropFraction, 0.5});

  // First drop: fraction 1.0 >= 0.5 -> one alert.
  monitor.on_packet(observation(1, rmt::PacketFate::Dropped));
  EXPECT_EQ(monitor.alerts_fired(), 1u);
  // Fraction 0.5 stays at the threshold: still disarmed, no refire.
  monitor.on_packet(observation(1, rmt::PacketFate::Forwarded));
  EXPECT_EQ(monitor.alerts_fired(), 1u);
  // Fraction 1/3 < 0.5 rearms the rule ...
  monitor.on_packet(observation(1, rmt::PacketFate::Forwarded));
  // ... so crossing again fires a second alert (2 drops / 4 packets).
  monitor.on_packet(observation(1, rmt::PacketFate::Dropped));
  EXPECT_EQ(monitor.alerts_fired(), 2u);

  // A different program is independently armed.
  monitor.program_deployed(2, "q", 1);
  monitor.on_packet(observation(2, rmt::PacketFate::Dropped));
  EXPECT_EQ(monitor.alerts_fired(), 3u);
}

TEST(Monitor, ProgramScopedRuleIgnoresOtherPrograms) {
  obs::ProgramHealthMonitor monitor;
  monitor.program_deployed(1, "p", 1);
  monitor.program_deployed(2, "q", 1);
  obs::AlertRule rule{"p-only", obs::AlertKind::DropFraction, 0.5};
  rule.program = 1;
  monitor.add_rule(rule);

  monitor.on_packet(observation(2, rmt::PacketFate::Dropped));
  EXPECT_EQ(monitor.alerts_fired(), 0u);
  monitor.on_packet(observation(1, rmt::PacketFate::Dropped));
  EXPECT_EQ(monitor.alerts_fired(), 1u);
}

TEST(Monitor, StageOccupancyWatermark) {
  obs::ProgramHealthMonitor monitor;
  obs::AlertRule rule{"stage-full", obs::AlertKind::StageOccupancy, 0.8};
  monitor.add_rule(rule);

  monitor.on_stage_occupancy(3, 70, 100);
  EXPECT_EQ(monitor.alerts_fired(), 0u);
  monitor.on_stage_occupancy(3, 85, 100);
  EXPECT_EQ(monitor.alerts_fired(), 1u);
  monitor.on_stage_occupancy(3, 95, 100);  // still above: edge-triggered
  EXPECT_EQ(monitor.alerts_fired(), 1u);
  monitor.on_stage_occupancy(3, 10, 100);  // rearm
  monitor.on_stage_occupancy(3, 90, 100);
  EXPECT_EQ(monitor.alerts_fired(), 2u);

  const auto& alert = monitor.events().back();
  EXPECT_EQ(alert.kind, obs::MonitorEvent::Kind::Alert);
  EXPECT_EQ(alert.rpb, 3);
  EXPECT_DOUBLE_EQ(alert.value, 0.9);
}

TEST(Monitor, MetricHandlesStayLiveAcrossBundleClear) {
  obs::Telemetry telemetry;
  telemetry.monitor.on_packet(observation(0, rmt::PacketFate::Forwarded));
  EXPECT_EQ(telemetry.metrics.counter("obs.monitor.packets").value(), 1u);
  telemetry.clear();
  // The cached handle was re-resolved against the fresh registry.
  telemetry.monitor.on_packet(observation(0, rmt::PacketFate::Forwarded));
  EXPECT_EQ(telemetry.metrics.counter("obs.monitor.packets").value(), 1u);
}

// --------------------------------------------- causal trace attribution

TEST(Monitor, ControlPathEventsInheritTheActiveTraceContext) {
  obs::Telemetry telemetry;
  std::uint64_t minted = 0;
  {
    obs::TraceScope trace(&telemetry);
    minted = trace.trace_id();
    telemetry.monitor.program_deployed(1, "cache", 12);
    telemetry.monitor.txn_committed(1, "cache");
  }
  // Outside any scope: no trace to inherit.
  telemetry.monitor.program_revoked(1);

  const auto& events = telemetry.monitor.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].trace, minted);
  EXPECT_EQ(events[1].trace, minted);
  EXPECT_EQ(events[2].trace, 0u);

  std::ostringstream out;
  export_alerts_jsonl(telemetry.monitor, out);
  const std::string jsonl = out.str();
  EXPECT_NE(jsonl.find("\"trace\":\"" + obs::format_trace_id(minted) + "\""),
            std::string::npos)
      << jsonl;
}

TEST(Monitor, PacketPathAlertsInheritTheTableStateTrace) {
  obs::Telemetry telemetry;
  telemetry.monitor.add_rule(
      {"drop-storm", obs::AlertKind::DropFraction, 0.5});
  telemetry.monitor.program_deployed(1, "cache", 4);

  // The packet executed against table state installed by traced op 77; the
  // alert it trips is attributed to that operation, not to whatever control
  // context happens to be active.
  auto obs = observation(1, rmt::PacketFate::Dropped);
  obs.table_trace = 77;
  obs.table_generation = 3;
  telemetry.monitor.on_packet(obs);
  ASSERT_EQ(telemetry.monitor.alerts_fired(), 1u);

  const auto& events = telemetry.monitor.events();
  const auto& alert = events.back();
  ASSERT_EQ(alert.kind, obs::MonitorEvent::Kind::Alert);
  EXPECT_EQ(alert.trace, 77u);
  EXPECT_TRUE(alert.series.empty());  // threshold alert, not an anomaly

  std::ostringstream out;
  export_alerts_jsonl(telemetry.monitor, out);
  EXPECT_NE(out.str().find("\"trace\":\"" + obs::format_trace_id(77) + "\""),
            std::string::npos);
  // Non-anomaly alerts emit no empty "series" field.
  EXPECT_EQ(out.str().find("\"series\""), std::string::npos);
}

TEST(Monitor, SeriesAlertCarriesSeriesFreezesFlightAndExports) {
  obs::Telemetry telemetry;
  // A packet stamped the table-state trace; the later anomaly inherits it.
  auto obs = observation(0, rmt::PacketFate::Forwarded);
  obs.table_trace = 9;
  telemetry.monitor.on_packet(obs);

  telemetry.monitor.series_alert("rmt.packets.rate", "anomaly.z_score",
                                 120.5, 40.0);
  EXPECT_EQ(telemetry.monitor.alerts_fired(), 1u);
  EXPECT_TRUE(telemetry.flight.frozen());
  EXPECT_EQ(telemetry.flight.freeze_reason(), "anomaly.z_score");

  const auto& alert = telemetry.monitor.events().back();
  EXPECT_EQ(alert.kind, obs::MonitorEvent::Kind::Alert);
  EXPECT_EQ(alert.series, "rmt.packets.rate");
  EXPECT_EQ(alert.trace, 9u);
  EXPECT_DOUBLE_EQ(alert.value, 120.5);
  EXPECT_DOUBLE_EQ(alert.threshold, 40.0);

  std::ostringstream out;
  export_alerts_jsonl(telemetry.monitor, out);
  const std::string jsonl = out.str();
  EXPECT_NE(jsonl.find("\"rule\":\"anomaly.z_score\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"series\":\"rmt.packets.rate\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"trace\":\"" + obs::format_trace_id(9) + "\""),
            std::string::npos);
}

TEST(Monitor, OverheadAccountingCountsHookCalls) {
  obs::Telemetry telemetry;
  // Off by default: the two clock reads per packet are themselves overhead.
  telemetry.monitor.on_packet(observation(0, rmt::PacketFate::Forwarded));
  EXPECT_EQ(telemetry.monitor.hook_calls(), 0u);

  telemetry.monitor.set_overhead_accounting(true);
  for (int i = 0; i < 5; ++i) {
    telemetry.monitor.on_packet(observation(0, rmt::PacketFate::Forwarded));
  }
  EXPECT_EQ(telemetry.monitor.hook_calls(), 5u);
  // Wall time is machine-dependent; only its presence is asserted via the
  // self-probe the registry exposes.
  EXPECT_DOUBLE_EQ(telemetry.metrics.gauge_value("obs.self.monitor_hook_calls"),
                   5.0);
}

// ------------------------------------------- end-to-end scenario harness

rmt::Packet cache_packet() {
  rmt::Packet pkt;
  // src outside 10/8 so only the cache program's port filter matches.
  pkt.ipv4 = rmt::Ipv4Header{.src = 0x0b000001, .dst = 0x0b000002, .proto = 17};
  pkt.udp = rmt::UdpHeader{4000, 7777};
  pkt.app = rmt::AppHeader{1, 0x8888, 0, 0};
  pkt.ingress_port = 5;
  return pkt;
}

rmt::Packet hh_packet() {
  rmt::Packet pkt;
  // src inside 10/8: claimed by the heavy-hitter program (which
  // recirculates every packet for its Bloom-filter walk).
  pkt.ipv4 = rmt::Ipv4Header{.src = 0x0a000010, .dst = 0x0b000001, .proto = 17};
  pkt.udp = rmt::UdpHeader{5000, 6000};
  pkt.ingress_port = 1;
  return pkt;
}

rmt::Packet unclaimed_packet() {
  rmt::Packet pkt;
  pkt.ipv4 = rmt::Ipv4Header{.src = 0x0c000001, .dst = 0x0c000002, .proto = 17};
  pkt.udp = rmt::UdpHeader{1, 2};
  pkt.ingress_port = 9;
  return pkt;
}

/// One full run of the multi-program scenario against a private telemetry
/// bundle: deploy cache + hh, configure a recirculation alert, drive mixed
/// traffic. Returns the JSONL dumps so runs can be compared byte-for-byte.
struct ScenarioResult {
  ProgramId cache_id = 0;
  ProgramId hh_id = 0;
  std::uint64_t packets_in = 0;
  std::string alerts;
  std::string flight;
  std::string dashboard;
};

ScenarioResult run_scenario(obs::Telemetry& telemetry) {
  SimClock clock;
  dp::RunproDataplane dataplane(dp::DataplaneSpec{}, rmt::ParserConfig{{7777}});
  ctrl::Controller controller(dataplane, clock, {}, {}, &telemetry);
  controller.set_fixed_alloc_charge_ms(1.0);  // virtual-time determinism

  telemetry.flight.set_sample_every(1);
  obs::AlertRule rule{"recirc-storm", obs::AlertKind::RecircPerPacket, 0.5};
  telemetry.monitor.add_rule(rule);

  apps::ProgramConfig cache_config;
  cache_config.instance_name = "cache";
  auto cache = controller.link_single(apps::make_program_source("cache", cache_config));
  EXPECT_TRUE(cache.ok()) << cache.error().message;
  apps::ProgramConfig hh_config;
  hh_config.instance_name = "hh";
  auto hh = controller.link_single(apps::make_program_source("hh", hh_config));
  EXPECT_TRUE(hh.ok()) << hh.error().message;

  // Cache traffic first (well-behaved, no recirculation), then the
  // recirculating heavy-hitter traffic that trips the alert, then traffic
  // no program claims.
  for (int i = 0; i < 10; ++i) (void)dataplane.inject(cache_packet());
  for (int i = 0; i < 6; ++i) (void)dataplane.inject(hh_packet());
  for (int i = 0; i < 4; ++i) (void)dataplane.inject(unclaimed_packet());

  ScenarioResult result;
  result.cache_id = cache.value().id;
  result.hh_id = hh.value().id;
  result.packets_in = dataplane.pipeline().packets_in();
  std::ostringstream alerts, flight;
  export_alerts_jsonl(telemetry.monitor, alerts);
  export_flight_jsonl(telemetry.flight, flight);
  result.alerts = alerts.str();
  result.flight = flight.str();
  result.dashboard = ctrl::health_report(telemetry);
  return result;
}

TEST(MonitorScenario, AttributionAlertAndFlightDump) {
  obs::Telemetry telemetry;
  const ScenarioResult result = run_scenario(telemetry);
  const obs::ProgramHealthMonitor& monitor = telemetry.monitor;

  // Every injected packet was observed and attributed to exactly one
  // program slot (slot 0 collects the unclaimed traffic).
  EXPECT_EQ(monitor.packets_observed(), result.packets_in);
  std::uint64_t attributed = 0;
  for (ProgramId id : monitor.known_programs()) {
    attributed += monitor.health(id)->packets;
  }
  EXPECT_EQ(attributed, result.packets_in);

  const obs::ProgramHealth* cache = monitor.health(result.cache_id);
  const obs::ProgramHealth* hh = monitor.health(result.hh_id);
  const obs::ProgramHealth* unclaimed = monitor.health(0);
  ASSERT_NE(cache, nullptr);
  ASSERT_NE(hh, nullptr);
  ASSERT_NE(unclaimed, nullptr);
  EXPECT_EQ(cache->packets, 10u);
  EXPECT_EQ(hh->packets, 6u);
  EXPECT_EQ(unclaimed->packets, 4u);
  // The claiming program's entries did the work: hits and stateful
  // updates land on the right slot, recirculation only on hh.
  EXPECT_GT(cache->table_hits, 0u);
  EXPECT_GT(cache->salu_updates, 0u);
  EXPECT_EQ(cache->recirc_passes, 0u);
  EXPECT_GE(hh->recirc_passes, hh->packets);
  EXPECT_EQ(unclaimed->table_hits, 0u);

  // The recirculation alert fired exactly once, for hh only.
  EXPECT_EQ(monitor.alerts_fired(), 1u);
  int alert_count = 0;
  for (const auto& event : monitor.events()) {
    if (event.kind != obs::MonitorEvent::Kind::Alert) continue;
    ++alert_count;
    EXPECT_EQ(event.program, result.hh_id);
    EXPECT_EQ(event.rule, "recirc-storm");
    EXPECT_GE(event.value, 0.5);
  }
  EXPECT_EQ(alert_count, 1);

  // The alert froze the flight recorder; the frozen ring holds the
  // journeys leading up to the anomaly, newest being the offender.
  const obs::FlightRecorder& flight = telemetry.flight;
  EXPECT_TRUE(flight.frozen());
  EXPECT_EQ(flight.freeze_reason(), "recirc-storm");
  ASSERT_FALSE(flight.journeys().empty());
  EXPECT_EQ(flight.journeys().back().program, result.hh_id);
  EXPECT_GT(flight.journeys().back().recirc_passes, 0);
  bool saw_hh_events = false;
  for (const auto& j : flight.journeys()) {
    if (j.program == result.hh_id && !j.events.empty()) saw_hh_events = true;
  }
  EXPECT_TRUE(saw_hh_events);

  // Dumps reflect the same story.
  EXPECT_NE(result.alerts.find("\"kind\":\"deploy\",\"program\":1,\"name\":\"cache\""),
            std::string::npos)
      << result.alerts;
  EXPECT_NE(result.alerts.find("\"rule\":\"recirc-storm\""), std::string::npos);
  EXPECT_NE(result.flight.find("\"frozen\":true"), std::string::npos);
  EXPECT_NE(result.flight.find("\"reason\":\"recirc-storm\""), std::string::npos);
  EXPECT_NE(result.flight.find("\"name\":\"hh\""), std::string::npos);

  // The operator dashboard renders all three rows and the freeze.
  EXPECT_NE(result.dashboard.find("cache"), std::string::npos) << result.dashboard;
  EXPECT_NE(result.dashboard.find("hh"), std::string::npos);
  EXPECT_NE(result.dashboard.find("(unclaimed)"), std::string::npos);
  EXPECT_NE(result.dashboard.find("FROZEN"), std::string::npos);
  EXPECT_NE(result.dashboard.find("ALERT"), std::string::npos);
}

TEST(MonitorScenario, IdenticalRunsProduceIdenticalDumps) {
  obs::Telemetry first_bundle, second_bundle;
  const ScenarioResult first = run_scenario(first_bundle);
  const ScenarioResult second = run_scenario(second_bundle);
  EXPECT_EQ(first.alerts, second.alerts);
  EXPECT_EQ(first.flight, second.flight);
  EXPECT_EQ(first.dashboard, second.dashboard);
  EXPECT_FALSE(first.alerts.empty());
  EXPECT_FALSE(first.flight.empty());
}

TEST(MonitorScenario, RevokeShowsUpInStreamAndHealth) {
  obs::Telemetry telemetry;
  SimClock clock;
  dp::RunproDataplane dataplane(dp::DataplaneSpec{}, rmt::ParserConfig{{7777}});
  ctrl::Controller controller(dataplane, clock, {}, {}, &telemetry);

  apps::ProgramConfig config;
  config.instance_name = "cache";
  auto linked = controller.link_single(apps::make_program_source("cache", config));
  ASSERT_TRUE(linked.ok());
  (void)dataplane.inject(cache_packet());
  ASSERT_TRUE(controller.revoke(linked.value().id).ok());

  const obs::ProgramHealth* h = telemetry.monitor.health(linked.value().id);
  ASSERT_NE(h, nullptr);
  EXPECT_FALSE(h->active);
  EXPECT_EQ(h->packets, 1u);  // history survives the revoke
  bool saw_revoke = false;
  for (const auto& event : telemetry.monitor.events()) {
    if (event.kind == obs::MonitorEvent::Kind::Revoke &&
        event.program == linked.value().id) {
      saw_revoke = true;
    }
  }
  EXPECT_TRUE(saw_revoke);

  // Traffic after the revoke is unclaimed again.
  (void)dataplane.inject(cache_packet());
  EXPECT_EQ(h->packets, 1u);
  EXPECT_EQ(telemetry.monitor.health(0)->packets, 1u);
}


// ------------------------------------------------ batch-native observation

/// One switch with cache (drops cache writes), hh (recirculates every
/// packet, reports heavy hitters) and lb linked, observed by its own
/// telemetry bundle. Two beds built alike get the same program ids.
struct ObservedBed {
  obs::Telemetry telemetry;
  SimClock clock;
  dp::RunproDataplane dataplane{dp::DataplaneSpec{}, rmt::ParserConfig{{7777}}};
  ctrl::Controller controller{dataplane, clock, rp::Objective{}, ctrl::BfrtCostModel{},
                              &telemetry};

  ObservedBed() {
    controller.set_fixed_alloc_charge_ms(1.0);
    link("cache", 0);
    link("hh", 0x0a000000u);  // src 10.0/16
    link("lb", 0x0a020000u);  // dst 10.2/16
  }

  void link(const char* key, Word filter) {
    apps::ProgramConfig config;
    config.instance_name = key;
    config.filter_value = filter;
    config.threshold = 16;  // hh: a few flows cross it and get reported
    const auto linked = controller.link_single(apps::make_program_source(key, config));
    ASSERT_TRUE(linked.ok()) << linked.error().message;
  }
};

/// Seeded mix: cache reads, writes (dropped) and misses; a handful of hh
/// flows; lb traffic; and packets no program claims.
std::vector<rmt::Packet> seeded_trace(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<rmt::Packet> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    rmt::Packet pkt;
    pkt.ingress_port = static_cast<Port>(rng.uniform(16));
    const auto host = static_cast<Word>(rng.uniform(64));
    const double draw = rng.uniform01();
    if (draw < 0.3) {
      pkt.ipv4 = rmt::Ipv4Header{.src = 0x0b000000u | host, .dst = 0x0b010001u, .proto = 17};
      pkt.udp = rmt::UdpHeader{4000, 7777};
      const auto op = static_cast<Word>(1 + rng.uniform(2));
      const Word key = rng.uniform(4) == 0 ? 0x1234u : 0x8888u;
      pkt.app = rmt::AppHeader{op, key, 0, 0};
    } else if (draw < 0.6) {
      pkt.ipv4 = rmt::Ipv4Header{
          .src = 0x0a000000u | static_cast<Word>(rng.uniform(8)), .dst = 0x0b000001u,
          .proto = 17};
      pkt.udp = rmt::UdpHeader{5000, 6000};
    } else if (draw < 0.85) {
      pkt.ipv4 = rmt::Ipv4Header{.src = 0x0c000000u | host, .dst = 0x0a020000u | host,
                                 .proto = 17};
      pkt.udp = rmt::UdpHeader{static_cast<std::uint16_t>(1000 + host), 80};
    } else {
      pkt.ipv4 = rmt::Ipv4Header{.src = 0x0c000000u | host, .dst = 0x0c010000u | host,
                                 .proto = 17};
      pkt.udp = rmt::UdpHeader{1, 2};
    }
    out.push_back(pkt);
  }
  return out;
}

constexpr std::size_t kParityBatch = 256;

/// Sends `trace` in batches of 256; returns the batches' summed drops
/// (Dropped + RecircLimit) and recirculation passes.
std::pair<std::uint64_t, std::uint64_t> inject_in_batches(
    ObservedBed& bed, const std::vector<rmt::Packet>& trace) {
  std::uint64_t drops = 0, recirc = 0;
  for (std::size_t at = 0; at < trace.size(); at += kParityBatch) {
    const std::size_t len = std::min(kParityBatch, trace.size() - at);
    const auto result =
        bed.dataplane.inject_batch(std::span<const rmt::Packet>(trace.data() + at, len));
    drops += result.dropped + result.recirc_limited;
    recirc += result.recirc_passes;
    (void)bed.dataplane.pipeline().drain_cpu_queue();
  }
  return {drops, recirc};
}

void inject_one_by_one(ObservedBed& bed, const std::vector<rmt::Packet>& trace) {
  for (std::size_t i = 0; i < trace.size(); ++i) {
    (void)bed.dataplane.inject(trace[i]);
    if (i % kParityBatch == kParityBatch - 1) {
      (void)bed.dataplane.pipeline().drain_cpu_queue();
    }
  }
}

std::vector<std::string> rendered(const std::vector<rmt::TraceEvent>& events) {
  std::vector<std::string> out;
  for (const auto& event : events) out.push_back(rmt::render_trace(event));
  return out;
}

/// The same seeded trace through inject_batch (batches of 256) and through
/// per-packet inject: the monitor must end up in the same state.
void expect_batch_parity(std::uint32_t sample_every) {
  ObservedBed batched, single;
  batched.telemetry.flight.set_sample_every(sample_every);
  single.telemetry.flight.set_sample_every(sample_every);
  const auto trace = seeded_trace(17, 4096);
  const auto [batch_drops, batch_recirc] = inject_in_batches(batched, trace);
  inject_one_by_one(single, trace);

  const obs::ProgramHealthMonitor& b = batched.telemetry.monitor;
  const obs::ProgramHealthMonitor& s = single.telemetry.monitor;
  EXPECT_EQ(b.packets_observed(), trace.size());
  EXPECT_EQ(b.packets_observed(), s.packets_observed());
  EXPECT_EQ(batched.telemetry.metrics.counter("obs.monitor.packets").value(),
            single.telemetry.metrics.counter("obs.monitor.packets").value());

  ASSERT_EQ(b.known_programs(), s.known_programs());
  std::uint64_t recirc = 0, drops = 0;
  for (const ProgramId id : s.known_programs()) {
    SCOPED_TRACE("program " + std::to_string(id));
    const obs::ProgramHealth& hb = *b.health(id);
    const obs::ProgramHealth& hs = *s.health(id);
    EXPECT_EQ(hb.packets, hs.packets);
    EXPECT_EQ(hb.table_hits, hs.table_hits);
    EXPECT_EQ(hb.table_misses, hs.table_misses);
    EXPECT_EQ(hb.salu_updates, hs.salu_updates);
    EXPECT_EQ(hb.recirc_passes, hs.recirc_passes);
    EXPECT_EQ(hb.drops, hs.drops);
    EXPECT_DOUBLE_EQ(b.packet_rate(id), s.packet_rate(id));
    EXPECT_DOUBLE_EQ(b.recirc_per_packet(id), s.recirc_per_packet(id));
    EXPECT_DOUBLE_EQ(b.drop_fraction(id), s.drop_fraction(id));
    recirc += hs.recirc_passes;
    drops += hs.drops;
  }
  // The trace exercises every tallied field, and the monitor's totals match
  // the pipeline's own batch counts, so a fold that loses one shows.
  EXPECT_GT(recirc, 0u);
  EXPECT_GT(drops, 0u);
  EXPECT_EQ(recirc, batch_recirc);
  EXPECT_EQ(drops, batch_drops);

  const auto& jb = batched.telemetry.flight.journeys();
  const auto& js = single.telemetry.flight.journeys();
  EXPECT_EQ(batched.telemetry.flight.recorded(), single.telemetry.flight.recorded());
  ASSERT_EQ(jb.size(), js.size());
  for (std::size_t i = 0; i < js.size(); ++i) {
    SCOPED_TRACE("journey " + std::to_string(i));
    EXPECT_EQ(jb[i].seq, js[i].seq);
    EXPECT_EQ(jb[i].program, js[i].program);
    EXPECT_EQ(jb[i].fate, js[i].fate);
    EXPECT_EQ(jb[i].recirc_passes, js[i].recirc_passes);
    EXPECT_EQ(rendered(jb[i].events), rendered(js[i].events));
  }
  if (sample_every != 0) {
    EXPECT_FALSE(js.empty());
  }
}

TEST(MonitorBatch, BatchAndPerPacketInjectAgree) { expect_batch_parity(0); }

TEST(MonitorBatch, BatchAndPerPacketInjectAgreeWithSampledJourneys) {
  expect_batch_parity(7);
}

rmt::Packet cache_write_packet() {
  rmt::Packet pkt = cache_packet();
  pkt.app->op = 2;  // cache write: the program drops it
  return pkt;
}

TEST(MonitorBatch, RuleCrossedMidBatchFiresOnceAtBatchEnd) {
  ObservedBed batched, single;
  for (ObservedBed* bed : {&batched, &single}) {
    bed->telemetry.monitor.add_rule({"drop-storm", obs::AlertKind::DropFraction, 0.25});
    // Only the first packet is sampled: it is a read, so the ring holds one
    // journey when the rule freezes it.
    bed->telemetry.flight.set_sample_every(1000);
  }
  // 30 reads then 30 writes: the drop fraction reaches 0.25 at the 10th
  // write and ends the batch at 0.5.
  std::vector<rmt::Packet> batch(30, cache_packet());
  batch.insert(batch.end(), 30, cache_write_packet());

  (void)batched.dataplane.inject_batch(batch);
  for (const auto& pkt : batch) (void)single.dataplane.inject(pkt);

  const obs::ProgramHealthMonitor& monitor = batched.telemetry.monitor;
  ASSERT_EQ(monitor.alerts_fired(), 1u);
  const obs::MonitorEvent& alert = monitor.events().back();
  ASSERT_EQ(alert.kind, obs::MonitorEvent::Kind::Alert);
  EXPECT_EQ(alert.rule, "drop-storm");
  EXPECT_DOUBLE_EQ(alert.value, 0.5);  // the batch's total, not the crossing
  EXPECT_TRUE(batched.telemetry.flight.frozen());
  EXPECT_EQ(batched.telemetry.flight.freeze_reason(), "drop-storm");
  EXPECT_EQ(batched.telemetry.flight.journeys().size(), 1u);

  // Per-packet inject fires at the crossing packet instead.
  ASSERT_EQ(single.telemetry.monitor.alerts_fired(), 1u);
  EXPECT_DOUBLE_EQ(single.telemetry.monitor.events().back().value, 0.25);

  // Edge-triggered per batch: the fraction stays at 0.5, no refire.
  (void)batched.dataplane.inject_batch(batch);
  EXPECT_EQ(monitor.alerts_fired(), 1u);
}

TEST(MonitorBatch, AccountingCountsEveryObservedPacket) {
  ObservedBed bed;
  bed.telemetry.flight.set_sample_every(7);
  bed.telemetry.monitor.set_overhead_accounting(true);
  const auto trace = seeded_trace(5, 1000);
  inject_in_batches(bed, trace);
  const obs::ProgramHealthMonitor& monitor = bed.telemetry.monitor;
  EXPECT_EQ(monitor.packets_observed(), trace.size());
  EXPECT_EQ(monitor.hook_calls(), monitor.packets_observed());
  EXPECT_DOUBLE_EQ(bed.telemetry.metrics.gauge_value("obs.self.monitor_hook_calls"),
                   static_cast<double>(trace.size()));

  // Off again: nothing more is counted.
  bed.telemetry.monitor.set_overhead_accounting(false);
  inject_in_batches(bed, trace);
  EXPECT_EQ(monitor.hook_calls(), trace.size());
}

/// Records what the pipeline hands an observer; samples every third packet.
class RecordingObserver final : public rmt::PacketObserver {
 public:
  bool sample_packet() override { return queries_++ % 3 == 0; }
  void on_packet(const rmt::PacketObservation& obs) override {
    ++packets_;
    if (obs.events != nullptr) ++traced_;
  }
  void on_batch(const rmt::BatchObservation& batch) override {
    ++batches_;
    last_programs_.assign(batch.programs.begin(), batch.programs.end());
    last_packets_ = batch.packets;
    last_sum_ = 0;
    for (const ProgramId id : batch.programs) last_sum_ += batch.tallies[id].packets;
    last_tally_ns_ = batch.tally_ns;
  }

  std::uint64_t queries_ = 0, packets_ = 0, traced_ = 0, batches_ = 0;
  std::vector<ProgramId> last_programs_;
  std::uint64_t last_packets_ = 0, last_sum_ = 0, last_tally_ns_ = 0;
};

TEST(MonitorBatch, SampledPacketsGoToOnPacketAndTheRestToOneOnBatch) {
  ObservedBed bed;
  RecordingObserver recorder;
  rmt::Pipeline& pipe = bed.dataplane.pipeline();
  pipe.set_observer(&recorder);
  const auto trace = seeded_trace(9, 60);

  (void)bed.dataplane.inject_batch(trace);
  EXPECT_EQ(recorder.queries_, 60u);  // one sampling query per packet
  EXPECT_EQ(recorder.packets_, 20u);  // every third packet
  EXPECT_EQ(recorder.traced_, 20u);   // ... with its events
  EXPECT_EQ(recorder.batches_, 1u);
  EXPECT_EQ(recorder.last_packets_, 40u);
  EXPECT_EQ(recorder.last_sum_, 40u);
  EXPECT_EQ(recorder.last_tally_ns_, 0u);  // the default observer does not account
  std::vector<ProgramId> unique = recorder.last_programs_;
  std::sort(unique.begin(), unique.end());
  EXPECT_EQ(std::unique(unique.begin(), unique.end()), unique.end());

  // The tallies reset between batches: the second one carries only its own.
  (void)bed.dataplane.inject_batch(std::span<const rmt::Packet>(trace.data(), 30));
  EXPECT_EQ(recorder.batches_, 2u);
  EXPECT_EQ(recorder.last_packets_, 20u);
  EXPECT_EQ(recorder.last_sum_, 20u);

  // Global tracing: every packet is traced, so every packet goes to
  // on_packet and nothing is left for on_batch.
  pipe.set_tracing(true);
  (void)bed.dataplane.inject_batch(trace);
  pipe.set_tracing(false);
  EXPECT_EQ(recorder.packets_, 20u + 10u + 60u);
  EXPECT_EQ(recorder.traced_, recorder.packets_);
  EXPECT_EQ(recorder.batches_, 2u);
}

}  // namespace
}  // namespace p4runpro
