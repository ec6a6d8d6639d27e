// Unit tests for the telemetry layer (src/obs/): histogram bucket
// boundaries and quantile extraction, span nesting/ordering under SimClock
// virtual time, probe lifecycle, and exporter determinism at the
// registry level.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/clock.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "obs/telemetry.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "obs/trace_context.h"

namespace p4runpro::obs {
namespace {

// ---------------------------------------------------------------- metrics

TEST(Metrics, CounterAndGaugeBasics) {
  MetricsRegistry registry;
  auto& c = registry.counter("a.count");
  c.inc();
  c.inc(4);
  EXPECT_EQ(registry.counter("a.count").value(), 5u);
  // Same name resolves to the same instance (stable references).
  EXPECT_EQ(&c, &registry.counter("a.count"));

  registry.gauge("a.gauge").set(2.5);
  registry.gauge("a.gauge").add(0.5);
  EXPECT_DOUBLE_EQ(registry.gauge_value("a.gauge"), 3.0);
  EXPECT_DOUBLE_EQ(registry.gauge_value("missing"), 0.0);
}

TEST(Metrics, HistogramBucketBoundaries) {
  const double bounds[] = {1.0, 2.0, 5.0};
  MetricsRegistry registry;
  auto& h = registry.histogram("h", bounds);

  // Upper bounds are inclusive: an observation equal to a bound lands in
  // that bound's bucket; the first value above the last bound overflows.
  h.observe(1.0);   // bucket le=1
  h.observe(1.5);   // bucket le=2
  h.observe(2.0);   // bucket le=2
  h.observe(5.0);   // bucket le=5
  h.observe(5.01);  // overflow
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 1u);
  EXPECT_EQ(h.bucket_counts()[1], 2u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 1.0 + 1.5 + 2.0 + 5.0 + 5.01);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 5.01);
}

TEST(Metrics, HistogramQuantiles) {
  const double bounds[] = {10.0, 20.0, 30.0, 40.0};
  MetricsRegistry registry;
  auto& h = registry.histogram("q", bounds);
  // 100 observations uniform over (0, 40]: quantiles interpolate inside
  // the crossing bucket and stay within one bucket width of exact.
  for (int i = 1; i <= 100; ++i) h.observe(i * 0.4);
  EXPECT_NEAR(h.quantile(0.5), 20.0, 10.0 + 1e-9);
  EXPECT_NEAR(h.quantile(0.9), 36.0, 10.0 + 1e-9);
  EXPECT_GE(h.quantile(0.9), h.quantile(0.5));
  EXPECT_GE(h.quantile(0.99), h.quantile(0.9));
  // Extremes clamp to the observed range.
  EXPECT_GE(h.quantile(0.0), h.min());
  EXPECT_LE(h.quantile(1.0), h.max());
  // Empty histogram: all quantiles are 0.
  EXPECT_DOUBLE_EQ(registry.histogram("empty", bounds).quantile(0.5), 0.0);
}

TEST(Metrics, EmptyHistogramQuantileIsZeroSentinelNeverNaN) {
  MetricsRegistry registry;
  auto& h = registry.histogram("empty.lat");
  for (double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.quantile(q), 0.0);
    EXPECT_FALSE(std::isnan(h.quantile(q)));
  }
  EXPECT_EQ(h.count(), 0u);  // the caller's cue that 0.0 means "no data"

  // The JSONL exporter skips empty histograms entirely — a 0-valued p50
  // would read as a measurement.
  registry.counter("keep").inc();
  std::ostringstream out;
  export_metrics_jsonl(registry, out);
  EXPECT_EQ(out.str().find("empty.lat"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("keep"), std::string::npos);

  // One observation and the histogram exports again.
  h.observe(2.5);
  std::ostringstream out2;
  export_metrics_jsonl(registry, out2);
  EXPECT_NE(out2.str().find("\"name\":\"empty.lat\",\"type\":\"histogram\""),
            std::string::npos);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.5);
}

TEST(Metrics, HistogramOverflowQuantileClampsToMax) {
  const double bounds[] = {1.0};
  MetricsRegistry registry;
  auto& h = registry.histogram("o", bounds);
  h.observe(100.0);
  h.observe(200.0);
  EXPECT_LE(h.quantile(0.99), 200.0);
  EXPECT_GE(h.quantile(0.99), 100.0);
}

TEST(Metrics, DefaultBoundsAreSane) {
  const auto time_bounds = Histogram::time_ms_bounds();
  ASSERT_FALSE(time_bounds.empty());
  EXPECT_DOUBLE_EQ(time_bounds.front(), 1e-3);  // 1 us in ms
  for (std::size_t i = 1; i < time_bounds.size(); ++i) {
    EXPECT_LT(time_bounds[i - 1], time_bounds[i]);
  }
  const auto count_bounds = Histogram::count_bounds();
  EXPECT_DOUBLE_EQ(count_bounds.front(), 1.0);
  EXPECT_DOUBLE_EQ(count_bounds.back(), 65536.0);
}

TEST(Metrics, ProbesSampleLiveAndFreezeOnUnregister) {
  MetricsRegistry registry;
  std::uint64_t packets = 0;
  const int owner = 0;
  registry.register_probe("p.packets", &owner,
                          [&] { return static_cast<double>(packets); });
  packets = 3;
  EXPECT_DOUBLE_EQ(registry.gauge_value("p.packets"), 3.0);
  packets = 9;
  EXPECT_DOUBLE_EQ(registry.gauge_value("p.packets"), 9.0);

  registry.unregister_probes(&owner);
  packets = 123;  // no longer sampled: the frozen gauge keeps the last value
  EXPECT_DOUBLE_EQ(registry.gauge_value("p.packets"), 9.0);
}

TEST(Metrics, ProbeReRegistrationIsLastOwnerWins) {
  MetricsRegistry registry;
  const int old_owner = 0, new_owner = 0;
  registry.register_probe("shared", &old_owner, [] { return 1.0; });
  registry.register_probe("shared", &new_owner, [] { return 2.0; });
  EXPECT_DOUBLE_EQ(registry.gauge_value("shared"), 2.0);
  // The old owner's teardown must not clobber the new registration.
  registry.unregister_probes(&old_owner);
  EXPECT_DOUBLE_EQ(registry.gauge_value("shared"), 2.0);
}

TEST(Metrics, JsonlExportIsValidAndDeterministic) {
  MetricsRegistry registry;
  registry.counter("z.counter").inc(2);
  registry.gauge("a.gauge").set(0.125);
  const double bounds[] = {1.0, 10.0};
  registry.histogram("m.hist", bounds).observe(0.5);
  registry.histogram("m.hist", bounds).observe(42.0);

  std::ostringstream first, second;
  export_metrics_jsonl(registry, first);
  export_metrics_jsonl(registry, second);
  EXPECT_EQ(first.str(), second.str());
  // One JSON object per line; counters come first, then gauges, then
  // histograms (each block sorted by name).
  EXPECT_NE(first.str().find("{\"name\":\"z.counter\",\"type\":\"counter\",\"value\":2}"),
            std::string::npos);
  EXPECT_NE(first.str().find("{\"name\":\"a.gauge\",\"type\":\"gauge\",\"value\":0.125}"),
            std::string::npos);
  EXPECT_NE(first.str().find("\"le\":\"+inf\",\"count\":1"), std::string::npos);
}

// ----------------------------------------------------------------- spans

TEST(Trace, NestingFollowsTheOpenSpanStack) {
  SimClock clock;
  SpanTracer tracer;
  tracer.set_clock(&clock);

  {
    auto root = tracer.span("link", "ctrl");
    clock.advance_ms(1);
    {
      auto child = tracer.span("solve", "ctrl");
      clock.advance_ms(2);
      auto grandchild = tracer.span("leaf");
      clock.advance_ms(1);
    }
    auto sibling = tracer.span("install", "ctrl");
    clock.advance_ms(3);
  }

  const auto& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);
  const auto root_idx = tracer.find("link");
  ASSERT_NE(root_idx, SpanTracer::kNoSpan);
  EXPECT_EQ(spans[root_idx].parent, -1);
  EXPECT_EQ(spans[root_idx].depth, 0);

  const auto solve_idx = tracer.find("solve");
  const auto leaf_idx = tracer.find("leaf");
  const auto install_idx = tracer.find("install");
  EXPECT_EQ(spans[solve_idx].parent, static_cast<std::ptrdiff_t>(root_idx));
  EXPECT_EQ(spans[leaf_idx].parent, static_cast<std::ptrdiff_t>(solve_idx));
  EXPECT_EQ(spans[leaf_idx].depth, 2);
  EXPECT_EQ(spans[install_idx].parent, static_cast<std::ptrdiff_t>(root_idx));

  const auto children = tracer.children_of(root_idx);
  ASSERT_EQ(children.size(), 2u);
  EXPECT_EQ(children[0], solve_idx);
  EXPECT_EQ(children[1], install_idx);

  // Virtual durations: leaf 1 ms inside solve 3 ms; children sum <= root.
  EXPECT_EQ(spans[leaf_idx].virtual_ns(), SimClock::Nanos{1'000'000});
  EXPECT_EQ(spans[solve_idx].virtual_ns(), SimClock::Nanos{3'000'000});
  EXPECT_EQ(spans[root_idx].virtual_ns(), SimClock::Nanos{7'000'000});
  EXPECT_LE(spans[solve_idx].virtual_ns() + spans[install_idx].virtual_ns(),
            spans[root_idx].virtual_ns());
  // Ordering: a child starts no earlier than its parent and ends no later.
  for (const auto idx : {solve_idx, leaf_idx, install_idx}) {
    const auto& child = spans[idx];
    const auto& parent = spans[static_cast<std::size_t>(child.parent)];
    EXPECT_GE(child.start_vns, parent.start_vns);
    EXPECT_LE(child.end_vns, parent.end_vns);
  }
}

TEST(Trace, OutOfOrderEndClosesOpenDescendants) {
  SimClock clock;
  SpanTracer tracer;
  tracer.set_clock(&clock);

  auto outer = tracer.span("outer");
  auto inner = tracer.span("inner");
  clock.advance_ms(1);
  outer.end();  // inner is still open: it gets closed at the same instant
  EXPECT_FALSE(tracer.spans()[tracer.find("inner")].open);
  EXPECT_EQ(tracer.spans()[tracer.find("inner")].end_vns,
            tracer.spans()[tracer.find("outer")].end_vns);
  inner.end();  // redundant end is a no-op
  EXPECT_EQ(tracer.spans().size(), 2u);
}

TEST(Trace, ScopeSurvivesTracerClear) {
  SimClock clock;
  SpanTracer tracer;
  tracer.set_clock(&clock);
  auto scope = tracer.span("stale");
  tracer.clear();
  scope.arg("k", std::uint64_t{1});  // must not touch the cleared vector
  scope.end();
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(Trace, CapacityCapCountsDrops) {
  SpanTracer tracer;
  tracer.set_capacity(2);
  auto a = tracer.span("a");
  auto b = tracer.span("b");
  auto c = tracer.span("c");  // dropped
  EXPECT_FALSE(c.active());
  c.end();
  EXPECT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.dropped(), 1u);
  // A retrospective record at capacity is dropped and counted the same way.
  EXPECT_TRUE(tracer.full());
  tracer.record_span("d", "bfrt", 0, 10, 1, {{"k", "v"}});
  EXPECT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.dropped(), 2u);
}

TEST(Trace, ChromeExportUsesIntegerMicrosOfVirtualTime) {
  SimClock clock;
  SpanTracer tracer;
  tracer.set_clock(&clock);
  clock.advance_ns(1500);  // 1.5 us
  {
    auto scope = tracer.span("phase", "ctrl");
    scope.arg("entries", std::uint64_t{12});
    clock.advance_ns(2'000'500);  // ~2 ms
  }
  std::ostringstream out;
  export_chrome_trace(tracer, out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"phase\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"ctrl\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dur\":2000.500"), std::string::npos) << json;
  EXPECT_NE(json.find("\"entries\":\"12\""), std::string::npos) << json;

  std::ostringstream again;
  export_chrome_trace(tracer, again);
  EXPECT_EQ(json, again.str());  // deterministic without wall time
}

// ------------------------------------------------------- string escaping

TEST(Escaping, ChromeTraceEscapesNamesAndArgs) {
  SpanTracer tracer;
  {
    auto scope = tracer.span("quote\" back\\slash", "cat\nline");
    scope.arg("key\t", "value\r\n\"end\"");
  }
  std::ostringstream out;
  export_chrome_trace(tracer, out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"name\":\"quote\\\" back\\\\slash\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"cat\":\"cat\\nline\""), std::string::npos);
  EXPECT_NE(json.find("\"key\\t\""), std::string::npos);
  EXPECT_NE(json.find("value\\r\\n\\\"end\\\""), std::string::npos);
  // No raw control characters survive into the output besides the
  // format's own line breaks between events.
  for (char c : json) {
    if (c == '\n') continue;
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }
}

TEST(Escaping, MetricsJsonlEscapesNames) {
  MetricsRegistry registry;
  registry.counter("weird\"name\\with\nstuff").inc();
  std::ostringstream out;
  export_metrics_jsonl(registry, out);
  EXPECT_NE(out.str().find("\"name\":\"weird\\\"name\\\\with\\nstuff\""),
            std::string::npos)
      << out.str();
}

TEST(Escaping, ControlCharactersUseUnicodeEscapes) {
  MetricsRegistry registry;
  registry.counter(std::string("bell\x07gauge")).inc();
  std::ostringstream out;
  export_metrics_jsonl(registry, out);
  EXPECT_NE(out.str().find("bell\\u0007gauge"), std::string::npos) << out.str();
}

TEST(Escaping, NonAsciiUtf8PassesThroughUnchanged) {
  MetricsRegistry registry;
  registry.counter("greek.\xce\xbb.rate").inc();  // U+03BB
  std::ostringstream out;
  export_metrics_jsonl(registry, out);
  EXPECT_NE(out.str().find("greek.\xce\xbb.rate"), std::string::npos);
}

TEST(Escaping, AlertsJsonlEscapesProgramAndRuleNames) {
  ProgramHealthMonitor monitor;
  monitor.program_deployed(1, "prog \"quoted\"\nname", 3);
  monitor.add_rule({"rule\\one", AlertKind::DropFraction, 0.5});
  rmt::PacketObservation obs;
  obs.program = 1;
  obs.fate = rmt::PacketFate::Dropped;
  monitor.on_packet(obs);
  ASSERT_EQ(monitor.alerts_fired(), 1u);

  std::ostringstream out;
  export_alerts_jsonl(monitor, out);
  const std::string jsonl = out.str();
  EXPECT_NE(jsonl.find("\"name\":\"prog \\\"quoted\\\"\\nname\""), std::string::npos)
      << jsonl;
  EXPECT_NE(jsonl.find("\"rule\":\"rule\\\\one\""), std::string::npos);
}

TEST(Escaping, FlightJsonlEscapesJourneyStrings) {
  FlightRecorder recorder;
  PacketJourney journey;
  journey.program_name = "name\twith\"tabs\\";
  rmt::TraceEvent event;
  event.block = rmt::TraceEvent::Block::Rpb;
  event.op = "OP(\"arg\")\n";
  journey.events.push_back(std::move(event));
  recorder.record(std::move(journey));
  recorder.freeze("why \"so\"", 1.0);

  std::ostringstream out;
  export_flight_jsonl(recorder, out);
  const std::string jsonl = out.str();
  EXPECT_NE(jsonl.find("\"reason\":\"why \\\"so\\\"\""), std::string::npos) << jsonl;
  EXPECT_NE(jsonl.find("name\\twith\\\"tabs\\\\"), std::string::npos);
  EXPECT_NE(jsonl.find("OP(\\\"arg\\\")\\n"), std::string::npos);
}

TEST(Escaping, TraceIdsRenderAsFixedWidthLowercaseHex) {
  EXPECT_EQ(format_trace_id(0), "0000000000000000");
  EXPECT_EQ(format_trace_id(1), "0000000000000001");
  EXPECT_EQ(format_trace_id(0xDEADBEEFull), "00000000deadbeef");
  EXPECT_EQ(format_trace_id(~0ull), "ffffffffffffffff");
}

TEST(Escaping, ChromeTraceEmitsTraceIdArg) {
  Telemetry telemetry;
  std::uint64_t minted = 0;
  {
    TraceScope trace(&telemetry);
    minted = trace.trace_id();
    auto scope = telemetry.tracer.span("op", "ctrl");
  }
  { auto untraced = telemetry.tracer.span("outside"); }
  std::ostringstream out;
  export_chrome_trace(telemetry.tracer, out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"trace\":\"" + format_trace_id(minted) + "\""),
            std::string::npos)
      << json;
  // Untraced spans carry no trace arg at all (0 is not serialized).
  EXPECT_EQ(json.find(format_trace_id(0)), std::string::npos);
}

TEST(Escaping, SeriesJsonlEscapesNamesWithDotsAndQuotes) {
  MetricsRegistry registry;
  registry.counter("ctrl.weird\"series\\name").inc(4);
  TimeSeriesStore store;
  store.sample(registry, 1'000'000);

  std::ostringstream out;
  export_series_jsonl(store, out);
  const std::string jsonl = out.str();
  EXPECT_NE(jsonl.find("\"name\":\"ctrl.weird\\\"series\\\\name\""),
            std::string::npos)
      << jsonl;
  // Dots pass through unescaped — they are series-name structure, not JSON.
  EXPECT_NE(jsonl.find("ctrl.weird"), std::string::npos);
  for (char c : jsonl) {
    if (c == '\n') continue;
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }
}

TEST(Escaping, AlertsJsonlEscapesSeriesNames) {
  Telemetry telemetry;
  telemetry.monitor.series_alert("series\"with\\escapes", "anomaly.z_score",
                                 9.0, 3.0);
  std::ostringstream out;
  export_alerts_jsonl(telemetry.monitor, out);
  EXPECT_NE(out.str().find("\"series\":\"series\\\"with\\\\escapes\""),
            std::string::npos)
      << out.str();
}

TEST(Telemetry, NullSafeSpanHelper) {
  auto scope = span(nullptr, "nothing");
  EXPECT_FALSE(scope.active());
  scope.arg("k", "v");
  scope.end();  // all no-ops

  Telemetry telemetry;
  auto live = span(&telemetry, "real", "cat");
  EXPECT_TRUE(live.active());
  live.end();
  EXPECT_EQ(telemetry.tracer.spans().size(), 1u);
}

}  // namespace
}  // namespace p4runpro::obs
