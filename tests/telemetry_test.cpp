// End-to-end telemetry tests: a deployment produces the paper's phase
// breakdown as a span tree, the exporters emit valid JSON, and identical
// runs (virtual time only) export byte-identical files.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <sstream>
#include <string>

#include "apps/program_library.h"
#include "common/clock.h"
#include "control/controller.h"
#include "control/inspect.h"
#include "dataplane/runpro_dataplane.h"
#include "obs/telemetry.h"

namespace p4runpro {
namespace {

// Minimal recursive-descent JSON validator (objects, arrays, strings,
// numbers, literals) — enough to prove the exporters emit well-formed JSON
// without pulling in a JSON dependency.
class JsonValidator {
 public:
  explicit JsonValidator(std::string_view text) : text_(text) {}

  [[nodiscard]] bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  [[nodiscard]] bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  [[nodiscard]] bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  [[nodiscard]] bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  [[nodiscard]] bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  [[nodiscard]] bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  [[nodiscard]] bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

std::string cache_source() {
  apps::ProgramConfig config;
  config.instance_name = "cache";
  return apps::make_program_source("cache", config);
}

rmt::Packet cache_read() {
  rmt::Packet pkt;
  pkt.ipv4 = rmt::Ipv4Header{.src = 0x0a000001, .dst = 0x0a000002, .proto = 17};
  pkt.udp = rmt::UdpHeader{.src_port = 4000, .dst_port = 7777};
  pkt.app = rmt::AppHeader{.op = 1, .key1 = 0x8888, .key2 = 0, .value = 0};
  pkt.ingress_port = 5;
  return pkt;
}

TEST(Telemetry, BundleMayDieBeforeTheDataPlane) {
  // The bundle must outlive the controller, not the data plane. Declared
  // between the two, it dies after the controller detached the observer
  // and the probes it attached, and the data plane keeps running without
  // it: traffic, a later sharding and its own destruction touch no bundle.
  dp::RunproDataplane dataplane(dp::DataplaneSpec{}, rmt::ParserConfig{{7777}});
  {
    obs::Telemetry telemetry;
    SimClock clock;
    ctrl::Controller controller(dataplane, clock, {}, {}, &telemetry);
    ASSERT_TRUE(controller.link_single(cache_source()).ok());
    EXPECT_EQ(dataplane.inject(cache_read()).fate, rmt::PacketFate::Returned);
    EXPECT_EQ(telemetry.monitor.packets_observed(), 1u);
    EXPECT_GT(telemetry.metrics.gauge_value("rmt.pipeline.packets_in"), 0.0);
  }
  EXPECT_EQ(dataplane.pipeline().observer(), nullptr);
  EXPECT_EQ(dataplane.inject(cache_read()).fate, rmt::PacketFate::Returned);
  dataplane.enable_sharding(1);
  EXPECT_EQ(dataplane.pipeline().packets_in(), 2u);
}

TEST(Telemetry, CachedMetricsFollowAClear) {
  // The controller and its update engine update metrics through cached
  // handles; a clear() drops every metric, and the next link re-creates
  // them in the fresh registry.
  obs::Telemetry telemetry;
  SimClock clock;
  dp::RunproDataplane dataplane(dp::DataplaneSpec{}, rmt::ParserConfig{{7777}});
  ctrl::Controller controller(dataplane, clock, {}, {}, &telemetry);
  auto first = controller.link_single(cache_source());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(controller.revoke(first.value().id).ok());
  const std::uint64_t batches = telemetry.metrics.find_counter("ctrl.bfrt.batches")->value();
  EXPECT_EQ(telemetry.metrics.find_counter("ctrl.events.revoke")->value(), 1u);

  telemetry.clear();
  EXPECT_EQ(telemetry.metrics.find_counter("ctrl.events.link"), nullptr);
  ASSERT_TRUE(controller.link_single(cache_source()).ok());
  const auto& m = telemetry.metrics;
  EXPECT_EQ(m.find_counter("ctrl.events.link")->value(), 1u);
  EXPECT_EQ(m.find_counter("ctrl.events.revoke"), nullptr);
  EXPECT_EQ(m.find_counter("compiler.solver.calls")->value(), 1u);
  EXPECT_EQ(m.find_histogram("ctrl.link.deploy_ms")->count(), 1u);
  EXPECT_GT(m.find_counter("ctrl.bfrt.batches")->value(), 0u);
  EXPECT_LT(m.find_counter("ctrl.bfrt.batches")->value(), batches)
      << "the install's batches alone, not the first link's and revoke's too";
}

TEST(Telemetry, LinkSingleProducesThePhaseSpanTree) {
  obs::Telemetry telemetry;
  SimClock clock;
  dp::RunproDataplane dataplane(dp::DataplaneSpec{}, rmt::ParserConfig{{7777}});
  ctrl::Controller controller(dataplane, clock, {}, {}, &telemetry);
  ASSERT_TRUE(controller.link_single(cache_source()).ok());

  const auto& tracer = telemetry.tracer;
  const auto root_idx = tracer.find("link");
  ASSERT_NE(root_idx, obs::SpanTracer::kNoSpan);
  const auto& root = tracer.spans()[root_idx];
  EXPECT_EQ(root.parent, -1);
  EXPECT_FALSE(root.open);

  // The deployment phases of §6.2 appear as direct children of the link
  // span, in transaction order: compile (parse+translate), solve, then the
  // deploy-transaction phases reserve -> plan (entrygen) -> stage -> commit
  // (the "install" span wrapping txn.commit).
  const auto children = tracer.children_of(root_idx);
  std::vector<std::string> names;
  names.reserve(children.size());
  for (const auto idx : children) names.push_back(tracer.spans()[idx].name);
  const std::vector<std::string> expected = {
      "parse", "translate", "solve", "txn.reserve", "entrygen", "txn.stage",
      "install"};
  EXPECT_EQ(names, expected);

  // Children nest inside the root and their virtual durations sum to at
  // most the root's.
  SimClock::Nanos child_sum = 0;
  for (const auto idx : children) {
    const auto& child = tracer.spans()[idx];
    EXPECT_FALSE(child.open);
    EXPECT_GE(child.start_vns, root.start_vns);
    EXPECT_LE(child.end_vns, root.end_vns);
    child_sum += child.virtual_ns();
  }
  EXPECT_LE(child_sum, root.virtual_ns());

  // The install phase wraps the commit span, which contains the simulated
  // bfrt batches carrying the virtual cost of the update.
  const auto install_idx = tracer.find("install");
  const auto install_children = tracer.children_of(install_idx);
  ASSERT_EQ(install_children.size(), 1u);
  const auto commit_idx = install_children.front();
  EXPECT_EQ(tracer.spans()[commit_idx].name, "txn.commit");
  EXPECT_EQ(tracer.spans()[commit_idx].cat, "ctrl");
  const auto batches = tracer.children_of(commit_idx);
  EXPECT_FALSE(batches.empty());
  for (const auto idx : batches) {
    EXPECT_EQ(tracer.spans()[idx].name, "bfrt.batch");
    EXPECT_EQ(tracer.spans()[idx].cat, "bfrt");
  }
}

TEST(Telemetry, LinkRecordsMetrics) {
  obs::Telemetry telemetry;
  SimClock clock;
  dp::RunproDataplane dataplane(dp::DataplaneSpec{}, rmt::ParserConfig{{7777}});
  ctrl::Controller controller(dataplane, clock, {}, {}, &telemetry);
  ASSERT_TRUE(controller.link_single(cache_source()).ok());

  const auto& m = telemetry.metrics;
  const auto* links = m.find_counter("ctrl.events.link");
  ASSERT_NE(links, nullptr);
  EXPECT_EQ(links->value(), 1u);
  EXPECT_EQ(m.find_counter("compiler.solver.calls")->value(), 1u);
  const auto* deploy = m.find_histogram("ctrl.link.deploy_ms");
  ASSERT_NE(deploy, nullptr);
  EXPECT_EQ(deploy->count(), 1u);
  EXPECT_GT(deploy->sum(), 0.0);
  // Per-stage occupancy probes report the linked program's footprint.
  EXPECT_GT(m.gauge_value("ctrl.resources.programs"), 0.0);
  EXPECT_GT(m.gauge_value("ctrl.resources.entry_utilization"), 0.0);

  // The operator-facing report renders all sections.
  const std::string report = ctrl::telemetry_report(telemetry);
  EXPECT_NE(report.find("counters:"), std::string::npos);
  EXPECT_NE(report.find("ctrl.events.link"), std::string::npos);
  EXPECT_NE(report.find("histograms:"), std::string::npos);
  EXPECT_NE(report.find("spans:"), std::string::npos);
}

TEST(Telemetry, ChromeTraceExportIsValidJson) {
  obs::Telemetry telemetry;
  SimClock clock;
  dp::RunproDataplane dataplane(dp::DataplaneSpec{}, rmt::ParserConfig{{7777}});
  ctrl::Controller controller(dataplane, clock, {}, {}, &telemetry);
  ASSERT_TRUE(controller.link_single(cache_source()).ok());

  std::ostringstream trace;
  obs::export_chrome_trace(telemetry.tracer, trace, /*include_wall=*/true);
  EXPECT_TRUE(JsonValidator(trace.str()).valid()) << trace.str();
  EXPECT_NE(trace.str().find("\"traceEvents\":["), std::string::npos);

  std::ostringstream metrics;
  obs::export_metrics_jsonl(telemetry.metrics, metrics);
  std::istringstream lines(metrics.str());
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(JsonValidator(line).valid()) << line;
    ++count;
  }
  EXPECT_GT(count, 5);
}

TEST(Telemetry, IdenticalRunsExportByteIdenticalFiles) {
  // The solver's wall time is normally charged to the virtual clock, which
  // would make virtual timestamps run-dependent; fix the charge so two
  // identical runs are deterministic end to end.
  const auto run_once = [](std::string& metrics_out, std::string& trace_out) {
    obs::Telemetry telemetry;
    SimClock clock;
    dp::RunproDataplane dataplane(dp::DataplaneSpec{}, rmt::ParserConfig{{7777}});
    ctrl::Controller controller(dataplane, clock, {}, {}, &telemetry);
    controller.set_fixed_alloc_charge_ms(1.25);
    ASSERT_TRUE(controller.link_single(cache_source()).ok());

    std::ostringstream metrics, trace;
    obs::export_metrics_jsonl(telemetry.metrics, metrics);
    obs::export_chrome_trace(telemetry.tracer, trace, /*include_wall=*/false);
    metrics_out = metrics.str();
    trace_out = trace.str();
  };

  std::string metrics_a, trace_a, metrics_b, trace_b;
  run_once(metrics_a, trace_a);
  run_once(metrics_b, trace_b);
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_FALSE(trace_a.empty());
  // Metrics include wall-time histograms (parse_ms/alloc_ms measure real
  // computation), so compare everything except those histograms line by
  // line: every counter and gauge line must match exactly.
  std::istringstream lines_a(metrics_a), lines_b(metrics_b);
  std::string line_a, line_b;
  while (std::getline(lines_a, line_a) && std::getline(lines_b, line_b)) {
    if (line_a.find("\"type\":\"histogram\"") != std::string::npos &&
        line_a.find("_ms\"") != std::string::npos) {
      continue;  // wall-time measurement; values legitimately differ
    }
    EXPECT_EQ(line_a, line_b);
  }
}

}  // namespace
}  // namespace p4runpro
