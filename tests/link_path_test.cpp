// One link path: a serial link (link_single) and a link session
// (link_session, link_many) run one pipeline — compile, quota, solve,
// stage, commit, adopt — and leave the same span tree. The session compiles
// and solves off-lock; the controller records both layers under its lock,
// so every link's trace holds its parse, translate and solve. Concurrent
// sessions write the tracer from pool threads under the lock: run under
// TSan in CI.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/program_library.h"
#include "common/clock.h"
#include "common/thread_pool.h"
#include "control/controller.h"
#include "control/trace_report.h"
#include "dataplane/runpro_dataplane.h"
#include "dataplane/switch_chain.h"
#include "obs/telemetry.h"

namespace p4runpro {
namespace {

constexpr int kChainHops = 3;

/// Catalog programs a chain accepts (no memory touched in two rounds).
const std::vector<std::string> kChainKeys = {"bf",  "cache", "calculator", "cms",
                                             "ecn", "firewall", "hh", "hll",
                                             "l2",  "l3",    "sumax",      "tunnel"};

std::string source(const std::string& key, const std::string& name) {
  apps::ProgramConfig config;
  config.instance_name = name;
  return apps::make_program_source(key, config);
}

/// A fresh switch or chain with its own telemetry bundle.
struct Bed {
  SimClock clock;
  obs::Telemetry telemetry;
  std::unique_ptr<dp::RunproDataplane> dataplane;
  std::unique_ptr<dp::SwitchChain> chain;
  std::unique_ptr<ctrl::Controller> controller;

  Bed(int hops, bool async) {
    dp::DataplaneSpec spec;
    spec.max_recirculations = hops == 1 ? 1 : hops - 1;
    const rmt::ParserConfig parser{{7777}};
    if (hops == 1) {
      dataplane = std::make_unique<dp::RunproDataplane>(spec, parser);
      controller = std::make_unique<ctrl::Controller>(*dataplane, clock, rp::Objective{},
                                                      ctrl::BfrtCostModel{}, &telemetry);
    } else {
      chain = std::make_unique<dp::SwitchChain>(hops, spec, parser);
      controller = std::make_unique<ctrl::Controller>(*chain, clock, rp::Objective{},
                                                      ctrl::BfrtCostModel{}, &telemetry);
    }
    controller->set_fixed_alloc_charge_ms(1.0);
    controller->set_async_writes(async);
  }
};

/// Every recorded field of every span but the wall-clock ones.
std::vector<std::string> span_stream(const obs::Telemetry& telemetry) {
  std::vector<std::string> out;
  for (const auto& s : telemetry.tracer.spans()) {
    std::string line = s.name + ' ' + s.cat + " p=" + std::to_string(s.parent) +
                       " d=" + std::to_string(s.depth) + " trace=" +
                       std::to_string(s.trace) + " [" + std::to_string(s.start_vns) +
                       ',' + std::to_string(s.end_vns) + "] open=" +
                       std::to_string(s.open);
    for (const auto& [k, v] : s.args) line += ' ' + k + '=' + v;
    out.push_back(std::move(line));
  }
  return out;
}

int count_named(const ctrl::TraceReport& report, const std::string& name) {
  int n = 0;
  for (const auto& span : report.spans) n += span.name == name ? 1 : 0;
  return n;
}

/// A fresh bed's link_single(hh) and link_session({hh, 0}), serial channel,
/// leave identical span streams; async, the session's trace still holds its
/// whole tree.
void expect_session_leaves_the_serial_span_stream(int hops) {
  Bed serial(hops, /*async=*/false);
  Bed session(hops, /*async=*/false);
  auto linked = serial.controller->link_single(source("hh", "hh"));
  ASSERT_TRUE(linked.ok()) << linked.error().str();
  auto sessioned =
      session.controller->link_session(ctrl::SessionSpec{source("hh", "hh"), 0});
  ASSERT_TRUE(sessioned.ok()) << sessioned.error().str();
  EXPECT_EQ(span_stream(session.telemetry), span_stream(serial.telemetry));
  EXPECT_EQ(sessioned.value().trace, linked.value().trace);
  EXPECT_EQ(session.clock.now_ns(), serial.clock.now_ns());

  // Async, the session parks off-lock: its spans close at the park, and the
  // writes settled after it keep the session's trace id.
  Bed async(hops, /*async=*/true);
  auto parked = async.controller->link_session(ctrl::SessionSpec{source("hh", "hh"), 0});
  ASSERT_TRUE(parked.ok()) << parked.error().str();
  const auto report = ctrl::collect_trace(async.telemetry, parked.value().trace);
  EXPECT_EQ(report.root_name(), hops == 1 ? "link" : "chain_link");
  for (const char* name : {"parse", "translate", "solve", "install"}) {
    EXPECT_EQ(count_named(report, name), 1) << name;
  }
  EXPECT_FALSE(report.writes.empty());
  for (const auto& span : async.telemetry.tracer.spans()) EXPECT_FALSE(span.open);
}

/// link_many of 16 catalog sources on a 4-worker pool: every result's trace
/// holds exactly one parse, translate and solve, and the solver metrics
/// count every attempt's solve.
void expect_concurrent_sessions_report_whole_links(int hops, bool async) {
  std::vector<std::string> sources;
  for (std::size_t i = 0; i < 16; ++i) {
    const std::string& key = kChainKeys[i % kChainKeys.size()];
    sources.push_back(source(key, key + std::to_string(i)));
  }
  Bed bed(hops, async);
  common::ThreadPool pool(4);
  const auto results = bed.controller->link_many(sources, pool);
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok()) << r.error().str();
    const auto report = ctrl::collect_trace(bed.telemetry, r.value().trace);
    EXPECT_EQ(report.root_name(), hops == 1 ? "link" : "chain_link");
    for (const char* name : {"parse", "translate", "solve"}) {
      EXPECT_EQ(count_named(report, name), 1) << name << " in " << r.value().name;
    }
  }
  const auto& m = bed.telemetry.metrics;
  const obs::Counter* calls = m.find_counter("compiler.solver.calls");
  const obs::Counter* retries = m.find_counter("ctrl.link.retries");
  ASSERT_NE(calls, nullptr);
  EXPECT_EQ(calls->value(), results.size() + (retries == nullptr ? 0 : retries->value()));
  for (const auto& span : bed.telemetry.tracer.spans()) EXPECT_FALSE(span.open);
}

TEST(LinkPath, SessionLeavesTheSerialSpanStream) {
  for (int hops : {1, kChainHops}) {
    SCOPED_TRACE("hops=" + std::to_string(hops));
    expect_session_leaves_the_serial_span_stream(hops);
  }
}

TEST(LinkPath, ConcurrentSessionsEachReportAWholeLink) {
  for (int hops : {1, kChainHops}) {
    for (bool async : {false, true}) {
      SCOPED_TRACE("hops=" + std::to_string(hops) + " async=" + std::to_string(async));
      expect_concurrent_sessions_report_whole_links(hops, async);
    }
  }
}

TEST(LinkPath, TenantZeroQuotaBindsSerialLinks) {
  Bed bed(1, /*async=*/false);
  ctrl::Controller& c = *bed.controller;
  c.tenants().register_tenant(0, ctrl::TenantQuota{.max_programs = 1});
  ASSERT_TRUE(c.link_single(source("cache", "first")).ok());
  const ctrl::TenantUsage usage = c.tenants().usage(0);
  const auto running = c.running_programs();
  EXPECT_EQ(usage.programs, 1u);

  auto over = c.link_single(source("hh", "second"));
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.error().code, ErrorCode::QuotaExceeded) << over.error().str();
  const ctrl::TenantUsage after = c.tenants().usage(0);
  EXPECT_EQ(after.programs, usage.programs);
  EXPECT_EQ(after.memory_words, usage.memory_words);
  EXPECT_EQ(after.entries, usage.entries);
  EXPECT_EQ(after.quota_rejected, usage.quota_rejected + 1);
  EXPECT_EQ(c.running_programs(), running);
}

}  // namespace
}  // namespace p4runpro
