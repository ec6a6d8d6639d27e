// Cross-tier causal trace propagation: one trace id, minted at a
// controller entry point, must tie together the operation's tracer spans,
// its per-hop control-channel write batches, the monitor's txn events, and
// — through the data plane's table-generation stamp — the flight-recorder
// journeys of packets that executed against the tables it installed.
// ctrl::trace_report assembles that story; the acceptance scenario here
// reuses the chain fault-sweep setup (a faulted deploy that rolls back
// chain-wide, then a clean deploy plus post-commit packet injection) and
// asserts the whole causal chain resolves under single ids.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "apps/program_library.h"
#include "common/clock.h"
#include "control/chain_controller.h"
#include "control/controller.h"
#include "control/trace_report.h"
#include "dataplane/runpro_dataplane.h"
#include "dataplane/switch_chain.h"
#include "obs/telemetry.h"
#include "obs/trace_context.h"

namespace p4runpro {
namespace {

dp::DataplaneSpec chain_spec(int length) {
  dp::DataplaneSpec spec;
  spec.memory_per_rpb = 4096;
  spec.entries_per_rpb = 256;
  spec.max_recirculations = length - 1;
  return spec;
}

std::string cache_source() {
  apps::ProgramConfig config;
  config.instance_name = "cache";
  config.mem_buckets = 64;
  return apps::make_program_source("cache", config);
}

std::string hh_source() {
  apps::ProgramConfig config;
  config.instance_name = "hh";
  config.mem_buckets = 64;
  return apps::make_program_source("hh", config);
}

rmt::Packet cache_read(Word key) {
  rmt::Packet pkt;
  pkt.ipv4 = rmt::Ipv4Header{.src = 0x0a000001, .dst = 0x0a000002, .proto = 17};
  pkt.udp = rmt::UdpHeader{.src_port = 4000, .dst_port = 7777};
  pkt.app = rmt::AppHeader{.op = 1, .key1 = key, .key2 = 0, .value = 0};
  pkt.ingress_port = 5;
  return pkt;
}

struct ChainBed {
  SimClock clock;
  obs::Telemetry telemetry;
  dp::SwitchChain chain;
  ctrl::ChainController controller;

  explicit ChainBed(int length)
      : chain(length, chain_spec(length), rmt::ParserConfig{{7777}}),
        controller(chain, clock, {}, {}, &telemetry) {}
};

const obs::MonitorEvent* last_event(const obs::Telemetry& telemetry,
                                    obs::MonitorEvent::Kind kind) {
  const auto& events = telemetry.monitor.events();
  for (auto it = events.rbegin(); it != events.rend(); ++it) {
    if (it->kind == kind) return &*it;
  }
  return nullptr;
}

// The acceptance scenario: a faulted chain deploy (rolled back chain-wide)
// followed by a clean deploy and post-commit packet injection. Each
// operation's whole story — txn spans, per-hop writes, rollback/commit
// events, and the packet journey — resolves under its own single trace id.
TEST(TraceReport, FaultedAndCleanChainDeploysResolveUnderOneTraceIdEach) {
  constexpr int kLength = 3;
  ChainBed bed(kLength);

  // Faulted deploy: the first control-channel write on hop 1 fails, the
  // chain transaction unwinds everywhere.
  bed.controller.updates(1).set_fault_after_writes(0);
  auto faulted = bed.controller.link(cache_source());
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.error().code, ErrorCode::ChannelError);
  bed.controller.updates(1).set_fault_after_writes(-1);

  const auto* rollback =
      last_event(bed.telemetry, obs::MonitorEvent::Kind::ChainTxnRollback);
  ASSERT_NE(rollback, nullptr);
  const std::uint64_t faulted_trace = rollback->trace;
  EXPECT_EQ(faulted_trace, 1u) << "first minted id of the bundle";

  // Clean deploy: commits on every hop; the LinkResult hands the caller the
  // operation's trace id.
  auto linked = bed.controller.link(cache_source());
  ASSERT_TRUE(linked.ok()) << linked.error().str();
  const std::uint64_t clean_trace = linked.value().trace;
  ASSERT_NE(clean_trace, 0u);
  EXPECT_NE(clean_trace, faulted_trace);

  // Post-commit traffic: inject at the chain's entry (hop 0, the pipe the
  // controller's monitor observes) with journey capture on. The hop
  // pipeline stamps the packet with the table trace/generation the clean
  // deploy installed.
  bed.telemetry.flight.set_sample_every(1);
  (void)bed.chain.inject(cache_read(0x8888));
  ASSERT_EQ(bed.telemetry.flight.journeys().size(), 1u);
  EXPECT_EQ(bed.telemetry.flight.journeys().front().table_trace, clean_trace);
  EXPECT_GE(bed.telemetry.flight.journeys().front().table_generation, 1u);

  // --- the clean operation's structured report ---------------------------
  const auto clean = ctrl::collect_trace(bed.telemetry, clean_trace);
  EXPECT_TRUE(clean.found());
  EXPECT_EQ(clean.root_name(), "chain_link");

  // Per-hop write batches: every hop of the chain committed under this id.
  ASSERT_FALSE(clean.writes.empty());
  std::set<int> hops_written;
  for (const auto& write : clean.writes) {
    EXPECT_GE(write.hop, 0);
    EXPECT_LT(write.hop, kLength);
    EXPECT_FALSE(write.what.empty());
    hops_written.insert(write.hop);
  }
  EXPECT_EQ(hops_written.size(), static_cast<std::size_t>(kLength));

  // Lifecycle events: chain commit (plus per-hop deploys) under the id.
  bool saw_commit = false;
  for (const auto& event : clean.events) {
    if (event.kind == obs::MonitorEvent::Kind::ChainTxnCommit) {
      saw_commit = true;
      EXPECT_EQ(event.hops, kLength);
    }
    EXPECT_NE(event.kind, obs::MonitorEvent::Kind::ChainTxnRollback);
  }
  EXPECT_TRUE(saw_commit);

  // The packet journey is causally linked to this deploy — and only this
  // deploy.
  ASSERT_EQ(clean.journeys.size(), 1u);
  EXPECT_EQ(clean.journeys.front().table_trace, clean_trace);

  // --- the faulted operation's report ------------------------------------
  const auto bad = ctrl::collect_trace(bed.telemetry, faulted_trace);
  EXPECT_TRUE(bad.found());
  EXPECT_EQ(bad.root_name(), "chain_link");
  bool saw_rollback = false;
  for (const auto& event : bad.events) {
    if (event.kind == obs::MonitorEvent::Kind::ChainTxnRollback) {
      saw_rollback = true;
      EXPECT_EQ(event.faulted_hop, 1);
      EXPECT_NE(event.detail.find("[ChannelError]"), std::string::npos);
    }
    EXPECT_NE(event.kind, obs::MonitorEvent::Kind::ChainTxnCommit);
  }
  EXPECT_TRUE(saw_rollback);
  // Rolled-back tables never go live: no journey can reference this id.
  EXPECT_TRUE(bad.journeys.empty());

  // --- the rendered story -------------------------------------------------
  const std::string story = ctrl::trace_report(bed.telemetry, clean_trace);
  EXPECT_NE(story.find("trace " + obs::format_trace_id(clean_trace)),
            std::string::npos);
  EXPECT_NE(story.find("(chain_link)"), std::string::npos);
  EXPECT_NE(story.find("control-channel writes:"), std::string::npos);
  EXPECT_NE(story.find("hop 2"), std::string::npos);
  EXPECT_NE(story.find("chain txn commit"), std::string::npos);
  EXPECT_NE(story.find("packet journeys against this operation's tables:"),
            std::string::npos);

  const std::string bad_story = ctrl::trace_report(bed.telemetry, faulted_trace);
  EXPECT_NE(bad_story.find("chain txn rollback"), std::string::npos);
  EXPECT_NE(bad_story.find("faulted_hop=1"), std::string::npos);
  EXPECT_EQ(bad_story.find("packet journeys"), std::string::npos);
}

TEST(TraceReport, UnknownIdRendersNothingRecorded) {
  ChainBed bed(2);
  const auto report = ctrl::collect_trace(bed.telemetry, 12345);
  EXPECT_FALSE(report.found());
  EXPECT_TRUE(report.root_name().empty());

  const std::string story = ctrl::trace_report(bed.telemetry, 12345);
  EXPECT_NE(story.find("nothing recorded under this id"), std::string::npos);

  // Id 0 is the "no trace" sentinel and never matches anything, even
  // though untraced spans/events carry 0 in their trace field.
  EXPECT_FALSE(ctrl::collect_trace(bed.telemetry, 0).found());
}

TEST(TraceReport, IdsAreEpochLocalAndRecycleAcrossClear) {
  ChainBed bed(2);
  auto first = bed.controller.link(cache_source());
  ASSERT_TRUE(first.ok());
  const std::uint64_t old_trace = first.value().trace;
  EXPECT_EQ(old_trace, 1u);
  EXPECT_TRUE(ctrl::collect_trace(bed.telemetry, old_trace).found());

  // clear() starts a new epoch: the old id resolves to nothing...
  bed.telemetry.clear();
  EXPECT_FALSE(ctrl::collect_trace(bed.telemetry, old_trace).found());
  EXPECT_NE(ctrl::trace_report(bed.telemetry, old_trace)
                .find("nothing recorded under this id"),
            std::string::npos);

  // ...until minting restarts at 1 and recycles it: the recycled id now
  // resolves to the *new* epoch's operation, not the old one.
  auto second = bed.controller.link(hh_source());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().trace, old_trace);
  const auto recycled = ctrl::collect_trace(bed.telemetry, old_trace);
  ASSERT_TRUE(recycled.found());
  EXPECT_EQ(recycled.root_name(), "chain_link");
  bool names_hh = false;
  for (const auto& event : recycled.events) {
    if (event.program_name == "hh") names_hh = true;
    EXPECT_NE(event.program_name, "cache");
  }
  EXPECT_TRUE(names_hh);
}

TEST(TraceReport, SingleSwitchOperationsMintDistinctIds) {
  SimClock clock;
  obs::Telemetry telemetry;
  dp::RunproDataplane dataplane{dp::DataplaneSpec{}, rmt::ParserConfig{{7777}}};
  ctrl::Controller controller{dataplane, clock, rp::Objective{},
                              ctrl::BfrtCostModel{}, &telemetry};

  auto linked = controller.link_single(cache_source());
  ASSERT_TRUE(linked.ok()) << linked.error().str();
  const std::uint64_t link_trace = linked.value().trace;
  ASSERT_NE(link_trace, 0u);

  // The data plane's table state is stamped with the installing operation.
  EXPECT_EQ(dataplane.pipeline().table_trace(), link_trace);
  EXPECT_GE(dataplane.pipeline().table_generation(), 1u);

  const auto report = ctrl::collect_trace(telemetry, link_trace);
  EXPECT_TRUE(report.found());
  EXPECT_EQ(report.root_name(), "link");
  ASSERT_FALSE(report.writes.empty());
  for (const auto& write : report.writes) {
    EXPECT_EQ(write.hop, -1) << "single-switch engine has no hop label";
  }

  // Revoking is a separate operation with its own id; its writes (table
  // removals) stamp the pipeline anew.
  ASSERT_TRUE(controller.revoke(linked.value().id).ok());
  const std::uint64_t revoke_trace = dataplane.pipeline().table_trace();
  EXPECT_NE(revoke_trace, link_trace);
  const auto revoke_report = ctrl::collect_trace(telemetry, revoke_trace);
  EXPECT_TRUE(revoke_report.found());
  EXPECT_EQ(revoke_report.root_name(), "revoke");
}

TEST(TraceReport, ShedAndDefragEventsAreLabelled) {
  obs::Telemetry telemetry;
  std::uint64_t id = 0;
  {
    obs::TraceScope trace(&telemetry);
    id = trace.trace_id();
    telemetry.monitor.admission_shed(2, "t2_cache", "admission queue full");
    telemetry.monitor.defrag_moved(3, 8, "lb", 50, 20);
  }
  const std::string story = ctrl::trace_report(telemetry, id);
  EXPECT_NE(story.find("admission shed 't2_cache' tenant=2 detail=\"admission queue full\""),
            std::string::npos)
      << story;
  EXPECT_NE(story.find("defrag move 'lb' id=8 old_id=3 gain=30"), std::string::npos)
      << story;
  EXPECT_EQ(story.find(" ? "), std::string::npos) << story;
}

}  // namespace
}  // namespace p4runpro
