// Execution-tracing tests: a traced packet produces one event per executed
// operation, in pipeline order, across recirculation rounds; render_trace
// prints each as one line.
#include <gtest/gtest.h>

#include "apps/program_library.h"
#include "common/clock.h"
#include "control/controller.h"
#include "dataplane/runpro_dataplane.h"

namespace p4runpro {
namespace {

std::string joined(const std::vector<rmt::TraceEvent>& events) {
  std::string out;
  for (const auto& event : events) out += rmt::render_trace(event) + "\n";
  return out;
}

TEST(Tracing, CacheHitTraceShowsTheFigure3Walk) {
  SimClock clock;
  dp::RunproDataplane dataplane(dp::DataplaneSpec{}, rmt::ParserConfig{{7777}});
  ctrl::Controller controller(dataplane, clock);
  apps::ProgramConfig config;
  config.instance_name = "cache";
  auto linked = controller.link_single(apps::make_program_source("cache", config));
  ASSERT_TRUE(linked.ok());
  ASSERT_TRUE(controller.write_memory(linked.value().id, "mem1", 0, 5).ok());

  dataplane.pipeline().set_tracing(true);
  rmt::Packet pkt;
  pkt.ipv4 = rmt::Ipv4Header{.src = 1, .dst = 2, .proto = 17};
  pkt.udp = rmt::UdpHeader{4000, 7777};
  pkt.app = rmt::AppHeader{1, 0x8888, 0, 0};
  pkt.ingress_port = 5;
  (void)dataplane.inject(pkt);

  const std::string text = joined(dataplane.pipeline().last_trace_events());
  // The Fig. 3 walk: parse, claim, extracts, branch to the read case,
  // address load, memory read, header modify.
  EXPECT_NE(text.find("parser: bitmap=0b11101"), std::string::npos) << text;
  EXPECT_NE(text.find("init: claimed by program"), std::string::npos);
  EXPECT_NE(text.find("EXTRACT(hdr.nc.op, har)"), std::string::npos);
  EXPECT_NE(text.find("BRANCH"), std::string::npos);
  EXPECT_NE(text.find("-> b1"), std::string::npos);
  EXPECT_NE(text.find("MEM(salu="), std::string::npos);
  EXPECT_NE(text.find("MODIFY(hdr.nc.val, sar)"), std::string::npos);
  // Order: claim before extract before branch before memory.
  EXPECT_LT(text.find("init:"), text.find("EXTRACT"));
  EXPECT_LT(text.find("EXTRACT"), text.find("BRANCH"));
  EXPECT_LT(text.find("BRANCH"), text.find("MEM(salu="));

  // Tracing off: the last trace stays as-is but new packets don't trace.
  dataplane.pipeline().set_tracing(false);
  (void)dataplane.inject(pkt);
  EXPECT_EQ(joined(dataplane.pipeline().last_trace_events()), text);
}

TEST(Tracing, RecirculatedProgramShowsBothRounds) {
  SimClock clock;
  dp::RunproDataplane dataplane(dp::DataplaneSpec{}, rmt::ParserConfig{});
  ctrl::Controller controller(dataplane, clock);
  apps::ProgramConfig config;
  config.instance_name = "hh";
  config.threshold = 5;
  ASSERT_TRUE(controller.link_single(apps::make_program_source("hh", config)).ok());

  dataplane.pipeline().set_tracing(true);
  rmt::Packet pkt;
  pkt.ipv4 = rmt::Ipv4Header{.src = 0x0a000010, .dst = 0x0b000001, .proto = 17};
  pkt.udp = rmt::UdpHeader{5000, 6000};
  pkt.ingress_port = 1;
  // Packet 5 crosses the threshold (count == 5): its trace shows the BF
  // walk and the round-1 REPORT.
  rmt::PipelineResult result;
  for (int i = 0; i < 5; ++i) result = dataplane.inject(pkt);
  EXPECT_EQ(result.fate, rmt::PacketFate::Reported);

  // Structured trace (last_trace_events): match on fields, not substrings.
  const auto& events = dataplane.pipeline().last_trace_events();
  ASSERT_FALSE(events.empty());
  bool saw_recirc = false, saw_r0 = false, saw_r1 = false, saw_report = false;
  for (const auto& event : events) {
    if (event.block == rmt::TraceEvent::Block::Recirc) {
      saw_recirc = true;
      EXPECT_EQ(event.value, 1u);  // recirculated into round 1
    }
    if (event.block == rmt::TraceEvent::Block::Rpb) {
      if (event.round == 0) saw_r0 = true;
      if (event.round == 1) {
        saw_r1 = true;
        if (event.op.rfind("REPORT", 0) == 0) saw_report = true;
      }
    }
  }
  EXPECT_TRUE(saw_recirc);
  EXPECT_TRUE(saw_r0);
  EXPECT_TRUE(saw_r1);
  EXPECT_TRUE(saw_report);
  // The structured stream mirrors the rendered one: round transitions are
  // monotonic in recording order.
  int last_round = 0;
  for (const auto& event : events) {
    EXPECT_GE(event.round, last_round);
    last_round = event.round;
  }
}

TEST(Tracing, UnclaimedPacketTracesOnlyTheParser) {
  SimClock clock;
  dp::RunproDataplane dataplane(dp::DataplaneSpec{}, rmt::ParserConfig{});
  dataplane.pipeline().set_tracing(true);
  rmt::Packet pkt;
  pkt.ipv4 = rmt::Ipv4Header{.src = 1, .dst = 2, .proto = 17};
  pkt.udp = rmt::UdpHeader{1, 2};
  (void)dataplane.inject(pkt);
  const auto& events = dataplane.pipeline().last_trace_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(rmt::render_trace(events[0]).substr(0, 6), "parser");
}

}  // namespace
}  // namespace p4runpro
