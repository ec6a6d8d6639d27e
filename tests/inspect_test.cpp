// Introspection tests: the disassembler renders the compiled allocation,
// per-program traffic counters track claimed packets, and the health
// report renders every monitor event kind once.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "apps/program_library.h"
#include "common/clock.h"
#include "control/controller.h"
#include "control/inspect.h"
#include "dataplane/runpro_dataplane.h"
#include "obs/telemetry.h"

namespace p4runpro {
namespace {

class InspectTest : public ::testing::Test {
 protected:
  InspectTest()
      : dataplane_(dp::DataplaneSpec{}, rmt::ParserConfig{{7777}}),
        controller_(dataplane_, clock_) {}

  SimClock clock_;
  dp::RunproDataplane dataplane_;
  ctrl::Controller controller_;
};

TEST_F(InspectTest, DisassemblyContainsTheProgramStructure) {
  apps::ProgramConfig config;
  config.instance_name = "cache";
  auto linked = controller_.link_single(apps::make_program_source("cache", config));
  ASSERT_TRUE(linked.ok());
  const auto* installed = controller_.program(linked.value().id);
  ASSERT_NE(installed, nullptr);

  const std::string dump = ctrl::disassemble(*installed, dataplane_.spec());
  // Header line with identity and shape.
  EXPECT_NE(dump.find("program 'cache'"), std::string::npos);
  EXPECT_NE(dump.find("depth 10"), std::string::npos);
  EXPECT_NE(dump.find("1 round(s)"), std::string::npos);
  // Filter, memory map, and key operations all present.
  EXPECT_NE(dump.find("hdr.udp.dst_port"), std::string::npos);
  EXPECT_NE(dump.find("mem1: RPB"), std::string::npos);
  EXPECT_NE(dump.find("EXTRACT"), std::string::npos);
  EXPECT_NE(dump.find("BRANCH"), std::string::npos);
  EXPECT_NE(dump.find("MEM(salu="), std::string::npos);
  EXPECT_NE(dump.find("FORWARD(32)"), std::string::npos);
  // Branch entries carry their register conditions and targets.
  EXPECT_NE(dump.find("-> b"), std::string::npos);
  EXPECT_NE(dump.find("sar=0x8888"), std::string::npos);
}

TEST_F(InspectTest, DisassemblyShowsRoundsForLongPrograms) {
  apps::ProgramConfig config;
  config.instance_name = "hh";
  auto linked = controller_.link_single(apps::make_program_source("hh", config));
  ASSERT_TRUE(linked.ok());
  const std::string dump =
      ctrl::disassemble(*controller_.program(linked.value().id), dataplane_.spec());
  EXPECT_NE(dump.find("2 round(s)"), std::string::npos);
  EXPECT_NE(dump.find("r1 "), std::string::npos);  // round-1 entries rendered
}

TEST_F(InspectTest, ProgramPacketCounters) {
  apps::ProgramConfig config;
  config.instance_name = "cache";
  auto linked = controller_.link_single(apps::make_program_source("cache", config));
  ASSERT_TRUE(linked.ok());
  const ProgramId id = linked.value().id;
  EXPECT_EQ(controller_.program_packets(id), 0u);

  rmt::Packet pkt;
  pkt.ipv4 = rmt::Ipv4Header{.src = 1, .dst = 2, .proto = 17};
  pkt.udp = rmt::UdpHeader{1000, 7777};
  pkt.app = rmt::AppHeader{1, 0x8888, 0, 0};
  pkt.ingress_port = 1;
  for (int i = 0; i < 7; ++i) (void)dataplane_.inject(pkt);
  EXPECT_EQ(controller_.program_packets(id), 7u);

  // Unclaimed traffic does not count.
  pkt.udp->dst_port = 9000;
  (void)dataplane_.inject(pkt);
  EXPECT_EQ(controller_.program_packets(id), 7u);

  // Counter is retired with the program (and a recycled id starts fresh).
  ASSERT_TRUE(controller_.revoke(id).ok());
  EXPECT_EQ(controller_.program_packets(id), 0u);
}

/// The health report's event lines (the tail after "events").
std::vector<std::string> event_lines(const std::string& report) {
  std::vector<std::string> lines;
  std::istringstream in(report.substr(report.find("events (most recent last):")));
  std::string line;
  std::getline(in, line);  // the heading
  while (std::getline(in, line) && line.rfind("  [", 0) == 0) lines.push_back(line);
  return lines;
}

TEST(HealthReport, OneLinkRendersOneDeployAndOneCommitLine) {
  obs::Telemetry telemetry;
  SimClock clock;
  dp::RunproDataplane dataplane(dp::DataplaneSpec{}, rmt::ParserConfig{{7777}});
  ctrl::Controller controller(dataplane, clock, {}, {}, &telemetry);
  apps::ProgramConfig config;
  config.instance_name = "cache";
  ASSERT_TRUE(controller.link_single(apps::make_program_source("cache", config)).ok());

  const auto lines = event_lines(ctrl::health_report(telemetry));
  ASSERT_EQ(lines.size(), 2u) << ctrl::health_report(telemetry);
  EXPECT_NE(lines[0].find("deploy  1 'cache' ("), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find("commit  1 'cache'"), std::string::npos) << lines[1];
}

TEST(HealthReport, EveryEventKindRendersItsFields) {
  obs::Telemetry telemetry;
  obs::ProgramHealthMonitor& monitor = telemetry.monitor;
  monitor.admission_shed(3, "t3_cache", "admission queue full");
  monitor.defrag_moved(4, 9, "lb", 120, 80);
  monitor.txn_rolled_back(5, "nc", "injected fault at write 2");
  monitor.chain_txn_committed(6, "l2", 3);
  monitor.chain_txn_rolled_back(7, "hh", 3, 1, "hop 1 write failed");

  const auto lines = event_lines(ctrl::health_report(telemetry));
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_NE(lines[0].find("shed    tenant 3 't3_cache': admission queue full"),
            std::string::npos)
      << lines[0];
  EXPECT_NE(lines[1].find("defrag  4 -> 9 'lb' (gain 40 words)"), std::string::npos)
      << lines[1];
  EXPECT_NE(lines[2].find("rollback 5 'nc': injected fault at write 2"), std::string::npos)
      << lines[2];
  EXPECT_NE(lines[3].find("commit  6 'l2' (chain, 3 hops)"), std::string::npos)
      << lines[3];
  EXPECT_NE(lines[4].find("rollback 7 'hh' (chain, 3 hops, faulted hop 1): hop 1 write "
                          "failed"),
            std::string::npos)
      << lines[4];
}

}  // namespace
}  // namespace p4runpro
