// Failure-injection tests: a control-channel fault at ANY point during a
// program install must leave the switch exactly as it was — no residual
// entries, no leaked memory, no half-visible program — and the controller
// must stay usable afterwards.
#include <gtest/gtest.h>

#include "apps/program_library.h"
#include "common/clock.h"
#include "control/controller.h"
#include "dataplane/runpro_dataplane.h"

namespace p4runpro {
namespace {

rmt::Packet cache_read(Word key) {
  rmt::Packet pkt;
  pkt.ipv4 = rmt::Ipv4Header{.src = 0x0a000001, .dst = 0x0a000002, .proto = 17};
  pkt.udp = rmt::UdpHeader{.src_port = 4000, .dst_port = 7777};
  pkt.app = rmt::AppHeader{.op = 1, .key1 = key, .key2 = 0, .value = 0};
  pkt.ingress_port = 5;
  return pkt;
}

class FailureInjection : public ::testing::TestWithParam<int> {
 protected:
  FailureInjection()
      : dataplane_(dp::DataplaneSpec{}, rmt::ParserConfig{{7777}}),
        controller_(dataplane_, clock_) {}

  void expect_pristine() {
    EXPECT_EQ(controller_.program_count(), 0u);
    EXPECT_DOUBLE_EQ(controller_.resources().total_memory_utilization(), 0.0);
    EXPECT_DOUBLE_EQ(controller_.resources().total_entry_utilization(), 0.0);
    EXPECT_EQ(dataplane_.init_block().total_entries(), 0u);
    EXPECT_EQ(dataplane_.recirc_block().entries(), 0u);
    for (int rpb = 1; rpb <= dataplane_.spec().total_rpbs(); ++rpb) {
      EXPECT_EQ(dataplane_.rpb(rpb).table().size(), 0u) << "rpb " << rpb;
    }
  }

  SimClock clock_;
  dp::RunproDataplane dataplane_;
  ctrl::Controller controller_;
};

TEST_P(FailureInjection, FaultDuringInstallRollsBackCompletely) {
  apps::ProgramConfig config;
  config.instance_name = "cache";
  const std::string source = apps::make_program_source("cache", config);

  controller_.updates().set_fault_after_writes(GetParam());
  auto linked = controller_.link_single(source);
  ASSERT_FALSE(linked.ok());
  EXPECT_NE(linked.error().str().find("injected"), std::string::npos);
  expect_pristine();

  // Traffic is unaffected: default forwarding only.
  EXPECT_EQ(dataplane_.inject(cache_read(0x8888)).egress_port, 0);

  // The controller recovers: disabling the fault lets the same program
  // link normally (including the id that was tentatively consumed).
  controller_.updates().set_fault_after_writes(-1);
  auto retry = controller_.link_single(source);
  ASSERT_TRUE(retry.ok()) << retry.error().str();
  EXPECT_EQ(dataplane_.inject(cache_read(0x8888)).fate, rmt::PacketFate::Returned);
}

// Fault positions: 0 = before the recirculation entries, small values land
// inside the RPB-entry batch, 16+ hits the final filter install.
INSTANTIATE_TEST_SUITE_P(FaultPositions, FailureInjection,
                         ::testing::Values(0, 1, 5, 10, 15, 16));

TEST(FailureInjectionMulti, FaultDuringSecondProgramLeavesFirstIntact) {
  SimClock clock;
  dp::RunproDataplane dataplane(dp::DataplaneSpec{}, rmt::ParserConfig{{7777}});
  ctrl::Controller controller(dataplane, clock);

  apps::ProgramConfig a;
  a.instance_name = "cache";
  auto first = controller.link_single(apps::make_program_source("cache", a));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(controller.write_memory(first.value().id, "mem1", 0, 42).ok());

  apps::ProgramConfig b;
  b.instance_name = "lb";
  controller.updates().set_fault_after_writes(4);
  ASSERT_FALSE(controller.link_single(apps::make_program_source("lb", b)).ok());
  controller.updates().set_fault_after_writes(-1);

  // The first program is untouched and functional.
  EXPECT_EQ(controller.program_count(), 1u);
  const auto read = dataplane.inject(cache_read(0x8888));
  EXPECT_EQ(read.fate, rmt::PacketFate::Returned);
  EXPECT_EQ(read.packet.app->value, 42u);
}

TEST(FailureInjectionMulti, FaultDuringRelinkKeepsOldVersion) {
  SimClock clock;
  dp::RunproDataplane dataplane(dp::DataplaneSpec{}, rmt::ParserConfig{{7777}});
  ctrl::Controller controller(dataplane, clock);

  apps::ProgramConfig v1;
  v1.instance_name = "cache";
  auto linked = controller.link_single(apps::make_program_source("cache", v1));
  ASSERT_TRUE(linked.ok());
  ASSERT_TRUE(controller.write_memory(linked.value().id, "mem1", 0, 7).ok());

  apps::ProgramConfig v2 = v1;
  v2.elastic_cases = 8;
  controller.updates().set_fault_after_writes(6);
  ASSERT_FALSE(
      controller.relink(linked.value().id, apps::make_program_source("cache", v2)).ok());
  controller.updates().set_fault_after_writes(-1);

  // v1 still running with its state.
  EXPECT_EQ(controller.program_count(), 1u);
  const auto read = dataplane.inject(cache_read(0x8888));
  EXPECT_EQ(read.fate, rmt::PacketFate::Returned);
  EXPECT_EQ(read.packet.app->value, 7u);
}

TEST(GeometryVariants, Tofino2ClassSpecRunsLongProgramsWithoutRecirculation) {
  // More stages per pipe (Tofino2-style, §5: "utilizing other ASICs with
  // more pipeline stages can achieve higher performance"). Note the split
  // matters: hh ends in REPORT, which must execute in an ingress RPB, so
  // the operator provisions an ingress-heavy geometry and the 23-deep hh
  // fits in a single pass.
  dp::DataplaneSpec spec;
  spec.ingress_rpbs = 24;
  spec.egress_rpbs = 12;
  dp::RunproDataplane dataplane(spec, rmt::ParserConfig{});
  SimClock clock;
  ctrl::Controller controller(dataplane, clock);

  apps::ProgramConfig config;
  config.instance_name = "hh";
  config.threshold = 5;
  auto linked = controller.link_single(apps::make_program_source("hh", config));
  ASSERT_TRUE(linked.ok()) << linked.error().str();
  EXPECT_EQ(controller.program(linked.value().id)->image->alloc.rounds, 1);

  rmt::Packet heavy;
  heavy.ipv4 = rmt::Ipv4Header{.src = 0x0a000010, .dst = 0x0b000001, .proto = 17};
  heavy.udp = rmt::UdpHeader{5000, 6000};
  heavy.ingress_port = 1;
  int reported = 0;
  for (int i = 0; i < 20; ++i) {
    const auto result = dataplane.inject(heavy);
    EXPECT_EQ(result.recirc_passes, 0);
    if (result.fate == rmt::PacketFate::Reported) ++reported;
  }
  EXPECT_EQ(reported, 1);
}

}  // namespace
}  // namespace p4runpro
