// Tests for the §7 extension features: incremental update (relink with
// state carry-over) and the multi-switch chain replacing recirculation.
#include <gtest/gtest.h>

#include "apps/program_library.h"
#include "common/clock.h"
#include "control/controller.h"
#include "dataplane/runpro_dataplane.h"
#include "common/rng.h"
#include "dataplane/switch_chain.h"
#include "obs/telemetry.h"

namespace p4runpro {
namespace {

rmt::Packet cache_packet(Word op, Word key, Word value = 0) {
  rmt::Packet pkt;
  pkt.ipv4 = rmt::Ipv4Header{.src = 0x0a000001, .dst = 0x0a000002, .proto = 17};
  pkt.udp = rmt::UdpHeader{.src_port = 4000, .dst_port = 7777};
  pkt.app = rmt::AppHeader{.op = op, .key1 = key, .key2 = 0, .value = value};
  pkt.ingress_port = 5;
  return pkt;
}

rmt::Packet hh_packet(std::uint32_t src) {
  rmt::Packet pkt;
  pkt.ipv4 = rmt::Ipv4Header{.src = src, .dst = 0x0b000001, .proto = 17};
  pkt.udp = rmt::UdpHeader{5000, 6000};
  pkt.ingress_port = 1;
  return pkt;
}

// --------------------------------------------------------------------------
// Incremental update (relink).
// --------------------------------------------------------------------------

class RelinkTest : public ::testing::Test {
 protected:
  RelinkTest()
      : dataplane_(dp::DataplaneSpec{}, rmt::ParserConfig{{7777}}),
        controller_(dataplane_, clock_) {}

  SimClock clock_;
  dp::RunproDataplane dataplane_;
  ctrl::Controller controller_;
};

TEST_F(RelinkTest, GrowsElasticCasesAndKeepsMemory) {
  // v1: cache with one key (2 elastic cases).
  apps::ProgramConfig v1;
  v1.instance_name = "cache";
  v1.elastic_cases = 2;
  auto linked = controller_.link_single(apps::make_program_source("cache", v1));
  ASSERT_TRUE(linked.ok()) << linked.error().str();
  ASSERT_TRUE(controller_.write_memory(linked.value().id, "mem1", 0, 0xAAAA).ok());

  // The paper's incremental-update scenario: add a key-value pair ->
  // two additional case blocks, relinked through the compiler.
  apps::ProgramConfig v2 = v1;
  v2.elastic_cases = 4;  // keys 0x8888 and 0x8889
  auto relinked =
      controller_.relink(linked.value().id, apps::make_program_source("cache", v2));
  ASSERT_TRUE(relinked.ok()) << relinked.error().str();
  EXPECT_NE(relinked.value().id, linked.value().id);
  EXPECT_EQ(controller_.program_count(), 1u);

  // Old key still served with the carried-over value; new key live too.
  auto old_key = dataplane_.inject(cache_packet(1, 0x8888));
  EXPECT_EQ(old_key.fate, rmt::PacketFate::Returned);
  EXPECT_EQ(old_key.packet.app->value, 0xAAAAu);
  ASSERT_TRUE(controller_.write_memory(relinked.value().id, "mem1", 1, 0xBBBB).ok());
  auto new_key = dataplane_.inject(cache_packet(1, 0x8889));
  EXPECT_EQ(new_key.fate, rmt::PacketFate::Returned);
  EXPECT_EQ(new_key.packet.app->value, 0xBBBBu);
}

TEST_F(RelinkTest, NoPacketSeesAMixedVersion) {
  apps::ProgramConfig v1;
  v1.instance_name = "cache";
  auto linked = controller_.link_single(apps::make_program_source("cache", v1));
  ASSERT_TRUE(linked.ok());
  ASSERT_TRUE(controller_.write_memory(linked.value().id, "mem1", 0, 7).ok());

  // At every intermediate step of the relink, a hit packet must be served
  // by one complete version: always Returned (both versions cache the key)
  // and never the miss path.
  controller_.updates().set_step_observer([&] {
    const auto result = dataplane_.inject(cache_packet(1, 0x8888));
    ASSERT_EQ(result.fate, rmt::PacketFate::Returned);
  });
  apps::ProgramConfig v2 = v1;
  v2.elastic_cases = 6;
  auto relinked =
      controller_.relink(linked.value().id, apps::make_program_source("cache", v2));
  ASSERT_TRUE(relinked.ok()) << relinked.error().str();
}

TEST_F(RelinkTest, FailedRelinkKeepsOldVersionRunning) {
  apps::ProgramConfig v1;
  v1.instance_name = "cache";
  auto linked = controller_.link_single(apps::make_program_source("cache", v1));
  ASSERT_TRUE(linked.ok());

  // Invalid source: relink must fail and leave v1 untouched.
  auto bad = controller_.relink(linked.value().id, "program broken { NOT_A_PRIM; }");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(controller_.program_count(), 1u);
  EXPECT_EQ(dataplane_.inject(cache_packet(1, 0x8888)).fate, rmt::PacketFate::Returned);

  // Unknown id.
  EXPECT_FALSE(controller_.relink(999, apps::make_program_source("cache", v1)).ok());
}

TEST_F(RelinkTest, MemoryCarryOverTruncatesToNewSize) {
  apps::ProgramConfig v1;
  v1.instance_name = "cache";
  v1.mem_buckets = 256;
  auto linked = controller_.link_single(apps::make_program_source("cache", v1));
  ASSERT_TRUE(linked.ok());
  ASSERT_TRUE(controller_.write_memory(linked.value().id, "mem1", 100, 42).ok());

  apps::ProgramConfig v2 = v1;
  v2.mem_buckets = 64;  // shrink
  auto relinked =
      controller_.relink(linked.value().id, apps::make_program_source("cache", v2));
  ASSERT_TRUE(relinked.ok()) << relinked.error().str();
  // Address 100 no longer exists; address range shrank cleanly.
  EXPECT_FALSE(controller_.read_memory(relinked.value().id, "mem1", 100).ok());
  EXPECT_TRUE(controller_.read_memory(relinked.value().id, "mem1", 63).ok());
}

// --------------------------------------------------------------------------
// Multi-switch chain.
// --------------------------------------------------------------------------

TEST(SwitchChain, LongProgramRunsAcrossTwoSwitchesWithoutRecirculation) {
  // hh needs two rounds; on a 2-switch chain, round-1 executes on the
  // second switch instead of recirculating.
  dp::SwitchChain chain(2, dp::DataplaneSpec{}, rmt::ParserConfig{});
  SimClock clock0, clock1;
  ctrl::Controller c0(chain.switch_at(0), clock0);
  ctrl::Controller c1(chain.switch_at(1), clock1);

  apps::ProgramConfig config;
  config.instance_name = "hh";
  config.threshold = 5;
  const std::string source = apps::make_program_source("hh", config);
  ASSERT_TRUE(c0.link_single(source).ok());
  ASSERT_TRUE(c1.link_single(source).ok());

  int reported = 0;
  for (int i = 0; i < 20; ++i) {
    const auto result = chain.inject(hh_packet(0x0a000010));
    // One hop to the second switch per packet, zero recirculation passes
    // on either switch.
    EXPECT_EQ(result.recirc_passes, 1);
    if (result.fate == rmt::PacketFate::Reported) ++reported;
  }
  EXPECT_EQ(reported, 1);
  EXPECT_EQ(chain.switch_at(0).pipeline().total_recirc_passes(), 20u);

  // Behavior identical to a single switch with recirculation.
  SimClock clock;
  dp::RunproDataplane single(dp::DataplaneSpec{}, rmt::ParserConfig{});
  ctrl::Controller cs(single, clock);
  ASSERT_TRUE(cs.link_single(source).ok());
  int single_reported = 0;
  for (int i = 0; i < 20; ++i) {
    if (single.inject(hh_packet(0x0a000010)).fate == rmt::PacketFate::Reported) {
      ++single_reported;
    }
  }
  EXPECT_EQ(single_reported, reported);
}

TEST(SwitchChain, ShortProgramsExitAtTheFirstSwitch) {
  dp::SwitchChain chain(2, dp::DataplaneSpec{}, rmt::ParserConfig{{7777}});
  SimClock clock0, clock1;
  ctrl::Controller c0(chain.switch_at(0), clock0);
  ctrl::Controller c1(chain.switch_at(1), clock1);
  apps::ProgramConfig config;
  config.instance_name = "cache";
  const std::string source = apps::make_program_source("cache", config);
  ASSERT_TRUE(c0.link_single(source).ok());
  ASSERT_TRUE(c1.link_single(source).ok());

  const auto result = chain.inject(cache_packet(1, 0x9999));
  EXPECT_EQ(result.fate, rmt::PacketFate::Forwarded);
  EXPECT_EQ(result.egress_port, 32);
  EXPECT_EQ(result.recirc_passes, 0);
  // The second switch never saw the packet.
  EXPECT_EQ(chain.switch_at(1).pipeline().packets_in(), 0u);
}

TEST(SwitchChain, RunsOffTheEndWhenTooShort) {
  // A 1-switch "chain" cannot host hh's second round.
  obs::Telemetry telemetry;
  dp::SwitchChain chain(1, dp::DataplaneSpec{}, rmt::ParserConfig{});
  SimClock clock;
  ctrl::Controller c0(chain.switch_at(0), clock, rp::Objective{}, ctrl::BfrtCostModel{},
                      &telemetry);
  apps::ProgramConfig config;
  config.instance_name = "hh";
  const auto linked = c0.link_single(apps::make_program_source("hh", config));
  ASSERT_TRUE(linked.ok());
  EXPECT_EQ(chain.inject(hh_packet(0x0a000010)).fate, rmt::PacketFate::RecircLimit);
  // The hop it ran off counts the drop, as a recirculating switch counts a
  // RecircLimit, and the monitor observing the entry tallies it.
  EXPECT_EQ(chain.switch_at(0).pipeline().packets_dropped(), 1u);
  const obs::ProgramHealth* health = telemetry.monitor.health(linked.value().id);
  ASSERT_NE(health, nullptr);
  EXPECT_EQ(health->drops, 1u);
}

TEST(SwitchChain, MulticastReachesTheGroupPorts) {
  // The hop a MULTICAST packet exits on replicates it to its group, as one
  // switch does.
  const std::string source =
      "program m(<hdr.ipv4.proto, 17, 0xff>) {\n"
      "  EXTRACT(hdr.ipv4.ttl, har);\n"
      "  BRANCH:\n"
      "  case(<har, 64, 0xff>) {\n"
      "    MULTICAST(7);\n"
      "  };\n"
      "  DROP;\n"
      "}\n";
  rmt::Packet pkt;
  pkt.ipv4 = rmt::Ipv4Header{.src = 1, .dst = 2, .proto = 17, .ttl = 64};
  pkt.udp = rmt::UdpHeader{1, 2};

  dp::SwitchChain chain(2, dp::DataplaneSpec{}, rmt::ParserConfig{});
  for (int hop = 0; hop < chain.length(); ++hop) {
    chain.switch_at(hop).pipeline().set_multicast_group(7, {2, 3});
  }
  SimClock chain_clock;
  ctrl::Controller on_chain(chain, chain_clock);
  ASSERT_TRUE(on_chain.link_single(source).ok());

  dp::RunproDataplane single(dp::DataplaneSpec{}, rmt::ParserConfig{});
  single.pipeline().set_multicast_group(7, {2, 3});
  SimClock single_clock;
  ctrl::Controller on_single(single, single_clock);
  ASSERT_TRUE(on_single.link_single(source).ok());

  const auto chained = chain.inject(pkt);
  EXPECT_EQ(chained.fate, rmt::PacketFate::Multicasted);
  EXPECT_EQ(chained.multicast_ports, (std::vector<Port>{2, 3}));
  const auto switched = single.inject(pkt);
  EXPECT_EQ(switched.fate, chained.fate);
  EXPECT_EQ(switched.multicast_ports, chained.multicast_ports);
}

TEST(SwitchChain, ChainCompatibilityCheck) {
  // hh touches each vmem in exactly one round: compatible.
  SimClock clock;
  dp::RunproDataplane dataplane(dp::DataplaneSpec{}, rmt::ParserConfig{});
  ctrl::Controller controller(dataplane, clock);
  apps::ProgramConfig config;
  config.instance_name = "hh";
  auto linked = controller.link_single(apps::make_program_source("hh", config));
  ASSERT_TRUE(linked.ok());
  const auto* installed = controller.program(linked.value().id);
  EXPECT_TRUE(dp::SwitchChain::chain_compatibility(installed->image->ir.vmem_depths,
                                                   installed->image->alloc.x,
                                                   dataplane.spec().total_rpbs())
                  .ok());

  // A program with sequential access to one vmem is NOT chain-compatible
  // (constraint-(5) adjustment, DESIGN.md): the two rounds would live on
  // different switches' memories.
  auto rw = controller.link_single(
      "@ m 64\n"
      "program rw(<hdr.ipv4.src, 1, 0xff>) {\n"
      "  LOADI(mar, 0);\n"
      "  MEMREAD(m);\n"
      "  LOADI(mar, 1);\n"
      "  MEMWRITE(m);\n"
      "}\n");
  ASSERT_TRUE(rw.ok()) << rw.error().str();
  const auto* rw_installed = controller.program(rw.value().id);
  EXPECT_FALSE(dp::SwitchChain::chain_compatibility(rw_installed->image->ir.vmem_depths,
                                                    rw_installed->image->alloc.x,
                                                    dataplane.spec().total_rpbs())
                   .ok());
}

TEST(SwitchChain, RelinkOnChainSwitchesMidTraffic) {
  // Incremental update composes with chains: re-link the hh program (new
  // threshold) on both switches; traffic keeps flowing and the new
  // threshold takes effect.
  dp::SwitchChain chain(2, dp::DataplaneSpec{}, rmt::ParserConfig{});
  SimClock clock0, clock1;
  ctrl::Controller c0(chain.switch_at(0), clock0);
  ctrl::Controller c1(chain.switch_at(1), clock1);

  apps::ProgramConfig v1;
  v1.instance_name = "hh";
  v1.threshold = 1000;  // effectively never fires
  const std::string source_v1 = apps::make_program_source("hh", v1);
  auto id0 = c0.link_single(source_v1);
  auto id1 = c1.link_single(source_v1);
  ASSERT_TRUE(id0.ok());
  ASSERT_TRUE(id1.ok());

  for (int i = 0; i < 10; ++i) {
    EXPECT_NE(chain.inject(hh_packet(0x0a000021)).fate, rmt::PacketFate::Reported);
  }

  apps::ProgramConfig v2 = v1;
  v2.threshold = 3;
  const std::string source_v2 = apps::make_program_source("hh", v2);
  ASSERT_TRUE(c0.relink(id0.value().id, source_v2).ok());
  ASSERT_TRUE(c1.relink(id1.value().id, source_v2).ok());

  int reported = 0;
  for (int i = 0; i < 10; ++i) {
    if (chain.inject(hh_packet(0x0a000022)).fate == rmt::PacketFate::Reported) {
      ++reported;
    }
  }
  EXPECT_EQ(reported, 1);
}

// Long-running soak (excluded from the default run; enable with
// --gtest_also_run_disabled_tests): thousands of random lifecycle
// operations with traffic interleaved.
TEST(Soak, DISABLED_LongLifecycleWithTraffic) {
  dp::RunproDataplane dataplane(dp::DataplaneSpec{},
                                rmt::ParserConfig{{7777, 7788, 9999, 5555}});
  SimClock clock;
  ctrl::Controller controller(dataplane, clock);
  Rng rng(99);
  std::vector<ProgramId> live;
  const auto& catalog = apps::program_catalog();
  for (int step = 0; step < 5000; ++step) {
    const double roll = rng.uniform01();
    if (roll < 0.5 || live.empty()) {
      const auto& info = catalog[rng.uniform(catalog.size())];
      apps::ProgramConfig config;
      config.instance_name = info.key + "_s" + std::to_string(step);
      config.mem_buckets = 32u << rng.uniform(4);
      auto linked = controller.link_single(apps::make_program_source(info.key, config));
      if (linked.ok()) live.push_back(linked.value().id);
    } else {
      const std::size_t pick = rng.uniform(live.size());
      ASSERT_TRUE(controller.revoke(live[pick]).ok());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    // A little traffic between operations.
    rmt::Packet pkt;
    pkt.ipv4 = rmt::Ipv4Header{.src = rng.next_u32(), .dst = rng.next_u32(), .proto = 17};
    pkt.udp = rmt::UdpHeader{static_cast<std::uint16_t>(rng.uniform(65536)), 7777};
    (void)dataplane.inject(pkt);
  }
  for (ProgramId id : live) ASSERT_TRUE(controller.revoke(id).ok());
  EXPECT_DOUBLE_EQ(controller.resources().total_memory_utilization(), 0.0);
}

}  // namespace
}  // namespace p4runpro
