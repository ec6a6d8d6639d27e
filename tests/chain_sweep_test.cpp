// Chain-vs-recirculation differential sweep: every chain-compatible
// catalog program must behave identically on a 2-switch chain (mirror
// deployment) and on a single recirculating switch, across a shared random
// packet stream.
#include <gtest/gtest.h>

#include "apps/program_library.h"
#include "common/clock.h"
#include "common/rng.h"
#include "control/controller.h"
#include "dataplane/switch_chain.h"

namespace p4runpro {
namespace {

rmt::Packet random_packet(Rng& rng) {
  rmt::Packet pkt;
  pkt.ipv4 = rmt::Ipv4Header{
      .src = 0x0a000000u | static_cast<Word>(rng.uniform(1 << 10)),
      .dst = 0x0a000000u | static_cast<Word>(rng.uniform(1 << 10)),
      .proto = 17,
      .ttl = 64,
      .dscp = 0,
      .ecn = 0,
      .total_len = 100};
  pkt.udp = rmt::UdpHeader{static_cast<std::uint16_t>(rng.uniform(65536)),
                           static_cast<std::uint16_t>(rng.uniform(8) == 0
                                                          ? 7777
                                                          : rng.uniform(65536))};
  if (pkt.udp->dst_port == 7777) {
    pkt.app = rmt::AppHeader{static_cast<Word>(rng.uniform(3)),
                             0x8888u + static_cast<Word>(rng.uniform(3)), 0,
                             rng.next_u32()};
  }
  pkt.ingress_port = static_cast<Port>(rng.uniform(4));
  return pkt;
}

class ChainSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(ChainSweep, ChainMatchesRecirculatingSwitch) {
  const std::string key = GetParam();
  const rmt::ParserConfig parser{{7777, 7788, 9999, 5555}};

  apps::ProgramConfig config;
  config.instance_name = key;
  config.threshold = 6;
  const std::string source = apps::make_program_source(key, config);

  // Reference: one switch with recirculation.
  SimClock clock_single;
  dp::RunproDataplane single(dp::DataplaneSpec{}, parser);
  ctrl::Controller controller_single(single, clock_single);
  auto ref = controller_single.link_single(source);
  ASSERT_TRUE(ref.ok()) << ref.error().str();

  const auto* installed = controller_single.program(ref.value().id);
  if (!dp::SwitchChain::chain_compatibility(installed->image->ir.vmem_depths,
                                            installed->image->alloc.x,
                                            single.spec().total_rpbs())
           .ok()) {
    GTEST_SKIP() << key << " is not chain-compatible";
  }

  // Chain: two switches, same program mirrored on both.
  dp::SwitchChain chain(2, dp::DataplaneSpec{}, parser);
  SimClock clock_a, clock_b;
  ctrl::Controller ca(chain.switch_at(0), clock_a);
  ctrl::Controller cb(chain.switch_at(1), clock_b);
  ASSERT_TRUE(ca.link_single(source).ok());
  ASSERT_TRUE(cb.link_single(source).ok());

  Rng rng(key.size() * 1237);
  for (int i = 0; i < 200; ++i) {
    const rmt::Packet pkt = random_packet(rng);
    const auto expect = single.inject(pkt);
    const auto actual = chain.inject(pkt);
    EXPECT_EQ(actual.fate, expect.fate) << key << " pkt " << i;
    EXPECT_EQ(actual.egress_port, expect.egress_port) << key << " pkt " << i;
    if (expect.packet.ipv4 && actual.packet.ipv4) {
      EXPECT_EQ(actual.packet.ipv4->dst, expect.packet.ipv4->dst) << key;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ChainCompatible, ChainSweep,
                         ::testing::Values("cache", "hh", "cms", "bf", "sumax",
                                           "hll", "firewall", "ecn",
                                           "calculator", "l2", "l3", "tunnel"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace p4runpro
