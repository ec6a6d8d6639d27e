// Parameterized sweeps across the whole program catalog and its
// configuration space: every (program, memory size, elastic cases)
// combination must compile, allocate within the model's constraints, link,
// survive a packet burst without crashing the pipeline, and revoke
// cleanly.
#include <gtest/gtest.h>

#include <tuple>

#include "apps/program_library.h"
#include "common/clock.h"
#include "common/rng.h"
#include "control/controller.h"
#include "dataplane/runpro_dataplane.h"

namespace p4runpro {
namespace {

using SweepParam = std::tuple<std::string, std::uint32_t, int>;

class ProgramSweep : public ::testing::TestWithParam<SweepParam> {};

rmt::Packet random_packet(Rng& rng) {
  rmt::Packet pkt;
  pkt.ipv4 = rmt::Ipv4Header{
      .src = 0x0a000000u | static_cast<Word>(rng.uniform(1 << 16)),
      .dst = 0x0a000000u | static_cast<Word>(rng.uniform(1 << 16)),
      .proto = 17,
      .ttl = 64,
      .dscp = 0,
      .ecn = 0,
      .total_len = 100};
  if (rng.uniform01() < 0.5) {
    pkt.ipv4->proto = 6;
    pkt.tcp = rmt::TcpHeader{static_cast<std::uint16_t>(rng.uniform(65536)),
                             static_cast<std::uint16_t>(rng.uniform(65536)), 0x10};
  } else {
    const std::uint16_t kPorts[] = {7777, 7788, 9999, 5555};
    pkt.udp = rmt::UdpHeader{static_cast<std::uint16_t>(rng.uniform(65536)),
                             kPorts[rng.uniform(4)]};
    pkt.app = rmt::AppHeader{static_cast<Word>(rng.uniform(3)),
                             0x8888u + static_cast<Word>(rng.uniform(260)),
                             0, rng.next_u32()};
  }
  pkt.payload_len = 64;
  pkt.ingress_port = static_cast<Port>(rng.uniform(4));
  return pkt;
}

TEST_P(ProgramSweep, CompileLinkRunRevoke) {
  const auto& [key, mem, elastic] = GetParam();
  SimClock clock;
  dp::RunproDataplane dataplane(dp::DataplaneSpec{},
                                rmt::ParserConfig{{7777, 7788, 9999, 5555}});
  ctrl::Controller controller(dataplane, clock);

  apps::ProgramConfig config;
  config.instance_name = "sweep";
  config.mem_buckets = mem;
  config.elastic_cases = elastic;
  auto linked = controller.link_single(apps::make_program_source(key, config));
  ASSERT_TRUE(linked.ok()) << key << " mem=" << mem << " elastic=" << elastic
                           << ": " << linked.error().str();

  const auto* installed = controller.program(linked.value().id);
  ASSERT_NE(installed, nullptr);

  // Allocation constraint audit on the linked result.
  const auto& spec = dataplane.spec();
  const auto& x = installed->image->alloc.x;
  ASSERT_EQ(static_cast<int>(x.size()), installed->image->ir.depth);
  for (std::size_t i = 1; i < x.size(); ++i) ASSERT_LT(x[i - 1], x[i]);
  for (std::size_t d = 0; d < x.size(); ++d) {
    const auto& req = installed->image->ir.depth_reqs[d];
    const int phys = dp::physical_rpb(x[d], spec.total_rpbs());
    if (req.forwarding) {
      EXPECT_TRUE(dp::is_ingress_rpb(phys, spec.ingress_rpbs)) << key;
    }
    for (const auto& vmem : req.vmems) {
      EXPECT_EQ(installed->image->alloc.vmem_rpb.at(vmem), phys) << key;
    }
  }
  EXPECT_LE(installed->image->alloc.rounds, spec.max_recirculations + 1);

  // Memory placements exist for every allocated vmem and have the rounded
  // sizes.
  for (const auto& [vmem, size] : installed->image->ir.vmem_sizes) {
    if (installed->image->alloc.vmem_rpb.count(vmem) == 0) continue;
    const auto& placement = installed->placements.at(vmem);
    EXPECT_EQ(placement.block.size, size) << key << " " << vmem;
  }

  // Burst of random traffic: nothing crashes, recirculation stays within
  // the program's round budget.
  Rng rng(static_cast<std::uint64_t>(mem) * 131 + static_cast<std::uint64_t>(elastic));
  for (int i = 0; i < 50; ++i) {
    const auto result = dataplane.inject(random_packet(rng));
    EXPECT_NE(result.fate, rmt::PacketFate::RecircLimit) << key;
    EXPECT_LE(result.recirc_passes, installed->image->alloc.rounds - 1) << key;
  }

  ASSERT_TRUE(controller.revoke(linked.value().id).ok());
  EXPECT_DOUBLE_EQ(controller.resources().total_memory_utilization(), 0.0);
  EXPECT_DOUBLE_EQ(controller.resources().total_entry_utilization(), 0.0);
}

std::vector<SweepParam> sweep_space() {
  std::vector<SweepParam> out;
  for (const auto& info : apps::program_catalog()) {
    for (std::uint32_t mem : {64u, 256u, 1024u}) {
      for (int elastic : {1, 2, 8}) {
        out.emplace_back(info.key, mem, elastic);
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, ProgramSweep, ::testing::ValuesIn(sweep_space()),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return std::get<0>(info.param) + "_m" + std::to_string(std::get<1>(info.param)) +
             "_e" + std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace p4runpro
