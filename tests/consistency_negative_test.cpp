// Negative consistency test: demonstrate WHY the Fig.-6 ordering matters.
// Installing the init filter FIRST (the wrong order) exposes an
// intermediate state where a cache-hit packet is claimed by the program id
// but finds no BRANCH entry yet — it falls onto the already-installed
// miss-path FORWARD and is sent to the server, the exact misprocessing the
// paper's example describes ("all cache hit packets will be forwarded to
// the server").
#include <gtest/gtest.h>

#include "apps/program_library.h"
#include "common/clock.h"
#include "compiler/compiler.h"
#include "compiler/entrygen.h"
#include "compiler/solver.h"
#include "control/controller.h"
#include "dataplane/runpro_dataplane.h"

namespace p4runpro {
namespace {

rmt::Packet cache_hit_read() {
  rmt::Packet pkt;
  pkt.ipv4 = rmt::Ipv4Header{.src = 0x0a000001, .dst = 0x0a000002, .proto = 17};
  pkt.udp = rmt::UdpHeader{.src_port = 4000, .dst_port = 7777};
  pkt.app = rmt::AppHeader{.op = 1, .key1 = 0x8888, .key2 = 0, .value = 0};
  pkt.ingress_port = 5;
  return pkt;
}

TEST(ConsistencyNegative, FilterFirstOrderExposesMisprocessing) {
  dp::RunproDataplane dataplane(dp::DataplaneSpec{}, rmt::ParserConfig{{7777}});
  ctrl::ResourceManager resources(dataplane.spec());

  // Compile and allocate the cache program by hand so we control the
  // installation order.
  apps::ProgramConfig config;
  config.instance_name = "cache";
  auto ir = rp::compile_single(apps::make_program_source("cache", config));
  ASSERT_TRUE(ir.ok());
  auto alloc = rp::solve_allocation(ir.value(), dataplane.spec(),
                                    resources.snapshot(), rp::Objective{});
  ASSERT_TRUE(alloc.ok());
  std::map<std::string, ctrl::VmemPlacement> placements;
  for (const auto& [vmem, rpb] : alloc.value().vmem_rpb) {
    placements[vmem] =
        ctrl::VmemPlacement{rpb, resources.allocate_memory(rpb, ir.value().vmem_sizes.at(vmem)).take()};
  }
  const ProgramId id = 1;
  auto plan = rp::generate_entries(ir.value(), alloc.value(), id, placements,
                                   dataplane.spec());

  // WRONG order: activate the program id first, then install the entries
  // in reverse plan order (FORWARD before BRANCH — the paper's example of
  // a harmful intermediate state).
  ASSERT_TRUE(dataplane.init_block().install(id, plan.filters, 1).ok());

  bool saw_misprocessing = false;
  std::vector<dp::RpbEntry> reversed(plan.rpb_entries.rbegin(),
                                         plan.rpb_entries.rend());
  for (const auto& spec_entry : reversed) {
    const auto result = dataplane.inject(cache_hit_read());
    if (result.fate == rmt::PacketFate::Forwarded && result.egress_port == 32) {
      // Is the BRANCH already installed? If not, this is the bug.
      saw_misprocessing = true;
    }
    ASSERT_TRUE(dataplane.rpb(spec_entry.rpb)
                    .table()
                    .insert(spec_entry.keys, spec_entry.priority, spec_entry.action)
                    .ok());
  }
  EXPECT_TRUE(saw_misprocessing)
      << "installing the filter first should expose the partial program";

  // Fully installed: behaves correctly again.
  EXPECT_EQ(dataplane.inject(cache_hit_read()).fate, rmt::PacketFate::Returned);
}

TEST(ConsistencyNegative, CorrectOrderNeverMisprocesses) {
  // Same manual walk with the Fig.-6 order (filter last): the hit packet
  // is default-forwarded to port 0 until the instant the program becomes
  // fully live.
  dp::RunproDataplane dataplane(dp::DataplaneSpec{}, rmt::ParserConfig{{7777}});
  ctrl::ResourceManager resources(dataplane.spec());
  apps::ProgramConfig config;
  config.instance_name = "cache";
  auto ir = rp::compile_single(apps::make_program_source("cache", config));
  ASSERT_TRUE(ir.ok());
  auto alloc = rp::solve_allocation(ir.value(), dataplane.spec(),
                                    resources.snapshot(), rp::Objective{});
  ASSERT_TRUE(alloc.ok());
  std::map<std::string, ctrl::VmemPlacement> placements;
  for (const auto& [vmem, rpb] : alloc.value().vmem_rpb) {
    placements[vmem] =
        ctrl::VmemPlacement{rpb, resources.allocate_memory(rpb, ir.value().vmem_sizes.at(vmem)).take()};
  }
  auto plan = rp::generate_entries(ir.value(), alloc.value(), 1, placements,
                                   dataplane.spec());

  for (const auto& spec_entry : plan.rpb_entries) {
    const auto result = dataplane.inject(cache_hit_read());
    EXPECT_EQ(result.fate, rmt::PacketFate::Forwarded);
    EXPECT_EQ(result.egress_port, 0);  // old configuration, never port 32
    ASSERT_TRUE(dataplane.rpb(spec_entry.rpb)
                    .table()
                    .insert(spec_entry.keys, spec_entry.priority, spec_entry.action)
                    .ok());
  }
  ASSERT_TRUE(dataplane.init_block().install(1, plan.filters, 1).ok());
  EXPECT_EQ(dataplane.inject(cache_hit_read()).fate, rmt::PacketFate::Returned);
}

}  // namespace
}  // namespace p4runpro
