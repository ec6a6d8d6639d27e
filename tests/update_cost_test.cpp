// Update-engine cost model tests: the virtual-clock charges must follow
// the documented bfrt model exactly — per-entry writes, per-batch
// overheads, and the memory-reset charge on termination.
#include <gtest/gtest.h>

#include <deque>

#include "apps/program_library.h"
#include "common/clock.h"
#include "common/rng.h"
#include "control/controller.h"
#include "dataplane/runpro_dataplane.h"

namespace p4runpro {
namespace {

TEST(UpdateCost, InstallChargeMatchesTheModel) {
  SimClock clock;
  dp::RunproDataplane dataplane(dp::DataplaneSpec{}, rmt::ParserConfig{{7777}});
  ctrl::BfrtCostModel cost;  // defaults
  ctrl::Controller controller(dataplane, clock, rp::Objective{}, cost);

  apps::ProgramConfig config;
  config.instance_name = "cache";
  auto linked = controller.link_single(apps::make_program_source("cache", config));
  ASSERT_TRUE(linked.ok());
  const auto* installed = controller.program(linked.value().id);
  ASSERT_NE(installed, nullptr);

  const auto rpb_entries = installed->rpb_handles.size();
  const auto recirc_entries = installed->recirc_handles.size();
  const auto filter_entries = installed->filter_handles.size();
  // Three batches (recirc, RPB, filters), one write per entry.
  const double expected_us =
      3 * cost.per_batch_overhead_us +
      cost.per_entry_write_us *
          static_cast<double>(rpb_entries + recirc_entries + filter_entries);
  EXPECT_NEAR(linked.value().stats.update_ms, expected_us / 1000.0, 1e-6);
}

TEST(UpdateCost, RevokeChargesEntriesAndMemoryReset) {
  SimClock clock;
  dp::RunproDataplane dataplane(dp::DataplaneSpec{}, rmt::ParserConfig{{7777}});
  ctrl::BfrtCostModel cost;
  ctrl::Controller controller(dataplane, clock, rp::Objective{}, cost);

  apps::ProgramConfig config;
  config.instance_name = "cache";
  config.mem_buckets = 256;  // 1 KB to reset
  auto linked = controller.link_single(apps::make_program_source("cache", config));
  ASSERT_TRUE(linked.ok());
  const auto* installed = controller.program(linked.value().id);
  const auto total_entries = installed->rpb_handles.size() +
                             installed->recirc_handles.size() +
                             installed->filter_handles.size();

  const double before_ms = clock.now_ms();
  ASSERT_TRUE(controller.revoke(linked.value().id).ok());
  const double revoke_ms = clock.now_ms() - before_ms;
  const double expected_us = 3 * cost.per_batch_overhead_us +
                             cost.per_entry_write_us * static_cast<double>(total_entries) +
                             cost.memory_reset_us_per_kb * 1.0 /*1 KB*/;
  EXPECT_NEAR(revoke_ms, expected_us / 1000.0, 1e-6);
}

TEST(UpdateCost, DelayScalesWithEntryCount) {
  // More elastic cases -> more entries -> strictly larger update delay
  // (the Table-1 complexity correlation).
  double previous = 0.0;
  for (int elastic : {2, 8, 32, 128}) {
    SimClock clock;
    dp::RunproDataplane dataplane(dp::DataplaneSpec{}, rmt::ParserConfig{{7777}});
    ctrl::Controller controller(dataplane, clock);
    apps::ProgramConfig config;
    config.instance_name = "cache";
    config.elastic_cases = elastic;
    auto linked = controller.link_single(apps::make_program_source("cache", config));
    ASSERT_TRUE(linked.ok()) << elastic;
    EXPECT_GT(linked.value().stats.update_ms, previous) << elastic;
    previous = linked.value().stats.update_ms;
  }
}

TEST(UpdateCost, IdenticalLinksReportIdenticalDelaysOnTwoBeds) {
  // Two fresh switches replay one seeded link/revoke sequence. Each link's
  // measured (wall-clock) allocation charge moves the two virtual clocks
  // apart, but a link's parse and update delays are intervals of the same
  // modelled charges, so they must agree to the last bit. Charges that are
  // not whole multiples of a power-of-two fraction of a millisecond (as a
  // calibrated model's are) make any subtraction of absolute millisecond
  // readings round differently on the two clocks.
  struct Bed {
    static ctrl::BfrtCostModel cost() {
      ctrl::BfrtCostModel model;
      model.per_entry_write_us = 123.4;
      model.per_batch_overhead_us = 456.7;
      return model;
    }
    SimClock clock;
    dp::RunproDataplane dataplane{dp::DataplaneSpec{}, rmt::ParserConfig{{7777}}};
    ctrl::Controller controller{dataplane, clock, rp::Objective{}, cost()};
    std::deque<ProgramId> live;
  };
  Bed beds[2];
  Rng rng(7);
  const auto& catalog = apps::program_catalog();
  for (int i = 0; i < 400; ++i) {
    apps::ProgramConfig config;
    const std::string& key = catalog[rng.uniform(catalog.size())].key;
    config.instance_name = key + "_" + std::to_string(i);
    config.elastic_cases = 1 + static_cast<int>(rng.uniform(16));
    const std::string source = apps::make_program_source(key, config);
    ctrl::LinkStats stats[2];
    for (int b = 0; b < 2; ++b) {
      auto linked = beds[b].controller.link_single(source);
      ASSERT_TRUE(linked.ok()) << i << ": " << linked.error().str();
      stats[b] = linked.value().stats;
      beds[b].live.push_back(linked.value().id);
      if (beds[b].live.size() > 48) {
        ASSERT_TRUE(beds[b].controller.revoke(beds[b].live.front()).ok());
        beds[b].live.pop_front();
      }
    }
    EXPECT_EQ(stats[0].parse_ms, stats[1].parse_ms) << "link " << i;
    EXPECT_EQ(stats[0].update_ms, stats[1].update_ms) << "link " << i;
  }
}

}  // namespace
}  // namespace p4runpro
