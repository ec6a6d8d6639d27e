// The on-disk program corpus (programs/*.p4rp — the paper's published
// listings) must lex, parse, compile, allocate and link on a fresh switch.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/clock.h"
#include "control/controller.h"
#include "compiler/p4lite.h"
#include "dataplane/runpro_dataplane.h"

namespace p4runpro {
namespace {

std::string read_file(const std::filesystem::path& path) {
  std::ifstream file(path);
  EXPECT_TRUE(file.is_open()) << path;
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

std::filesystem::path corpus_dir() {
  // The corpus lives in the source tree, wherever the tests are built or run.
  return std::filesystem::path(P4RUNPRO_SOURCE_DIR) / "programs";
}

class CorpusTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CorpusTest, FileLinksOnFreshSwitch) {
  const auto path = corpus_dir() / GetParam();
  ASSERT_TRUE(std::filesystem::exists(path)) << path;
  const std::string source = read_file(path);
  ASSERT_FALSE(source.empty());

  SimClock clock;
  dp::RunproDataplane dataplane(dp::DataplaneSpec{}, rmt::ParserConfig{{7777}});
  ctrl::Controller controller(dataplane, clock);
  auto results = controller.link(source);
  ASSERT_TRUE(results.ok()) << GetParam() << ": " << results.error().str();
  ASSERT_EQ(results.value().size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(PaperListings, CorpusTest,
                         ::testing::Values("cache.p4rp", "lb.p4rp", "hh.p4rp"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           return name.substr(0, name.find('.'));
                         });

TEST(CorpusTest, PaperCacheListingHasPaperDepth) {
  const std::string source = read_file(corpus_dir() / "cache.p4rp");
  SimClock clock;
  dp::RunproDataplane dataplane(dp::DataplaneSpec{}, rmt::ParserConfig{{7777}});
  ctrl::Controller controller(dataplane, clock);
  auto results = controller.link(source);
  ASSERT_TRUE(results.ok());
  const auto* installed = controller.program(results.value()[0].id);
  EXPECT_EQ(installed->image->ir.depth, 10);  // Fig. 5(b): L = 10
}

TEST(CorpusTest, ReportSinkReceivesHeavyHitterNotifications) {
  const std::string source = read_file(corpus_dir() / "hh.p4rp");
  SimClock clock;
  dp::RunproDataplane dataplane(dp::DataplaneSpec{}, rmt::ParserConfig{});
  ctrl::Controller controller(dataplane, clock);
  ASSERT_TRUE(controller.link(source).ok());

  rmt::Packet heavy;
  heavy.ipv4 = rmt::Ipv4Header{.src = 0x0a000033, .dst = 0x0b000001, .proto = 17};
  heavy.udp = rmt::UdpHeader{5000, 6000};
  heavy.ingress_port = 1;
  for (int i = 0; i < 1100; ++i) (void)dataplane.inject(heavy);

  // The controller drains the CPU queue and sees exactly one report with
  // the offending 5-tuple.
  const auto reports = controller.drain_reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].five_tuple(), heavy.five_tuple());
  EXPECT_TRUE(controller.drain_reports().empty());  // drained
}

TEST(CorpusTest, P4liteListingCompilesLinksAndDetects) {
  const auto path = corpus_dir() / "syn_guard.p4l";
  ASSERT_TRUE(std::filesystem::exists(path)) << path;
  auto dsl = rp::compile_p4lite(read_file(path));
  ASSERT_TRUE(dsl.ok()) << dsl.error().str();

  SimClock clock;
  dp::RunproDataplane dataplane(dp::DataplaneSpec{}, rmt::ParserConfig{});
  ctrl::Controller controller(dataplane, clock);
  ASSERT_TRUE(controller.link(dsl.value()).ok());

  rmt::Packet pkt;
  pkt.ipv4 = rmt::Ipv4Header{.src = 0x0a000001, .dst = 0x0b000001, .proto = 6};
  pkt.tcp = rmt::TcpHeader{4000, 80, 0x02};
  pkt.ingress_port = 1;

  int reported = 0;
  for (int i = 0; i < 80; ++i) {
    const auto result = dataplane.inject(pkt);
    if (result.fate == rmt::PacketFate::Reported) ++reported;
  }
  // Reported exactly once, after crossing the 50-packet threshold.
  EXPECT_EQ(reported, 1);
}

}  // namespace
}  // namespace p4runpro
