// Random-program differential fuzzing: generate syntactically and
// semantically valid random P4runpro programs (covering all primitive
// classes, pseudo primitives, nested branches and memory), link them, and
// cross-check the table-driven pipeline against the independent IR
// interpreter on random traffic. This explores compiler + data-plane
// corners that no hand-written program hits.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "control/controller.h"
#include "dataplane/runpro_dataplane.h"

#include "ir_interpreter.h"
#include "program_generator.h"

namespace p4runpro {
namespace {

using testutil::ProgramGenerator;

rmt::Packet random_udp(Rng& rng) {
  rmt::Packet pkt;
  pkt.ipv4 = rmt::Ipv4Header{
      .src = 0x0a000000u | static_cast<Word>(rng.uniform(64)),
      .dst = 0x0b000000u | static_cast<Word>(rng.uniform(64)),
      .proto = 17,
      .ttl = 64,
      .dscp = 0,
      .ecn = 0,
      .total_len = static_cast<std::uint16_t>(64 + rng.uniform(1000))};
  pkt.udp = rmt::UdpHeader{static_cast<std::uint16_t>(rng.uniform(8000)),
                           static_cast<std::uint16_t>(rng.uniform(8000))};
  pkt.ingress_port = static_cast<Port>(rng.uniform(8));
  return pkt;
}

class RandomProgramFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomProgramFuzz, PipelineMatchesInterpreter) {
  int linked_count = 0;
  for (std::uint64_t variant = 0; variant < 16; ++variant) {
    ProgramGenerator generator(GetParam() * 1000 + variant);
    const std::string source = generator.generate();

    SimClock clock;
    dp::RunproDataplane dataplane(dp::DataplaneSpec{}, rmt::ParserConfig{});
    dataplane.pipeline().set_multicast_group(1, {4, 5});
    ctrl::Controller controller(dataplane, clock);
    auto linked = controller.link_single(source);
    if (!linked.ok()) continue;  // e.g. too deep for the logical RPBs: fine
    ++linked_count;
    const auto* installed = controller.program(linked.value().id);
    ASSERT_NE(installed, nullptr);
    testutil::IrInterpreter interpreter(*installed, dataplane.spec());

    Rng traffic(GetParam() ^ (variant * 977));
    for (int i = 0; i < 60; ++i) {
      const rmt::Packet pkt = random_udp(traffic);
      const auto expect = interpreter.run(pkt, 0);
      const auto actual = dataplane.inject(pkt);

      if (expect.decision == rmt::FwdDecision::Multicast) {
        EXPECT_EQ(actual.fate, rmt::PacketFate::Multicasted) << source;
      } else if (expect.decision == rmt::FwdDecision::Drop) {
        EXPECT_EQ(actual.fate, rmt::PacketFate::Dropped) << source;
      } else if (expect.decision == rmt::FwdDecision::Report) {
        EXPECT_EQ(actual.fate, rmt::PacketFate::Reported) << source;
      } else if (expect.decision == rmt::FwdDecision::Return) {
        EXPECT_EQ(actual.fate, rmt::PacketFate::Returned) << source;
      } else {
        ASSERT_EQ(actual.fate, rmt::PacketFate::Forwarded) << source;
        if (expect.decision == rmt::FwdDecision::Forward) {
          EXPECT_EQ(actual.egress_port, expect.egress_port) << source;
        }
      }
      ASSERT_TRUE(actual.packet.ipv4.has_value());
      EXPECT_EQ(actual.packet.ipv4->dscp, expect.packet.ipv4->dscp) << source;
    }

    for (const auto& [vmem, shadow] : interpreter.shadows()) {
      for (MemAddr a = 0; a < shadow.size(); ++a) {
        auto actual = controller.read_memory(linked.value().id, vmem, a);
        ASSERT_TRUE(actual.ok());
        ASSERT_EQ(actual.value(), shadow.read(a))
            << source << "\nmemory " << vmem << "[" << a << "]";
      }
    }
  }
  // Most generated programs must be linkable (deep ones can legitimately
  // exceed the 44 logical RPBs and fail allocation).
  EXPECT_GE(linked_count, 6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramFuzz,
                         ::testing::Values(11ull, 222ull, 3333ull, 44444ull,
                                           555555ull));

}  // namespace
}  // namespace p4runpro
