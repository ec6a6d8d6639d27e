// Targeted edge cases: depth limits, empty case bodies, branch-only
// programs, deep nesting, and the controller's all-or-nothing unit link.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/program_library.h"
#include "common/clock.h"
#include "compiler/compiler.h"
#include "control/controller.h"
#include "dataplane/runpro_dataplane.h"
#include "dataplane/switch_chain.h"

namespace p4runpro {
namespace {

std::string catalog_source(const std::string& key, const std::string& name) {
  apps::ProgramConfig config;
  config.instance_name = name;
  config.mem_buckets = 64;
  return apps::make_program_source(key, config);
}

rmt::Packet udp_ttl(std::uint8_t ttl) {
  rmt::Packet pkt;
  pkt.ipv4 = rmt::Ipv4Header{.src = 1, .dst = 2, .proto = 17, .ttl = ttl};
  pkt.udp = rmt::UdpHeader{1, 2};
  pkt.ingress_port = 1;
  return pkt;
}

TEST(EdgeCases, ProgramAtExactlyTheLogicalDepthLimit) {
  // 44 logical RPBs with R = 1: a 44-op dependency chain fits, 45 fails.
  auto make_chain = [](int ops) {
    std::ostringstream out;
    out << "program chain(<hdr.ipv4.proto, 17, 0xff>) {\n";
    for (int i = 0; i < ops; ++i) out << "  ADD(har, sar);\n";
    out << "}\n";
    return out.str();
  };
  const dp::DataplaneSpec spec;
  SimClock clock;
  dp::RunproDataplane dataplane(spec, rmt::ParserConfig{});
  ctrl::Controller controller(dataplane, clock);

  auto fits = controller.link_single(make_chain(spec.logical_rpbs()));
  ASSERT_TRUE(fits.ok()) << fits.error().str();
  EXPECT_EQ(controller.program(fits.value().id)->ir.depth, spec.logical_rpbs());
  EXPECT_EQ(controller.program(fits.value().id)->alloc.rounds, 2);
  ASSERT_TRUE(controller.revoke(fits.value().id).ok());

  auto too_deep = controller.link_single(make_chain(spec.logical_rpbs() + 1));
  ASSERT_FALSE(too_deep.ok());
  EXPECT_NE(too_deep.error().str().find("too deep"), std::string::npos);
}

TEST(EdgeCases, EmptyNonTerminalCaseReceivesTrailingReplica) {
  // An empty case body is non-terminal, so the trailing primitives run for
  // packets matching it — the footgun DESIGN.md documents (put terminal
  // decisions inside the case to opt out).
  SimClock clock;
  dp::RunproDataplane dataplane(dp::DataplaneSpec{}, rmt::ParserConfig{});
  ctrl::Controller controller(dataplane, clock);
  auto linked = controller.link_single(
      "program e(<hdr.ipv4.proto, 17, 0xff>) {\n"
      "  EXTRACT(hdr.ipv4.ttl, har);\n"
      "  BRANCH:\n"
      "  case(<har, 64, 0xff>) { };\n"
      "  FORWARD(5);\n"
      "}\n");
  ASSERT_TRUE(linked.ok()) << linked.error().str();
  EXPECT_EQ(dataplane.inject(udp_ttl(64)).egress_port, 5);  // replica fired
  EXPECT_EQ(dataplane.inject(udp_ttl(32)).egress_port, 5);  // miss path
}

TEST(EdgeCases, BranchOnlyProgram) {
  SimClock clock;
  dp::RunproDataplane dataplane(dp::DataplaneSpec{}, rmt::ParserConfig{});
  ctrl::Controller controller(dataplane, clock);
  auto linked = controller.link_single(
      "program b(<hdr.ipv4.proto, 17, 0xff>) {\n"
      "  BRANCH:\n"
      "  case(<har, 0, 0xffffffff>) { DROP; };\n"
      "}\n");
  ASSERT_TRUE(linked.ok()) << linked.error().str();
  // Registers start at 0, so har == 0 matches: dropped.
  EXPECT_EQ(dataplane.inject(udp_ttl(64)).fate, rmt::PacketFate::Dropped);
}

TEST(EdgeCases, TrailingForwardOverridesCaseForwards) {
  // FORWARD is non-terminal, so a trailing FORWARD replicates into the
  // case branches and runs LAST — it overrides the per-case decision (the
  // idiom behind the lb program's DIP rewrite; use wildcard default cases
  // for dispatch instead).
  SimClock clock;
  dp::RunproDataplane dataplane(dp::DataplaneSpec{}, rmt::ParserConfig{});
  ctrl::Controller controller(dataplane, clock);
  auto linked = controller.link_single(
      "program o(<hdr.ipv4.proto, 17, 0xff>) {\n"
      "  EXTRACT(hdr.ipv4.ttl, har);\n"
      "  BRANCH:\n"
      "  case(<har, 64, 0xff>) { FORWARD(1); };\n"
      "  FORWARD(9);\n"
      "}\n");
  ASSERT_TRUE(linked.ok()) << linked.error().str();
  EXPECT_EQ(dataplane.inject(udp_ttl(64)).egress_port, 9);  // overridden
  EXPECT_EQ(dataplane.inject(udp_ttl(32)).egress_port, 9);  // miss path
}

TEST(EdgeCases, TripleNestedBranchesWithWildcardDefaults) {
  // Correct dispatch idiom: every level ends in a wildcard default case,
  // so each packet takes exactly one arm.
  SimClock clock;
  dp::RunproDataplane dataplane(dp::DataplaneSpec{}, rmt::ParserConfig{});
  ctrl::Controller controller(dataplane, clock);
  auto linked = controller.link_single(
      "program n(<hdr.ipv4.proto, 17, 0xff>) {\n"
      "  EXTRACT(hdr.ipv4.ttl, har);\n"
      "  BRANCH:\n"
      "  case(<har, 0, 0x01>) {\n"
      "    BRANCH:\n"
      "    case(<har, 0, 0x02>) {\n"
      "      BRANCH:\n"
      "      case(<har, 0, 0x04>) { FORWARD(1); };\n"
      "      case(<har, 0, 0>) { FORWARD(2); };\n"
      "    };\n"
      "    case(<har, 0, 0>) { FORWARD(3); };\n"
      "  };\n"
      "  case(<har, 0, 0>) { FORWARD(4); };\n"
      "}\n");
  ASSERT_TRUE(linked.ok()) << linked.error().str();
  EXPECT_EQ(dataplane.inject(udp_ttl(0b000)).egress_port, 1);
  EXPECT_EQ(dataplane.inject(udp_ttl(0b100)).egress_port, 2);
  EXPECT_EQ(dataplane.inject(udp_ttl(0b010)).egress_port, 3);
  EXPECT_EQ(dataplane.inject(udp_ttl(0b001)).egress_port, 4);
}

/// One switch or a 3-hop chain behind one controller, with a running
/// program whose memory holds data.
struct UnitBed {
  SimClock clock;
  std::unique_ptr<dp::RunproDataplane> dataplane;
  std::unique_ptr<dp::SwitchChain> chain;
  std::unique_ptr<ctrl::Controller> controller;

  UnitBed(int hops, bool async) {
    dp::DataplaneSpec spec;
    spec.memory_per_rpb = 4096;
    spec.entries_per_rpb = 256;
    spec.max_recirculations = hops == 1 ? 1 : hops - 1;
    const rmt::ParserConfig parser{{7777}};
    if (hops == 1) {
      dataplane = std::make_unique<dp::RunproDataplane>(spec, parser);
      controller = std::make_unique<ctrl::Controller>(*dataplane, clock);
    } else {
      chain = std::make_unique<dp::SwitchChain>(hops, spec, parser);
      controller = std::make_unique<ctrl::Controller>(*chain, clock);
    }
    controller->set_async_writes(async);
    auto base = controller->link_single(catalog_source("cache", "base"));
    EXPECT_TRUE(base.ok()) << base.error().str();
    for (MemAddr a = 0; a < 8; ++a) {
      EXPECT_TRUE(controller->write_memory(base.value().id, "mem1", a, 0x100 + a).ok());
    }
  }

  dp::RunproDataplane& switch_at(int hop) { return chain ? chain->switch_at(hop) : *dataplane; }

  /// Everything a failed unit link must leave as it was: every hop's tables,
  /// memory and books, the running programs and tenant 0's usage.
  std::string capture() {
    std::ostringstream out;
    for (int hop = 0; hop < controller->length(); ++hop) {
      dp::RunproDataplane& plane = switch_at(hop);
      std::uint64_t memory = 14695981039346656037ull;  // FNV-1a 64
      for (int rpb = 1; rpb <= plane.spec().total_rpbs(); ++rpb) {
        out << plane.rpb(rpb).table().size() << '/'
            << controller->resources(hop).memory_used(rpb) << ' ';
        for (std::uint32_t a = 0; a < plane.spec().memory_per_rpb; ++a) {
          memory = (memory ^ plane.rpb(rpb).memory().read(a)) * 1099511628211ull;
        }
      }
      out << "\nmemory " << memory << " filters";
      for (int p = 0; p < dp::kNumParsePaths; ++p) {
        out << ' ' << plane.init_block().table(static_cast<dp::ParsePath>(p)).size();
      }
      out << " recirc " << plane.recirc_block().entries() << "\nfree";
      const auto books = controller->resources(hop).snapshot();
      for (const auto entries : books.free_entries) out << ' ' << entries;
      for (const auto& blocks : books.free_mem) {
        for (const auto& block : blocks) out << ' ' << block.base << '+' << block.size;
      }
      out << '\n';
    }
    out << "running";
    for (const ProgramId id : controller->running_programs()) out << ' ' << id;
    const ctrl::TenantUsage usage = controller->tenants().usage(0);
    out << "\ntenant " << usage.programs << ' ' << usage.memory_words << ' '
        << usage.entries << '\n';
    return out.str();
  }
};

/// A source unit of several programs: memory declarations head a unit, so
/// every part's declarations are hoisted in front of the programs.
std::string unit_of(const std::vector<std::string>& parts) {
  std::string declarations;
  std::string programs;
  for (const std::string& part : parts) {
    std::istringstream lines(part);
    for (std::string line; std::getline(lines, line);) {
      (line.rfind('@', 0) == 0 ? declarations : programs) += line + "\n";
    }
  }
  return declarations + programs;
}

/// Arm one channel fault at every write index of every hop while `unit`
/// links. Every failed link must leave the bed exactly as it was; a link
/// that succeeds has run past the unit's last write on that hop.
void sweep_unit_link(int hops, bool async, const std::string& unit, bool links) {
  for (int hop = 0; hop < hops; ++hop) {
    UnitBed bed(hops, async);
    const std::string before = bed.capture();
    bool linked_once = false;
    for (int write = 0; write < 64 && !linked_once; ++write) {
      bed.controller->updates(hop).set_fault_after_writes(write);
      auto linked = bed.controller->link(unit);
      bed.controller->updates(hop).set_fault_after_writes(-1);
      linked_once = linked.ok();
      if (!linked_once) {
        EXPECT_EQ(bed.capture(), before)
            << "hops=" << hops << " async=" << async << " fault " << hop << '@' << write
            << ": " << linked.error().str();
      }
    }
    EXPECT_EQ(linked_once, links) << "hops=" << hops << " async=" << async << " hop " << hop;
  }
}

TEST(EdgeCases, UnitLinkIsAllOrNothing) {
  // A two-program unit whose second program cannot link (name collision
  // with a running program) must leave NEITHER program installed.
  SimClock clock;
  dp::RunproDataplane dataplane(dp::DataplaneSpec{}, rmt::ParserConfig{});
  ctrl::Controller controller(dataplane, clock);

  ASSERT_TRUE(controller
                  .link_single("program taken(<hdr.ipv4.proto, 6, 0xff>) { DROP; }")
                  .ok());
  const auto before = controller.resources().total_entry_utilization();

  auto unit = controller.link(
      "program fresh(<hdr.ipv4.proto, 17, 0xff>) { FORWARD(1); }\n"
      "program taken(<hdr.ipv4.proto, 1, 0xff>) { FORWARD(2); }\n");
  ASSERT_FALSE(unit.ok());
  EXPECT_EQ(controller.program_count(), 1u);  // only the original survives
  EXPECT_EQ(controller.program_by_name("fresh"), nullptr);
  EXPECT_DOUBLE_EQ(controller.resources().total_entry_utilization(), before);
  // The would-be program claims nothing.
  EXPECT_EQ(dataplane.inject(udp_ttl(64)).egress_port, 0);

  // Under a channel fault at any write of any hop: a unit whose second
  // program can never allocate (its memory exceeds a stage) writes
  // nothing, and a unit that links un-commits what it committed.
  const std::string big =
      "@ big 268435456\n"
      "program big(<hdr.ipv4.src, 1, 0xff>) { LOADI(mar, 0); MEMREAD(big); }\n";
  for (const int hops : {1, 3}) {
    for (const bool async : {false, true}) {
      sweep_unit_link(hops, async, unit_of({catalog_source("cache", "cache"), big}), false);
      sweep_unit_link(hops, async,
                      unit_of({catalog_source("cache", "cache"), catalog_source("hh", "hh")}),
                      true);
    }
  }
}

TEST(EdgeCases, MemoryAbove2To31BucketsIsRejectedByName) {
  // A size above 2^31 has no 32-bit power-of-two round-up: rejected by the
  // semantic check (a translator asked to round it up would never return).
  auto too_big = rp::compile_source(
      "@ m 2147483649\nprogram p(<hdr.ipv4.src, 1, 0xff>) { HASH_5_TUPLE_MEM(m); }", nullptr);
  ASSERT_FALSE(too_big.ok());
  EXPECT_EQ(too_big.error().code, ErrorCode::SemanticError) << too_big.error().str();
  EXPECT_NE(too_big.error().str().find("'m'"), std::string::npos) << too_big.error().str();

  auto largest = rp::compile_source(
      "@ m 2147483648\nprogram p(<hdr.ipv4.src, 1, 0xff>) { HASH_5_TUPLE_MEM(m); }", nullptr);
  ASSERT_TRUE(largest.ok()) << largest.error().str();
  EXPECT_EQ(largest.value().front().vmem_sizes.at("m"), 2147483648u);
}

TEST(EdgeCases, ConflictingAlignmentIsRejectedByName) {
  // Parallel branches access m and n in opposite orders: aligning each
  // memory's accesses to one stage has no solution (the depth fixpoint
  // diverges). The program is at fault, so the error names its memories.
  auto crossed = rp::compile_source(
      "@ m 16\n@ n 16\nprogram p(<hdr.ipv4.src, 1, 0xff>) { BRANCH: "
      "case(<har, 0, 0xff>) { MEMREAD(m); MEMREAD(n); } "
      "case(<har, 1, 0xff>) { MEMREAD(n); MEMREAD(m); } ; }");
  ASSERT_FALSE(crossed.ok());
  const std::string text = crossed.error().str();
  EXPECT_EQ(crossed.error().code, ErrorCode::SemanticError) << text;
  EXPECT_TRUE(text.find("'m'") != std::string::npos || text.find("'n'") != std::string::npos)
      << text;
  EXPECT_EQ(text.find("internal"), std::string::npos) << text;
}

TEST(EdgeCases, SameFilterTwoProgramsPriorityIsDeterministic) {
  // Overlapping filters: the later-linked program's filter wins (higher
  // install generation), and revoking it re-exposes the earlier one.
  SimClock clock;
  dp::RunproDataplane dataplane(dp::DataplaneSpec{}, rmt::ParserConfig{});
  ctrl::Controller controller(dataplane, clock);
  auto first = controller.link_single(
      "program a(<hdr.ipv4.proto, 17, 0xff>) { FORWARD(1); }");
  auto second = controller.link_single(
      "program b(<hdr.ipv4.proto, 17, 0xff>) { FORWARD(2); }");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(dataplane.inject(udp_ttl(64)).egress_port, 2);
  ASSERT_TRUE(controller.revoke(second.value().id).ok());
  EXPECT_EQ(dataplane.inject(udp_ttl(64)).egress_port, 1);
}

}  // namespace
}  // namespace p4runpro
