// Deploy-transaction rollback tests: a control-channel fault at ANY write
// index of a deploy, relink or revoke unwinds the rollback journal to a
// byte-identical pre-transaction state — dataplane tables, memory
// contents, resource occupancy and the installed-program map all included.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/program_library.h"
#include "common/clock.h"
#include "common/result.h"
#include "control/controller.h"
#include "dataplane/runpro_dataplane.h"

namespace p4runpro {
namespace {

std::string cache_source(std::uint32_t mem_buckets = 64,
                         const std::string& name = "cache") {
  apps::ProgramConfig config;
  config.instance_name = name;
  config.mem_buckets = mem_buckets;
  return apps::make_program_source("cache", config);
}

std::string hh_source() {
  apps::ProgramConfig config;
  config.instance_name = "hh";
  config.mem_buckets = 64;
  return apps::make_program_source("hh", config);
}

rmt::Packet cache_read(Word key) {
  rmt::Packet pkt;
  pkt.ipv4 = rmt::Ipv4Header{.src = 0x0a000001, .dst = 0x0a000002, .proto = 17};
  pkt.udp = rmt::UdpHeader{.src_port = 4000, .dst_port = 7777};
  pkt.app = rmt::AppHeader{.op = 1, .key1 = key, .key2 = 0, .value = 0};
  pkt.ingress_port = 5;
  return pkt;
}

/// Everything a rolled-back transaction must leave untouched.
struct StateSnapshot {
  std::vector<std::size_t> rpb_table_sizes;
  std::vector<std::vector<Word>> rpb_memory;  ///< full physical contents
  std::vector<std::size_t> filter_table_sizes;
  std::size_t recirc_entries = 0;
  std::vector<std::uint32_t> entries_free;
  std::vector<std::uint32_t> memory_used;
  std::vector<std::vector<ctrl::MemBlock>> free_mem;
  std::vector<ProgramId> running;

  friend bool operator==(const StateSnapshot&, const StateSnapshot&) = default;
};

StateSnapshot capture(dp::RunproDataplane& dataplane, const ctrl::Controller& ctrl) {
  StateSnapshot snap;
  const int total = dataplane.spec().total_rpbs();
  for (int rpb = 1; rpb <= total; ++rpb) {
    snap.rpb_table_sizes.push_back(dataplane.rpb(rpb).table().size());
    std::vector<Word> words;
    words.reserve(dataplane.spec().memory_per_rpb);
    for (std::uint32_t a = 0; a < dataplane.spec().memory_per_rpb; ++a) {
      words.push_back(dataplane.rpb(rpb).memory().read(a));
    }
    snap.rpb_memory.push_back(std::move(words));
    snap.memory_used.push_back(ctrl.resources().memory_used(rpb));
  }
  for (int p = 0; p < dp::kNumParsePaths; ++p) {
    snap.filter_table_sizes.push_back(
        dataplane.init_block().table(static_cast<dp::ParsePath>(p)).size());
  }
  snap.recirc_entries = dataplane.recirc_block().entries();
  const auto resources = ctrl.resources().snapshot();
  snap.entries_free = resources.free_entries;
  snap.free_mem = resources.free_mem;
  snap.running = ctrl.running_programs();
  return snap;
}

struct Testbed {
  SimClock clock;
  dp::RunproDataplane dataplane{dp::DataplaneSpec{}, rmt::ParserConfig{{7777}}};
  ctrl::Controller controller{dataplane, clock};
};

/// Every fault sweep runs twice: once through the serial channel (fault
/// raised on the caller's thread, unwound in place) and once through the
/// async writer (fault raised on the writer thread, reported at settle
/// time, unwound by the same journal). Both must restore byte-identical
/// state at every write index.
class DeployTxnFaults : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override { bed.controller.set_async_writes(GetParam()); }
  Testbed bed;
};

INSTANTIATE_TEST_SUITE_P(Channels, DeployTxnFaults, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "async" : "serial";
                         });

TEST_P(DeployTxnFaults, FaultSweepRestoresStateByteIdentically) {
  Testbed& bed = this->bed;
  auto cache = bed.controller.link_single(cache_source());
  ASSERT_TRUE(cache.ok()) << cache.error().str();
  // Populate the running program's memory so a sloppy rollback that resets
  // or leaks writes into neighbouring blocks shows up as a byte diff.
  for (MemAddr a = 0; a < 16; ++a) {
    ASSERT_TRUE(bed.controller.write_memory(cache.value().id, "mem1", a, 100 + a).ok());
  }
  const StateSnapshot before = capture(bed.dataplane, bed.controller);

  // Deploy once per write index; every faulted attempt must leave the
  // switch exactly as it was, and eventually the fault lands beyond the
  // batch and the deploy goes through.
  int fault = 0;
  for (;; ++fault) {
    ASSERT_LT(fault, 10'000) << "fault index never exceeded the write count";
    bed.controller.updates().set_fault_after_writes(fault);
    auto linked = bed.controller.link_single(hh_source());
    if (linked.ok()) break;
    EXPECT_EQ(linked.error().code, ErrorCode::ChannelError);
    EXPECT_NE(linked.error().str().find("[ChannelError]"), std::string::npos)
        << linked.error().str();
    EXPECT_TRUE(capture(bed.dataplane, bed.controller) == before)
        << "state diverged after a fault at write index " << fault;
  }
  // The hh program has recirc + RPB + filter writes: the sweep exercised
  // a rollback from inside every batch, not just the first.
  EXPECT_GT(fault, 3);
  bed.controller.updates().set_fault_after_writes(-1);

  // And a full revoke of the new program restores the same state again.
  ASSERT_TRUE(bed.controller.revoke_by_name("hh").ok());
  EXPECT_TRUE(capture(bed.dataplane, bed.controller) == before);
}

TEST_P(DeployTxnFaults, RelinkFaultSweepKeepsOldVersionIntact) {
  Testbed& bed = this->bed;
  auto cache = bed.controller.link_single(cache_source());
  ASSERT_TRUE(cache.ok()) << cache.error().str();
  const ProgramId old_id = cache.value().id;
  for (MemAddr a = 0; a < 16; ++a) {
    ASSERT_TRUE(bed.controller.write_memory(old_id, "mem1", a, 7000 + a).ok());
  }
  const StateSnapshot before = capture(bed.dataplane, bed.controller);
  const auto before_mem = bed.controller.dump_memory(old_id, "mem1");
  ASSERT_TRUE(before_mem.ok());

  // Relink faults hit two windows: installing the new version (including
  // the staged carry-over memory writes) and retiring the old one. In both
  // the old version must come back byte-identical and keep running.
  int fault = 0;
  ProgramId new_id = 0;
  for (;; ++fault) {
    ASSERT_LT(fault, 10'000);
    bed.controller.updates().set_fault_after_writes(fault);
    auto relinked = bed.controller.relink(old_id, cache_source());
    if (relinked.ok()) {
      new_id = relinked.value().id;
      break;
    }
    EXPECT_EQ(relinked.error().code, ErrorCode::ChannelError);
    ASSERT_NE(bed.controller.program(old_id), nullptr);
    EXPECT_EQ(bed.controller.program_count(), 1u);
    EXPECT_TRUE(capture(bed.dataplane, bed.controller) == before)
        << "state diverged after a relink fault at write index " << fault;
    const auto mem = bed.controller.dump_memory(old_id, "mem1");
    ASSERT_TRUE(mem.ok());
    EXPECT_EQ(mem.value(), before_mem.value());
  }

  // The successful relink carried the memory contents over.
  EXPECT_GT(fault, 3);
  bed.controller.updates().set_fault_after_writes(-1);
  const auto carried = bed.controller.dump_memory(new_id, "mem1");
  ASSERT_TRUE(carried.ok());
  EXPECT_EQ(carried.value(), before_mem.value());
  EXPECT_EQ(bed.controller.program_count(), 1u);
}

TEST_P(DeployTxnFaults, RevokeFaultRestoresTheProgram) {
  Testbed& bed = this->bed;
  auto cache = bed.controller.link_single(cache_source());
  ASSERT_TRUE(cache.ok());
  const ProgramId id = cache.value().id;
  for (MemAddr a = 0; a < 8; ++a) {
    ASSERT_TRUE(bed.controller.write_memory(id, "mem1", a, 42 + a).ok());
  }
  const StateSnapshot before = capture(bed.dataplane, bed.controller);

  int fault = 0;
  for (;; ++fault) {
    ASSERT_LT(fault, 10'000);
    bed.controller.updates().set_fault_after_writes(fault);
    const Status s = bed.controller.revoke(id);
    if (s.ok()) break;
    EXPECT_EQ(s.error().code, ErrorCode::ChannelError);
    // The program survived its failed removal with all its state.
    ASSERT_NE(bed.controller.program(id), nullptr);
    EXPECT_TRUE(capture(bed.dataplane, bed.controller) == before)
        << "state diverged after a revoke fault at write index " << fault;
    ASSERT_EQ(bed.controller.events().back().kind,
              ctrl::ControlEvent::Kind::RevokeFailed);
    EXPECT_NE(bed.controller.events().back().detail.find("[ChannelError]"),
              std::string::npos);
    // ...and still claims its traffic (fresh handles, same behaviour).
    const std::uint64_t claimed = bed.controller.program_packets(id);
    EXPECT_EQ(bed.dataplane.inject(cache_read(0x8888)).fate,
              rmt::PacketFate::Returned);
    EXPECT_EQ(bed.controller.program_packets(id), claimed + 1);
  }
  EXPECT_GT(fault, 2);
  bed.controller.updates().set_fault_after_writes(-1);
  EXPECT_EQ(bed.controller.program_count(), 0u);
}

TEST_P(DeployTxnFaults, DefragMoveFaultSweepLeavesTheProgramInPlace) {
  Testbed& bed = this->bed;
  // Revoking `a` leaves a hole in front of `b`: moving `b` is the one move
  // that gains, so a failed move leaves no other candidate.
  auto a = bed.controller.link_single(cache_source(64, "a"));
  auto b = bed.controller.link_single(cache_source(64, "b"));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(bed.controller.revoke(a.value().id).ok());
  const ProgramId id = b.value().id;
  for (MemAddr addr = 0; addr < 8; ++addr) {
    ASSERT_TRUE(bed.controller.write_memory(id, "mem1", addr, 500 + addr).ok());
  }
  const StateSnapshot before = capture(bed.dataplane, bed.controller);

  // A move is one transaction: the copy's install, then the old copy's
  // removal. A fault in either half fails the move and leaves `b` exactly
  // where it was, under its id, claiming its traffic.
  int fault = 0;
  for (;; ++fault) {
    ASSERT_LT(fault, 10'000);
    bed.controller.updates().set_fault_after_writes(fault);
    auto report = bed.controller.defragment();
    ASSERT_TRUE(report.ok()) << report.error().str();
    if (!report.value().moves.empty()) break;
    EXPECT_EQ(report.value().failed_moves, 1) << "fault at write index " << fault;
    EXPECT_TRUE(capture(bed.dataplane, bed.controller) == before)
        << "state diverged after a move fault at write index " << fault;
    ASSERT_NE(bed.controller.program(id), nullptr);
    const std::uint64_t claimed = bed.controller.program_packets(id);
    EXPECT_EQ(bed.dataplane.inject(cache_read(0x8888)).fate, rmt::PacketFate::Returned);
    EXPECT_EQ(bed.controller.program_packets(id), claimed + 1);
  }
  bed.controller.updates().set_fault_after_writes(-1);
  // The sweep reached the removal half: the copy's install is 19 writes.
  EXPECT_GT(fault, 19);
  EXPECT_EQ(bed.controller.program_count(), 1u);
}

TEST(DeployTxn, FailedDeploysDoNotBurnProgramIds) {
  Testbed bed;
  // A faulted first deploy rolls back; the id it briefly held is reissued
  // to the next session instead of leaking.
  bed.controller.updates().set_fault_after_writes(0);
  ASSERT_FALSE(bed.controller.link_single(cache_source()).ok());
  auto cache = bed.controller.link_single(cache_source());
  ASSERT_TRUE(cache.ok());
  EXPECT_EQ(cache.value().id, 1u);

  bed.controller.updates().set_fault_after_writes(1);
  ASSERT_FALSE(bed.controller.link_single(hh_source()).ok());
  auto hh = bed.controller.link_single(hh_source());
  ASSERT_TRUE(hh.ok());
  EXPECT_EQ(hh.value().id, 2u);

  // Only a successful revoke feeds the recycle pool.
  ASSERT_TRUE(bed.controller.revoke(cache.value().id).ok());
  auto cache2 = bed.controller.link_single(cache_source());
  ASSERT_TRUE(cache2.ok());
  EXPECT_EQ(cache2.value().id, 1u);

  // Every rollback was audited with the coded error.
  int link_failed = 0;
  for (const auto& event : bed.controller.events()) {
    if (event.kind != ctrl::ControlEvent::Kind::LinkFailed) continue;
    ++link_failed;
    EXPECT_NE(event.detail.find("[ChannelError]"), std::string::npos);
    EXPECT_NE(event.id, 0u);  // the attempted id is part of the audit trail
  }
  EXPECT_EQ(link_failed, 2);
}

TEST(DeployTxn, ControlPlaneErrorsCarryCodes) {
  Testbed bed;
  auto parse = bed.controller.link_single("program broken { @@@ }");
  ASSERT_FALSE(parse.ok());
  EXPECT_EQ(parse.error().code, ErrorCode::ParseError);

  ASSERT_TRUE(bed.controller.link_single(cache_source()).ok());
  auto dup = bed.controller.link_single(cache_source());
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.error().code, ErrorCode::Conflict);
  EXPECT_NE(dup.error().str().find("[Conflict]"), std::string::npos);

  auto missing = bed.controller.revoke(99);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code, ErrorCode::NotFound);

  // A program whose memory request exceeds a stage fails allocation.
  apps::ProgramConfig huge;
  huge.instance_name = "huge";
  huge.mem_buckets = bed.dataplane.spec().memory_per_rpb * 2;
  auto alloc = bed.controller.link_single(apps::make_program_source("cache", huge));
  ASSERT_FALSE(alloc.ok());
  EXPECT_EQ(alloc.error().code, ErrorCode::AllocFailed);
}

}  // namespace
}  // namespace p4runpro
