// Chain-transaction fault matrix: a control-channel fault at ANY
// (hop, write-index) pair of a chain-wide deploy, relink or revoke must
// unwind the whole chain — every hop's tables, memory contents, resource
// occupancy, free lists and running-program registry — back to a
// byte-identical pre-transaction state. The harness sweeps every fault
// point per hop over chain lengths 2..4 and compares full per-hop
// snapshots against the pre-transaction baseline after every faulted
// attempt.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/program_library.h"
#include "common/clock.h"
#include "common/result.h"
#include "control/chain_controller.h"
#include "dataplane/switch_chain.h"
#include "obs/telemetry.h"

namespace p4runpro {
namespace {

// Small per-switch spec so full-memory chain snapshots stay cheap; the
// compiler's round bound matches the chain length (R = hops - 1).
dp::DataplaneSpec chain_spec(int length) {
  dp::DataplaneSpec spec;
  spec.memory_per_rpb = 4096;
  spec.entries_per_rpb = 256;
  spec.max_recirculations = length - 1;
  return spec;
}

std::string cache_source(std::uint32_t mem_buckets = 64,
                         const std::string& name = "cache") {
  apps::ProgramConfig config;
  config.instance_name = name;
  config.mem_buckets = mem_buckets;
  return apps::make_program_source("cache", config);
}

std::string hh_source(Word threshold = 1024) {
  apps::ProgramConfig config;
  config.instance_name = "hh";
  config.mem_buckets = 64;
  config.threshold = threshold;
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

struct ChainBed {
  SimClock clock;
  obs::Telemetry telemetry;
  dp::SwitchChain chain;
  ctrl::ChainController controller;

  explicit ChainBed(int length)
      : chain(length, chain_spec(length), rmt::ParserConfig{{7777}}),
        controller(chain, clock, {}, {}, &telemetry) {}
};

/// Everything a rolled-back chain transaction must leave untouched on one
/// hop.
struct HopSnapshot {
  std::vector<std::size_t> rpb_table_sizes;
  std::vector<std::vector<Word>> rpb_memory;  ///< full physical contents
  std::vector<std::size_t> filter_table_sizes;
  std::size_t recirc_entries = 0;
  std::vector<std::uint32_t> entries_free;
  std::vector<std::uint32_t> memory_used;
  std::vector<std::vector<ctrl::MemBlock>> free_mem;

  friend bool operator==(const HopSnapshot&, const HopSnapshot&) = default;
};

struct ChainSnapshot {
  std::vector<HopSnapshot> hops;
  std::vector<ProgramId> running;

  friend bool operator==(const ChainSnapshot&, const ChainSnapshot&) = default;
};

ChainSnapshot capture(ChainBed& bed) {
  ChainSnapshot snap;
  for (int hop = 0; hop < bed.chain.length(); ++hop) {
    dp::RunproDataplane& dataplane = bed.chain.switch_at(hop);
    HopSnapshot hs;
    const int total = dataplane.spec().total_rpbs();
    for (int rpb = 1; rpb <= total; ++rpb) {
      hs.rpb_table_sizes.push_back(dataplane.rpb(rpb).table().size());
      std::vector<Word> words;
      words.reserve(dataplane.spec().memory_per_rpb);
      for (std::uint32_t a = 0; a < dataplane.spec().memory_per_rpb; ++a) {
        words.push_back(dataplane.rpb(rpb).memory().read(a));
      }
      hs.rpb_memory.push_back(std::move(words));
      hs.memory_used.push_back(bed.controller.resources(hop).memory_used(rpb));
    }
    for (int p = 0; p < dp::kNumParsePaths; ++p) {
      hs.filter_table_sizes.push_back(
          dataplane.init_block().table(static_cast<dp::ParsePath>(p)).size());
    }
    hs.recirc_entries = dataplane.recirc_block().entries();
    const auto resources = bed.controller.resources(hop).snapshot();
    hs.entries_free = resources.free_entries;
    hs.free_mem = resources.free_mem;
    snap.hops.push_back(std::move(hs));
  }
  snap.running = bed.controller.running_programs();
  return snap;
}

void disarm_all(ChainBed& bed) {
  for (int hop = 0; hop < bed.chain.length(); ++hop) {
    bed.controller.updates(hop).set_fault_after_writes(-1);
  }
}

const obs::MonitorEvent* last_event(const ChainBed& bed,
                                    obs::MonitorEvent::Kind kind) {
  const auto& events = bed.telemetry.monitor.events();
  for (auto it = events.rbegin(); it != events.rend(); ++it) {
    if (it->kind == kind) return &*it;
  }
  return nullptr;
}

/// (chain length, async channel). The async rows drive every sweep through
/// the pipelined phase 2: faults surface on a hop's writer thread at settle
/// time, with later hops' writes already in flight — the unwind must still
/// restore every hop byte-identically.
class ChainFaultMatrix
    : public ::testing::TestWithParam<std::tuple<int, bool>> {
 protected:
  [[nodiscard]] int length() const { return std::get<0>(GetParam()); }
  [[nodiscard]] bool async() const { return std::get<1>(GetParam()); }
};

TEST_P(ChainFaultMatrix, DeployFaultSweepRestoresChainByteIdentically) {
  const int length = this->length();
  ChainBed bed(length);
  bed.controller.set_async_writes(async());
  auto cache = bed.controller.link(cache_source());
  ASSERT_TRUE(cache.ok()) << cache.error().str();
  for (MemAddr a = 0; a < 16; ++a) {
    ASSERT_TRUE(
        bed.controller.write_memory(cache.value().id, "mem1", a, 100 + a).ok());
  }
  const ChainSnapshot before = capture(bed);

  for (int hop = 0; hop < length; ++hop) {
    SCOPED_TRACE("faulted hop " + std::to_string(hop));
    int fault = 0;
    for (;; ++fault) {
      ASSERT_LT(fault, 10'000) << "fault index never exceeded the write count";
      bed.controller.updates(hop).set_fault_after_writes(fault);
      auto linked = bed.controller.link(hh_source());
      if (linked.ok()) {
        // The fault index landed beyond this hop's batch: the deploy went
        // through on every hop. Undo it to restore the sweep baseline.
        disarm_all(bed);
        ASSERT_TRUE(bed.controller.revoke(linked.value().id).ok());
        EXPECT_TRUE(capture(bed) == before)
            << "revoke of the successful control deploy diverged";
        break;
      }
      EXPECT_EQ(linked.error().code, ErrorCode::ChannelError);
      EXPECT_TRUE(capture(bed) == before)
          << "chain state diverged after a fault at hop " << hop
          << " write index " << fault;
      const auto* rollback =
          last_event(bed, obs::MonitorEvent::Kind::ChainTxnRollback);
      ASSERT_NE(rollback, nullptr);
      EXPECT_EQ(rollback->hops, length);
      EXPECT_EQ(rollback->faulted_hop, hop);
    }
    // The sweep faulted from inside every update batch of this hop, not
    // just the first write.
    EXPECT_GT(fault, 3);
  }
}

TEST_P(ChainFaultMatrix, RelinkFaultSweepKeepsOldVersionChainWide) {
  const int length = this->length();
  ChainBed bed(length);
  bed.controller.set_async_writes(async());
  auto cache = bed.controller.link(cache_source());
  ASSERT_TRUE(cache.ok()) << cache.error().str();
  ProgramId old_id = cache.value().id;
  for (MemAddr a = 0; a < 16; ++a) {
    ASSERT_TRUE(bed.controller.write_memory(old_id, "mem1", a, 7000 + a).ok());
  }
  ChainSnapshot before = capture(bed);
  auto before_mem = bed.controller.dump_memory(old_id, "mem1");
  ASSERT_TRUE(before_mem.ok());

  // Relink faults hit two windows on every hop: committing the new version
  // (chain transaction) and retiring the old one (chain-wide removal with
  // re-install unwind). Both must leave the old version running everywhere
  // with its memory intact.
  for (int hop = 0; hop < length; ++hop) {
    SCOPED_TRACE("faulted hop " + std::to_string(hop));
    int fault = 0;
    for (;; ++fault) {
      ASSERT_LT(fault, 10'000);
      bed.controller.updates(hop).set_fault_after_writes(fault);
      auto relinked = bed.controller.relink(old_id, cache_source());
      if (relinked.ok()) {
        // Baseline moves to the new version for the next hop's sweep.
        disarm_all(bed);
        old_id = relinked.value().id;
        const auto carried = bed.controller.dump_memory(old_id, "mem1");
        ASSERT_TRUE(carried.ok());
        EXPECT_EQ(carried.value(), before_mem.value())
            << "relink did not carry memory over chain-wide";
        before = capture(bed);
        before_mem = std::move(carried);
        break;
      }
      EXPECT_EQ(relinked.error().code, ErrorCode::ChannelError);
      for (int h = 0; h < length; ++h) {
        ASSERT_NE(bed.controller.program_at(h, old_id), nullptr)
            << "old version missing on hop " << h;
      }
      EXPECT_EQ(bed.controller.program_count(), 1u);
      EXPECT_TRUE(capture(bed) == before)
          << "chain state diverged after a relink fault at hop " << hop
          << " write index " << fault;
      const auto mem = bed.controller.dump_memory(old_id, "mem1");
      ASSERT_TRUE(mem.ok());
      EXPECT_EQ(mem.value(), before_mem.value());
    }
    EXPECT_GT(fault, 3);
  }
}

TEST_P(ChainFaultMatrix, RevokeFaultSweepRestoresProgramChainWide) {
  const int length = this->length();
  for (int hop = 0; hop < length; ++hop) {
    SCOPED_TRACE("faulted hop " + std::to_string(hop));
    ChainBed bed(length);
    bed.controller.set_async_writes(async());
    auto cache = bed.controller.link(cache_source());
    ASSERT_TRUE(cache.ok()) << cache.error().str();
    const ProgramId id = cache.value().id;
    for (MemAddr a = 0; a < 8; ++a) {
      ASSERT_TRUE(bed.controller.write_memory(id, "mem1", a, 42 + a).ok());
    }
    const ChainSnapshot before = capture(bed);

    int fault = 0;
    for (;; ++fault) {
      ASSERT_LT(fault, 10'000);
      bed.controller.updates(hop).set_fault_after_writes(fault);
      const Status s = bed.controller.revoke(id);
      if (s.ok()) break;
      EXPECT_EQ(s.error().code, ErrorCode::ChannelError);
      // The program survived its failed chain removal on every hop...
      for (int h = 0; h < length; ++h) {
        ASSERT_NE(bed.controller.program_at(h, id), nullptr)
            << "program missing on hop " << h;
      }
      EXPECT_TRUE(capture(bed) == before)
          << "chain state diverged after a revoke fault at hop " << hop
          << " write index " << fault;
      ASSERT_FALSE(bed.controller.events().empty());
      EXPECT_EQ(bed.controller.events().back().kind,
                ctrl::ControlEvent::Kind::RevokeFailed);
      // ...and still claims its traffic end to end (fresh handles on the
      // unwound hops, same behaviour).
      const std::uint64_t claimed = bed.controller.program_packets(id);
      EXPECT_EQ(bed.chain.inject(cache_read(0x8888)).fate,
                rmt::PacketFate::Returned);
      EXPECT_EQ(bed.controller.program_packets(id), claimed + 1);
    }
    EXPECT_GT(fault, 2);
    disarm_all(bed);
    EXPECT_EQ(bed.controller.program_count(), 0u);
    // Post-revoke: every hop's occupancy is back to empty.
    for (int h = 0; h < length; ++h) {
      EXPECT_EQ(bed.controller.resources(h).total_memory_utilization(), 0.0);
      EXPECT_EQ(bed.controller.resources(h).total_entry_utilization(), 0.0);
    }
  }
}

TEST_P(ChainFaultMatrix, DefragMoveFaultSweepLeavesTheProgramInPlace) {
  const int length = this->length();
  for (int hop = 0; hop < length; ++hop) {
    SCOPED_TRACE("faulted hop " + std::to_string(hop));
    ChainBed bed(length);
    bed.controller.set_async_writes(async());
    // Revoking `a` leaves a hole in front of `b` on every hop: moving `b` is
    // the one move that gains.
    auto a = bed.controller.link(cache_source(64, "a"));
    auto b = bed.controller.link(cache_source(64, "b"));
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_TRUE(bed.controller.revoke(a.value().id).ok());
    const ProgramId id = b.value().id;
    for (MemAddr addr = 0; addr < 8; ++addr) {
      ASSERT_TRUE(bed.controller.write_memory(id, "mem1", addr, 500 + addr).ok());
    }
    const ChainSnapshot before = capture(bed);

    int fault = 0;
    for (;; ++fault) {
      ASSERT_LT(fault, 10'000);
      bed.controller.updates(hop).set_fault_after_writes(fault);
      auto report = bed.controller.defragment();
      ASSERT_TRUE(report.ok()) << report.error().str();
      if (!report.value().moves.empty()) break;
      EXPECT_EQ(report.value().failed_moves, 1) << "fault at write index " << fault;
      EXPECT_TRUE(capture(bed) == before)
          << "chain state diverged after a move fault at hop " << hop
          << " write index " << fault;
      for (int h = 0; h < length; ++h) {
        ASSERT_NE(bed.controller.program_at(h, id), nullptr) << "program missing on hop " << h;
      }
      const std::uint64_t claimed = bed.controller.program_packets(id);
      EXPECT_EQ(bed.chain.inject(cache_read(0x8888)).fate, rmt::PacketFate::Returned);
      EXPECT_EQ(bed.controller.program_packets(id), claimed + 1);
    }
    disarm_all(bed);
    // The sweep reached the removal half: the copy's install is 19 writes.
    EXPECT_GT(fault, 19);
    EXPECT_EQ(bed.controller.program_count(), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Lengths, ChainFaultMatrix,
    ::testing::Combine(::testing::Values(2, 3, 4), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<int, bool>>& info) {
      return "chain" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_async" : "_serial");
    });

/// Value of span arg `key`, or nullptr.
const std::string* span_arg(const obs::SpanRecord& span, const std::string& key) {
  for (const auto& [k, v] : span.args) {
    if (k == key) return &v;
  }
  return nullptr;
}

/// Virtual window (first start, last end) of each hop's "bfrt.batch" spans.
std::map<int, std::pair<SimClock::Nanos, SimClock::Nanos>> hop_windows(
    const obs::SpanTracer& tracer) {
  std::map<int, std::pair<SimClock::Nanos, SimClock::Nanos>> windows;
  for (const auto& span : tracer.spans()) {
    if (span.name != "bfrt.batch") continue;
    const std::string* hop = span_arg(span, "hop");
    if (hop == nullptr) {
      ADD_FAILURE() << "bfrt.batch without a hop arg";
      continue;
    }
    auto [it, fresh] = windows.try_emplace(std::stoi(*hop), span.start_vns, span.end_vns);
    if (!fresh) {
      it->second.first = std::min(it->second.first, span.start_vns);
      it->second.second = std::max(it->second.second, span.end_vns);
    }
  }
  return windows;
}

TEST(ChainTxn, PipelinedCommitOverlapsHopChannels) {
  // Same deploy, same chain, two channel modes. The pipelined commit must
  // (a) leave every hop byte-identical to the serial commit and (b) cut the
  // chain's update delay from sum-of-hops to roughly max-of-hops.
  ChainBed serial(4);
  ChainBed pipelined(4);
  serial.controller.set_fixed_alloc_charge_ms(5.0);
  pipelined.controller.set_fixed_alloc_charge_ms(5.0);
  pipelined.controller.set_async_writes(true);

  auto serial_link = serial.controller.link(cache_source());
  ASSERT_TRUE(serial_link.ok()) << serial_link.error().str();
  auto pipelined_link = pipelined.controller.link(cache_source());
  ASSERT_TRUE(pipelined_link.ok()) << pipelined_link.error().str();

  // The bfrt spans tile the channels: serially each hop's writes start where
  // the previous hop's end; pipelined, every hop starts at the submission
  // instant (the serial hop 0 start).
  const auto serial_windows = hop_windows(serial.telemetry.tracer);
  const auto pipelined_windows = hop_windows(pipelined.telemetry.tracer);
  ASSERT_EQ(serial_windows.size(), 4u);
  ASSERT_EQ(pipelined_windows.size(), 4u);
  for (int h = 1; h < 4; ++h) {
    EXPECT_EQ(serial_windows.at(h).first, serial_windows.at(h - 1).second)
        << "serial hop " << h << " does not start where hop " << h - 1 << " ends";
  }
  for (int h = 0; h < 4; ++h) {
    EXPECT_EQ(pipelined_windows.at(h).first, serial_windows.at(0).first)
        << "pipelined hop " << h << " does not start at submission";
    EXPECT_EQ(pipelined_windows.at(h).second - pipelined_windows.at(h).first,
              serial_windows.at(h).second - serial_windows.at(h).first);
  }

  // Byte-identical outcome: pipelining reorders channel traffic across
  // hops, never the per-hop write sequence (§4.3 ordering is per-hop).
  EXPECT_TRUE(capture(serial) == capture(pipelined))
      << "pipelined commit produced different chain state than serial";

  const double serial_update = serial_link.value().stats.update_ms;
  const double pipelined_update = pipelined_link.value().stats.update_ms;
  ASSERT_GT(serial_update, 0.0);
  ASSERT_GT(pipelined_update, 0.0);
  // 4 hops drain concurrently: the pipelined update delay collapses to one
  // hop's channel time (plus submit slivers), far below half the serial sum.
  EXPECT_LT(pipelined_update, serial_update / 2.0)
      << "pipelined=" << pipelined_update << " serial=" << serial_update;
  EXPECT_LT(pipelined_link.value().stats.deploy_ms(),
            serial_link.value().stats.deploy_ms());

  // The pipelined revoke overlaps the hop channels the same way.
  const double t0 = pipelined.clock.now_ms();
  ASSERT_TRUE(pipelined.controller.revoke(pipelined_link.value().id).ok());
  const double pipelined_revoke = pipelined.clock.now_ms() - t0;
  const double s0 = serial.clock.now_ms();
  ASSERT_TRUE(serial.controller.revoke(serial_link.value().id).ok());
  const double serial_revoke = serial.clock.now_ms() - s0;
  EXPECT_LT(pipelined_revoke, serial_revoke / 2.0)
      << "pipelined=" << pipelined_revoke << " serial=" << serial_revoke;
  EXPECT_TRUE(capture(serial) == capture(pipelined));

  // Every memory reset of the chain revoke names the switch it landed on,
  // in both modes, one hop label per reset on every hop.
  for (ChainBed* bed : {&serial, &pipelined}) {
    std::map<int, int> resets_per_hop;
    for (const auto& span : bed->telemetry.tracer.spans()) {
      if (span.name != "bfrt.mem_reset") continue;
      const std::string* hop = span_arg(span, "hop");
      ASSERT_NE(hop, nullptr) << "bfrt.mem_reset without a hop arg";
      ++resets_per_hop[std::stoi(*hop)];
    }
    ASSERT_EQ(resets_per_hop.size(), 4u);
    for (const auto& [hop, resets] : resets_per_hop) {
      EXPECT_EQ(resets, resets_per_hop.begin()->second) << "hop " << hop;
    }
  }
}

TEST(ChainTxn, PipelinedUpdateDelayIsFlatInChainLength) {
  // max-of-hops, not sum-of-hops: the pipelined update delay of a mirror
  // deploy must not grow with the number of hops.
  std::vector<double> update_ms;
  for (const int length : {2, 3, 4}) {
    ChainBed bed(length);
    bed.controller.set_fixed_alloc_charge_ms(5.0);
    bed.controller.set_async_writes(true);
    auto linked = bed.controller.link(cache_source());
    ASSERT_TRUE(linked.ok()) << linked.error().str();
    update_ms.push_back(linked.value().stats.update_ms);
  }
  EXPECT_DOUBLE_EQ(update_ms[0], update_ms[1]);
  EXPECT_DOUBLE_EQ(update_ms[1], update_ms[2]);
}

TEST(ChainTxn, StarvedHopAbortsTheWholeDeployBeforeAnyWrite) {
  ChainBed bed(3);
  ASSERT_TRUE(bed.controller.link(cache_source()).ok());

  // Exhaust hop 1's table entries: the per-hop solve sees the starved
  // snapshot and the deploy aborts with AllocFailed before a single
  // dataplane write lands on ANY hop.
  auto& starved = bed.controller.resources(1);
  const auto free_entries = starved.snapshot().free_entries;
  for (std::size_t i = 0; i < free_entries.size(); ++i) {
    ASSERT_TRUE(
        starved.reserve_entries(static_cast<int>(i) + 1, free_entries[i]).ok());
  }
  const ChainSnapshot before = capture(bed);
  std::vector<std::uint64_t> writes_before;
  for (int h = 0; h < 3; ++h) {
    writes_before.push_back(bed.controller.updates(h).writes_applied());
  }

  auto linked = bed.controller.link(hh_source());
  ASSERT_FALSE(linked.ok());
  EXPECT_EQ(linked.error().code, ErrorCode::AllocFailed);
  EXPECT_TRUE(capture(bed) == before);
  for (int h = 0; h < 3; ++h) {
    EXPECT_EQ(bed.controller.updates(h).writes_applied(), writes_before[h])
        << "hop " << h << " saw a write during an aborted deploy";
  }

  // Releasing the starved hop unblocks the very same deploy.
  for (std::size_t i = 0; i < free_entries.size(); ++i) {
    starved.release_entries(static_cast<int>(i) + 1, free_entries[i]);
  }
  EXPECT_TRUE(bed.controller.link(hh_source()).ok());
}

TEST(ChainTxn, DivergentHopBooksAreRejectedBeforeAnyWrite) {
  // Hop books move in lockstep, so one solve serves every hop. A hop whose
  // books differ is solved on its own; when its answer differs from hop 0's,
  // the deploy fails with Conflict before a single write lands on ANY hop.
  ChainBed bed(3);
  ASSERT_TRUE(bed.controller.link(cache_source()).ok());

  auto compiled = rp::compile_source(hh_source(), nullptr);
  ASSERT_TRUE(compiled.ok());
  auto alloc = rp::solve_allocation(compiled.value().front(), bed.chain.spec_at(0),
                                    bed.controller.resources(0).snapshot(),
                                    rp::Objective{});
  ASSERT_TRUE(alloc.ok());
  ASSERT_FALSE(alloc.value().vmem_rpb.empty());
  const int rpb = alloc.value().vmem_rpb.begin()->second;

  // Take every free block of that RPB on hop 1 only, so hop 1's solve must
  // pin the memory elsewhere. (Copy the snapshot: iterating a temporary's
  // free list would dangle.)
  auto& diverged = bed.controller.resources(1);
  const ctrl::ResourceManager::Snapshot snapshot = diverged.snapshot();
  std::vector<ctrl::MemBlock> taken;
  for (const ctrl::MemBlock& block : snapshot.free_mem[rpb - 1]) {
    auto claimed = diverged.allocate_memory(rpb, block.size);
    ASSERT_TRUE(claimed.ok());
    taken.push_back(claimed.value());
  }
  ASSERT_FALSE(taken.empty());
  const ChainSnapshot before = capture(bed);
  std::vector<std::uint64_t> writes_before;
  for (int h = 0; h < 3; ++h) {
    writes_before.push_back(bed.controller.updates(h).writes_applied());
  }

  auto linked = bed.controller.link(hh_source());
  ASSERT_FALSE(linked.ok());
  EXPECT_EQ(linked.error().code, ErrorCode::Conflict);
  EXPECT_TRUE(capture(bed) == before);
  for (int h = 0; h < 3; ++h) {
    EXPECT_EQ(bed.controller.updates(h).writes_applied(), writes_before[h])
        << "hop " << h << " saw a write during a rejected deploy";
  }

  // Back in lockstep, the very same deploy succeeds.
  for (const ctrl::MemBlock& block : taken) diverged.free_memory(rpb, block);
  EXPECT_TRUE(bed.controller.link(hh_source()).ok());
}

TEST(ChainTxn, ReserveFailureInPhaseOneRollsBackEveryHop) {
  // Drive ChainTransaction directly with allocations solved BEFORE hop 1 is
  // starved: phase 1 then reserves hops 0 fine, fails at hop 1's entry
  // reservation, and must return hop 0's reservations untouched — the
  // commit path is never reached.
  ChainBed bed(3);
  auto compiled = rp::compile_source(hh_source(), nullptr);
  ASSERT_TRUE(compiled.ok());
  const rp::TranslatedProgram& ir = compiled.value().front();

  std::vector<rp::AllocationResult> allocs;
  std::vector<ctrl::ChainHop> contexts;
  for (int h = 0; h < 3; ++h) {
    auto alloc = rp::solve_allocation(ir, bed.chain.spec_at(h),
                                      bed.controller.resources(h).snapshot(),
                                      rp::Objective{});
    ASSERT_TRUE(alloc.ok());
    allocs.push_back(std::move(alloc).take());
    contexts.push_back(ctrl::ChainHop{&bed.chain.switch_at(h),
                                      &bed.controller.resources(h),
                                      &bed.controller.updates(h)});
  }

  auto& starved = bed.controller.resources(1);
  const auto free_entries = starved.snapshot().free_entries;
  for (std::size_t i = 0; i < free_entries.size(); ++i) {
    ASSERT_TRUE(
        starved.reserve_entries(static_cast<int>(i) + 1, free_entries[i]).ok());
  }
  const ChainSnapshot before = capture(bed);

  ctrl::ChainTransaction txn(contexts, ir, std::move(allocs.front()), 42, 1, 0, nullptr);
  const Status staged = txn.stage_all();
  ASSERT_FALSE(staged.ok());
  EXPECT_EQ(staged.error().code, ErrorCode::AllocFailed);
  EXPECT_EQ(txn.faulted_hop(), 1);
  EXPECT_EQ(txn.phase(), ctrl::ChainTransaction::Phase::RolledBack);
  EXPECT_TRUE(capture(bed) == before)
      << "an aborted phase 1 leaked reservations on some hop";
  for (int h = 0; h < 3; ++h) {
    EXPECT_EQ(bed.controller.updates(h).writes_applied(), 0u)
        << "hop " << h << " saw a write during an aborted phase 1";
  }
}

TEST(ChainTxn, DroppingAStagedTransactionRollsBackEveryHop) {
  // A transaction staged on every hop but never committed (e.g. the caller
  // errors out between the phases) must undo itself on destruction: no
  // reservations survive, no write ever reaches a dataplane.
  ChainBed bed(3);
  auto compiled = rp::compile_source(hh_source(), nullptr);
  ASSERT_TRUE(compiled.ok());
  const rp::TranslatedProgram& ir = compiled.value().front();
  const ChainSnapshot before = capture(bed);

  {
    std::vector<rp::AllocationResult> allocs;
    std::vector<ctrl::ChainHop> contexts;
    for (int h = 0; h < 3; ++h) {
      auto alloc = rp::solve_allocation(ir, bed.chain.spec_at(h),
                                        bed.controller.resources(h).snapshot(),
                                        rp::Objective{});
      ASSERT_TRUE(alloc.ok());
      allocs.push_back(std::move(alloc).take());
      contexts.push_back(ctrl::ChainHop{&bed.chain.switch_at(h),
                                        &bed.controller.resources(h),
                                        &bed.controller.updates(h)});
    }
    ctrl::ChainTransaction txn(contexts, ir, std::move(allocs.front()), 42, 1, 0,
                               nullptr);
    ASSERT_TRUE(txn.stage_all().ok());
    ASSERT_EQ(txn.phase(), ctrl::ChainTransaction::Phase::Staged);
    EXPECT_GT(txn.total_staged_ops(), 0u);
    // Reservations ARE held while staged: hop books differ from baseline.
    EXPECT_FALSE(capture(bed) == before);
  }  // destructor rolls back

  EXPECT_TRUE(capture(bed) == before)
      << "a dropped staged transaction leaked reservations on some hop";
  for (int h = 0; h < 3; ++h) {
    EXPECT_EQ(bed.controller.updates(h).writes_applied(), 0u)
        << "hop " << h << " saw a write from a never-committed transaction";
  }
}

TEST(ChainTxn, FaultFreeDeployCommitsOnEveryHop) {
  ChainBed bed(3);
  auto linked = bed.controller.link(cache_source());
  ASSERT_TRUE(linked.ok()) << linked.error().str();
  const ProgramId id = linked.value().id;

  // Mirror mode: the same program, the same id, the same placements on
  // every hop.
  const auto* hop0 = bed.controller.program_at(0, id);
  ASSERT_NE(hop0, nullptr);
  for (int h = 1; h < 3; ++h) {
    const auto* prog = bed.controller.program_at(h, id);
    ASSERT_NE(prog, nullptr) << "program missing on hop " << h;
    EXPECT_EQ(prog->id, id);
    EXPECT_EQ(prog->name, hop0->name);
    EXPECT_EQ(prog->placements, hop0->placements)
        << "hop " << h << " placed memory differently";
  }
  EXPECT_EQ(bed.controller.running_programs(), std::vector<ProgramId>{id});

  const auto* commit = last_event(bed, obs::MonitorEvent::Kind::ChainTxnCommit);
  ASSERT_NE(commit, nullptr);
  EXPECT_EQ(commit->hops, 3);
  EXPECT_EQ(commit->program, id);

  // Traffic flows through the chain and is attributed at the entry hop.
  EXPECT_EQ(bed.chain.inject(cache_read(0x8888)).fate,
            rmt::PacketFate::Returned);
  EXPECT_EQ(bed.controller.program_packets(id), 1u);
}

TEST(ChainTxn, EveryHopSharesOneImagePerOperation) {
  // Hop books move in lockstep, so hop 0 plans and stages the version once
  // and every hop executes that image: one pointer, after a link and after
  // a relink.
  ChainBed bed(3);
  auto linked = bed.controller.link(hh_source());
  ASSERT_TRUE(linked.ok()) << linked.error().str();
  auto relinked = bed.controller.relink(linked.value().id, hh_source());
  ASSERT_TRUE(relinked.ok()) << relinked.error().str();
  ASSERT_NE(relinked.value().id, linked.value().id);

  ASSERT_EQ(bed.controller.program_at(0, linked.value().id), nullptr)
      << "the relink retired the old version";
  const auto* hop0 = bed.controller.program_at(0, relinked.value().id);
  ASSERT_NE(hop0, nullptr);
  ASSERT_NE(hop0->image, nullptr);
  for (int h = 0; h < 3; ++h) {
    const auto* prog = bed.controller.program_at(h, relinked.value().id);
    ASSERT_NE(prog, nullptr) << "hop " << h;
    EXPECT_EQ(prog->image, hop0->image) << "hop " << h << " holds another image";
    EXPECT_EQ(prog->placements, prog->image->placements) << "hop " << h;
  }

  // A fresh link on the relinked chain is again one image on every hop.
  auto cache = bed.controller.link(cache_source());
  ASSERT_TRUE(cache.ok()) << cache.error().str();
  const auto* cache0 = bed.controller.program_at(0, cache.value().id);
  ASSERT_NE(cache0, nullptr);
  EXPECT_NE(cache0->image, hop0->image);
  for (int h = 1; h < 3; ++h) {
    EXPECT_EQ(bed.controller.program_at(h, cache.value().id)->image, cache0->image)
        << "hop " << h;
  }
}

/// hh traffic: flows of 10.0/16 sources, `per_flow` packets each.
std::vector<rmt::Packet> hh_trace(int flows, int per_flow) {
  std::vector<rmt::Packet> trace;
  for (int f = 0; f < flows; ++f) {
    for (int k = 0; k < per_flow; ++k) {
      rmt::Packet pkt;
      pkt.ipv4 = rmt::Ipv4Header{.src = 0x0a000000u + static_cast<Word>(f),
                                 .dst = 0x0b000001, .proto = 17};
      pkt.udp = rmt::UdpHeader{.src_port = static_cast<std::uint16_t>(1000 + f),
                               .dst_port = 53};
      pkt.ingress_port = 5;
      trace.push_back(pkt);
    }
  }
  return trace;
}

TEST(ChainTxn, HopWhoseBlocksLandElsewherePlansItsOwnImage) {
  // On hop 1 only, a small block taken at the pinned RPB moves hop 1's first
  // fit to another base while every hop's solve still agrees. Hop 1 then
  // plans its own image, whose Offset entries name its own bases; hops 0
  // and 2 share one.
  ChainBed bed(3);
  auto compiled = rp::compile_source(hh_source(), nullptr);
  ASSERT_TRUE(compiled.ok());
  auto alloc = rp::solve_allocation(compiled.value().front(), bed.chain.spec_at(0),
                                    bed.controller.resources(0).snapshot(),
                                    rp::Objective{});
  ASSERT_TRUE(alloc.ok());
  ASSERT_FALSE(alloc.value().vmem_rpb.empty());
  ASSERT_TRUE(bed.controller.resources(1)
                  .allocate_memory(alloc.value().vmem_rpb.begin()->second, 16)
                  .ok());

  auto linked = bed.controller.link(hh_source(8));
  ASSERT_TRUE(linked.ok()) << linked.error().str();
  const ProgramId id = linked.value().id;
  std::vector<const ctrl::InstalledProgram*> hops;
  for (int h = 0; h < 3; ++h) {
    hops.push_back(bed.controller.program_at(h, id));
    ASSERT_NE(hops.back(), nullptr) << "hop " << h;
  }
  EXPECT_EQ(hops[2]->image, hops[0]->image);
  EXPECT_NE(hops[1]->image, hops[0]->image);
  EXPECT_NE(hops[1]->placements, hops[0]->placements);
  for (int h = 0; h < 3; ++h) {
    SCOPED_TRACE("hop " + std::to_string(h));
    const ctrl::InstalledProgram& prog = *hops[static_cast<std::size_t>(h)];
    EXPECT_EQ(prog.image->placements, prog.placements);
    // Offset entries follow the IR's Offset nodes in order.
    std::vector<Word> want;
    for (const auto& node : prog.image->ir.nodes) {
      if (node.op.kind == dp::OpKind::Offset) {
        want.push_back(prog.placements.at(node.op.vmem).block.base);
      }
    }
    std::vector<Word> got;
    for (const auto& entry : prog.image->plan.rpb_entries) {
      if (entry.action.op.kind == dp::OpKind::Offset) got.push_back(entry.action.op.imm);
    }
    EXPECT_FALSE(want.empty());
    EXPECT_EQ(got, want);
  }

  // The chain gives the fates of one recirculating switch running the
  // program.
  SimClock clock;
  dp::RunproDataplane single(chain_spec(3), rmt::ParserConfig{{7777}});
  obs::Telemetry telemetry;
  ctrl::Controller controller(single, clock, {}, {}, &telemetry);
  ASSERT_TRUE(controller.link(hh_source(8)).ok());
  int reported = 0;
  const std::vector<rmt::Packet> trace = hh_trace(24, 40);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const rmt::PipelineResult chained = bed.chain.inject(trace[i]);
    const rmt::PipelineResult switched = single.inject(trace[i]);
    ASSERT_EQ(chained.fate, switched.fate) << "packet " << i;
    ASSERT_EQ(chained.egress_port, switched.egress_port) << "packet " << i;
    ASSERT_EQ(chained.recirc_passes, switched.recirc_passes) << "packet " << i;
    reported += chained.fate == rmt::PacketFate::Reported ? 1 : 0;
  }
  EXPECT_GT(reported, 0) << "no packet crossed the threshold branch";

  // A relink carries over each hop's own words: give every hop's blocks
  // their own contents first.
  std::vector<std::map<std::string, std::vector<Word>>> before(3);
  for (int h = 0; h < 3; ++h) {
    for (const auto& [vmem, placement] : hops[static_cast<std::size_t>(h)]->placements) {
      auto& memory = bed.chain.switch_at(h).rpb(placement.rpb).memory();
      for (std::uint32_t a = 0; a < placement.block.size; ++a) {
        memory.write(placement.block.base + a, static_cast<Word>(1000 * (h + 1) + a));
      }
      before[static_cast<std::size_t>(h)][vmem] =
          ctrl::read_block(bed.chain.switch_at(h), placement);
    }
  }
  auto relinked = bed.controller.relink(id, hh_source(8));
  ASSERT_TRUE(relinked.ok()) << relinked.error().str();
  for (int h = 0; h < 3; ++h) {
    SCOPED_TRACE("hop " + std::to_string(h));
    const auto* prog = bed.controller.program_at(h, relinked.value().id);
    ASSERT_NE(prog, nullptr);
    ASSERT_EQ(prog->placements.size(), before[static_cast<std::size_t>(h)].size());
    for (const auto& [vmem, placement] : prog->placements) {
      EXPECT_EQ(ctrl::read_block(bed.chain.switch_at(h), placement),
                before[static_cast<std::size_t>(h)].at(vmem))
          << vmem;
    }
  }
}

TEST(ChainTxn, MemoryAccessRoutesToTheOwningHop) {
  ChainBed bed(3);
  auto linked = bed.controller.link(cache_source());
  ASSERT_TRUE(linked.ok());
  const ProgramId id = linked.value().id;

  auto hop = bed.controller.owning_hop(id, "mem1");
  ASSERT_TRUE(hop.ok()) << hop.error().str();
  ASSERT_GE(hop.value(), 0);
  ASSERT_LT(hop.value(), 3);

  ASSERT_TRUE(bed.controller.write_memory(id, "mem1", 3, 0xabcd).ok());
  auto read = bed.controller.read_memory(id, "mem1", 3);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), 0xabcdu);

  auto dump = bed.controller.dump_memory(id, "mem1");
  ASSERT_TRUE(dump.ok());
  EXPECT_EQ(dump.value()[3], 0xabcdu);

  // The write landed on the owning hop's switch — and only there.
  const auto* prog = bed.controller.program_at(hop.value(), id);
  ASSERT_NE(prog, nullptr);
  const auto placement = prog->placements.at("mem1");
  EXPECT_EQ(bed.chain.switch_at(hop.value())
                .rpb(placement.rpb)
                .memory()
                .read(placement.block.base + 3),
            0xabcdu);
  for (int h = 0; h < 3; ++h) {
    if (h == hop.value()) continue;
    EXPECT_EQ(bed.chain.switch_at(h).rpb(placement.rpb).memory().read(
                  placement.block.base + 3),
              0u);
  }

  auto missing = bed.controller.read_memory(id, "nope", 0);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code, ErrorCode::NotFound);
}

TEST(ChainTxn, FailedChainDeploysDoNotBurnProgramIds) {
  ChainBed bed(2);
  // A faulted first deploy (fault on the far hop) rolls back chain-wide;
  // the id it briefly held is reissued instead of leaking.
  bed.controller.updates(1).set_fault_after_writes(0);
  ASSERT_FALSE(bed.controller.link(cache_source()).ok());
  disarm_all(bed);
  auto cache = bed.controller.link(cache_source());
  ASSERT_TRUE(cache.ok());
  EXPECT_EQ(cache.value().id, 1u);

  bed.controller.updates(0).set_fault_after_writes(1);
  ASSERT_FALSE(bed.controller.link(hh_source()).ok());
  disarm_all(bed);
  auto hh = bed.controller.link(hh_source());
  ASSERT_TRUE(hh.ok());
  EXPECT_EQ(hh.value().id, 2u);

  // Only a successful chain revoke feeds the recycle pool.
  ASSERT_TRUE(bed.controller.revoke(cache.value().id).ok());
  auto cache2 = bed.controller.link(cache_source());
  ASSERT_TRUE(cache2.ok());
  EXPECT_EQ(cache2.value().id, 1u);

  int link_failed = 0;
  for (const auto& event : bed.controller.events()) {
    if (event.kind != ctrl::ControlEvent::Kind::LinkFailed) continue;
    ++link_failed;
    EXPECT_NE(event.detail.find("[ChannelError]"), std::string::npos);
    EXPECT_NE(event.id, 0u);
  }
  EXPECT_EQ(link_failed, 2);
}

TEST(ChainTxn, MonitorEventsCarryHopDetailAndExport) {
  ChainBed bed(2);
  auto linked = bed.controller.link(cache_source());
  ASSERT_TRUE(linked.ok());
  bed.controller.updates(1).set_fault_after_writes(0);
  ASSERT_FALSE(bed.controller.link(hh_source()).ok());
  disarm_all(bed);

  const auto* rollback =
      last_event(bed, obs::MonitorEvent::Kind::ChainTxnRollback);
  ASSERT_NE(rollback, nullptr);
  EXPECT_EQ(rollback->hops, 2);
  EXPECT_EQ(rollback->faulted_hop, 1);
  EXPECT_NE(rollback->detail.find("[ChannelError]"), std::string::npos);

  std::ostringstream out;
  obs::export_alerts_jsonl(bed.telemetry.monitor, out);
  const std::string jsonl = out.str();
  EXPECT_NE(jsonl.find("\"kind\":\"chain_txn_commit\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"kind\":\"chain_txn_rollback\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"hops\":2"), std::string::npos);
  EXPECT_NE(jsonl.find("\"faulted_hop\":1"), std::string::npos);
}

TEST(ChainTxn, ChainErrorsCarryCodes) {
  ChainBed bed(2);
  auto parse = bed.controller.link("program broken { @@@ }");
  ASSERT_FALSE(parse.ok());
  EXPECT_EQ(parse.error().code, ErrorCode::ParseError);

  ASSERT_TRUE(bed.controller.link(cache_source()).ok());
  auto dup = bed.controller.link(cache_source());
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.error().code, ErrorCode::Conflict);

  auto missing = bed.controller.revoke(99);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code, ErrorCode::NotFound);
  EXPECT_FALSE(bed.controller.revoke_by_name("nope").ok());

  apps::ProgramConfig huge;
  huge.instance_name = "huge";
  huge.mem_buckets = chain_spec(2).memory_per_rpb * 2;
  auto alloc = bed.controller.link(apps::make_program_source("cache", huge));
  ASSERT_FALSE(alloc.ok());
  EXPECT_EQ(alloc.error().code, ErrorCode::AllocFailed);
}

// --- dp::SwitchChain diagnostics (uniform specs, chain compatibility) ----

TEST(SwitchChainDiagnostics, UniformSpecsNamesHopAndField) {
  const rmt::ParserConfig parser{{7777}};
  std::vector<dp::DataplaneSpec> specs(3, chain_spec(3));
  specs[2].memory_per_rpb = 8192;
  dp::SwitchChain chain(specs, parser);

  const Status s = chain.uniform_specs();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, ErrorCode::InvalidArgument);
  EXPECT_NE(s.error().str().find("hop 2"), std::string::npos) << s.error().str();
  EXPECT_NE(s.error().str().find("memory_per_rpb"), std::string::npos)
      << s.error().str();

  // A uniform chain reports ok.
  dp::SwitchChain uniform(3, chain_spec(3), parser);
  EXPECT_TRUE(uniform.uniform_specs().ok());
}

TEST(SwitchChainDiagnostics, NonUniformChainRejectedByController) {
  const rmt::ParserConfig parser{{7777}};
  std::vector<dp::DataplaneSpec> specs(2, chain_spec(2));
  specs[1].entries_per_rpb = 128;
  dp::SwitchChain chain(specs, parser);
  SimClock clock;
  ctrl::ChainController controller(chain, clock);

  auto linked = controller.link(cache_source());
  ASSERT_FALSE(linked.ok());
  EXPECT_EQ(linked.error().code, ErrorCode::InvalidArgument);
  EXPECT_NE(linked.error().str().find("entries_per_rpb"), std::string::npos);
  ASSERT_FALSE(controller.events().empty());
  EXPECT_EQ(controller.events().back().kind,
            ctrl::ControlEvent::Kind::LinkFailed);
}

TEST(SwitchChainDiagnostics, ChainCompatibilityNamesVmemAndRounds) {
  // Synthetic allocation: "acc" is touched at depths 1 and 2, whose logical
  // RPBs land in rounds 0 and 1 — i.e. on different chain hops.
  const int total_rpbs = 4;
  std::map<std::string, std::vector<int>> vmem_depths{{"acc", {1, 2}}};
  const std::vector<int> split{1, total_rpbs + 1};

  const Status s =
      dp::SwitchChain::chain_compatibility(vmem_depths, split, total_rpbs);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, ErrorCode::InvalidArgument);
  EXPECT_NE(s.error().str().find("'acc'"), std::string::npos) << s.error().str();
  EXPECT_NE(s.error().str().find("rounds 0, 1"), std::string::npos)
      << s.error().str();

  // Same rounds -> compatible.
  const std::vector<int> same{1, 2};
  EXPECT_TRUE(
      dp::SwitchChain::chain_compatibility(vmem_depths, same, total_rpbs).ok());
}

}  // namespace
}  // namespace p4runpro
