// One controller for 1..N hops: what a chain gains from sharing the
// single-switch session pipeline. Tenant quotas gate chain link sessions
// (charged once per program, at its IR demand, however many hops mirror
// it), defragmentation compacts every hop in lockstep without changing
// what traffic sees, and a unit that must hold one program is rejected
// before anything deploys — on one switch and on a chain alike.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/program_library.h"
#include "common/clock.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "compiler/compiler.h"
#include "control/chain_controller.h"
#include "control/controller.h"
#include "dataplane/runpro_dataplane.h"
#include "dataplane/switch_chain.h"
#include "obs/telemetry.h"

namespace p4runpro {
namespace {

constexpr int kHops = 3;

/// Small stage memories so a handful of programs fragments every hop.
dp::DataplaneSpec chain_spec() {
  dp::DataplaneSpec spec;
  spec.memory_per_rpb = 256;
  spec.entries_per_rpb = 256;
  spec.max_recirculations = kHops - 1;
  return spec;
}

std::string cache_source(const std::string& name, std::uint32_t mem_buckets = 32) {
  apps::ProgramConfig config;
  config.instance_name = name;
  config.mem_buckets = mem_buckets;
  return apps::make_program_source("cache", config);
}

/// One source unit holding two cache programs: the memory declarations
/// head the unit, so the second program's copy of them is dropped.
std::string two_program_unit() {
  std::string second;
  std::istringstream lines(cache_source("c2"));
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind('@', 0) != 0) second += line + "\n";
  }
  return cache_source("c1") + "\n" + second;
}

rmt::Packet cache_read(Word key, std::uint16_t dst_port = 7777) {
  rmt::Packet pkt;
  pkt.ipv4 = rmt::Ipv4Header{.src = 0x0a000001, .dst = 0x0a000002, .proto = 17};
  pkt.udp = rmt::UdpHeader{.src_port = 4000, .dst_port = dst_port};
  pkt.app = rmt::AppHeader{.op = 1, .key1 = key, .key2 = 0, .value = 0};
  pkt.ingress_port = 5;
  return pkt;
}

struct ChainBed {
  SimClock clock;
  obs::Telemetry telemetry;
  dp::SwitchChain chain{kHops, chain_spec(), rmt::ParserConfig{{7777}}};
  ctrl::ChainController controller{chain, clock, {}, {}, &telemetry};
};

/// Every hop's free-resource books (mirror deployments move in lockstep).
std::vector<ctrl::ResourceManager::Snapshot> hop_books(const ChainBed& bed) {
  std::vector<ctrl::ResourceManager::Snapshot> books;
  for (int hop = 0; hop < kHops; ++hop) {
    books.push_back(bed.controller.resources(hop).snapshot());
  }
  return books;
}

void expect_books_in_lockstep(const ChainBed& bed) {
  const auto books = hop_books(bed);
  for (int hop = 1; hop < kHops; ++hop) {
    EXPECT_EQ(books[hop].free_entries, books[0].free_entries) << "hop " << hop;
    EXPECT_EQ(books[hop].free_mem, books[0].free_mem) << "hop " << hop;
  }
}

bool same_books(const std::vector<ctrl::ResourceManager::Snapshot>& a,
                const std::vector<ctrl::ResourceManager::Snapshot>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t h = 0; h < a.size(); ++h) {
    if (a[h].free_entries != b[h].free_entries || a[h].free_mem != b[h].free_mem) {
      return false;
    }
  }
  return true;
}

/// IR demand of a single-program source: stage-memory words and entries.
std::pair<std::uint64_t, std::uint64_t> ir_demand(const std::string& source) {
  auto compiled = rp::compile_source(source, nullptr);
  EXPECT_TRUE(compiled.ok());
  const rp::TranslatedProgram& ir = compiled.value().front();
  std::uint64_t words = 0;
  for (const auto& [vmem, size] : ir.vmem_sizes) {
    (void)vmem;
    words += size;
  }
  return {words, static_cast<std::uint64_t>(ir.total_entries())};
}

std::size_t count_events(const std::deque<ctrl::ControlEvent>& events,
                         ctrl::ControlEvent::Kind kind) {
  std::size_t n = 0;
  for (const auto& event : events) n += event.kind == kind ? 1 : 0;
  return n;
}

// --- link_single: exactly one program, checked before any deploy ----------

void expect_multi_program_unit_rejected(ctrl::Controller& controller,
                                        const Result<ctrl::LinkResult>& linked) {
  ASSERT_FALSE(linked.ok());
  EXPECT_EQ(linked.error().code, ErrorCode::InvalidArgument) << linked.error().str();
  EXPECT_EQ(controller.program_count(), 0u);
  const auto events = controller.events();
  EXPECT_EQ(count_events(events, ctrl::ControlEvent::Kind::Link), 0u);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().kind, ctrl::ControlEvent::Kind::LinkFailed);
  EXPECT_NE(events.back().detail.find("[InvalidArgument]"), std::string::npos);
  for (int hop = 0; hop < controller.length(); ++hop) {
    EXPECT_EQ(controller.resources(hop).total_memory_utilization(), 0.0);
    EXPECT_EQ(controller.resources(hop).total_entry_utilization(), 0.0);
    EXPECT_EQ(controller.updates(hop).writes_applied(), 0u);
  }
}

TEST(LinkSingle, MultiProgramUnitOnOneSwitchDeploysNothing) {
  SimClock clock;
  dp::RunproDataplane dataplane(dp::DataplaneSpec{}, rmt::ParserConfig{{7777}});
  ctrl::Controller controller(dataplane, clock);
  const std::string unit = two_program_unit();
  expect_multi_program_unit_rejected(controller, controller.link_single(unit));

  // The same unit links both programs through the multi-program entry.
  auto both = controller.link(unit);
  ASSERT_TRUE(both.ok()) << both.error().str();
  EXPECT_EQ(both.value().size(), 2u);
  EXPECT_EQ(controller.program_count(), 2u);
}

TEST(LinkSingle, MultiProgramUnitOnAChainDeploysNothing) {
  ChainBed bed;
  expect_multi_program_unit_rejected(bed.controller,
                                     bed.controller.link(two_program_unit()));
}

/// A relink compiles its source under the session lock, so it reports the
/// parse it charged to the clock, as a link does.
void expect_relink_reports_parse(ctrl::Controller& controller) {
  auto linked = controller.link_single(cache_source("c"));
  ASSERT_TRUE(linked.ok()) << linked.error().str();
  auto relinked = controller.relink(linked.value().id, cache_source("c"));
  ASSERT_TRUE(relinked.ok()) << relinked.error().str();
  EXPECT_DOUBLE_EQ(linked.value().stats.parse_ms, 2.0);
  EXPECT_DOUBLE_EQ(relinked.value().stats.parse_ms, 2.0);
}

TEST(Relink, ReportsTheParseItChargedOnOneSwitch) {
  SimClock clock;
  dp::RunproDataplane dataplane(dp::DataplaneSpec{}, rmt::ParserConfig{{7777}});
  ctrl::Controller controller(dataplane, clock);
  expect_relink_reports_parse(controller);
}

TEST(Relink, ReportsTheParseItChargedOnAChain) {
  ChainBed bed;
  expect_relink_reports_parse(bed.controller);
}

/// A relink's update delay is its one transaction's whole update window —
/// the new version's install and the old version's retire — so with a fixed
/// allocation charge its deploy delay is the relink span's virtual length.
void expect_relink_update_covers_retire(ctrl::Controller& controller,
                                        const obs::Telemetry& telemetry) {
  controller.set_fixed_alloc_charge_ms(1.0);
  auto linked = controller.link_single(cache_source("c"));
  ASSERT_TRUE(linked.ok()) << linked.error().str();
  auto relinked = controller.relink(linked.value().id, cache_source("c", 64));
  ASSERT_TRUE(relinked.ok()) << relinked.error().str();
  const std::size_t span =
      telemetry.tracer.find(controller.length() > 1 ? "chain_relink" : "relink");
  ASSERT_NE(span, obs::SpanTracer::kNoSpan);
  EXPECT_DOUBLE_EQ(relinked.value().stats.deploy_ms(),
                   telemetry.tracer.spans()[span].virtual_ms());
  EXPECT_GT(relinked.value().stats.update_ms, linked.value().stats.update_ms);
}

TEST(Relink, UpdateDelayCoversTheRetireOnOneSwitch) {
  SimClock clock;
  obs::Telemetry telemetry;
  dp::RunproDataplane dataplane(dp::DataplaneSpec{}, rmt::ParserConfig{{7777}});
  ctrl::Controller controller(dataplane, clock, {}, {}, &telemetry);
  expect_relink_update_covers_retire(controller, telemetry);
}

TEST(Relink, UpdateDelayCoversTheRetireOnAChain) {
  ChainBed bed;
  expect_relink_update_covers_retire(bed.controller, bed.telemetry);
}

// --- ChainTenant: quotas and fair admission for chain sessions ------------
// Every case runs on both channels: async chain sessions park off-lock while
// every hop's writer drains.

class ChainTenant : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override { bed.controller.set_async_writes(GetParam()); }
  ChainBed bed;
};

TEST_P(ChainTenant, QuotaGatesChainSessionsAndReservesNothingOverQuota) {
  bed.controller.tenants().register_tenant(7, ctrl::TenantQuota{.max_programs = 1});

  const std::string first = cache_source("t1");
  auto linked = bed.controller.link_session(ctrl::SessionSpec{first, 7});
  ASSERT_TRUE(linked.ok()) << linked.error().str();
  expect_books_in_lockstep(bed);

  const auto books = hop_books(bed);
  const ctrl::TenantUsage usage = bed.controller.tenants().usage(7);
  auto over = bed.controller.link_session(ctrl::SessionSpec{cache_source("t2"), 7});
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.error().code, ErrorCode::QuotaExceeded) << over.error().str();
  EXPECT_TRUE(same_books(hop_books(bed), books)) << "over-quota session reserved";
  const ctrl::TenantUsage after = bed.controller.tenants().usage(7);
  EXPECT_EQ(after.programs, usage.programs);
  EXPECT_EQ(after.memory_words, usage.memory_words);
  EXPECT_EQ(after.entries, usage.entries);
  EXPECT_EQ(after.quota_rejected, usage.quota_rejected + 1);
  EXPECT_EQ(bed.controller.program_count(), 1u);

  // Another tenant is not throttled by tenant 7's quota.
  ASSERT_TRUE(bed.controller.link_session(ctrl::SessionSpec{cache_source("u1"), 8}).ok());
  EXPECT_EQ(bed.controller.program_count(), 2u);
  expect_books_in_lockstep(bed);
}

TEST_P(ChainTenant, ChainProgramIsChargedOnceAtItsIrDemand) {
  const std::string source = cache_source("t1", 64);
  const auto [words, entries] = ir_demand(source);
  auto linked = bed.controller.link_session(ctrl::SessionSpec{source, 3});
  ASSERT_TRUE(linked.ok()) << linked.error().str();

  // Once, not once per hop: every hop holds a full copy, the tenant pays
  // for one.
  const ctrl::TenantUsage usage = bed.controller.tenants().usage(3);
  EXPECT_EQ(usage.programs, 1u);
  EXPECT_EQ(usage.memory_words, words);
  EXPECT_EQ(usage.entries, entries);
  for (int hop = 0; hop < kHops; ++hop) {
    const auto* program = bed.controller.program_at(hop, linked.value().id);
    ASSERT_NE(program, nullptr) << "hop " << hop;
    EXPECT_EQ(program->tenant, 3u);
    std::uint64_t held = 0;
    for (const auto& [vmem, placement] : program->placements) {
      (void)vmem;
      held += placement.block.size;
    }
    EXPECT_EQ(held, words) << "hop " << hop;
    EXPECT_EQ(program->rpb_handles.size(), entries) << "hop " << hop;
  }

  // A relink keeps the tenant and the single charge; a revoke releases it.
  auto relinked = bed.controller.relink(linked.value().id, source);
  ASSERT_TRUE(relinked.ok()) << relinked.error().str();
  EXPECT_EQ(bed.controller.tenants().usage(3).memory_words, words);
  EXPECT_EQ(bed.controller.tenants().usage(3).entries, entries);
  ASSERT_TRUE(bed.controller.revoke(relinked.value().id).ok());
  const ctrl::TenantUsage released = bed.controller.tenants().usage(3);
  EXPECT_EQ(released.programs, 0u);
  EXPECT_EQ(released.memory_words, 0u);
  EXPECT_EQ(released.entries, 0u);
}

TEST_P(ChainTenant, FaultedChainSessionRefundsItsCharge) {
  ASSERT_TRUE(bed.controller.link_session(ctrl::SessionSpec{cache_source("t1"), 5}).ok());
  const auto books = hop_books(bed);
  const ctrl::TenantUsage usage = bed.controller.tenants().usage(5);

  // Admitted (charged), then a channel fault on the middle hop unwinds the
  // chain: the charge must come back with the reservations.
  bed.controller.updates(1).set_fault_after_writes(2);
  auto faulted = bed.controller.link_session(ctrl::SessionSpec{cache_source("t2"), 5});
  bed.controller.updates(1).set_fault_after_writes(-1);
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.error().code, ErrorCode::ChannelError);
  EXPECT_TRUE(same_books(hop_books(bed), books));
  const ctrl::TenantUsage after = bed.controller.tenants().usage(5);
  EXPECT_EQ(after.programs, usage.programs);
  EXPECT_EQ(after.memory_words, usage.memory_words);
  EXPECT_EQ(after.entries, usage.entries);
}

TEST_P(ChainTenant, ConcurrentSessionsHoldTheProgramQuota) {
  bed.controller.tenants().register_tenant(1, ctrl::TenantQuota{.max_programs = 2});
  std::vector<ctrl::SessionSpec> sessions;
  for (int i = 0; i < 6; ++i) {
    sessions.push_back(ctrl::SessionSpec{cache_source("q" + std::to_string(i)), 1});
    sessions.push_back(ctrl::SessionSpec{cache_source("f" + std::to_string(i)), 2});
  }
  common::ThreadPool pool(4);
  const auto results = bed.controller.link_many(sessions, pool);

  int tenant1 = 0;
  int tenant2 = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) {
      EXPECT_EQ(results[i].error().code, ErrorCode::QuotaExceeded)
          << results[i].error().str();
      EXPECT_EQ(sessions[i].tenant, 1u);
      continue;
    }
    (sessions[i].tenant == 1 ? tenant1 : tenant2) += 1;
  }
  EXPECT_EQ(tenant1, 2);
  EXPECT_EQ(tenant2, 6);
  EXPECT_EQ(bed.controller.tenants().usage(1).programs, 2u);
  EXPECT_EQ(bed.controller.program_count(), 8u);
  expect_books_in_lockstep(bed);

  for (const ProgramId id : bed.controller.running_programs()) {
    ASSERT_TRUE(bed.controller.revoke(id).ok());
  }
  EXPECT_EQ(bed.controller.tenants().usage(1).memory_words, 0u);
  EXPECT_EQ(bed.controller.tenants().usage(2).memory_words, 0u);
  for (int hop = 0; hop < kHops; ++hop) {
    EXPECT_EQ(bed.controller.resources(hop).total_memory_utilization(), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Channels, ChainTenant, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "async" : "serial";
                         });

// --- ChainDefrag: compaction moves every hop in lockstep ------------------

class ChainDefrag : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override { bed.controller.set_async_writes(GetParam()); }
  ChainBed bed;
};

TEST_P(ChainDefrag, MovesKeepHopBooksInLockstepAndPacketFates) {

  // Fragment every hop: link programs of mixed sizes, then revoke every
  // other one. All programs hold the same bytes, so whichever copy claims
  // a packet, its fate is the same — and a move that drops the carry-over
  // shows up as a dump diff.
  std::vector<ProgramId> linked;
  for (int i = 0; i < 12; ++i) {
    auto result = bed.controller.link(cache_source("p" + std::to_string(i),
                                                   i % 3 == 0 ? 64 : 32));
    if (!result.ok()) {
      EXPECT_EQ(result.error().code, ErrorCode::AllocFailed) << result.error().str();
      break;
    }
    for (MemAddr a = 0; a < 8; ++a) {
      ASSERT_TRUE(
          bed.controller.write_memory(result.value().id, "mem1", a, 0x100 + a).ok());
    }
    linked.push_back(result.value().id);
  }
  ASSERT_GT(linked.size(), 6u);
  for (std::size_t i = 0; i < linked.size(); i += 2) {
    ASSERT_TRUE(bed.controller.revoke(linked[i]).ok());
  }
  expect_books_in_lockstep(bed);
  ASSERT_GT(bed.controller.resources(0).total_fragmentation_words(), 0u);

  std::vector<rmt::Packet> packets;
  for (Word key = 0; key < 8; ++key) packets.push_back(cache_read(key));
  packets.push_back(cache_read(3, 9999));  // unclaimed
  std::vector<rmt::PacketFate> fates;
  for (const auto& pkt : packets) fates.push_back(bed.chain.inject(pkt).fate);
  std::map<std::string, std::vector<Word>> memory;
  for (const ProgramId id : bed.controller.running_programs()) {
    memory[bed.controller.program(id)->name] =
        bed.controller.dump_memory(id, "mem1").value();
  }

  // One move per pass, so the lockstep and monotonicity checks run after
  // every single move.
  std::size_t moves = 0;
  for (;;) {
    const std::uint64_t before = bed.controller.resources(0).total_fragmentation_words();
    auto report = bed.controller.defragment(ctrl::DefragOptions{.max_moves = 1});
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report.value().failed_moves, 0);
    expect_books_in_lockstep(bed);
    const std::uint64_t after = bed.controller.resources(0).total_fragmentation_words();
    EXPECT_LE(after, before);
    for (int hop = 1; hop < kHops; ++hop) {
      EXPECT_EQ(bed.controller.resources(hop).total_fragmentation_words(), after);
    }
    if (report.value().moves.empty()) break;
    ASSERT_LT(++moves, 64u) << "defrag never converged";
    const ProgramId moved = report.value().moves.front().new_id;
    for (int hop = 0; hop < kHops; ++hop) {
      ASSERT_NE(bed.controller.program_at(hop, moved), nullptr) << "hop " << hop;
    }
  }
  EXPECT_GT(moves, 0u) << "the fixture did not fragment anything defrag could fix";
  EXPECT_EQ(bed.telemetry.metrics.counter("ctrl.defrag.moves").value(), moves);

  std::vector<rmt::PacketFate> fates_after;
  for (const auto& pkt : packets) fates_after.push_back(bed.chain.inject(pkt).fate);
  EXPECT_EQ(fates_after, fates);
  std::map<std::string, std::vector<Word>> memory_after;
  for (const ProgramId id : bed.controller.running_programs()) {
    memory_after[bed.controller.program(id)->name] =
        bed.controller.dump_memory(id, "mem1").value();
  }
  EXPECT_EQ(memory_after, memory);
}

INSTANTIATE_TEST_SUITE_P(Channels, ChainDefrag, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "async" : "serial";
                         });

}  // namespace
}  // namespace p4runpro
