// The chain packet path: a chain hop is the next pipe of the one pass loop,
// so a chain sends a trace per packet or in batches with the same fates,
// counters, claims, monitor health and memory, and per packet it agrees
// with one recirculating switch running the same programs.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "apps/program_library.h"
#include "common/clock.h"
#include "common/rng.h"
#include "control/controller.h"
#include "dataplane/runpro_dataplane.h"
#include "dataplane/switch_chain.h"
#include "obs/telemetry.h"
#include "traffic/flowgen.h"

namespace p4runpro {
namespace {

constexpr int kHops = 3;
constexpr std::size_t kBatch = 64;
constexpr std::size_t kPorts = 256;

dp::DataplaneSpec chain_spec() {
  dp::DataplaneSpec spec;
  spec.max_recirculations = kHops - 1;  // one round per hop
  return spec;
}

rmt::ParserConfig parser_config() { return rmt::ParserConfig{{7777}}; }

/// Multi-round chain-compatible programs, each filtering its own source
/// prefix 10.k/16, plus cache on UDP 7777.
struct ProgramSpec {
  const char* key;
  Word prefix;  ///< 0 = the template's filter
  bool multi_round;
};
constexpr ProgramSpec kPrograms[] = {
    {"hh", 0x0a010000u, true},   {"cms", 0x0a020000u, true},
    {"bf", 0x0a030000u, true},   {"sumax", 0x0a040000u, true},
    {"cache", 0, false},
};
constexpr Word kPrefixes = 4;

/// Seeded campus + cache trace, interleaved by timestamp. Each campus
/// packet moves to a seeded one of the programs' prefixes, or stays in
/// 10.0/16, which no program claims; cache reads go to `cache`.
std::vector<rmt::Packet> build_trace(std::uint64_t seed) {
  traffic::CampusTraceConfig campus;
  campus.flows = 512;
  campus.duration_s = 0.2;
  campus.seed = seed;
  traffic::CacheWorkloadConfig cache;
  cache.keys = 512;
  cache.rate_mbps = 10.0;
  cache.duration_s = 0.2;
  cache.seed = seed + 1;
  const traffic::Trace a = traffic::make_campus_trace(campus);
  const traffic::Trace b = traffic::make_cache_workload(cache).trace;

  Rng rng(seed ^ 0x5eedu);
  std::vector<rmt::Packet> out;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.packets.size() || j < b.packets.size()) {
    const bool take_a = j >= b.packets.size() ||
                        (i < a.packets.size() && a.packets[i].t_ns <= b.packets[j].t_ns);
    if (!take_a) {
      out.push_back(b.packets[j++].pkt);
      continue;
    }
    rmt::Packet pkt = a.packets[i++].pkt;
    const auto slot = static_cast<Word>(rng.uniform(kPrefixes + 1));
    if (pkt.ipv4) pkt.ipv4->src = (0x0a000000u + (slot << 16)) | (pkt.ipv4->src & 0xffffu);
    out.push_back(pkt);
  }
  return out;
}

std::string source_of(const ProgramSpec& spec) {
  apps::ProgramConfig config;
  config.instance_name = spec.key;
  config.threshold = 8;
  config.filter_value = spec.prefix;
  return apps::make_program_source(spec.key, config);
}

/// A controller on `dataplane` (a SwitchChain or a RunproDataplane) with
/// its own telemetry bundle and every program of kPrograms linked.
template <typename Dataplane>
struct Bed {
  template <typename... Args>
  explicit Bed(Args&&... args) : dataplane(std::forward<Args>(args)...) {
    for (const ProgramSpec& spec : kPrograms) {
      auto linked = controller.link_single(source_of(spec));
      EXPECT_TRUE(linked.ok()) << spec.key << ": " << linked.error().str();
      ids.push_back(linked.ok() ? linked.value().id : 0);
    }
  }

  obs::Telemetry telemetry;
  SimClock clock;
  Dataplane dataplane;
  ctrl::Controller controller{dataplane, clock, rp::Objective{}, ctrl::BfrtCostModel{},
                              &telemetry};
  std::vector<ProgramId> ids;
};
using ChainBed = Bed<dp::SwitchChain>;
using SwitchBed = Bed<dp::RunproDataplane>;

/// Fate and recirculation totals of one pass over a trace.
struct Fates {
  std::uint64_t packets = 0, forwarded = 0, returned = 0, dropped = 0, reported = 0;
  std::uint64_t multicasted = 0, recirc_limited = 0, recirc_passes = 0;

  void add(const rmt::Pipeline::BatchResult& r) {
    packets += r.packets;
    forwarded += r.forwarded;
    returned += r.returned;
    dropped += r.dropped;
    reported += r.reported;
    multicasted += r.multicasted;
    recirc_limited += r.recirc_limited;
    recirc_passes += r.recirc_passes;
  }
  void add(const rmt::PipelineResult& r) {
    ++packets;
    recirc_passes += static_cast<std::uint64_t>(r.recirc_passes);
    switch (r.fate) {
      case rmt::PacketFate::Forwarded: ++forwarded; break;
      case rmt::PacketFate::Returned: ++returned; break;
      case rmt::PacketFate::Dropped: ++dropped; break;
      case rmt::PacketFate::Reported: ++reported; break;
      case rmt::PacketFate::Multicasted: ++multicasted; break;
      case rmt::PacketFate::RecircLimit: ++recirc_limited; break;
    }
  }
  bool operator==(const Fates&) const = default;
};

void expect_same_hops(const dp::SwitchChain& a, const dp::SwitchChain& b) {
  for (int hop = 0; hop < kHops; ++hop) {
    SCOPED_TRACE("hop " + std::to_string(hop));
    const rmt::Pipeline& x = a.switch_at(hop).pipeline();
    const rmt::Pipeline& y = b.switch_at(hop).pipeline();
    EXPECT_EQ(x.packets_in(), y.packets_in());
    EXPECT_EQ(x.total_recirc_passes(), y.total_recirc_passes());
    EXPECT_EQ(x.packets_dropped(), y.packets_dropped());
    EXPECT_EQ(x.packets_reported(), y.packets_reported());
    EXPECT_EQ(x.cpu_queue_depth(), y.cpu_queue_depth());
    for (Port port = 0; port < kPorts; ++port) {
      EXPECT_EQ(x.port_counters(port).packets, y.port_counters(port).packets) << port;
      EXPECT_EQ(x.port_counters(port).bytes, y.port_counters(port).bytes) << port;
    }
    EXPECT_EQ(x.stage_stats().table_hits, y.stage_stats().table_hits);
    EXPECT_EQ(x.stage_stats().table_misses, y.stage_stats().table_misses);
    EXPECT_EQ(x.stage_stats().salu_execs, y.stage_stats().salu_execs);
  }
}

void expect_same_programs(const ChainBed& a, const ChainBed& b) {
  ASSERT_EQ(a.ids, b.ids);
  for (const ProgramId id : a.ids) {
    SCOPED_TRACE("program " + std::to_string(id));
    EXPECT_EQ(a.controller.program_packets(id), b.controller.program_packets(id));

    const obs::ProgramHealth* x = a.telemetry.monitor.health(id);
    const obs::ProgramHealth* y = b.telemetry.monitor.health(id);
    ASSERT_NE(x, nullptr);
    ASSERT_NE(y, nullptr);
    EXPECT_EQ(x->packets, y->packets);
    EXPECT_EQ(x->table_hits, y->table_hits);
    EXPECT_EQ(x->table_misses, y->table_misses);
    EXPECT_EQ(x->salu_updates, y->salu_updates);
    EXPECT_EQ(x->recirc_passes, y->recirc_passes);
    EXPECT_EQ(x->drops, y->drops);

    const ctrl::InstalledProgram* installed = a.controller.program(id);
    ASSERT_NE(installed, nullptr);
    for (const auto& [vmem, depths] : installed->image->ir.vmem_depths) {
      const auto x_words = a.controller.dump_memory(id, vmem);
      const auto y_words = b.controller.dump_memory(id, vmem);
      ASSERT_TRUE(x_words.ok() && y_words.ok()) << vmem;
      EXPECT_EQ(x_words.value(), y_words.value()) << vmem;
    }
  }
  EXPECT_EQ(a.telemetry.monitor.packets_observed(), b.telemetry.monitor.packets_observed());
}

TEST(ChainPacketPath, BatchesMatchPerPacketAndOneRecirculatingSwitch) {
  const std::vector<rmt::Packet> trace = build_trace(11);
  ASSERT_GT(trace.size(), 2 * kBatch);

  ChainBed per_packet(kHops, chain_spec(), parser_config());
  ChainBed batched(kHops, chain_spec(), parser_config());
  SwitchBed single(chain_spec(), parser_config());

  Fates packet_fates;
  Fates switch_fates;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const rmt::PipelineResult chained = per_packet.dataplane.inject(trace[i]);
    const rmt::PipelineResult switched = single.dataplane.inject(trace[i]);
    ASSERT_EQ(chained.fate, switched.fate) << "packet " << i;
    ASSERT_EQ(chained.egress_port, switched.egress_port) << "packet " << i;
    ASSERT_EQ(chained.recirc_passes, switched.recirc_passes) << "packet " << i;
    packet_fates.add(chained);
    switch_fates.add(switched);
  }
  EXPECT_EQ(packet_fates, switch_fates);

  Fates batch_fates;
  for (std::size_t at = 0; at < trace.size(); at += kBatch) {
    const std::size_t n = std::min(kBatch, trace.size() - at);
    batch_fates.add(batched.dataplane.inject_batch(std::span(trace).subspan(at, n)));
  }
  EXPECT_EQ(batch_fates, packet_fates);

  // Every program claims traffic, and the multi-round ones cross hops.
  for (std::size_t k = 0; k < per_packet.ids.size(); ++k) {
    SCOPED_TRACE(kPrograms[k].key);
    const ProgramId id = per_packet.ids[k];
    EXPECT_GT(per_packet.controller.program_packets(id), 0u);
    const obs::ProgramHealth* health = per_packet.telemetry.monitor.health(id);
    ASSERT_NE(health, nullptr);
    EXPECT_EQ(health->recirc_passes > 0, kPrograms[k].multi_round);
  }
  EXPECT_GT(packet_fates.recirc_passes, 0u);
  EXPECT_GT(packet_fates.reported, 0u);

  expect_same_hops(per_packet.dataplane, batched.dataplane);
  expect_same_programs(per_packet, batched);
}

}  // namespace
}  // namespace p4runpro
