// Snapshot data plane: RCU-style table snapshots published through the
// SnapshotHub, consumed lock-free by shard pipes (docs/ARCHITECTURE.md
// "Snapshot data plane").
//
//  - publish/read parity: a randomized op sequence drives a serial master
//    bed and a single-shard snapshot bed in lockstep; every batch must see
//    identical fates and the claim books must agree.
//  - grace period: a held ReadGuard defers reclamation of retired
//    snapshots; reads through it stay valid (ASan guards the UAF).
//  - rollback: a faulted install never publishes — the epoch stands still
//    and shard traffic keeps matching the last good snapshot.
//  - deploy under fire (TSan): shard workers batch packets while the
//    control plane churns installs/removes; batches never stall and never
//    tear across a snapshot boundary.
//  - bucket sharing: a snapshot built against its predecessor looks up
//    exactly like one built from scratch, re-copies only the buckets a
//    control operation wrote, keeps shared buckets alive as long as any
//    snapshot holds them, and starts over after re-provisioning.
//  - claims: with hundreds of filters installed, master and shard pipes
//    claim every packet for the program a naive filter scan picks.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/program_library.h"
#include "common/clock.h"
#include "control/controller.h"
#include "dataplane/runpro_dataplane.h"
#include "dataplane/snapshot_hub.h"
#include "dataplane/table_snapshot.h"
#include "obs/telemetry.h"
#include "rmt/packet.h"
#include "rmt/parser.h"
#include "rmt/tables.h"

namespace p4runpro {
namespace {

rmt::Packet udp_packet(Word op, Word key, std::uint16_t dst_port,
                       Port ingress = 5, Word value = 0) {
  rmt::Packet pkt;
  pkt.ipv4 = rmt::Ipv4Header{.src = 0x0a000001, .dst = 0x0a000002, .proto = 17};
  pkt.udp = rmt::UdpHeader{.src_port = 4000, .dst_port = dst_port};
  pkt.app = rmt::AppHeader{.op = op, .key1 = key, .key2 = 0, .value = value};
  pkt.ingress_port = ingress;
  return pkt;
}

std::string program_source(const std::string& tmpl, const std::string& name,
                           Word filter_value = 0, std::uint32_t buckets = 32) {
  apps::ProgramConfig config;
  config.instance_name = name;
  config.mem_buckets = buckets;
  config.filter_value = filter_value;
  return apps::make_program_source(tmpl, config);
}

struct Bed {
  SimClock clock;
  dp::RunproDataplane dataplane{dp::DataplaneSpec{},
                                rmt::ParserConfig{{7777, 9999}}};
  ctrl::Controller controller{dataplane, clock};
};

void expect_batches_equal(const rmt::Pipeline::BatchResult& serial,
                          const rmt::Pipeline::BatchResult& sharded,
                          int step) {
  EXPECT_EQ(serial.packets, sharded.packets) << "step " << step;
  EXPECT_EQ(serial.forwarded, sharded.forwarded) << "step " << step;
  EXPECT_EQ(serial.returned, sharded.returned) << "step " << step;
  EXPECT_EQ(serial.dropped, sharded.dropped) << "step " << step;
  EXPECT_EQ(serial.reported, sharded.reported) << "step " << step;
  EXPECT_EQ(serial.multicasted, sharded.multicasted) << "step " << step;
  EXPECT_EQ(serial.recirc_limited, sharded.recirc_limited) << "step " << step;
  EXPECT_EQ(serial.recirc_passes, sharded.recirc_passes) << "step " << step;
}

// Randomized differential: the same control-op and traffic sequence runs on
// a serial master bed and on shard 0 of a snapshot bed. The shard starts
// from zeroed pipe-local state just like the master, control writes
// broadcast to it, and every batch binds the latest published snapshot — so
// fates, recirculations and claim counts must evolve identically.
TEST(Snapshot, PublishReadParityRandomizedDifferential) {
  Bed serial;
  Bed sharded;
  sharded.dataplane.enable_sharding(1);

  std::mt19937 rng(20260809);
  std::vector<ProgramId> live;  // ids match across beds (same assignment order)
  int created = 0;

  const auto random_batch = [&rng](int n) {
    const std::uint16_t ports[] = {7777, 9999, 1234};
    std::vector<rmt::Packet> pkts;
    pkts.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      pkts.push_back(udp_packet(1 + rng() % 2, 0x8880 + rng() % 16,
                                ports[rng() % 3], 5 + rng() % 2, rng() % 100));
    }
    return pkts;
  };

  for (int step = 0; step < 120; ++step) {
    switch (rng() % 4) {
      case 0: {  // link a program on both beds
        if (live.size() >= 6) break;
        const bool hh = created % 2 == 0;
        const std::string src =
            program_source(hh ? "hh" : "cache", "p" + std::to_string(created));
        ++created;
        auto a = serial.controller.link_single(src);
        auto b = sharded.controller.link_single(src);
        ASSERT_TRUE(a.ok()) << a.error().str();
        ASSERT_TRUE(b.ok()) << b.error().str();
        ASSERT_EQ(a.value().id, b.value().id) << "beds diverged on id";
        live.push_back(a.value().id);
        break;
      }
      case 1: {  // revoke one
        if (live.empty()) break;
        const std::size_t victim = rng() % live.size();
        const ProgramId id = live[victim];
        ASSERT_TRUE(serial.controller.revoke(id).ok());
        ASSERT_TRUE(sharded.controller.revoke(id).ok());
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
        break;
      }
      case 2: {  // control-plane memory write (broadcasts to the shard)
        if (live.empty()) break;
        const ProgramId id = live[rng() % live.size()];
        const Word value = rng();
        // Not every template names a "mem1" pool; a rejected write must be
        // rejected identically on both beds.
        auto a = serial.controller.write_memory(id, "mem1", 0, value);
        auto b = sharded.controller.write_memory(id, "mem1", 0, value);
        ASSERT_EQ(a.ok(), b.ok());
        break;
      }
      default: {  // traffic
        const auto pkts = random_batch(64);
        const auto a = serial.dataplane.inject_batch(pkts);
        const auto b = sharded.dataplane.inject_batch_on(0, pkts);
        expect_batches_equal(a, b, step);
        // The sharded batch names the snapshot it matched.
        EXPECT_GT(b.snapshot_epoch, 0u);
        EXPECT_EQ(b.table_generation, a.table_generation);
        break;
      }
    }
  }

  for (const ProgramId id : live) {
    EXPECT_EQ(serial.dataplane.claimed_packets(id),
              sharded.dataplane.claimed_packets(id))
        << "claim books diverged for program " << id;
  }
  sharded.dataplane.disable_sharding();
}

// A reader holding a snapshot across publishes keeps it alive: retirement
// is deferred until the guard drops, and reads through the guard stay valid
// the whole time (ASan would flag the use-after-free otherwise).
TEST(Snapshot, GracePeriodDefersReclaimUntilReadersDrain) {
  Bed bed;
  bed.dataplane.enable_sharding(2);
  dp::SnapshotHub* hub = bed.dataplane.snapshot_hub();
  ASSERT_NE(hub, nullptr);
  const std::uint64_t initial_epoch = hub->epoch();

  {
    auto guard = hub->acquire(0);
    const std::uint64_t held_epoch = guard->epoch;
    const std::size_t held_tables = guard->rpb_tables.size();

    // Two commits while the guard is held: each publishes a new snapshot
    // and retires the previous one, but nothing may be freed yet.
    ASSERT_TRUE(bed.controller.link_single(program_source("cache", "a")).ok());
    ASSERT_TRUE(bed.controller.link_single(program_source("cache", "b")).ok());
    EXPECT_EQ(hub->epoch(), initial_epoch + 2);
    EXPECT_GE(hub->retired_pending(), 2u);

    // The held snapshot is still fully readable.
    EXPECT_EQ(guard->epoch, held_epoch);
    EXPECT_EQ(guard->rpb_tables.size(), held_tables);
    for (const auto& table : guard->rpb_tables) (void)table->size();
  }

  // Reader gone: the grace period ends and everything retired reclaims.
  hub->try_reclaim();
  EXPECT_EQ(hub->retired_pending(), 0u);
  EXPECT_GE(hub->reclaimed(), 2u);

  // A fresh acquire sees the newest snapshot.
  auto guard = hub->acquire(1);
  EXPECT_EQ(guard->epoch, initial_epoch + 2);
}

// A faulted install rolls back without publishing: the epoch stands still,
// and shard traffic is byte-identically unaffected. Re-running the install
// without the fault publishes exactly one new snapshot.
TEST(Snapshot, RollbackNeverPublishes) {
  Bed bed;
  bed.dataplane.enable_sharding(1);
  dp::SnapshotHub* hub = bed.dataplane.snapshot_hub();

  ASSERT_TRUE(bed.controller.link_single(program_source("cache", "base")).ok());
  const std::uint64_t epoch_before = hub->epoch();
  const std::uint64_t publishes_before = hub->publishes();

  std::vector<rmt::Packet> probe;
  for (int i = 0; i < 32; ++i) probe.push_back(udp_packet(1, 0x8888, 7777));
  const auto before = bed.dataplane.inject_batch_on(0, probe);

  bed.controller.updates().set_fault_after_writes(2);
  auto faulted = bed.controller.link_single(program_source("cache", "doomed"));
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.error().code, ErrorCode::ChannelError);

  // No publish happened; traffic still matches the pre-fault snapshot.
  EXPECT_EQ(hub->epoch(), epoch_before);
  EXPECT_EQ(hub->publishes(), publishes_before);
  const auto after = bed.dataplane.inject_batch_on(0, probe);
  expect_batches_equal(before, after, /*step=*/0);
  EXPECT_EQ(before.snapshot_epoch, after.snapshot_epoch);
  EXPECT_EQ(before.table_generation, after.table_generation);

  // The retry (no fault armed) publishes exactly once.
  auto retried = bed.controller.link_single(program_source("cache", "doomed"));
  ASSERT_TRUE(retried.ok()) << retried.error().str();
  EXPECT_EQ(hub->epoch(), epoch_before + 1);
  EXPECT_EQ(hub->publishes(), publishes_before + 1);
}

// Deploy under fire: shard workers inject batches nonstop while the control
// plane churns installs and removes through the async writer. Every batch
// must complete against exactly one snapshot — all of its packets claimed
// by the marker program or none of them — with per-shard epochs monotone.
// Runs under TSan in CI.
TEST(SnapshotDeployUnderFire, BatchesNeverStallOrTearAcrossCommits) {
  constexpr int kShards = 2;
  constexpr int kBatch = 64;
  constexpr int kRounds = 6;

  Bed bed;
  bed.dataplane.enable_sharding(kShards);
  bed.controller.set_async_writes(true);

  const std::string marker_source = program_source("cache", "marker");
  std::vector<rmt::Packet> pkts;
  for (int i = 0; i < kBatch; ++i) pkts.push_back(udp_packet(1, 0x8888, 7777));

  struct ShardStats {
    std::uint64_t batches = 0;
    std::uint64_t claimed_batches = 0;    // all kBatch packets returned
    std::uint64_t unclaimed_batches = 0;  // all kBatch packets forwarded
    std::uint64_t torn_batches = 0;       // anything in between
    std::uint64_t epoch_regressions = 0;
  };
  std::vector<ShardStats> stats(kShards);
  std::atomic<bool> stop{false};
  // Live tallies so the churn loop can hold each phase until the workers
  // actually observed it (on a loaded 1-core host a fixed-length phase can
  // pass without any worker getting a scheduler slot).
  std::atomic<std::uint64_t> live_claimed{0};
  std::atomic<std::uint64_t> live_unclaimed{0};

  std::vector<std::thread> workers;
  workers.reserve(kShards);
  for (int s = 0; s < kShards; ++s) {
    workers.emplace_back([&, s] {
      ShardStats local;
      std::uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto r = bed.dataplane.inject_batch_on(s, pkts);
        ++local.batches;
        if (r.returned == kBatch) {
          ++local.claimed_batches;
          live_claimed.fetch_add(1, std::memory_order_relaxed);
        } else if (r.forwarded == kBatch) {
          ++local.unclaimed_batches;
          live_unclaimed.fetch_add(1, std::memory_order_relaxed);
        } else {
          ++local.torn_batches;  // a batch split across two snapshots
        }
        if (r.snapshot_epoch < last_epoch) ++local.epoch_regressions;
        last_epoch = r.snapshot_epoch;
      }
      stats[static_cast<std::size_t>(s)] = local;
    });
  }

  // Yield until `tally` grows past `floor`, bounded so a genuine stall
  // cannot hang the test (the final EXPECTs then report what was missed).
  const auto await_observation = [](const std::atomic<std::uint64_t>& tally,
                                    std::uint64_t floor) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (tally.load(std::memory_order_relaxed) <= floor &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  };

  // Control churn: the marker program comes and goes every round while
  // filler programs (on ports the marker traffic never hits) keep the
  // writer busy with installs and removes. Failures only break the loop —
  // the workers must be joined before any ASSERT can end the test body.
  std::string churn_error;
  for (int round = 0; round < kRounds && churn_error.empty(); ++round) {
    auto marker = bed.controller.link_single(marker_source);
    if (!marker.ok()) {
      churn_error = marker.error().str();
      break;
    }
    await_observation(live_claimed, live_claimed.load());
    std::vector<ProgramId> fillers;
    for (int i = 0; i < 4; ++i) {
      auto filler = bed.controller.link_single(program_source(
          "cache", "filler" + std::to_string(i),
          static_cast<Word>(6001 + i)));
      if (!filler.ok()) {
        churn_error = filler.error().str();
        break;
      }
      fillers.push_back(filler.value().id);
    }
    for (const ProgramId id : fillers) {
      if (!bed.controller.revoke(id).ok()) churn_error = "filler revoke failed";
    }
    if (!bed.controller.revoke(marker.value().id).ok()) {
      churn_error = "marker revoke failed";
    }
    await_observation(live_unclaimed, live_unclaimed.load());
  }

  stop.store(true, std::memory_order_relaxed);
  for (auto& worker : workers) worker.join();
  ASSERT_TRUE(churn_error.empty()) << churn_error;

  std::uint64_t batches = 0, claimed = 0, unclaimed = 0;
  for (const auto& s : stats) {
    EXPECT_EQ(s.torn_batches, 0u) << "a batch saw two snapshots";
    EXPECT_EQ(s.epoch_regressions, 0u) << "snapshot epochs went backwards";
    EXPECT_GT(s.batches, 0u) << "a shard stalled";
    batches += s.batches;
    claimed += s.claimed_batches;
    unclaimed += s.unclaimed_batches;
  }
  EXPECT_EQ(batches, claimed + unclaimed);
  // Traffic flowed during the churn and observed both sides of a commit
  // boundary: snapshots with the marker live and snapshots without it.
  EXPECT_GT(claimed, 0u);
  EXPECT_GT(unclaimed, 0u);

  bed.dataplane.disable_sharding();

  // The books balance once quiesced: no program left behind.
  EXPECT_EQ(bed.controller.program_count(), 0u);
}

// --- bucket-shared snapshots -------------------------------------------------

constexpr int kFirstRpbTable = dp::kNumParsePaths;  ///< table index of RPB 1

/// A snapshot of `dataplane`'s master tables built from scratch: no
/// predecessor, so every bucket is copied.
dp::TableSnapshot scratch_snapshot(dp::RunproDataplane& dataplane) {
  std::vector<std::shared_ptr<dp::Rpb>> rpbs;
  for (int id = 1; id <= dataplane.spec().total_rpbs(); ++id) {
    rpbs.emplace_back(&dataplane.rpb(id), [](dp::Rpb*) {});  // non-owning
  }
  return dp::TableSnapshot(dataplane.init_block(), rpbs, dataplane.recirc_block(), 0, 0);
}

/// Calls fn(index, table_of_a, table_of_b) for every table of two snapshots
/// of one dataplane: indices 0-4 are the filter tables, then the RPB tables
/// in physical order, then the recirculation table.
template <typename Fn>
void for_each_table_pair(const dp::TableSnapshot& a, const dp::TableSnapshot& b,
                         Fn&& fn) {
  int index = 0;
  for (std::size_t p = 0; p < a.filters.size(); ++p) {
    fn(index++, *a.filters[p], *b.filters[p]);
  }
  for (std::size_t i = 0; i < a.rpb_tables.size(); ++i) {
    fn(index++, *a.rpb_tables[i], *b.rpb_tables[i]);
  }
  fn(index, *a.recirc, *b.recirc);
}

std::string describe(const dp::RpbAction* action) {
  if (action == nullptr) return "miss";
  std::string out = std::to_string(action->owner) + ":" + action->op.str();
  if (action->next_branch) out += "->b" + std::to_string(*action->next_branch);
  return out;
}
std::string describe(const ProgramId* program) {
  return program == nullptr ? "miss" : std::to_string(*program);
}
std::string describe(const bool* hit) { return hit == nullptr ? "miss" : "hit"; }

/// Probe keys for a table of `key_width` components. Filter probes cover
/// the filters these tests install (UDP ports 6001-6003/7777/9999, hh
/// sources 10.0-10.2/16); RPB probes cover every program id in `programs`,
/// four branches, both rounds and the register values the cache and hh
/// case keys compare against; recirculation probes cover three rounds.
std::vector<std::vector<Word>> probe_fields(int key_width,
                                            const std::vector<ProgramId>& programs) {
  std::vector<std::vector<Word>> probes;
  if (key_width == dp::kFilterKeyWidth) {
    for (const Word src : {0x0a000001u, 0x0a010001u, 0x0a020001u, 0x0b000001u}) {
      for (const Word dst_port : {7777u, 9999u, 6001u, 6002u, 6003u, 1234u}) {
        probes.push_back({5, src, 0x0a020002u, 17, 4000, dst_port, 0x0800});
      }
    }
    return probes;
  }
  for (const ProgramId program : programs) {
    if (key_width == 2) {
      for (Word round = 0; round < 3; ++round) probes.push_back({program, round});
      continue;
    }
    for (Word branch = 0; branch < 4; ++branch) {
      for (Word recirc = 0; recirc < 2; ++recirc) {
        for (const Word har : {0u, 1u, 2u, 1024u}) {
          for (const Word sar : {0u, 1u, 0x8888u}) {
            probes.push_back({program, branch, recirc, har, sar, 0});
          }
        }
      }
    }
  }
  return probes;
}

/// Every table of `published` answers every probe, and reports the same
/// size, exactly like the same table of `scratch`.
void expect_same_lookups(const dp::TableSnapshot& published,
                         const dp::TableSnapshot& scratch,
                         const std::vector<ProgramId>& programs,
                         const std::string& where) {
  ASSERT_EQ(published.rpb_tables.size(), scratch.rpb_tables.size());
  std::map<int, std::vector<std::vector<Word>>> probes;
  for_each_table_pair(published, scratch, [&](int index, const auto& a, const auto& b) {
    EXPECT_EQ(a.size(), b.size()) << where << ", table " << index;
    auto& fields = probes[a.key_width()];
    if (fields.empty()) fields = probe_fields(a.key_width(), programs);
    int mismatches = 0;
    std::string first;
    for (const auto& f : fields) {
      const std::string got = describe(a.lookup(f));
      const std::string want = describe(b.lookup(f));
      if (got != want && mismatches++ == 0) first = got + " vs " + want;
    }
    EXPECT_EQ(mismatches, 0) << where << ", table " << index << ": first mismatch "
                             << first;
  });
}

/// A batch mixing cache reads/writes on the catalog ports, off-program
/// traffic and two ingress ports.
std::vector<rmt::Packet> traffic_batch(std::mt19937& rng) {
  const std::uint16_t ports[] = {7777, 9999, 1234};
  std::vector<rmt::Packet> pkts;
  for (int i = 0; i < 64; ++i) {
    pkts.push_back(udp_packet(1 + rng() % 2, 0x8880 + rng() % 16, ports[rng() % 3],
                              5 + rng() % 2, rng() % 100));
  }
  return pkts;
}

// The frozen form against its master table under random churn over dense,
// hashed (first key >= 4096) and wildcard buckets, with erases that empty a
// bucket and re-inserts into it. Each freeze against the previous one looks
// up exactly like the master and like a from-scratch freeze, shares exactly
// the buckets whose stamp did not move, and is the previous table itself
// when nothing moved.
TEST(SnapshotFrozenTable, IncrementalFreezeMatchesMasterUnderChurn) {
  using Table = rmt::TernaryTable<int, 3>;
  using Frozen = rmt::FrozenTernaryTable<int, 3>;
  Table master(3, 4096);
  std::mt19937 rng(4242);
  const std::array<Word, 6> first_keys = {0, 1, 7, 300, 5000, 90000};
  std::vector<rmt::EntryHandle> handles;
  std::shared_ptr<const Frozen> previous;
  int mismatches = 0;
  for (int round = 0; round < 300; ++round) {
    const int ops = static_cast<int>(rng() % 4);  // 0: freeze with nothing moved
    for (int i = 0; i < ops; ++i) {
      if (!handles.empty() && rng() % 3 == 0) {
        const std::size_t victim = rng() % handles.size();
        ASSERT_TRUE(master.erase(handles[victim]));
        handles.erase(handles.begin() + static_cast<std::ptrdiff_t>(victim));
        continue;
      }
      const Word first = first_keys[rng() % first_keys.size()];
      const rmt::TernaryKey k0 =
          rng() % 5 == 0 ? rmt::TernaryKey::any() : rmt::TernaryKey::exact(first);
      const rmt::TernaryKey k1{static_cast<Word>(rng() % 4), rng() % 2 ? 0x3u : 0u};
      const rmt::TernaryKey k2{static_cast<Word>(rng() % 4), rng() % 2 ? 0x3u : 0u};
      auto handle = master.insert({k0, k1, k2}, static_cast<int>(rng() % 3), round * 10 + i);
      ASSERT_TRUE(handle.ok());
      handles.push_back(handle.value());
    }

    rmt::FreezeCounts counts;
    const auto frozen = Frozen::freeze(master, previous, counts);
    rmt::FreezeCounts scratch_counts;
    const auto scratch = Frozen::freeze(master, nullptr, scratch_counts);
    if (ops == 0 && previous != nullptr) {
      EXPECT_EQ(frozen, previous);
    }
    EXPECT_EQ(scratch_counts.shared, 0u);
    EXPECT_EQ(counts.frozen + counts.shared, scratch_counts.frozen);
    EXPECT_EQ(frozen->buckets(), scratch_counts.frozen);
    EXPECT_EQ(frozen->size(), master.size());
    if (previous != nullptr) {
      std::size_t shared = 0;
      for (const Word key : first_keys) {
        const auto* bucket = frozen->bucket(key);
        if (bucket != nullptr && bucket == previous->bucket(key)) ++shared;
      }
      const auto* wild = frozen->wildcard_bucket();
      if (wild != nullptr && wild == previous->wildcard_bucket()) ++shared;
      EXPECT_EQ(shared, counts.shared) << "round " << round;
    }
    for (const Word key : first_keys) {
      for (Word a = 0; a < 4; ++a) {
        for (Word b = 0; b < 4; ++b) {
          const std::array<Word, 3> fields = {key, a, b};
          const int* want = master.lookup(fields);
          const int* got = frozen->lookup(fields);
          const int* from_scratch = scratch->lookup(fields);
          const int w = want != nullptr ? *want : -1;
          if ((got != nullptr ? *got : -1) != w) ++mismatches;
          if ((from_scratch != nullptr ? *from_scratch : -1) != w) ++mismatches;
        }
      }
    }
    previous = frozen;
  }
  EXPECT_EQ(mismatches, 0);
}

// Seeded differential: after every control operation — link, revoke,
// write_memory, and links and revokes rolled back by an armed channel fault
// — the published snapshot, built against its predecessor, answers every
// probe exactly like a snapshot built from scratch out of the same master
// tables. The second half runs the async channel, whose writer thread
// publishes.
TEST(SnapshotSharing, IncrementalPublishMatchesFromScratchDifferential) {
  Bed bed;
  bed.dataplane.enable_sharding(1);
  dp::SnapshotHub* hub = bed.dataplane.snapshot_hub();

  std::mt19937 rng(20261016);
  std::map<ProgramId, std::string> live;  // id -> a memory pool it owns
  std::vector<ProgramId> seen;
  int created = 0;
  int rollbacks = 0;
  const auto link = [&] {
    const bool hh = rng() % 2 == 0;
    const Word filter = hh ? 0x0a000000u + static_cast<Word>(rng() % 3) * 0x10000u
                           : 6001u + static_cast<Word>(rng() % 3);
    auto linked = bed.controller.link_single(
        program_source(hh ? "hh" : "cache", "p" + std::to_string(created++), filter));
    if (linked.ok()) {
      live[linked.value().id] = hh ? "mem_cms_row1" : "mem1";
      seen.push_back(linked.value().id);
    }
    return linked;
  };

  for (int step = 0; step < 80; ++step) {
    if (step == 40) bed.controller.set_async_writes(true);
    switch (rng() % 5) {
      case 0:
      case 1:
        if (live.size() < 8) {
          const auto linked = link();
          ASSERT_TRUE(linked.ok()) << linked.error().str();
        }
        break;
      case 2:
        if (!live.empty()) {
          const auto victim = std::next(live.begin(), rng() % live.size());
          ASSERT_TRUE(bed.controller.revoke(victim->first).ok());
          live.erase(victim);
        }
        break;
      case 3:
        if (!live.empty()) {
          const auto& [id, pool] = *std::next(live.begin(), rng() % live.size());
          ASSERT_TRUE(bed.controller.write_memory(id, pool, 0, rng()).ok());
        }
        break;
      default: {  // a link or a revoke with a channel fault armed
        bed.controller.updates().set_fault_after_writes(static_cast<int>(rng() % 8));
        if (!live.empty() && rng() % 2 == 0) {
          const auto victim = std::next(live.begin(), rng() % live.size());
          if (bed.controller.revoke(victim->first).ok()) live.erase(victim);
        } else if (live.size() < 8) {
          (void)link();
        }
        if (bed.controller.updates().fault_armed()) {
          bed.controller.updates().set_fault_after_writes(-1);  // never fired
        } else {
          ++rollbacks;
        }
        break;
      }
    }
    std::vector<ProgramId> programs = seen;
    programs.push_back(0);
    programs.push_back(static_cast<ProgramId>(created + 1));
    const auto guard = hub->acquire(0);
    expect_same_lookups(*guard, scratch_snapshot(bed.dataplane), programs,
                        "step " + std::to_string(step));
  }
  EXPECT_GT(rollbacks, 0);
  bed.dataplane.disable_sharding();
}

/// The (table index, first key) of every bucket `program`'s install wrote;
/// key -1 names the wildcard pool. `recirc_table` is the recirculation
/// table's index.
std::set<std::pair<int, std::int64_t>> written_buckets(
    const ctrl::InstalledProgram& program, int recirc_table) {
  std::set<std::pair<int, std::int64_t>> out;
  // A filter entry sits in the bucket of its exact ingress-port key, or in
  // the wildcard pool when it does not key on the port.
  std::int64_t filter_key = -1;
  for (const auto& f : program.image->plan.filters) {
    if (dp::filter_key_slot(f.field) == dp::kFilterIngressPort && f.mask == 0xffffffffu) {
      filter_key = f.value;
    }
  }
  for (const auto& handle : program.filter_handles) {
    out.emplace(static_cast<int>(handle.path), filter_key);
  }
  // RPB and recirculation entries key exactly on the program id.
  for (const auto& [rpb, handle] : program.rpb_handles) {
    out.emplace(kFirstRpbTable + rpb - 1, program.id);
  }
  if (!program.recirc_handles.empty()) out.emplace(recirc_table, program.id);
  return out;
}

// O(change): with 20 and with 200 programs installed, linking one program
// re-freezes exactly the buckets its op-log wrote. Every other bucket, and
// every table the link did not touch, is the previous snapshot's, pointer
// for pointer.
TEST(SnapshotSharing, LinkRefreezesOnlyTheBucketsItWrote) {
  for (const int installed : {20, 200}) {
    SCOPED_TRACE("installed " + std::to_string(installed));
    Bed bed;
    for (int i = 0; i < installed; ++i) {
      const bool hh = i % 2 == 1;
      const Word filter = hh ? 0x0a000000u + static_cast<Word>(i) * 0x10000u
                             : 10000u + static_cast<Word>(i);
      ASSERT_TRUE(bed.controller
                      .link_single(program_source(hh ? "hh" : "cache",
                                                  "fill" + std::to_string(i), filter))
                      .ok());
    }
    bed.dataplane.enable_sharding(2);
    dp::SnapshotHub* hub = bed.dataplane.snapshot_hub();
    const int recirc_table = kFirstRpbTable + bed.dataplane.spec().total_rpbs();

    for (const bool hh : {false, true}) {
      const auto before = hub->acquire(0);
      auto linked = bed.controller.link_single(
          program_source(hh ? "hh" : "cache", hh ? "probe_hh" : "probe_cache",
                         hh ? 0x0b000000u : 9000u));
      ASSERT_TRUE(linked.ok()) << linked.error().str();
      const auto after = hub->acquire(1);
      ASSERT_EQ(after->epoch, before->epoch + 1);
      const ctrl::InstalledProgram* program = bed.controller.program(linked.value().id);
      ASSERT_NE(program, nullptr);
      const auto written = written_buckets(*program, recirc_table);

      std::size_t refrozen = 0;
      std::size_t shared = 0;
      std::size_t wrong = 0;
      for_each_table_pair(*after, *before, [&](int index, const auto& now, const auto& old) {
        bool touched = false;
        const auto visit = [&](std::int64_t key, const void* now_bucket,
                               const void* old_bucket) {
          if (now_bucket == nullptr) return;
          if (written.count({index, key}) != 0) {
            touched = true;
            ++refrozen;
            if (now_bucket == old_bucket) ++wrong;
          } else {
            ++shared;
            if (now_bucket != old_bucket) ++wrong;
          }
        };
        visit(-1, now.wildcard_bucket(), old.wildcard_bucket());
        for (Word key = 0; key < 4096; ++key) visit(key, now.bucket(key), old.bucket(key));
        if (!touched) {
          EXPECT_EQ(&now, &old) << "untouched table " << index << " was copied";
        }
      });
      EXPECT_EQ(wrong, 0u) << (hh ? "hh" : "cache");
      EXPECT_EQ(refrozen, written.size());
      EXPECT_EQ(after->buckets.frozen, written.size());
      EXPECT_EQ(after->buckets.shared, shared);
      EXPECT_GE(shared, static_cast<std::size_t>(installed));
    }
    bed.dataplane.disable_sharding();
  }
}

// A bucket shared between snapshots lives as long as any snapshot holds it:
// reads through a held, retired snapshot stay valid across two more
// publishes, and after that snapshot is reclaimed the bucket is still the
// current snapshot's and still matches traffic (ASan flags a use after free).
TEST(SnapshotSharing, SharedBucketOutlivesItsRetiredSnapshot) {
  Bed bed;
  bed.dataplane.enable_sharding(2);
  dp::SnapshotHub* hub = bed.dataplane.snapshot_hub();
  auto linked = bed.controller.link_single(program_source("cache", "a"));
  ASSERT_TRUE(linked.ok()) << linked.error().str();
  const ProgramId id = linked.value().id;
  const std::size_t rpb = static_cast<std::size_t>(
      bed.controller.program(id)->rpb_handles.front().first - 1);
  const auto owned_entries = [id](const dp::FrozenRpbTable::Bucket* bucket) {
    std::size_t owned = 0;
    for (const auto& entry : bucket->entries) owned += entry.action.owner == id ? 1 : 0;
    return owned;
  };

  const dp::FrozenRpbTable::Bucket* bucket = nullptr;
  std::size_t owned = 0;
  {
    const auto held = hub->acquire(0);
    bucket = held->rpb_tables[rpb]->bucket(id);
    ASSERT_NE(bucket, nullptr);
    owned = owned_entries(bucket);
    ASSERT_GT(owned, 0u);

    ASSERT_TRUE(bed.controller.link_single(program_source("cache", "b", 6001)).ok());
    ASSERT_TRUE(bed.controller.link_single(program_source("cache", "c", 6002)).ok());
    EXPECT_GE(hub->retired_pending(), 2u);

    // Retired but held: still readable, and the newest snapshot shares it.
    EXPECT_EQ(owned_entries(held->rpb_tables[rpb]->bucket(id)), owned);
    const auto current = hub->acquire(1);
    EXPECT_EQ(current->rpb_tables[rpb]->bucket(id), bucket);
  }

  hub->try_reclaim();
  EXPECT_EQ(hub->retired_pending(), 0u);
  {
    const auto current = hub->acquire(1);
    ASSERT_EQ(current->rpb_tables[rpb]->bucket(id), bucket);
    EXPECT_EQ(owned_entries(bucket), owned);
  }
  const std::vector<rmt::Packet> reads(16, udp_packet(1, 0x8888, 7777));
  EXPECT_EQ(bed.dataplane.inject_batch_on(0, reads).returned, 16u);
  bed.dataplane.disable_sharding();
}

// Re-provisioning starts over: after disable_sharding() and
// enable_sharding() the first snapshot shares nothing (the new hub has no
// predecessor), and traffic on it, and on the incremental snapshot of the
// next link, matches a serial bed.
TEST(SnapshotSharing, ReprovisionStartsFromScratch) {
  Bed serial;
  Bed sharded;
  sharded.dataplane.enable_sharding(1);
  std::vector<ProgramId> ids = {0};
  const auto link_both = [&](const std::string& source) {
    auto a = serial.controller.link_single(source);
    auto b = sharded.controller.link_single(source);
    ASSERT_TRUE(a.ok()) << a.error().str();
    ASSERT_TRUE(b.ok()) << b.error().str();
    ASSERT_EQ(a.value().id, b.value().id);
    ids.push_back(a.value().id);
  };
  link_both(program_source("cache", "c0"));
  link_both(program_source("hh", "h0"));

  sharded.dataplane.disable_sharding();
  sharded.dataplane.enable_sharding(1);
  dp::SnapshotHub* hub = sharded.dataplane.snapshot_hub();
  {
    const auto guard = hub->acquire(0);
    EXPECT_EQ(guard->buckets.shared, 0u);
    EXPECT_GT(guard->buckets.frozen, 0u);
    expect_same_lookups(*guard, scratch_snapshot(sharded.dataplane), ids,
                        "re-provisioned");
  }
  std::mt19937 rng(7);
  auto pkts = traffic_batch(rng);
  expect_batches_equal(serial.dataplane.inject_batch(pkts),
                       sharded.dataplane.inject_batch_on(0, pkts), 0);

  link_both(program_source("cache", "c1", 9999));
  {
    const auto guard = hub->acquire(0);
    EXPECT_GT(guard->buckets.shared, 0u);
  }
  pkts = traffic_batch(rng);
  expect_batches_equal(serial.dataplane.inject_batch(pkts),
                       sharded.dataplane.inject_batch_on(0, pkts), 1);
  sharded.dataplane.disable_sharding();
}

// Publish telemetry reaches the registry on the session thread, serial or
// async: one rmt.snapshot.publish_us sample per published operation, and
// bucket counters that add up to what the published snapshots report.
TEST(SnapshotSharing, PublishTelemetryCountsFrozenAndSharedBuckets) {
  for (const bool async : {false, true}) {
    SCOPED_TRACE(async ? "async" : "serial");
    SimClock clock;
    obs::Telemetry telemetry;
    dp::RunproDataplane dataplane{dp::DataplaneSpec{}, rmt::ParserConfig{{7777, 9999}}};
    ctrl::Controller controller{dataplane, clock, {}, {}, &telemetry};
    dataplane.enable_sharding(1);
    controller.set_async_writes(async);

    std::size_t frozen = 0;
    std::size_t shared = 0;
    const auto tally = [&] {
      const auto guard = dataplane.snapshot_hub()->acquire(0);
      frozen += guard->buckets.frozen;
      shared += guard->buckets.shared;
    };
    std::vector<ProgramId> ids;
    for (Word i = 0; i < 3; ++i) {
      auto linked = controller.link_single(
          program_source("cache", "t" + std::to_string(i), 6001 + i));
      ASSERT_TRUE(linked.ok()) << linked.error().str();
      ids.push_back(linked.value().id);
      tally();
    }
    ASSERT_TRUE(controller.revoke(ids.front()).ok());
    tally();

    const auto& metrics = telemetry.metrics;
    const auto* publish_us = metrics.find_histogram("rmt.snapshot.publish_us");
    ASSERT_NE(publish_us, nullptr);
    EXPECT_EQ(publish_us->count(), 4u);
    EXPECT_GT(publish_us->sum(), 0.0);
    const auto* frozen_counter = metrics.find_counter("rmt.snapshot.buckets_frozen");
    const auto* shared_counter = metrics.find_counter("rmt.snapshot.buckets_shared");
    ASSERT_NE(frozen_counter, nullptr);
    ASSERT_NE(shared_counter, nullptr);
    EXPECT_EQ(frozen_counter->value(), frozen);
    EXPECT_EQ(shared_counter->value(), shared);
    EXPECT_GT(shared, 0u);
    controller.set_async_writes(false);
    dataplane.disable_sharding();
  }
}

// --- claims under the benchmark's priority pattern --------------------------

/// The program a naive scan over every installed filter gives `pkt`: among
/// the programs whose filter suits the packet's parse path and whose tuples
/// all match, the one of the highest filter priority; 0 when none matches.
ProgramId naive_claim(const rmt::Packet& pkt, const rmt::Parser& parser,
                      const std::vector<const ctrl::InstalledProgram*>& programs) {
  const dp::ParsePath path = dp::InitBlock::path_of(parser.parse(pkt));
  const Word l4_src = pkt.tcp ? pkt.tcp->src_port : pkt.udp ? pkt.udp->src_port : 0;
  const Word l4_dst = pkt.tcp ? pkt.tcp->dst_port : pkt.udp ? pkt.udp->dst_port : 0;
  const std::array<Word, dp::kFilterKeyWidth> fields = {
      pkt.ingress_port,           pkt.ipv4 ? pkt.ipv4->src : 0,
      pkt.ipv4 ? pkt.ipv4->dst : 0, pkt.ipv4 ? pkt.ipv4->proto : 0u,
      l4_src,                     l4_dst,
      pkt.eth.ether_type};
  const ctrl::InstalledProgram* best = nullptr;
  for (const ctrl::InstalledProgram* program : programs) {
    const auto& filters = program->image->plan.filters;
    const auto paths = dp::compatible_paths(filters);
    if (std::find(paths.begin(), paths.end(), path) == paths.end()) continue;
    const bool hit = std::all_of(filters.begin(), filters.end(), [&](const dp::FilterTuple& f) {
      const auto slot = static_cast<std::size_t>(*dp::filter_key_slot(f.field));
      return (fields[slot] & f.mask) == (f.value & f.mask);
    });
    if (hit && (best == nullptr || program->image->plan.filter_priority > best->image->plan.filter_priority)) {
      best = program;
    }
  }
  return best != nullptr ? best->id : 0;
}

// The benchmark's priority pattern: hh, lb and cache link first, then 200
// newer fillers on UDP ports from 20000 and prefixes 10.100/16-10.239/16,
// then a newest program whose filter duplicates lb's and must win lb's
// packets, as a relink's copy does. Over a seeded packet set on all five
// parse paths, the per-program claim counts of master inject_batch and of a
// shard's inject_batch_on equal each other and a naive scan over every
// installed filter.
TEST(SnapshotClaims, BenchmarkPriorityPatternClaimsLikeANaiveScan) {
  Bed serial;
  Bed sharded;
  sharded.dataplane.enable_sharding(1);
  std::vector<ProgramId> ids;
  const auto link_both = [&](const std::string& tmpl, const std::string& name,
                             Word filter) {
    const std::string source = program_source(tmpl, name, filter);
    const auto a = serial.controller.link_single(source);
    const auto b = sharded.controller.link_single(source);
    if (!a.ok() || !b.ok() || a.value().id != b.value().id) return false;
    ids.push_back(a.value().id);
    return true;
  };
  ASSERT_TRUE(link_both("hh", "on_hh", 0x0a000000u));   // src 10.0/16
  ASSERT_TRUE(link_both("lb", "on_lb", 0x0a020000u));   // dst 10.2/16
  ASSERT_TRUE(link_both("cache", "on_cache", 7777u));   // UDP 7777
  const std::array<const char*, 4> port_keys = {"cache", "nc", "dqacc", "calculator"};
  const std::array<const char*, 6> prefix_keys = {"lb", "hh", "cms", "bf", "sumax", "hll"};
  for (Word i = 0; i < 200; ++i) {
    const std::string name = "fill" + std::to_string(i);
    const Word prefix = (10u << 24) | ((100u + i % 140) << 16);
    ASSERT_TRUE(i % 2 == 0 ? link_both(port_keys[i / 2 % 4], name, 20000u + i)
                           : link_both(prefix_keys[i / 2 % 6], name, prefix))
        << name;
  }
  ASSERT_TRUE(link_both("lb", "lb_copy", 0x0a020000u));

  // Addresses in the hh and lb prefixes, in a filler prefix (10.101/16) and
  // in none; ports of cache, of a filler and of nothing.
  std::mt19937 rng(20261017);
  const std::array<Word, 4> prefixes = {0x0a000000u, 0x0a020000u, 0x0a650000u, 0x0afe0000u};
  const auto address = [&]() -> Word {
    return prefixes[rng() % prefixes.size()] | static_cast<Word>(rng() & 0xffffu);
  };
  const auto port = [&]() -> std::uint16_t {
    const std::array<std::uint16_t, 4> ports = {7777, 9999, 20002, 1234};
    return ports[rng() % ports.size()];
  };
  std::vector<rmt::Packet> pkts;
  for (int i = 0; i < 500; ++i) {
    rmt::Packet pkt;
    pkt.ingress_port = static_cast<Port>(rng() % 8);
    if (i % 5 == 0) {  // Ethernet only
      pkt.eth.ether_type = rng() % 2 == 0 ? 0x0806 : 0x86dd;
      pkts.push_back(pkt);
      continue;
    }
    pkt.ipv4 = rmt::Ipv4Header{.src = address(), .dst = address(), .proto = 1};
    if (i % 5 == 2) {
      pkt.ipv4->proto = 6;
      pkt.tcp = rmt::TcpHeader{.src_port = 4000, .dst_port = port()};
    } else if (i % 5 >= 3) {
      pkt.ipv4->proto = 17;
      pkt.udp = rmt::UdpHeader{.src_port = 4000, .dst_port = port()};
      if (i % 5 == 4) {
        pkt.app = rmt::AppHeader{.op = static_cast<Word>(1 + rng() % 2), .key1 = 0x8888};
      }
    }
    pkts.push_back(pkt);
  }

  const rmt::Parser parser(rmt::ParserConfig{{7777, 9999}});
  std::vector<const ctrl::InstalledProgram*> programs;
  for (const ProgramId id : ids) programs.push_back(serial.controller.program(id));
  std::set<dp::ParsePath> paths;
  std::map<ProgramId, std::uint64_t> want;
  for (const rmt::Packet& pkt : pkts) {
    paths.insert(dp::InitBlock::path_of(parser.parse(pkt)));
    ++want[naive_claim(pkt, parser, programs)];
  }
  ASSERT_EQ(paths.size(), static_cast<std::size_t>(dp::kNumParsePaths));

  expect_batches_equal(serial.dataplane.inject_batch(pkts),
                       sharded.dataplane.inject_batch_on(0, pkts), 0);
  for (const ProgramId id : ids) {
    EXPECT_EQ(serial.dataplane.claimed_packets(id), want[id]) << "master, program " << id;
    EXPECT_EQ(sharded.dataplane.claimed_packets(id), want[id]) << "shard, program " << id;
  }
  // The packet set reaches every on-trace program and some fillers, and
  // the copy, not the original, claims lb's packets.
  EXPECT_GT(want[ids[0]], 0u);
  EXPECT_EQ(want[ids[1]], 0u);
  EXPECT_GT(want[ids[2]], 0u);
  EXPECT_GT(want[ids.back()], 0u);
  std::uint64_t filler_claims = 0;
  for (std::size_t i = 3; i + 1 < ids.size(); ++i) filler_claims += want[ids[i]];
  EXPECT_GT(filler_claims, 0u);
  sharded.dataplane.disable_sharding();
}

}  // namespace
}  // namespace p4runpro
