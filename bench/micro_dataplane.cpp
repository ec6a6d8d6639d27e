// Data-plane micro-benchmarks (google-benchmark): simulator packet rates
// for the main program shapes. These measure the SIMULATOR, not the
// switch — useful for knowing how much virtual traffic the case studies
// can afford — plus the per-entry install/remove cost of the table layer.
//
// Besides the google-benchmark table, the binary measures a fixed suite of
// packet-rate shapes and (with --bench-json-out=<path>) writes them as a
// machine-readable baseline; the committed BENCH_dataplane.json at the repo
// root is regenerated exactly this way (see docs/PERFORMANCE.md).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <future>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "apps/program_library.h"
#include "common/clock.h"
#include "common/thread_pool.h"
#include "control/controller.h"
#include "dataplane/runpro_dataplane.h"
#include "dataplane/switch_chain.h"
#include "obs/telemetry.h"
#include "traffic/workloads.h"

#include "bench_util.h"

namespace {

using namespace p4runpro;

/// A bed with its own telemetry bundle so instances can run on thread-pool
/// workers without racing on the process-wide default registry.
struct Bed {
  obs::Telemetry telemetry;
  SimClock clock;
  dp::RunproDataplane dataplane{dp::DataplaneSpec{},
                                rmt::ParserConfig{{7777, 9999}}};
  ctrl::Controller controller{dataplane, clock, rp::Objective{},
                              ctrl::BfrtCostModel{}, &telemetry};
};

dp::DataplaneSpec chain_spec() {
  dp::DataplaneSpec spec;
  spec.max_recirculations = 2;  // 3 hops: one round per hop
  return spec;
}

/// A 3-hop chain under one controller, whose monitor observes hop 0.
struct ChainBed {
  obs::Telemetry telemetry;
  SimClock clock;
  dp::SwitchChain dataplane{3, chain_spec(), rmt::ParserConfig{{7777, 9999}}};
  ctrl::Controller controller{dataplane, clock, rp::Objective{},
                              ctrl::BfrtCostModel{}, &telemetry};
};

rmt::Packet cache_packet() {
  rmt::Packet pkt;
  pkt.ipv4 = rmt::Ipv4Header{.src = 0x0a000001, .dst = 0x0a000002, .proto = 17};
  pkt.udp = rmt::UdpHeader{4000, 7777};
  pkt.app = rmt::AppHeader{1, 0x8888, 0, 0};
  pkt.ingress_port = 5;
  return pkt;
}

rmt::Packet hh_packet() {
  rmt::Packet pkt;
  pkt.ipv4 = rmt::Ipv4Header{.src = 0x0a000010, .dst = 0x0b000001, .proto = 17};
  pkt.udp = rmt::UdpHeader{5000, 6000};
  pkt.ingress_port = 1;
  return pkt;
}

template <typename B>
void link_program(B& bed, const char* key) {
  apps::ProgramConfig config;
  config.instance_name = key;
  (void)bed.controller.link_single(apps::make_program_source(key, config));
}

void link_many(Bed& bed, int count) {
  auto workload = traffic::WorkloadGenerator::all_mixed(64, 2, 3);
  for (int i = 0; i < count; ++i) {
    (void)bed.controller.link_single(workload.next().source);
  }
}

/// Link `count` catalog programs whose filters match no packet of this
/// file: UDP ports from 20000 and IPv4 prefixes 10.100/16 to 10.239/16.
/// (link_many's prefix filters cycle through 10.0/16, which holds
/// cache_packet()'s addresses.)
void link_off_trace(Bed& bed, int count) {
  const char* const port_keys[] = {"cache", "nc", "dqacc", "calculator"};
  const char* const prefix_keys[] = {"lb", "hh", "cms", "bf", "sumax", "hll"};
  for (int i = 0; i < count; ++i) {
    const bool on_port = i % 2 == 0;
    apps::ProgramConfig config;
    config.instance_name = "fill" + std::to_string(i);
    config.filter_value = on_port ? 20000u + static_cast<Word>(i)
                                  : (10u << 24) | ((100u + static_cast<Word>(i % 140)) << 16);
    (void)bed.controller.link_single(apps::make_program_source(
        on_port ? port_keys[i / 2 % 4] : prefix_keys[i / 2 % 6], config));
  }
}

constexpr std::size_t kBatch = 1024;

std::vector<rmt::Packet> batch_of(const rmt::Packet& pkt) {
  return std::vector<rmt::Packet>(kBatch, pkt);
}

// --- per-packet inject() shapes (health monitor attached, as in a live
// --- deployment: the controller wires its monitor as packet observer) -----

void BM_InjectUnclaimed(benchmark::State& state) {
  Bed bed;
  const auto pkt = hh_packet();
  for (auto _ : state) {
    benchmark::DoNotOptimize(bed.dataplane.inject(pkt));
  }
}
BENCHMARK(BM_InjectUnclaimed);

void BM_InjectCacheHit(benchmark::State& state) {
  Bed bed;
  link_program(bed, "cache");
  const auto pkt = cache_packet();
  for (auto _ : state) {
    benchmark::DoNotOptimize(bed.dataplane.inject(pkt));
  }
}
BENCHMARK(BM_InjectCacheHit);

void BM_InjectHhWithRecirculation(benchmark::State& state) {
  Bed bed;
  link_program(bed, "hh");
  const auto pkt = hh_packet();
  for (auto _ : state) {
    benchmark::DoNotOptimize(bed.dataplane.inject(pkt));
  }
}
BENCHMARK(BM_InjectHhWithRecirculation);

void BM_InjectWithManyPrograms(benchmark::State& state) {
  // Lookup cost with a populated switch (program-id indexed tables).
  Bed bed;
  link_many(bed, static_cast<int>(state.range(0)));
  const auto pkt = hh_packet();
  for (auto _ : state) {
    benchmark::DoNotOptimize(bed.dataplane.inject(pkt));
  }
}
BENCHMARK(BM_InjectWithManyPrograms)->Arg(10)->Arg(100)->Arg(500);

// --- batched fast-path shapes (observer detached: raw data-plane rate) ----

void BM_InjectBatchUnclaimed(benchmark::State& state) {
  Bed bed;
  bed.dataplane.pipeline().set_observer(nullptr);
  const auto pkts = batch_of(hh_packet());
  for (auto _ : state) {
    benchmark::DoNotOptimize(bed.dataplane.inject_batch(pkts));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_InjectBatchUnclaimed);

void BM_InjectBatchCacheHit(benchmark::State& state) {
  Bed bed;
  link_program(bed, "cache");
  bed.dataplane.pipeline().set_observer(nullptr);
  const auto pkts = batch_of(cache_packet());
  for (auto _ : state) {
    benchmark::DoNotOptimize(bed.dataplane.inject_batch(pkts));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_InjectBatchCacheHit);

void BM_InjectBatchHhWithRecirculation(benchmark::State& state) {
  Bed bed;
  link_program(bed, "hh");
  bed.dataplane.pipeline().set_observer(nullptr);
  const auto pkts = batch_of(hh_packet());
  for (auto _ : state) {
    benchmark::DoNotOptimize(bed.dataplane.inject_batch(pkts));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_InjectBatchHhWithRecirculation);

void BM_InjectBatchWithManyPrograms(benchmark::State& state) {
  Bed bed;
  link_many(bed, static_cast<int>(state.range(0)));
  bed.dataplane.pipeline().set_observer(nullptr);
  const auto pkts = batch_of(hh_packet());
  for (auto _ : state) {
    benchmark::DoNotOptimize(bed.dataplane.inject_batch(pkts));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_InjectBatchWithManyPrograms)->Arg(10)->Arg(100)->Arg(500);

// Workload sharded over independent Bed replicas, one per thread-pool
// worker (pipelines are stateful: shard by replica, never share one
// pipeline across threads).
void BM_InjectBatchShardedReplicas(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  std::vector<std::unique_ptr<Bed>> beds;
  for (int i = 0; i < shards; ++i) {
    auto bed = std::make_unique<Bed>();
    link_program(*bed, "cache");
    bed->dataplane.pipeline().set_observer(nullptr);
    beds.push_back(std::move(bed));
  }
  const auto pkts = batch_of(cache_packet());
  common::ThreadPool pool(static_cast<unsigned>(shards));
  for (auto _ : state) {
    std::vector<std::future<rmt::Pipeline::BatchResult>> results;
    results.reserve(beds.size());
    for (auto& bed : beds) {
      results.push_back(pool.submit(
          [&bed, &pkts] { return bed->dataplane.inject_batch(pkts); }));
    }
    for (auto& r : results) benchmark::DoNotOptimize(r.get());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch) * shards);
}
// Real time, not CPU time: the work happens on pool workers whose CPU the
// benchmark thread does not accumulate.
BENCHMARK(BM_InjectBatchShardedReplicas)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_LinkRevokeCycle(benchmark::State& state) {
  Bed bed;
  apps::ProgramConfig config;
  config.instance_name = "cache";
  const std::string source = apps::make_program_source("cache", config);
  for (auto _ : state) {
    auto linked = bed.controller.link_single(source);
    benchmark::DoNotOptimize(linked);
    (void)bed.controller.revoke(linked.value().id);
  }
}
BENCHMARK(BM_LinkRevokeCycle);

// --- packet-rate baseline suite (BENCH_dataplane.json) --------------------

struct RateSample {
  std::string name;    ///< program shape, e.g. "cache_hit"
  double batch_pps;    ///< inject_batch() fast path, observer detached
  double inject_pps;   ///< per-packet inject() with the monitor attached
};

/// Packets/sec of repeatedly pushing `pkts` through `fn` for >= `budget`.
template <typename F>
double measure_pps(F&& fn, std::size_t pkts_per_call,
                   std::chrono::milliseconds budget) {
  using clock = std::chrono::steady_clock;
  fn();  // warm-up (fills caches, faults in tables)
  std::uint64_t pkts = 0;
  const auto start = clock::now();
  auto now = start;
  do {
    fn();
    pkts += pkts_per_call;
    now = clock::now();
  } while (now - start < budget);
  const double secs = std::chrono::duration<double>(now - start).count();
  return static_cast<double>(pkts) / secs;
}

/// Both columns of one shape: per-packet inject() with the controller's
/// monitor attached to `entry` (the pipe packets enter), then inject_batch()
/// with it detached.
template <typename Dataplane>
RateSample measure_shape(const char* name, Dataplane& dataplane, rmt::Pipeline& entry,
                         const std::vector<rmt::Packet>& pkts,
                         std::chrono::milliseconds budget) {
  RateSample sample;
  sample.name = name;
  sample.inject_pps = measure_pps(
      [&] {
        for (const auto& p : pkts) benchmark::DoNotOptimize(dataplane.inject(p));
      },
      pkts.size(), budget);
  entry.set_observer(nullptr);
  sample.batch_pps = measure_pps(
      [&] { benchmark::DoNotOptimize(dataplane.inject_batch(pkts)); }, pkts.size(),
      budget);
  return sample;
}

std::vector<RateSample> run_rate_suite(std::chrono::milliseconds budget) {
  struct Shape {
    const char* name;
    const char* program;     // nullptr = no program linked
    int extra_programs;      // link_many programs linked after it
    int off_trace_programs;  // link_off_trace programs linked after it
    rmt::Packet pkt;
  };
  // cache_hit_200_filters is cache_hit behind 200 newer filters that the
  // packet must be told apart from: its claim costs what a packet of the
  // oldest program costs on a full switch.
  const Shape kShapes[] = {
      {"unclaimed", nullptr, 0, 0, hh_packet()},
      {"cache_hit", "cache", 0, 0, cache_packet()},
      {"hh_recirc", "hh", 0, 0, hh_packet()},
      {"many_programs_100", nullptr, 100, 0, hh_packet()},
      {"cache_hit_200_filters", "cache", 0, 200, cache_packet()},
  };

  std::vector<RateSample> samples;
  for (const Shape& shape : kShapes) {
    Bed bed;
    if (shape.program != nullptr) link_program(bed, shape.program);
    if (shape.extra_programs > 0) link_many(bed, shape.extra_programs);
    if (shape.off_trace_programs > 0) link_off_trace(bed, shape.off_trace_programs);
    samples.push_back(measure_shape(shape.name, bed.dataplane, bed.dataplane.pipeline(),
                                    batch_of(shape.pkt), budget));
  }
  // hh on a 3-hop chain: its second round runs on hop 1 instead of
  // recirculating through hop 0 (compare hh_recirc).
  ChainBed chain;
  link_program(chain, "hh");
  samples.push_back(measure_shape("chain_3_hh", chain.dataplane,
                                  chain.dataplane.switch_at(0).pipeline(),
                                  batch_of(hh_packet()), budget));
  return samples;
}

// --- sharded multi-pipe suite (one shared switch state, N pipes) ----------

struct ShardedSample {
  std::string name;     ///< program shape, e.g. "cache_hit"
  int shards;           ///< pipe count
  double capacity_pps;  ///< CPU-time-normalized: pkts / (busy_cpu / shards)
  double wall_pps;      ///< wall-clock rate (machine-dependent; see docs)
};

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// The snapshot-data-plane scaling measurement: ONE bed (one shared set of
/// master tables and one snapshot hub), N shard workers hammering
/// inject_batch_on concurrently. capacity_pps divides total packets by the
/// average busy CPU time per shard — the throughput of N hardware pipes —
/// so the committed numbers are meaningful on any host core count (CI runs
/// on 1-2 cores where wall_pps cannot scale; see docs/PERFORMANCE.md).
std::vector<ShardedSample> run_sharded_suite(std::chrono::milliseconds budget,
                                             const std::vector<int>& counts) {
  struct Shape {
    const char* name;
    const char* program;  // nullptr = no program linked
    rmt::Packet pkt;
  };
  const Shape kShapes[] = {
      {"unclaimed", nullptr, hh_packet()},
      {"cache_hit", "cache", cache_packet()},
  };

  std::vector<ShardedSample> samples;
  for (const Shape& shape : kShapes) {
    Bed bed;
    if (shape.program != nullptr) link_program(bed, shape.program);
    bed.dataplane.pipeline().set_observer(nullptr);
    const auto pkts = batch_of(shape.pkt);

    for (const int shards : counts) {
      bed.dataplane.enable_sharding(shards);
      std::atomic<bool> stop{false};
      std::atomic<std::uint64_t> total_pkts{0};
      std::vector<double> busy(static_cast<std::size_t>(shards), 0.0);

      std::vector<std::thread> workers;
      workers.reserve(static_cast<std::size_t>(shards));
      const auto start = std::chrono::steady_clock::now();
      for (int s = 0; s < shards; ++s) {
        workers.emplace_back([&, s] {
          const double cpu0 = thread_cpu_seconds();
          std::uint64_t local = 0;
          while (!stop.load(std::memory_order_relaxed)) {
            benchmark::DoNotOptimize(bed.dataplane.inject_batch_on(s, pkts));
            local += pkts.size();
          }
          busy[static_cast<std::size_t>(s)] = thread_cpu_seconds() - cpu0;
          total_pkts.fetch_add(local, std::memory_order_relaxed);
        });
      }
      std::this_thread::sleep_for(budget);
      stop.store(true, std::memory_order_relaxed);
      for (auto& worker : workers) worker.join();
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
              .count();
      const double busy_total = std::accumulate(busy.begin(), busy.end(), 0.0);

      ShardedSample sample;
      sample.name = shape.name;
      sample.shards = shards;
      const double pkts_total = static_cast<double>(total_pkts.load());
      sample.capacity_pps =
          busy_total > 0.0 ? pkts_total / (busy_total / shards) : 0.0;
      sample.wall_pps = wall > 0.0 ? pkts_total / wall : 0.0;
      samples.push_back(std::move(sample));
      bed.dataplane.disable_sharding();
    }
  }
  return samples;
}

void print_sharded_suite(const std::vector<ShardedSample>& samples) {
  bench::heading("Sharded multi-pipe rate (pkts/sec, one shared switch)");
  std::printf("%-20s | %6s | %14s | %14s\n", "shape", "shards", "capacity",
              "wall-clock");
  bench::rule(64);
  for (const auto& s : samples) {
    std::printf("%-20s | %6d | %14.0f | %14.0f\n", s.name.c_str(), s.shards,
                s.capacity_pps, s.wall_pps);
  }
}

/// Comma-separated --shards list ("1,2,4"); the default when absent/empty.
std::vector<int> parse_shard_counts(const std::string& csv) {
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    std::size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    const int value = std::atoi(csv.substr(pos, comma - pos).c_str());
    if (value > 0) out.push_back(value);
    pos = comma + 1;
  }
  if (out.empty()) out = {1, 2, 4};
  return out;
}

void print_rate_suite(const std::vector<RateSample>& samples) {
  bench::heading("Packet-rate baseline (pkts/sec)");
  std::printf("%-22s | %14s | %14s\n", "shape", "batch fastpath", "inject+monitor");
  bench::rule(58);
  for (const auto& s : samples) {
    std::printf("%-22s | %14.0f | %14.0f\n", s.name.c_str(), s.batch_pps,
                s.inject_pps);
  }
}

void write_rate_json(const std::vector<RateSample>& samples,
                     const std::vector<ShardedSample>& sharded,
                     const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  out << "{\n  \"bench\": \"micro_dataplane\",\n"
      << "  \"unit\": \"packets_per_second\",\n  \"shapes\": [\n";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const auto& s = samples[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "    {\"name\": \"%s\", \"batch_pps\": %.0f, "
                  "\"inject_pps\": %.0f}%s\n",
                  s.name.c_str(), s.batch_pps, s.inject_pps,
                  i + 1 < samples.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n  \"sharded\": [\n";
  for (std::size_t i = 0; i < sharded.size(); ++i) {
    const auto& s = sharded[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "    {\"name\": \"%s\", \"shards\": %d, "
                  "\"capacity_pps\": %.0f, \"wall_pps\": %.0f}%s\n",
                  s.name.c_str(), s.shards, s.capacity_pps, s.wall_pps,
                  i + 1 < sharded.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
}

}  // namespace


int main(int argc, char** argv) {
  // Quick mode for CI smoke runs: tiny measurement budget per shape.
  bool quick = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--rate-quick") {
      quick = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());

  p4runpro::bench::TelemetryScope telemetry_scope(filtered_argc, args.data());
  std::vector<char*> bench_args;
  for (int i = 0; i < filtered_argc; ++i) {
    if (telemetry_scope.flags().consumed[static_cast<std::size_t>(i)]) continue;
    bench_args.push_back(args[static_cast<std::size_t>(i)]);
  }
  int bench_argc = static_cast<int>(bench_args.size());
  benchmark::Initialize(&bench_argc, bench_args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  const auto budget = std::chrono::milliseconds(quick ? 20 : 300);
  const auto samples = run_rate_suite(budget);
  print_rate_suite(samples);
  const auto shard_counts =
      parse_shard_counts(telemetry_scope.flags().shards);
  // The sharded rows feed a CI scaling gate, and their workers contend
  // for cores with each other (and whatever else the runner schedules),
  // so a 20 ms window can catch one shard mid-preemption and skew the
  // busy-CPU normalization. Give them a longer floor even in quick mode;
  // the suite is only shapes x shard-counts rows, so this stays cheap.
  const auto shard_budget =
      std::max(budget, std::chrono::milliseconds(100));
  const auto sharded = run_sharded_suite(shard_budget, shard_counts);
  print_sharded_suite(sharded);
  if (!telemetry_scope.flags().bench_json_path.empty()) {
    write_rate_json(samples, sharded, telemetry_scope.flags().bench_json_path);
  }
  return 0;
}
