// Telemetry self-overhead benchmark (BENCH_obs.json): packet rate with
// observability OFF (no pipeline observer, no time-series cadence) versus ON
// in the production configuration (health monitor attached, TimeSeriesStore
// sampling on a 1-virtual-ms cadence), over two paths: per-packet inject()
// ("shapes", where the monitor folds every packet) and inject_batch() over
// the same 1024 packets ("batched", where it folds once per program per
// batch). The ratio off/on is the price of watching — CI gates it (the obs
// smoke step fails when per-packet cache_hit exceeds 1.5x or batched
// unclaimed exceeds 1.7x) so telemetry hooks can never silently become the
// bottleneck of the simulator.
//
// A separate short phase enables hot-path overhead accounting to measure
// the monitor's hook cost per packet (obs.self.monitor_hook_ns / calls) and
// the store's sampling cost — kept out of the ratio phase because the
// accounting's own clock reads would dominate it for cheap packets, which
// is exactly why accounting defaults to off (docs/OBSERVABILITY.md).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "apps/program_library.h"
#include "common/clock.h"
#include "control/controller.h"
#include "dataplane/runpro_dataplane.h"
#include "obs/telemetry.h"
#include "obs/timeseries.h"

#include "bench_util.h"

namespace {

using namespace p4runpro;

struct Bed {
  obs::Telemetry telemetry;
  SimClock clock;
  dp::RunproDataplane dataplane{dp::DataplaneSpec{},
                                rmt::ParserConfig{{7777, 9999}}};
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

void link_program(Bed& bed, const char* key) {
  apps::ProgramConfig config;
  config.instance_name = key;
  (void)bed.controller.link_single(apps::make_program_source(key, config));
}

constexpr std::size_t kBatch = 1024;
/// Virtual nanoseconds charged per injected packet so the SimClock-driven
/// sampling cadence actually fires during the measurement (1 us/pkt -> a
/// 1 ms cadence samples every ~1000 packets).
constexpr SimClock::Nanos kVirtualNsPerPacket = 1000;

template <typename F>
double measure_pps(F&& fn, std::size_t pkts_per_call,
                   std::chrono::milliseconds budget) {
  using clock = std::chrono::steady_clock;
  fn();  // warm-up
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

struct OverheadSample {
  std::string name;        ///< program shape, e.g. "cache_hit"
  double off_pps = 0.0;    ///< observer detached, no sampling
  double on_pps = 0.0;     ///< monitor + overhead accounting + series cadence
  double ratio = 0.0;      ///< off_pps / on_pps (1.0 = free telemetry)
  double hook_ns_per_packet = 0.0;   ///< measured monitor hook cost
  std::uint64_t series_samples = 0;  ///< sampling ticks during the ON phase
  std::uint64_t sample_ns_total = 0; ///< wall ns spent inside sample()
};

/// Which pipeline entry point a suite drives.
enum class InjectPath { PerPacket, Batch };

std::vector<OverheadSample> run_overhead_suite(InjectPath path,
                                               std::chrono::milliseconds budget) {
  struct Shape {
    const char* name;
    const char* program;  // nullptr = no program linked
    rmt::Packet pkt;
  };
  const Shape kShapes[] = {
      {"unclaimed", nullptr, hh_packet()},
      {"cache_hit", "cache", cache_packet()},
  };

  std::vector<OverheadSample> samples;
  for (const Shape& shape : kShapes) {
    Bed bed;
    if (shape.program != nullptr) link_program(bed, shape.program);
    const std::vector<rmt::Packet> pkts(kBatch, shape.pkt);
    const auto inject_all = [&] {
      if (path == InjectPath::Batch) {
        benchmark::DoNotOptimize(bed.dataplane.inject_batch(pkts));
      } else {
        for (const auto& p : pkts) {
          benchmark::DoNotOptimize(bed.dataplane.inject(p));
        }
      }
      bed.clock.advance_ns(kVirtualNsPerPacket * pkts.size());
    };

    OverheadSample sample;
    sample.name = shape.name;

    // OFF: no observer, no cadence — the bare simulator packet rate.
    bed.dataplane.pipeline().set_observer(nullptr);
    bed.telemetry.series.set_cadence(0);
    sample.off_pps = measure_pps(inject_all, pkts.size(), budget);

    // ON: the production telemetry config — monitor observing every packet
    // and the time-series store sampling the registry every virtual
    // millisecond. Hot-path overhead accounting stays OFF here, as in
    // production (its two clock reads per packet are themselves overhead
    // and would dominate the ratio for cheap packets).
    bed.dataplane.pipeline().set_observer(&bed.telemetry.monitor);
    bed.telemetry.series.set_cadence(1'000'000);
    sample.on_pps = measure_pps(inject_all, pkts.size(), budget);

    sample.ratio = sample.on_pps > 0.0 ? sample.off_pps / sample.on_pps : 0.0;

    // Separate short accounting phase: measure the monitor hook's own cost
    // (obs.self.monitor_hook_ns / calls) without letting the measurement
    // pollute the off/on ratio above.
    bed.telemetry.monitor.set_overhead_accounting(true);
    (void)measure_pps(inject_all, pkts.size(), budget / 4);
    bed.telemetry.monitor.set_overhead_accounting(false);
    const std::uint64_t calls = bed.telemetry.monitor.hook_calls();
    sample.hook_ns_per_packet =
        calls == 0 ? 0.0
                   : static_cast<double>(bed.telemetry.monitor.hook_ns()) /
                         static_cast<double>(calls);
    sample.series_samples = bed.telemetry.series.samples_taken();
    sample.sample_ns_total = bed.telemetry.series.self_sample_ns();
    samples.push_back(std::move(sample));
  }
  return samples;
}

void print_overhead_suite(const char* title, const std::vector<OverheadSample>& samples) {
  bench::heading(title);
  std::printf("%-14s | %12s | %12s | %6s | %10s | %8s\n", "shape", "telemetry off",
              "telemetry on", "ratio", "hook ns/pkt", "samples");
  bench::rule(78);
  for (const auto& s : samples) {
    std::printf("%-14s | %12.0f | %12.0f | %6.3f | %10.1f | %8llu\n",
                s.name.c_str(), s.off_pps, s.on_pps, s.ratio,
                s.hook_ns_per_packet,
                static_cast<unsigned long long>(s.series_samples));
  }
}

void write_overhead_rows(std::ofstream& out, const std::vector<OverheadSample>& samples) {
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const auto& s = samples[i];
    char buf[384];
    std::snprintf(buf, sizeof buf,
                  "    {\"name\": \"%s\", \"off_pps\": %.0f, \"on_pps\": %.0f, "
                  "\"ratio\": %.4f, \"hook_ns_per_packet\": %.1f, "
                  "\"series_samples\": %llu, \"sample_ns_total\": %llu}%s\n",
                  s.name.c_str(), s.off_pps, s.on_pps, s.ratio,
                  s.hook_ns_per_packet,
                  static_cast<unsigned long long>(s.series_samples),
                  static_cast<unsigned long long>(s.sample_ns_total),
                  i + 1 < samples.size() ? "," : "");
    out << buf;
  }
}

void write_overhead_json(const std::vector<OverheadSample>& per_packet,
                         const std::vector<OverheadSample>& batched,
                         const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  out << "{\n  \"bench\": \"obs_overhead\",\n"
      << "  \"unit\": \"packets_per_second\",\n  \"shapes\": [\n";
  write_overhead_rows(out, per_packet);
  out << "  ],\n  \"batched\": [\n";
  write_overhead_rows(out, batched);
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  // Quick mode for CI smoke runs: tiny measurement budget per shape.
  bool quick = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--obs-quick") {
      quick = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());

  p4runpro::bench::TelemetryScope telemetry_scope(filtered_argc, args.data());

  const auto budget = std::chrono::milliseconds(quick ? 50 : 400);
  const auto per_packet = run_overhead_suite(InjectPath::PerPacket, budget);
  const auto batched = run_overhead_suite(InjectPath::Batch, budget);
  print_overhead_suite("Telemetry overhead (per-packet inject, pkts/sec)", per_packet);
  print_overhead_suite("Telemetry overhead (inject_batch of 1024, pkts/sec)", batched);
  if (!telemetry_scope.flags().bench_json_path.empty()) {
    write_overhead_json(per_packet, batched, telemetry_scope.flags().bench_json_path);
  }
  return 0;
}
