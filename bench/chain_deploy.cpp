// Chain deploy cost: virtual-time cost of chain-wide two-phase deploy /
// revoke transactions as the chain grows (2..4 hops), in both channel
// modes. Phase 1 stages every hop with zero dataplane writes; phase 2
// pushes each hop's op-log through its control channel. Serially that cost
// is linear in the hop count — the price of mirroring a program across the
// chain instead of recirculating (§4.1.3/§5). With the async channel the
// hops' op-logs are submitted up front and drain concurrently, so the
// pipelined commit collapses to max-of-hops: flat in chain length.
//
// Virtual time is charged by the per-write BfrtCostModel plus a fixed
// allocation charge, so the reported ms/deploy are deterministic and make a
// committable baseline (BENCH_chain.json via --bench-json-out=<path>).
// JSON schema: per shape, `link_ms`/`revoke_ms` are the PIPELINED headline
// numbers; `serial_link_ms`/`serial_revoke_ms` keep the serial-channel
// baseline for the sub-linearity gate in CI.
//
//   --programs=<N>   programs linked per wave (default 6)
//   --waves=<W>      link/revoke waves per chain length (default 4)
//   --hops=<H>       bench a single chain length instead of the 2..4 sweep
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "apps/program_library.h"
#include "bench_util.h"
#include "common/clock.h"
#include "control/chain_controller.h"
#include "dataplane/switch_chain.h"
#include "obs/telemetry.h"

namespace {

using namespace p4runpro;

struct ModeSample {
  double link_virtual_ms = 0;    // per deploy, deterministic
  double revoke_virtual_ms = 0;  // per revoke, deterministic
  double link_wall_us = 0;       // per deploy, host-dependent
};

struct ChainSample {
  int hops = 0;
  ModeSample serial;
  ModeSample pipelined;
};

dp::DataplaneSpec bench_spec(int hops) {
  dp::DataplaneSpec spec;
  spec.max_recirculations = hops - 1;
  return spec;
}

/// Chain-compatible workload: templates whose allocations fit the shortest
/// chain in the sweep (rounds <= 2).
std::vector<std::string> workload(int programs) {
  const std::vector<std::string> templates = {"cache", "hh"};
  std::vector<std::string> sources;
  sources.reserve(static_cast<std::size_t>(programs));
  for (int i = 0; i < programs; ++i) {
    apps::ProgramConfig config;
    config.instance_name = templates[static_cast<std::size_t>(i) % templates.size()] +
                           std::to_string(i);
    config.mem_buckets = 32;
    sources.push_back(apps::make_program_source(
        templates[static_cast<std::size_t>(i) % templates.size()], config));
  }
  return sources;
}

ModeSample run_chain(int hops, const std::vector<std::string>& sources,
                     int waves, bool pipelined) {
  SimClock clock;
  dp::SwitchChain chain(hops, bench_spec(hops), rmt::ParserConfig{{7777}});
  // Null telemetry = the process-wide default bundle, so the sidecar flags
  // (--trace-out etc.) see the chain_txn.* spans. Safe single-threaded: a
  // serial chain controller starts no threads and solves on this thread.
  ctrl::ChainController controller(chain, clock, {}, {}, nullptr);
  // Fix the allocation charge so virtual time does not depend on host speed.
  controller.set_fixed_alloc_charge_ms(5.0);
  controller.set_async_writes(pipelined);

  double link_ms = 0;
  double revoke_ms = 0;
  double link_wall_ms = 0;
  for (int wave = 0; wave < waves; ++wave) {
    const double link_start = clock.now_ms();
    const auto wall_start = std::chrono::steady_clock::now();
    for (const auto& source : sources) {
      if (!controller.link(source).ok()) std::abort();
    }
    link_wall_ms += std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - wall_start)
                        .count();
    const double revoke_start = clock.now_ms();
    link_ms += revoke_start - link_start;
    for (const ProgramId id : controller.running_programs()) {
      if (!controller.revoke(id).ok()) std::abort();
    }
    revoke_ms += clock.now_ms() - revoke_start;
  }

  const double deploys = static_cast<double>(waves) *
                         static_cast<double>(sources.size());
  ModeSample sample;
  sample.link_virtual_ms = link_ms / deploys;
  sample.revoke_virtual_ms = revoke_ms / deploys;
  sample.link_wall_us = link_wall_ms * 1000.0 / deploys;
  return sample;
}

void write_chain_json(const std::vector<ChainSample>& samples,
                      const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  out << "{\n  \"bench\": \"chain_deploy\",\n"
      << "  \"unit\": \"virtual_ms_per_op\",\n  \"shapes\": [\n";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const auto& s = samples[i];
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "    {\"name\": \"chain_%d\", \"hops\": %d, "
                  "\"link_ms\": %.3f, \"revoke_ms\": %.3f, "
                  "\"serial_link_ms\": %.3f, \"serial_revoke_ms\": %.3f}%s\n",
                  s.hops, s.hops, s.pipelined.link_virtual_ms,
                  s.pipelined.revoke_virtual_ms, s.serial.link_virtual_ms,
                  s.serial.revoke_virtual_ms,
                  i + 1 < samples.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
}

int int_flag(int argc, char** argv, const std::string& name, int fallback) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return std::atoi(arg.c_str() + prefix.size());
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  p4runpro::bench::TelemetryScope telemetry_scope(argc, argv);
  const int programs = int_flag(argc, argv, "programs", 6);
  const int waves = int_flag(argc, argv, "waves", 4);
  const int fixed_hops = int_flag(argc, argv, "hops", 0);

  const auto sources = workload(programs);
  bench::heading("Chain deploy: two-phase transaction cost vs chain length");
  std::printf("workload: %d programs/wave x %d waves (5 ms fixed alloc charge)\n\n",
              programs, waves);
  std::printf("%-10s | %14s | %14s | %14s | %14s\n", "chain",
              "serial link ms", "piped link ms", "piped revoke", "link us (wall)");
  bench::rule(78);

  std::vector<int> lengths;
  if (fixed_hops > 0) {
    lengths.push_back(fixed_hops);
  } else {
    lengths = {2, 3, 4};
  }
  std::vector<ChainSample> samples;
  for (const int hops : lengths) {
    ChainSample sample;
    sample.hops = hops;
    sample.serial = run_chain(hops, sources, waves, /*pipelined=*/false);
    sample.pipelined = run_chain(hops, sources, waves, /*pipelined=*/true);
    samples.push_back(sample);
    std::printf("%-10s | %14.3f | %14.3f | %14.3f | %14.1f\n",
                ("chain_" + std::to_string(hops)).c_str(),
                sample.serial.link_virtual_ms, sample.pipelined.link_virtual_ms,
                sample.pipelined.revoke_virtual_ms,
                sample.pipelined.link_wall_us);
  }

  std::printf(
      "\nShape check: the serial link/revoke cost grows ~linearly in the hop\n"
      "count (each hop replays the same op-log through its own channel); the\n"
      "pipelined commit submits every hop up front so its cost is flat —\n"
      "max-of-hops plus the once-per-deploy parse and allocation charges.\n");
  if (!telemetry_scope.flags().bench_json_path.empty()) {
    write_chain_json(samples, telemetry_scope.flags().bench_json_path);
  }
  return 0;
}
