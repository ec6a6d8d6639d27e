// Micro-benchmarks (google-benchmark) of the compiler pipeline stages:
// lexing, parsing, translation, allocation solving per objective, and the
// full link path. These quantify the "allocation delay is insensitive to
// allocated resources but grows with AST depth" claim (§6.2.1).
//
// BM_CompileCatalog/<i> compiles catalog program i the way a link does
// (`compile_source(src, &report)`) and reports `allocs`, the global
// operator new calls per compile, counted by the allocator this binary
// replaces (this binary only). BM_LinkRevoke/<hops> links and revokes one
// multi-round program on one switch or a chain and reports the same count
// per link and per revoke.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "apps/program_library.h"
#include "common/clock.h"
#include "compiler/compiler.h"
#include "compiler/solver.h"
#include "control/controller.h"
#include "control/resource_manager.h"
#include "dataplane/runpro_dataplane.h"
#include "dataplane/switch_chain.h"
#include "lang/lexer.h"
#include "lang/parser.h"
#include "obs/telemetry.h"

#include "bench_util.h"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// The replacement pairs malloc with free by design; GCC cannot tell that
// the operators it sees inlined are these replacements.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using namespace p4runpro;

std::string source_for(const std::string& key) {
  apps::ProgramConfig config;
  config.instance_name = key;
  return apps::make_program_source(key, config);
}

void BM_Lex(benchmark::State& state) {
  const std::string src = source_for("cache");
  for (auto _ : state) {
    auto tokens = lang::lex(src);
    benchmark::DoNotOptimize(tokens);
  }
}
BENCHMARK(BM_Lex);

void BM_Parse(benchmark::State& state) {
  const std::string src = source_for("hh");
  for (auto _ : state) {
    auto unit = lang::parse(src);
    benchmark::DoNotOptimize(unit);
  }
}
BENCHMARK(BM_Parse);

void BM_Translate(benchmark::State& state) {
  const char* kKeys[] = {"l3", "cache", "hh", "hll"};
  const std::string src = source_for(kKeys[state.range(0)]);
  for (auto _ : state) {
    auto program = rp::compile_source(src);
    benchmark::DoNotOptimize(program);
  }
}
BENCHMARK(BM_Translate)->DenseRange(0, 3)
    ->ArgNames({"program(l3/cache/hh/hll)"});

void BM_CompileCatalog(benchmark::State& state) {
  const auto& info = apps::program_catalog()[static_cast<std::size_t>(state.range(0))];
  const std::string src = source_for(info.key);
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  rp::CompileReport report;
  for (auto _ : state) {
    auto programs = rp::compile_source(src, &report);
    benchmark::DoNotOptimize(programs);
  }
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;
  state.counters["allocs"] =
      static_cast<double>(allocs) / static_cast<double>(state.iterations());
  state.SetLabel(info.key);
}
BENCHMARK(BM_CompileCatalog)->DenseRange(0, 14);

/// Link and revoke of hh (two rounds, chain compatible) on one switch
/// (range 1) or a 3-hop chain (range 3), each prefilled with one of every
/// other chain-compatible catalog program. Reports `link_allocs` and
/// `revoke_allocs`, operator new calls per operation. The tracer keeps no
/// span (capacity 0) and one warm-up pair creates every metric first, so
/// the counts repeat from run to run.
void BM_LinkRevoke(benchmark::State& state) {
  const int hops = static_cast<int>(state.range(0));
  dp::DataplaneSpec spec;
  spec.max_recirculations = 2;  // one round per hop of the chain
  const rmt::ParserConfig parser{{7777, 7788, 9999, 5555}};
  obs::Telemetry telemetry;
  telemetry.tracer.set_capacity(0);
  SimClock clock;
  std::unique_ptr<dp::RunproDataplane> single;
  std::unique_ptr<dp::SwitchChain> chain;
  std::unique_ptr<ctrl::Controller> controller;
  if (hops == 1) {
    single = std::make_unique<dp::RunproDataplane>(spec, parser);
    controller = std::make_unique<ctrl::Controller>(*single, clock, rp::Objective{},
                                                    ctrl::BfrtCostModel{}, &telemetry);
  } else {
    chain = std::make_unique<dp::SwitchChain>(hops, spec, parser);
    controller = std::make_unique<ctrl::Controller>(*chain, clock, rp::Objective{},
                                                    ctrl::BfrtCostModel{}, &telemetry);
  }
  controller->set_fixed_alloc_charge_ms(1.0);
  for (const char* key : {"bf", "cache", "calculator", "cms", "ecn", "firewall", "hll",
                          "l2", "l3", "sumax", "tunnel"}) {
    apps::ProgramConfig config;
    config.instance_name = std::string("fill_") + key;
    if (!controller->link(apps::make_program_source(key, config)).ok()) {
      state.SkipWithError("prefill link failed");
      return;
    }
  }
  const std::string source = source_for("hh");
  const auto link_revoke = [&](std::uint64_t& link_allocs, std::uint64_t& revoke_allocs) {
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    auto linked = controller->link(source);
    const std::uint64_t linked_at = g_allocs.load(std::memory_order_relaxed);
    const bool ok = linked.ok() && controller->revoke(linked.value().front().id).ok();
    link_allocs += linked_at - before;
    revoke_allocs += g_allocs.load(std::memory_order_relaxed) - linked_at;
    return ok;
  };
  std::uint64_t link_allocs = 0;
  std::uint64_t revoke_allocs = 0;
  if (!link_revoke(link_allocs, revoke_allocs)) {
    state.SkipWithError("hh link or revoke failed");
    return;
  }
  link_allocs = revoke_allocs = 0;
  for (auto _ : state) {
    if (!link_revoke(link_allocs, revoke_allocs)) {
      state.SkipWithError("hh link or revoke failed");
      return;
    }
  }
  const auto per_op = [&](std::uint64_t total) {
    return static_cast<double>(total) / static_cast<double>(state.iterations());
  };
  state.counters["link_allocs"] = per_op(link_allocs);
  state.counters["revoke_allocs"] = per_op(revoke_allocs);
  state.SetLabel(hops == 1 ? "switch" : "chain_" + std::to_string(hops));
}
BENCHMARK(BM_LinkRevoke)->Arg(1)->Arg(3);

void BM_Solve(benchmark::State& state) {
  const char* kKeys[] = {"l3", "cache", "hh", "hll"};
  auto program = rp::compile_single(source_for(kKeys[state.range(1)]));
  const dp::DataplaneSpec spec;
  ctrl::ResourceManager resources(spec);
  const auto snapshot = resources.snapshot();
  const rp::ObjectiveKind kinds[] = {rp::ObjectiveKind::F1, rp::ObjectiveKind::F2,
                                     rp::ObjectiveKind::F3,
                                     rp::ObjectiveKind::Hierarchical};
  rp::Objective objective{kinds[state.range(0)], 0.7, 0.3};
  for (auto _ : state) {
    auto alloc = rp::solve_allocation(program.value(), spec, snapshot, objective);
    benchmark::DoNotOptimize(alloc);
  }
}
BENCHMARK(BM_Solve)
    ->ArgsProduct({{0, 1, 2, 3}, {0, 1, 2, 3}})
    ->ArgNames({"objective(f1/f2/f3/hier)", "program(l3/cache/hh/hll)"});

void BM_SnapshotUnderLoad(benchmark::State& state) {
  // Snapshot cost with fragmented free lists.
  const dp::DataplaneSpec spec;
  ctrl::ResourceManager resources(spec);
  std::vector<std::pair<int, ctrl::MemBlock>> held;
  for (int rpb = 1; rpb <= spec.total_rpbs(); ++rpb) {
    for (int i = 0; i < 64; ++i) {
      auto block = resources.allocate_memory(rpb, 256);
      if (block.ok()) held.emplace_back(rpb, block.value());
    }
  }
  for (std::size_t i = 0; i < held.size(); i += 2) {
    resources.free_memory(held[i].first, held[i].second);
  }
  for (auto _ : state) {
    auto snapshot = resources.snapshot();
    benchmark::DoNotOptimize(snapshot);
  }
}
BENCHMARK(BM_SnapshotUnderLoad);

}  // namespace

int main(int argc, char** argv) {
  return p4runpro::bench::benchmark_main_with_telemetry(argc, argv);
}
