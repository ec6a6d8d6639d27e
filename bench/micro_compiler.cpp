// Micro-benchmarks (google-benchmark) of the compiler pipeline stages:
// lexing, parsing, translation, allocation solving per objective, and the
// full link path. These quantify the "allocation delay is insensitive to
// allocated resources but grows with AST depth" claim (§6.2.1).
//
// BM_CompileCatalog/<i> compiles catalog program i the way a link session
// does (`compile_source(src, nullptr)`) and reports `allocs`, the global
// operator new calls per compile, counted by the allocator this binary
// replaces (this binary only).
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "apps/program_library.h"
#include "compiler/compiler.h"
#include "compiler/solver.h"
#include "control/resource_manager.h"
#include "lang/lexer.h"
#include "lang/parser.h"

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
    auto program = rp::compile_source(src, &obs::default_telemetry());
    benchmark::DoNotOptimize(program);
  }
}
BENCHMARK(BM_Translate)->DenseRange(0, 3)
    ->ArgNames({"program(l3/cache/hh/hll)"});

void BM_CompileCatalog(benchmark::State& state) {
  const auto& info = apps::program_catalog()[static_cast<std::size_t>(state.range(0))];
  const std::string src = source_for(info.key);
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    auto programs = rp::compile_source(src, nullptr);
    benchmark::DoNotOptimize(programs);
  }
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;
  state.counters["allocs"] =
      static_cast<double>(allocs) / static_cast<double>(state.iterations());
  state.SetLabel(info.key);
}
BENCHMARK(BM_CompileCatalog)->DenseRange(0, 14);

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
    auto alloc = rp::solve_allocation(program.value(), spec, snapshot, objective,
                                      &obs::default_telemetry());
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
