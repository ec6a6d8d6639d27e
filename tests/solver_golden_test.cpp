// Golden allocation table: the solver's exact answer for every catalog
// program under every objective on three free-resource snapshots — an empty
// switch, a single switch after a seeded link/revoke churn, and a 3-hop
// chain spec (R = 2) after a seeded churn. SolverOptimality checks that the
// objective is optimal; this table pins which optimum the search returns
// (x and the memory pins), the rounds, and how many nodes it takes, so a
// rewrite of the search must reproduce its order and its budget too.
//
// The table lives in tests/data/solver_golden.txt. To regenerate it after
// an intended change of the search, run the test with
// P4RUNPRO_SOLVER_GOLDEN_OUT=<file>: it writes the table it computed there
// (and still compares against the committed one).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/program_library.h"
#include "common/clock.h"
#include "common/rng.h"
#include "compiler/compiler.h"
#include "compiler/solver.h"
#include "control/controller.h"
#include "dataplane/runpro_dataplane.h"
#include "dataplane/switch_chain.h"

namespace p4runpro::rp {
namespace {

constexpr int kChurnSteps = 400;

dp::DataplaneSpec chain_spec() {
  dp::DataplaneSpec spec;
  spec.max_recirculations = 2;  // 3 hops: one round per hop
  return spec;
}

/// Seeded link/revoke churn through a real controller. Programs ask for
/// 1,024..16,384 buckets per memory, so stages fill unevenly and revokes
/// leave holes: the free lists end up fragmented, several stages full.
ctrl::ResourceManager::Snapshot churned(ctrl::Controller& controller, std::uint64_t seed) {
  Rng rng(seed);
  const auto& catalog = apps::program_catalog();
  std::vector<ProgramId> live;
  for (int step = 0; step < kChurnSteps; ++step) {
    if (live.empty() || rng.uniform01() < 0.7) {
      const auto& info = catalog[rng.uniform(catalog.size())];
      apps::ProgramConfig config;
      config.instance_name = info.key + "_churn" + std::to_string(step);
      config.mem_buckets = 1024u << rng.uniform(5);
      config.elastic_cases = 1 + static_cast<int>(rng.uniform(8));
      auto linked = controller.link_single(apps::make_program_source(info.key, config));
      if (linked.ok()) live.push_back(linked.value().id);
    } else {
      const std::size_t pick = rng.uniform(live.size());
      EXPECT_TRUE(controller.revoke(live[pick]).ok());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }
  return controller.resources().snapshot();
}

struct Bed {
  std::string name;
  dp::DataplaneSpec spec;
  ctrl::ResourceManager::Snapshot snapshot;
};

std::vector<Bed> beds() {
  std::vector<Bed> out;
  {
    const dp::DataplaneSpec spec;
    out.push_back(Bed{"empty", spec, ctrl::ResourceManager(spec).snapshot()});
  }
  {
    SimClock clock;
    dp::RunproDataplane dataplane(dp::DataplaneSpec{}, rmt::ParserConfig{{7777}});
    ctrl::Controller controller(dataplane, clock);
    out.push_back(Bed{"switch_churn", dataplane.spec(), churned(controller, 7)});
  }
  {
    SimClock clock;
    dp::SwitchChain chain(3, chain_spec(), rmt::ParserConfig{{7777}});
    ctrl::Controller controller(chain, clock);
    out.push_back(Bed{"chain_churn", chain_spec(), churned(controller, 11)});
  }
  return out;
}

const char* objective_key(ObjectiveKind kind) {
  switch (kind) {
    case ObjectiveKind::F1: return "f1";
    case ObjectiveKind::F2: return "f2";
    case ObjectiveKind::F3: return "f3";
    case ObjectiveKind::Hierarchical: return "hier";
  }
  return "?";
}

/// One table row: every field of the result, the objective to the bit.
std::string row(const std::string& bed, const std::string& program, ObjectiveKind kind,
                const Result<AllocationResult>& solved) {
  std::ostringstream out;
  out << bed << ' ' << program << ' ' << objective_key(kind);
  if (!solved.ok()) {
    out << " error=" << error_code_name(solved.error().code);
    return out.str();
  }
  const AllocationResult& a = solved.value();
  out << " x=";
  for (std::size_t i = 0; i < a.x.size(); ++i) out << (i == 0 ? "" : ",") << a.x[i];
  out << " pins=";
  bool first = true;
  for (const auto& [vmem, rpb] : a.vmem_rpb) {
    out << (first ? "" : ",") << vmem << '@' << rpb;
    first = false;
  }
  char objective[32];
  std::snprintf(objective, sizeof objective, "%.17g", a.objective);
  out << " rounds=" << a.rounds << " objective=" << objective
      << " nodes=" << a.nodes_explored;
  return out.str();
}

std::vector<std::string> read_lines(const std::filesystem::path& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line.front() != '#') lines.push_back(line);
  }
  return lines;
}

TEST(SolverGolden, EveryCatalogProgramObjectiveAndSnapshotMatchesTheTable) {
  // 16,384-bucket memories fit only a few stages of the churned snapshots,
  // so the memory constraints bind and some programs do not fit at all.
  std::vector<TranslatedProgram> programs;
  for (const auto& info : apps::program_catalog()) {
    apps::ProgramConfig config;
    config.instance_name = info.key;
    config.mem_buckets = 16384;
    auto compiled = compile_single(apps::make_program_source(info.key, config));
    ASSERT_TRUE(compiled.ok()) << info.key;
    programs.push_back(std::move(compiled).take());
  }

  std::vector<std::string> got;
  for (const Bed& bed : beds()) {
    for (const auto& program : programs) {
      for (ObjectiveKind kind : {ObjectiveKind::F1, ObjectiveKind::F2, ObjectiveKind::F3,
                                 ObjectiveKind::Hierarchical}) {
        Objective objective;
        objective.kind = kind;
        got.push_back(row(bed.name, program.name, kind,
                          solve_allocation(program, bed.spec, bed.snapshot, objective)));
      }
    }
  }

  if (const char* out_path = std::getenv("P4RUNPRO_SOLVER_GOLDEN_OUT")) {
    std::ofstream out(out_path);
    out << "# bed program objective -> x, vmem pins, rounds, objective, nodes explored\n";
    for (const auto& line : got) out << line << '\n';
  }

  const auto want = read_lines(std::filesystem::path(P4RUNPRO_SOURCE_DIR) / "tests" / "data" /
                               "solver_golden.txt");
  ASSERT_EQ(want.size(), got.size()) << "golden table has a different number of rows";
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(want[i], got[i]);
}

}  // namespace
}  // namespace p4runpro::rp
