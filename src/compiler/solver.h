// Runtime resource-allocation solver (paper §4.3 "Program Allocation").
// Finds the allocation vector x in {1..M*(R+1)}^L mapping each AST depth to
// a logical RPB, subject to
//   (1) strict dependency ordering        x_i + 1 <= x_{i+1}
//   (2) table-entry availability          te_req <= te_free  (aggregated
//       per physical RPB across recirculation rounds)
//   (3) memory availability               mem_req <= mem_free (first-fit on
//       the free partitions of the pinned stage)
//   (4) forwarding primitives only in ingress RPBs of any round
//   (5) sequential accesses to one virtual memory land on the same
//       physical RPB in later rounds      x_j = x_i + M*k
// and optimizes one of the paper's objective functions (§6.2.4). The paper
// uses Z3; this is a purpose-built branch-and-bound search over the same
// model (the domain is tiny: M*(R+1) logical RPBs, 44 on one switch with
// one recirculation, 66 on a 3-hop chain, 88 on 4 hops). The relative cost
// ordering of the objectives (f2 < f1 < hierarchical < f3) is preserved
// because the linear objectives admit strong bound pruning while the ratio
// f3 forces a full scan of the start positions.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "compiler/ir.h"
#include "control/resource_manager.h"
#include "dataplane/dataplane_spec.h"

namespace p4runpro::rp {

/// Objective function selection (Fig. 12).
enum class ObjectiveKind : std::uint8_t {
  F1,            ///< alpha * x_L - beta * x_1 (the prototype's default)
  F2,            ///< x_L
  F3,            ///< x_L / x_1
  Hierarchical,  ///< min x_L, then max x_1
};

struct Objective {
  ObjectiveKind kind = ObjectiveKind::F1;
  double alpha = 0.7;
  double beta = 0.3;
};

[[nodiscard]] const char* objective_name(ObjectiveKind kind) noexcept;

struct AllocationResult {
  std::vector<int> x;                    ///< logical RPB per depth (1-based depths)
  std::map<std::string, int> vmem_rpb;   ///< physical RPB pinned per virtual memory
  int rounds = 1;                        ///< total passes (1 = no recirculation)
  double objective = 0.0;
  std::uint64_t nodes_explored = 0;      ///< search effort (micro-benchmarks)
};

/// Solve the allocation for `program` against the free-resource snapshot.
/// Fails when no feasible assignment exists (allocation failure, the
/// stopping condition of Figs. 8/9/12). Pure: any thread may call it on its
/// own snapshot. It reports nothing itself; the search effort comes back in
/// `nodes_explored`, and the controller records the "solve" span and the
/// compiler.solver.* metrics under its session lock.
[[nodiscard]] Result<AllocationResult> solve_allocation(
    const TranslatedProgram& program, const dp::DataplaneSpec& spec,
    const ctrl::ResourceManager::Snapshot& snapshot, const Objective& objective);

}  // namespace p4runpro::rp
