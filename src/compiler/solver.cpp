#include "compiler/solver.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "obs/telemetry.h"

namespace p4runpro::rp {

namespace {

/// DFS feasibility search for a fixed start RPB and an upper bound on x_L.
class Search {
 public:
  Search(const TranslatedProgram& program, const dp::DataplaneSpec& spec,
         const ctrl::ResourceManager::Snapshot& snapshot)
      : program_(program),
        spec_(spec),
        snapshot_(snapshot),
        total_rpbs_(spec.total_rpbs()),
        logical_rpbs_(spec.logical_rpbs()),
        entry_delta_(static_cast<std::size_t>(total_rpbs_), 0) {
    precompute_candidates();
    precompute_suffix();
  }

  /// Are all per-depth candidate sets non-empty and chainable into a
  /// strictly increasing sequence at all? Cheap necessary condition used
  /// to reject hopeless instances without search.
  [[nodiscard]] bool globally_plausible() const {
    return suffix_[0][0] <= logical_rpbs_;
  }

  /// Smallest x_L any assignment could reach when the previous depth sits
  /// at slot `prev` and depths `d..L-1` are still open (candidate-list
  /// greedy chain; ignores aggregation/pinning, so it is a lower bound).
  [[nodiscard]] int suffix_min_last(int d, int prev) const {
    return suffix_[static_cast<std::size_t>(d)][static_cast<std::size_t>(prev)];
  }

  /// Try to place depths 1..L with x_1 = start and x_L <= last_bound.
  /// On success fills `out` (x vector and vmem pins).
  [[nodiscard]] bool feasible(int start, int last_bound, AllocationResult& out) {
    const int depth_count = program_.depth;
    if (start + depth_count - 1 > last_bound) return false;
    if (!candidate(0, start)) return false;
    x_.assign(static_cast<std::size_t>(depth_count), 0);
    std::fill(entry_delta_.begin(), entry_delta_.end(), 0u);
    pins_.clear();
    if (!try_place(0, start, last_bound)) return false;
    out.x = x_;
    out.vmem_rpb = pins_;
    return true;
  }

  [[nodiscard]] bool budget_exhausted() const noexcept { return nodes_ >= kNodeBudget; }

  [[nodiscard]] std::uint64_t nodes_explored() const noexcept { return nodes_; }

 private:
  /// Place depth index `d` (0-based) at logical RPB `x` if constraints
  /// allow, then recurse. Explores candidates for the next depth in
  /// ascending order, so the first complete solution has the smallest
  /// feasible x_L for the given start.
  bool try_place(int d, int x, int last_bound) {
    ++nodes_;
    const auto& req = program_.depth_reqs[static_cast<std::size_t>(d)];
    const int phys = dp::physical_rpb(x, total_rpbs_);
    const std::size_t phys_idx = static_cast<std::size_t>(phys - 1);

    // Constraint (4): forwarding primitives only in ingress RPBs.
    if (req.forwarding && !dp::is_ingress_rpb(phys, spec_.ingress_rpbs)) return false;

    // Constraint (2): table entries, aggregated across rounds that share
    // this physical RPB.
    const auto entries = static_cast<std::uint32_t>(req.entries);
    if (entry_delta_[phys_idx] + entries > snapshot_.free_entries[phys_idx]) return false;

    // Constraints (3)/(5): memory pinning and availability.
    std::vector<std::string> newly_pinned;
    for (const auto& vmem : req.vmems) {
      const auto it = pins_.find(vmem);
      if (it != pins_.end()) {
        if (it->second != phys) return false;  // same vmem must stay on one stage
      } else {
        // Look-ahead for constraint (5): every later access to this vmem
        // must land on the same physical RPB (x' = x + k*M) while staying
        // strictly ordered and under the bound — reject the pin here
        // rather than deep in the subtree.
        if (!pair_slots_exist(vmem, d + 1, x, last_bound)) {
          for (const auto& undo : newly_pinned) pins_.erase(undo);
          return false;
        }
        pins_.emplace(vmem, phys);
        newly_pinned.push_back(vmem);
      }
    }
    if (!newly_pinned.empty() && !stage_memory_fits(phys)) {
      for (const auto& vmem : newly_pinned) pins_.erase(vmem);
      return false;
    }

    entry_delta_[phys_idx] += entries;
    x_[static_cast<std::size_t>(d)] = x;

    const int depth_count = program_.depth;
    if (d + 1 == depth_count) return true;

    // Constraint (1): strictly increasing; leave room for remaining depths.
    // Only iterate slots that pass the per-depth standalone checks, and
    // stop searching entirely once the node budget is spent (the solver
    // equivalent of an SMT timeout; hopeless instances fail fast).
    // Lower-bound prune: even the unconstrained greedy completion of the
    // remaining depths overshoots the bound.
    if (suffix_[static_cast<std::size_t>(d + 1)][static_cast<std::size_t>(x)] > last_bound) {
      entry_delta_[phys_idx] -= entries;
      for (const auto& vmem : newly_pinned) pins_.erase(vmem);
      return false;
    }

    const int remaining = depth_count - (d + 2);
    const int hi = last_bound - remaining;
    // Constraint (5) look-ahead: if the next depth touches an
    // already-pinned virtual memory, only logical RPBs on that physical
    // stage qualify (x' = pin + k*M) — jump straight to them instead of
    // scanning the whole range.
    const int required = required_phys(d + 1);
    if (required > 0) {
      int next = x + 1;
      const int next_phys = (next - 1) % total_rpbs_ + 1;
      const int offset = next_phys <= required ? required - next_phys
                                               : total_rpbs_ - next_phys + required;
      for (next += offset; next <= hi; next += total_rpbs_) {
        if (nodes_ >= kNodeBudget) break;
        if (!candidate(d + 1, next)) continue;
        if (try_place(d + 1, next, last_bound)) return true;
      }
    } else if (required == 0) {
      for (int next = x + 1; next <= hi; ++next) {
        if (nodes_ >= kNodeBudget) break;
        if (!candidate(d + 1, next)) continue;
        if (try_place(d + 1, next, last_bound)) return true;
      }
    }  // required == -1: conflicting pins, no slot can work

    // Backtrack.
    entry_delta_[phys_idx] -= entries;
    for (const auto& vmem : newly_pinned) pins_.erase(vmem);
    return false;
  }

  /// Can all later depths accessing `vmem` (pinned at depth `depth`
  /// [1-based] on logical slot `x`) still find slots x + k*M within the
  /// ordering and bound constraints?
  [[nodiscard]] bool pair_slots_exist(const std::string& vmem, int depth, int x,
                                      int last_bound) const {
    const auto it = program_.vmem_depths.find(vmem);
    if (it == program_.vmem_depths.end()) return true;
    for (int later : it->second) {
      if (later <= depth) continue;
      // x' = x + k*M, k >= 1, with x' >= x + (later - depth) and
      // x' <= last_bound - (L - later).
      const int lo = x + (later - depth);
      const int hi = last_bound - (program_.depth - later);
      int k = (lo - x + total_rpbs_ - 1) / total_rpbs_;
      if (k < 1) k = 1;
      if (x + k * total_rpbs_ > hi) return false;
    }
    return true;
  }

  /// Physical RPB a depth is forced onto by an already-pinned virtual
  /// memory, or 0 when unconstrained (-1 when two pins conflict).
  [[nodiscard]] int required_phys(int d) const {
    int required = 0;
    for (const auto& vmem : program_.depth_reqs[static_cast<std::size_t>(d)].vmems) {
      const auto it = pins_.find(vmem);
      if (it == pins_.end()) continue;
      if (required != 0 && required != it->second) return -1;
      required = it->second;
    }
    return required;
  }

  /// Do all virtual memories currently pinned to `phys` fit its free
  /// partitions (first-fit simulation)?
  [[nodiscard]] bool stage_memory_fits(int phys) const {
    std::vector<std::uint32_t> sizes;
    for (const auto& [vmem, p] : pins_) {
      if (p == phys) sizes.push_back(program_.vmem_sizes.at(vmem));
    }
    return snapshot_.can_allocate(phys, sizes);
  }

  /// Per-depth standalone feasibility: slots where the depth's entries
  /// fit, forwarding lands in ingress, and its memories fit the stage in
  /// isolation. Necessary (not sufficient) conditions; the DFS enforces
  /// the aggregate and pinning constraints.
  void precompute_candidates() {
    candidates_.assign(static_cast<std::size_t>(program_.depth), {});
    for (int d = 0; d < program_.depth; ++d) {
      const auto& req = program_.depth_reqs[static_cast<std::size_t>(d)];
      for (int x = 1; x <= logical_rpbs_; ++x) {
        const int phys = dp::physical_rpb(x, total_rpbs_);
        if (req.forwarding && !dp::is_ingress_rpb(phys, spec_.ingress_rpbs)) continue;
        if (static_cast<std::uint32_t>(req.entries) >
            snapshot_.free_entries[static_cast<std::size_t>(phys - 1)]) {
          continue;
        }
        if (!req.vmems.empty()) {
          std::vector<std::uint32_t> sizes;
          for (const auto& vmem : req.vmems) sizes.push_back(program_.vmem_sizes.at(vmem));
          if (!snapshot_.can_allocate(phys, sizes)) continue;
        }
        candidates_[static_cast<std::size_t>(d)].push_back(x);
      }
    }
  }

  [[nodiscard]] bool candidate(int d, int x) const {
    const auto& slots = candidates_[static_cast<std::size_t>(d)];
    return std::binary_search(slots.begin(), slots.end(), x);
  }

  /// suffix_[d][prev] = minimal x_L of a strictly increasing chain through
  /// the candidate lists of depths d..L-1 with every slot > prev
  /// (kInfeasible when none exists). Greedy-minimal is optimal because
  /// suffix_[d+1] is non-decreasing in prev.
  void precompute_suffix() {
    const auto L = static_cast<std::size_t>(program_.depth);
    const auto slots = static_cast<std::size_t>(logical_rpbs_) + 1;
    suffix_.assign(L + 1, std::vector<int>(slots, kInfeasible));
    for (std::size_t prev = 0; prev < slots; ++prev) {
      // Depth L (virtual): already done -> the previous slot is the last.
      suffix_[L][prev] = static_cast<int>(prev);
    }
    for (std::size_t d = L; d-- > 0;) {
      for (std::size_t prev = 0; prev < slots; ++prev) {
        const auto& cand = candidates_[d];
        const auto it = std::upper_bound(cand.begin(), cand.end(), static_cast<int>(prev));
        if (it == cand.end()) continue;  // stays kInfeasible
        const auto next = static_cast<std::size_t>(*it);
        suffix_[d][prev] = suffix_[d + 1][next];
      }
    }
  }

  static constexpr int kInfeasible = 1 << 20;

  static constexpr std::uint64_t kNodeBudget = 100000;

  const TranslatedProgram& program_;
  const dp::DataplaneSpec& spec_;
  const ctrl::ResourceManager::Snapshot& snapshot_;
  const int total_rpbs_;
  const int logical_rpbs_;
  std::vector<std::uint32_t> entry_delta_;
  std::vector<std::vector<int>> candidates_;
  std::vector<std::vector<int>> suffix_;
  std::vector<int> x_;
  std::map<std::string, int> pins_;
  std::uint64_t nodes_ = 0;
};

/// Smallest feasible x_L for a fixed x_1 (iterative deepening on the
/// bound), or 0 when infeasible.
int min_last(Search& search, const TranslatedProgram& program, int start,
             int logical_rpbs, AllocationResult& out) {
  (void)program;
  // The candidate-chain lower bound lets us skip hopeless bounds outright.
  const int lower = search.suffix_min_last(1, start);
  for (int bound = std::max(lower, start); bound <= logical_rpbs; ++bound) {
    if (search.feasible(start, bound, out)) return out.x.back();
  }
  return 0;
}

}  // namespace

const char* objective_name(ObjectiveKind kind) noexcept {
  switch (kind) {
    case ObjectiveKind::F1: return "f1 = a*xL - b*x1";
    case ObjectiveKind::F2: return "f2 = xL";
    case ObjectiveKind::F3: return "f3 = xL / x1";
    case ObjectiveKind::Hierarchical: return "hierarchical (min xL, max x1)";
  }
  return "?";
}

namespace {

Result<AllocationResult> solve_allocation_impl(
    const TranslatedProgram& program, const dp::DataplaneSpec& spec,
    const ctrl::ResourceManager::Snapshot& snapshot, const Objective& objective) {
  if (program.depth == 0) return Error{"empty program", "solver", ErrorCode::SemanticError};
  const int logical = spec.logical_rpbs();
  if (program.depth > logical) {
    return Error{"program too deep: needs " + std::to_string(program.depth) +
                     " RPBs, data plane offers " + std::to_string(logical),
                 "solver", ErrorCode::SemanticError};
  }

  Search search(program, spec, snapshot);
  if (!search.globally_plausible()) {
    return Error{"no feasible allocation for program '" + program.name + "'", "solver",
                 ErrorCode::AllocFailed};
  }
  const int max_start = logical - program.depth + 1;

  AllocationResult best;
  bool found = false;
  double best_obj = std::numeric_limits<double>::infinity();

  auto consider = [&](int start, double obj, const AllocationResult& candidate) {
    if (!found || obj < best_obj) {
      best = candidate;
      best_obj = obj;
      found = true;
    }
    (void)start;
  };

  switch (objective.kind) {
    case ObjectiveKind::F2: {
      for (int start = 1; start <= max_start; ++start) {
        if (search.budget_exhausted()) break;
        // The best conceivable x_L for this start is start + L - 1.
        if (found && start + program.depth - 1 >= static_cast<int>(best_obj)) break;
        AllocationResult candidate;
        const int last = min_last(search, program, start, logical, candidate);
        if (last > 0) consider(start, static_cast<double>(last), candidate);
      }
      break;
    }
    case ObjectiveKind::F1: {
      const double a = objective.alpha;
      const double b = objective.beta;
      for (int start = 1; start <= max_start; ++start) {
        if (search.budget_exhausted()) break;
        // Lower bound of the objective for this start (x_L >= start+L-1);
        // increasing in start when a > b, enabling early termination.
        const double bound = a * (start + program.depth - 1) - b * start;
        if (found && a > b && bound >= best_obj) break;
        AllocationResult candidate;
        const int last = min_last(search, program, start, logical, candidate);
        if (last > 0) consider(start, a * last - b * start, candidate);
      }
      break;
    }
    case ObjectiveKind::F3: {
      // Non-linear ratio objective: no useful monotone bound over start, so
      // every start position is evaluated (this is what makes f3 an order
      // of magnitude slower in Fig. 12).
      for (int start = 1; start <= max_start; ++start) {
        if (search.budget_exhausted()) break;
        AllocationResult candidate;
        const int last = min_last(search, program, start, logical, candidate);
        if (last > 0) {
          consider(start, static_cast<double>(last) / static_cast<double>(start), candidate);
        }
      }
      break;
    }
    case ObjectiveKind::Hierarchical: {
      // Phase 1: minimize x_L (same as F2).
      int best_last = 0;
      for (int start = 1; start <= max_start; ++start) {
        if (search.budget_exhausted()) break;
        if (best_last != 0 && start + program.depth - 1 >= best_last) break;
        AllocationResult candidate;
        const int last = min_last(search, program, start, logical, candidate);
        if (last > 0 && (best_last == 0 || last < best_last)) {
          best_last = last;
          best = candidate;
          found = true;
        }
      }
      if (!found) break;
      // Phase 2: maximize x_1 subject to x_L <= best_last.
      for (int start = best_last - program.depth + 1; start >= 1; --start) {
        if (search.budget_exhausted()) break;
        AllocationResult candidate;
        if (search.feasible(start, best_last, candidate)) {
          best = candidate;
          break;
        }
      }
      best_obj = static_cast<double>(best.x.back());
      break;
    }
  }

  if (!found) {
    return Error{"no feasible allocation for program '" + program.name + "'", "solver",
                 ErrorCode::AllocFailed};
  }
  best.rounds = dp::recirc_round(best.x.back(), spec.total_rpbs()) + 1;
  best.objective = best_obj;
  best.nodes_explored = search.nodes_explored();
  return best;
}

}  // namespace

Result<AllocationResult> solve_allocation(
    const TranslatedProgram& program, const dp::DataplaneSpec& spec,
    const ctrl::ResourceManager::Snapshot& snapshot, const Objective& objective,
    obs::Telemetry* telemetry) {
  auto result = solve_allocation_impl(program, spec, snapshot, objective);
  if (telemetry != nullptr) {
    auto& m = telemetry->metrics;
    m.counter("compiler.solver.calls").inc();
    if (result.ok()) {
      static const std::vector<double> kCountBounds = obs::Histogram::count_bounds();
      m.histogram("compiler.solver.nodes_explored", kCountBounds)
          .observe(static_cast<double>(result.value().nodes_explored));
      m.histogram("compiler.solver.rounds", kCountBounds)
          .observe(static_cast<double>(result.value().rounds));
    } else {
      m.counter("compiler.solver.infeasible").inc();
    }
  }
  return result;
}

}  // namespace p4runpro::rp
