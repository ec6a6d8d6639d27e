#include "compiler/solver.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace p4runpro::rp {

namespace {

/// One assignment as the search holds it: the logical RPB per depth and the
/// physical RPB pinned per interned virtual memory (0 = unpinned).
struct Placement {
  std::vector<int> x;
  std::vector<int> pins;
};

/// DFS feasibility search for a fixed start RPB and an upper bound on x_L.
/// The constructor interns the program's virtual memories to dense indices
/// (in `vmem_sizes`, i.e. name, order) and evaluates each depth's standalone
/// checks once per physical stage; after that a search node allocates
/// nothing.
class Search {
 public:
  Search(const TranslatedProgram& program, const dp::DataplaneSpec& spec,
         const ctrl::ResourceManager::Snapshot& snapshot)
      : program_(program),
        spec_(spec),
        snapshot_(snapshot),
        total_rpbs_(spec.total_rpbs()),
        logical_rpbs_(spec.logical_rpbs()),
        slots_(static_cast<std::size_t>(logical_rpbs_) + 1),
        entry_delta_(static_cast<std::size_t>(total_rpbs_), 0),
        x_(static_cast<std::size_t>(program.depth), 0),
        pins_(program.vmem_sizes.size(), 0) {
    intern_vmems();
    precompute_candidates();
    precompute_suffix();
  }

  /// Are all per-depth candidate sets non-empty and chainable into a
  /// strictly increasing sequence at all? Cheap necessary condition used
  /// to reject hopeless instances without search.
  [[nodiscard]] bool globally_plausible() const { return suffix_[0] <= logical_rpbs_; }

  /// Smallest x_L any assignment could reach when the previous depth sits
  /// at slot `prev` and depths `d..L-1` are still open (candidate-list
  /// greedy chain; ignores aggregation/pinning, so it is a lower bound).
  [[nodiscard]] int suffix_min_last(int d, int prev) const { return suffix_[cell(d, prev)]; }

  /// Try to place depths 1..L with x_1 = start and x_L <= last_bound.
  /// On success fills `out` (x vector and vmem pins).
  [[nodiscard]] bool feasible(int start, int last_bound, Placement& out) {
    if (start + program_.depth - 1 > last_bound) return false;
    if (!candidate(0, start)) return false;
    std::fill(entry_delta_.begin(), entry_delta_.end(), 0u);
    std::fill(pins_.begin(), pins_.end(), 0);
    if (!try_place(0, start, last_bound)) return false;
    out.x = x_;
    out.pins = pins_;
    return true;
  }

  [[nodiscard]] bool budget_exhausted() const noexcept { return nodes_ >= kNodeBudget; }

  [[nodiscard]] std::uint64_t nodes_explored() const noexcept { return nodes_; }

 private:
  /// Place depth index `d` (0-based) at logical RPB `x` if constraints
  /// allow, then recurse. Explores candidates for the next depth in
  /// ascending order, so the first complete solution has the smallest
  /// feasible x_L for the given start. Every caller has checked
  /// candidate(d, x), which covers constraint (4) and the stage's
  /// standalone entry and memory fit.
  bool try_place(int d, int x, int last_bound) {
    ++nodes_;
    const auto& req = program_.depth_reqs[static_cast<std::size_t>(d)];
    const int phys = dp::physical_rpb(x, total_rpbs_);
    const std::size_t phys_idx = static_cast<std::size_t>(phys - 1);

    // Constraint (2): table entries, aggregated across rounds that share
    // this physical RPB.
    const auto entries = static_cast<std::uint32_t>(req.entries);
    if (entry_delta_[phys_idx] + entries > snapshot_.free_entries[phys_idx]) return false;

    // Constraints (3)/(5): memory pinning and availability. Memories this
    // depth pins first go to its own slice of `newly_pinned_`.
    const std::size_t first = depth_begin_[static_cast<std::size_t>(d)];
    const std::size_t last = depth_begin_[static_cast<std::size_t>(d) + 1];
    std::size_t pinned = first;
    const auto unpin = [&] {
      for (std::size_t k = first; k < pinned; ++k) pins_[newly_pinned_[k]] = 0;
      return false;
    };
    for (std::size_t k = first; k < last; ++k) {
      const std::size_t v = depth_vmems_[k];
      if (pins_[v] != 0) {
        if (pins_[v] != phys) return unpin();  // same vmem must stay on one stage
      } else {
        // Look-ahead for constraint (5): every later access to this vmem
        // must land on the same physical RPB (x' = x + k*M) while staying
        // strictly ordered and under the bound — reject the pin here
        // rather than deep in the subtree.
        if (!pair_slots_exist(v, d + 1, x, last_bound)) return unpin();
        pins_[v] = phys;
        newly_pinned_[pinned++] = v;
      }
    }
    if (pinned != first && !stage_memory_fits(phys)) return unpin();

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
    if (suffix_[cell(d + 1, x)] > last_bound) {
      entry_delta_[phys_idx] -= entries;
      return unpin();
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
    return unpin();
  }

  /// Can all later depths accessing memory `v` (pinned at depth `depth`
  /// [1-based] on logical slot `x`) still find slots x + k*M within the
  /// ordering and bound constraints?
  [[nodiscard]] bool pair_slots_exist(std::size_t v, int depth, int x, int last_bound) const {
    if (accesses_[v] == nullptr) return true;
    for (int later : *accesses_[v]) {
      if (later <= depth) continue;
      // x' = x + k*M, k >= 1, with x' >= x + (later - depth) and
      // x' <= last_bound - (L - later).
      const int lo = x + (later - depth);
      const int hi = last_bound - (program_.depth - later);
      int k_min = (lo - x + total_rpbs_ - 1) / total_rpbs_;
      if (k_min < 1) k_min = 1;
      if (x + k_min * total_rpbs_ > hi) return false;
    }
    return true;
  }

  /// Physical RPB a depth is forced onto by an already-pinned virtual
  /// memory, or 0 when unconstrained (-1 when two pins conflict).
  [[nodiscard]] int required_phys(int d) const {
    int required = 0;
    const auto di = static_cast<std::size_t>(d);
    for (std::size_t k = depth_begin_[di]; k < depth_begin_[di + 1]; ++k) {
      const int pin = pins_[depth_vmems_[k]];
      if (pin == 0) continue;
      if (required != 0 && required != pin) return -1;
      required = pin;
    }
    return required;
  }

  /// Do all virtual memories currently pinned to `phys` fit its free
  /// partitions? Carved in name order, as the commit allocates them.
  [[nodiscard]] bool stage_memory_fits(int phys) {
    sizes_.clear();
    for (std::size_t v = 0; v < pins_.size(); ++v) {
      if (pins_[v] == phys) sizes_.push_back(vmem_size_[v]);
    }
    return snapshot_.can_allocate(phys, sizes_);
  }

  /// Dense memory indices: sizes, each depth's memories (in `req.vmems`
  /// order, flat with offsets) and each memory's access depths.
  void intern_vmems() {
    const auto index_of = [&](const std::string& vmem) {
      const auto it = program_.vmem_sizes.find(vmem);
      assert(it != program_.vmem_sizes.end());
      return static_cast<std::size_t>(std::distance(program_.vmem_sizes.begin(), it));
    };
    for (const auto& [vmem, size] : program_.vmem_sizes) vmem_size_.push_back(size);
    depth_begin_.push_back(0);
    for (const auto& req : program_.depth_reqs) {
      for (const auto& vmem : req.vmems) depth_vmems_.push_back(index_of(vmem));
      depth_begin_.push_back(depth_vmems_.size());
    }
    newly_pinned_.resize(depth_vmems_.size());
    accesses_.assign(vmem_size_.size(), nullptr);
    for (const auto& [vmem, depths] : program_.vmem_depths) accesses_[index_of(vmem)] = &depths;
  }

  /// Per-depth standalone feasibility: slots where the depth's entries
  /// fit, forwarding lands in ingress, and its memories fit the stage in
  /// isolation. Necessary (not sufficient) conditions; the DFS enforces
  /// the aggregate and pinning constraints. Evaluated once per physical
  /// stage and copied to the stage's logical slots x = phys + k*M.
  void precompute_candidates() {
    candidates_.assign(static_cast<std::size_t>(program_.depth) * slots_, 0);
    for (int d = 0; d < program_.depth; ++d) {
      const auto& req = program_.depth_reqs[static_cast<std::size_t>(d)];
      sizes_.clear();
      for (std::size_t k = depth_begin_[static_cast<std::size_t>(d)];
           k < depth_begin_[static_cast<std::size_t>(d) + 1]; ++k) {
        sizes_.push_back(vmem_size_[depth_vmems_[k]]);
      }
      for (int phys = 1; phys <= total_rpbs_; ++phys) {
        if (req.forwarding && !dp::is_ingress_rpb(phys, spec_.ingress_rpbs)) continue;
        if (static_cast<std::uint32_t>(req.entries) >
            snapshot_.free_entries[static_cast<std::size_t>(phys - 1)]) {
          continue;
        }
        if (!sizes_.empty() && !snapshot_.can_allocate(phys, sizes_)) continue;
        for (int x = phys; x <= logical_rpbs_; x += total_rpbs_) candidates_[cell(d, x)] = 1;
      }
    }
  }

  [[nodiscard]] bool candidate(int d, int x) const { return candidates_[cell(d, x)] != 0; }

  /// Flat index of (depth index d, logical slot x) in the slot tables.
  [[nodiscard]] std::size_t cell(int d, int x) const {
    return static_cast<std::size_t>(d) * slots_ + static_cast<std::size_t>(x);
  }

  /// suffix_[cell(d, prev)] = minimal x_L of a strictly increasing chain
  /// through the candidate slots of depths d..L-1 with every slot > prev
  /// (kInfeasible when none exists). Greedy-minimal is optimal because
  /// row d+1 is non-decreasing in prev. One downward walk per depth carries
  /// the smallest candidate above prev.
  void precompute_suffix() {
    const int depth_count = program_.depth;
    suffix_.assign(static_cast<std::size_t>(depth_count + 1) * slots_, kInfeasible);
    for (int prev = 0; prev <= logical_rpbs_; ++prev) {
      // Depth L (virtual): already done -> the previous slot is the last.
      suffix_[cell(depth_count, prev)] = prev;
    }
    for (int d = depth_count; d-- > 0;) {
      int next = 0;  // smallest candidate slot of depth d above prev (0 = none)
      for (int prev = logical_rpbs_; prev >= 0; --prev) {
        if (next != 0) suffix_[cell(d, prev)] = suffix_[cell(d + 1, next)];
        if (candidate(d, prev)) next = prev;
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
  const std::size_t slots_;  // logical slots + 1: row stride of the slot tables
  std::vector<std::uint32_t> vmem_size_;
  std::vector<std::size_t> depth_vmems_;
  std::vector<std::size_t> depth_begin_;
  std::vector<const std::vector<int>*> accesses_;  // null: no Mem access
  std::vector<std::uint8_t> candidates_;
  std::vector<int> suffix_;
  std::vector<std::uint32_t> entry_delta_;
  std::vector<int> x_;
  std::vector<int> pins_;
  std::vector<std::size_t> newly_pinned_;
  std::vector<std::uint32_t> sizes_;  // reused: the sizes of one first-fit check
  std::uint64_t nodes_ = 0;
};

/// Smallest feasible x_L for a fixed x_1 (iterative deepening on the
/// bound), or 0 when infeasible.
int min_last(Search& search, int start, int logical_rpbs, Placement& out) {
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

Result<AllocationResult> solve_allocation(
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

  Placement best;
  Placement candidate;
  bool found = false;
  double best_obj = std::numeric_limits<double>::infinity();

  auto consider = [&](double obj) {
    if (!found || obj < best_obj) {
      best = candidate;
      best_obj = obj;
      found = true;
    }
  };

  switch (objective.kind) {
    case ObjectiveKind::F2:
    case ObjectiveKind::Hierarchical: {
      // F2, and phase 1 of the hierarchical objective: minimize x_L.
      for (int start = 1; start <= max_start; ++start) {
        if (search.budget_exhausted()) break;
        // The best conceivable x_L for this start is start + L - 1.
        if (found && start + program.depth - 1 >= static_cast<int>(best_obj)) break;
        const int last = min_last(search, start, logical, candidate);
        if (last > 0) consider(static_cast<double>(last));
      }
      if (objective.kind == ObjectiveKind::F2 || !found) break;
      // Hierarchical phase 2: maximize x_1 subject to x_L <= the minimum
      // (feasible() writes `best` only on success).
      const int best_last = best.x.back();
      for (int start = best_last - program.depth + 1; start >= 1; --start) {
        if (search.budget_exhausted()) break;
        if (search.feasible(start, best_last, best)) break;
      }
      best_obj = static_cast<double>(best.x.back());
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
        const int last = min_last(search, start, logical, candidate);
        if (last > 0) consider(a * last - b * start);
      }
      break;
    }
    case ObjectiveKind::F3: {
      // Non-linear ratio objective: no useful monotone bound over start, so
      // every start position is evaluated (this is what makes f3 an order
      // of magnitude slower in Fig. 12).
      for (int start = 1; start <= max_start; ++start) {
        if (search.budget_exhausted()) break;
        const int last = min_last(search, start, logical, candidate);
        if (last > 0) consider(static_cast<double>(last) / static_cast<double>(start));
      }
      break;
    }
  }

  if (!found) {
    return Error{"no feasible allocation for program '" + program.name + "'", "solver",
                 ErrorCode::AllocFailed};
  }
  AllocationResult result;
  std::size_t v = 0;  // pins are interned in vmem_sizes order
  for (const auto& [vmem, size] : program.vmem_sizes) {
    if (best.pins[v] != 0) result.vmem_rpb.emplace_hint(result.vmem_rpb.end(), vmem, best.pins[v]);
    ++v;
  }
  result.x = std::move(best.x);
  result.rounds = dp::recirc_round(result.x.back(), spec.total_rpbs()) + 1;
  result.objective = best_obj;
  result.nodes_explored = search.nodes_explored();
  return result;
}

}  // namespace p4runpro::rp
