#include "compiler/translate.h"

#include <algorithm>
#include <cassert>
#include <tuple>

#include "rmt/packet.h"

namespace p4runpro::rp {

namespace {

using lang::Primitive;
using lang::PrimKind;

[[nodiscard]] constexpr unsigned bit(Reg r) noexcept { return 1u << static_cast<unsigned>(r); }

/// Register read/write sets (bit per register) of a *surface* primitive,
/// used by the liveness query that decides whether a supportive register
/// needs backup (Fig. 4b).
struct RegUse {
  unsigned reads = 0;
  unsigned writes = 0;
};

[[nodiscard]] RegUse reg_use(const Primitive& prim) {
  auto arg = [&prim](std::size_t i) { return bit(prim.args[i].reg); };
  switch (prim.kind) {
    case PrimKind::Extract: return {0, arg(1)};
    case PrimKind::Modify: return {arg(1), 0};
    case PrimKind::Hash5Tuple: return {0, bit(Reg::Har)};
    case PrimKind::Hash: return {bit(Reg::Har), bit(Reg::Har)};
    case PrimKind::Hash5TupleMem: return {0, bit(Reg::Mar)};
    case PrimKind::HashMem: return {bit(Reg::Har), bit(Reg::Mar)};
    case PrimKind::Branch:
      // The BRANCH key inspects all three registers.
      return {bit(Reg::Har) | bit(Reg::Sar) | bit(Reg::Mar), 0};
    case PrimKind::MemAdd:
    case PrimKind::MemSub:
    case PrimKind::MemAnd:
    case PrimKind::MemOr:
      return {bit(Reg::Mar) | bit(Reg::Sar), bit(Reg::Sar)};
    case PrimKind::MemRead: return {bit(Reg::Mar), bit(Reg::Sar)};
    case PrimKind::MemWrite:
    case PrimKind::MemMax:
      return {bit(Reg::Mar) | bit(Reg::Sar), 0};
    case PrimKind::Loadi: return {0, arg(0)};
    case PrimKind::Add:
    case PrimKind::And:
    case PrimKind::Or:
    case PrimKind::Max:
    case PrimKind::Min:
    case PrimKind::Xor:
    case PrimKind::Sub:
    case PrimKind::Equal:
    case PrimKind::Sgt:
    case PrimKind::Slt:
      return {arg(0) | arg(1), arg(0)};
    case PrimKind::Move: return {arg(1), arg(0)};
    case PrimKind::Not:
    case PrimKind::Addi:
    case PrimKind::Andi:
    case PrimKind::Xori:
    case PrimKind::Subi:
      return {arg(0), arg(0)};
    case PrimKind::Forward:
    case PrimKind::Drop:
    case PrimKind::Return:
    case PrimKind::Report:
    case PrimKind::Multicast:
      return {};
  }
  return {};
}

/// A primitive sequence as the walk sees it: a run of one body, continued
/// by `next` — the trailing primitives of the enclosing sequence, which a
/// non-terminal case branch replicates. Only views: nothing is copied.
struct Seq {
  const Primitive* begin = nullptr;
  const Primitive* end = nullptr;
  const Seq* next = nullptr;

  [[nodiscard]] bool empty() const noexcept {
    for (const Seq* s = this; s != nullptr; s = s->next) {
      if (s->begin != s->end) return false;
    }
    return true;
  }
};

[[nodiscard]] Seq seq_of(const std::vector<Primitive>& body, const Seq* next = nullptr) {
  return Seq{body.data(), body.data() + body.size(), next};
}

/// Surface primitives in a body, nested case bodies included.
[[nodiscard]] std::size_t count_prims(const std::vector<Primitive>& body) {
  std::size_t n = body.size();
  for (const auto& prim : body) {
    for (const auto& c : prim.cases) n += count_prims(c.body);
  }
  return n;
}

/// Does this subtree contain a terminal forwarding op (RETURN/DROP/REPORT)?
/// Such case branches end the packet's processing and do not receive the
/// trailing-primitive replica (DESIGN.md §2.3).
[[nodiscard]] bool contains_terminal(const std::vector<Primitive>& body) {
  for (const auto& prim : body) {
    if (prim.kind == PrimKind::Drop || prim.kind == PrimKind::Return ||
        prim.kind == PrimKind::Report || prim.kind == PrimKind::Multicast) {
      return true;
    }
    for (const auto& c : prim.cases) {
      if (contains_terminal(c.body)) return true;
    }
  }
  return false;
}

[[nodiscard]] rmt::SaluOp salu_of(PrimKind kind) {
  switch (kind) {
    case PrimKind::MemAdd: return rmt::SaluOp::Add;
    case PrimKind::MemSub: return rmt::SaluOp::Sub;
    case PrimKind::MemAnd: return rmt::SaluOp::And;
    case PrimKind::MemOr: return rmt::SaluOp::Or;
    case PrimKind::MemRead: return rmt::SaluOp::Read;
    case PrimKind::MemWrite: return rmt::SaluOp::Write;
    case PrimKind::MemMax: return rmt::SaluOp::Max;
    default: assert(false); return rmt::SaluOp::Read;
  }
}

class Translator {
 public:
  Translator(const lang::Unit& unit, const lang::ProgramDecl& program)
      : unit_(unit), program_(program) {}

  Result<TranslatedProgram> run() {
    TranslatedProgram out;
    out.name = program_.name;
    out.filters.reserve(program_.filters.size());
    for (const auto& f : program_.filters) {
      const auto field = rmt::field_from_name(f.field);
      assert(field && "semcheck guarantees resolvable filter fields");
      out.filters.push_back(dp::FilterTuple{*field, f.value, f.mask});
    }

    // Most primitives lower to one or two nodes; replication adds more.
    nodes_.reserve(2 * count_prims(program_.body));
    walk_seq(seq_of(program_.body), /*bid=*/0, /*pred=*/-1, /*tail_live=*/false);
    if (failed_) return error_;

    assign_depths();
    if (failed_) return error_;

    out.nodes = std::move(nodes_);
    out.num_branches = next_branch_;
    finalize(out);
    return out;
  }

 private:
  // --- node construction -------------------------------------------------

  /// Append a node whose one predecessor is `pred` (-1: none). Every node
  /// has at most one, so the IR is a tree of branch paths.
  int emit(IrOp op, BranchId bid, int pred) {
    IrNode& node = nodes_.emplace_back();
    node.id = static_cast<int>(nodes_.size()) - 1;
    node.branch = bid;
    node.op = std::move(op);
    if (pred >= 0) node.preds.push_back(pred);
    return node.id;
  }

  [[gnu::cold]] void fail(int line, std::string message) {
    if (failed_) return;
    failed_ = true;
    error_ = Error{std::move(message), "line " + std::to_string(line),
                   ErrorCode::SemanticError};
  }

  /// The declared memory `name` resolves to (the last declaration wins).
  [[nodiscard]] const lang::Annotation& memory(const std::string& name) const {
    const auto& anns = unit_.annotations;
    const auto it = std::find_if(anns.rbegin(), anns.rend(),
                                 [&name](const lang::Annotation& a) { return a.name == name; });
    assert(it != anns.rend() && "semcheck guarantees declared memories");
    return *it;
  }

  /// Walk a primitive sequence under branch `bid`, chaining dependencies
  /// from `pred`. `tail_live` tells the liveness query whether registers
  /// can still be read after this sequence ends (i.e. it is a case body
  /// whose enclosing context continues).
  void walk_seq(const Seq& seq, BranchId bid, int pred, bool tail_live) {
    for (const Seq* s = &seq; s != nullptr; s = s->next) {
      for (const Primitive* prim = s->begin; prim != s->end; ++prim) {
        if (failed_) return;
        const Seq rest{prim + 1, s->end, s->next};
        if (prim->kind == PrimKind::Branch) {
          walk_branch(*prim, rest, bid, pred, tail_live);
          return;  // the branch consumed the remainder of the sequence
        }
        pred = lower(*prim, rest, bid, pred, tail_live);
      }
    }
  }

  void walk_branch(const Primitive& branch, const Seq& rest, BranchId bid, int pred,
                   bool tail_live) {
    IrOp op;
    op.kind = dp::OpKind::Branch;
    op.cases.reserve(branch.cases.size());
    const int first_target = next_branch_;
    for (const auto& c : branch.cases) {
      if (next_branch_ > 65535) {
        fail(branch.line, "too many conditional branches (branch id overflow)");
        return;
      }
      op.cases.push_back(CaseRule{c.conditions, static_cast<BranchId>(next_branch_++)});
    }
    const int branch_node = emit(std::move(op), bid, pred);

    const bool has_rest = !rest.empty();
    for (std::size_t c = 0; c < branch.cases.size(); ++c) {
      const auto& body = branch.cases[c].body;
      const auto target = static_cast<BranchId>(first_target + static_cast<int>(c));
      // Non-terminal case branches continue into the trailing primitives
      // (replication); terminal branches end the packet's processing.
      if (has_rest && !contains_terminal(body)) {
        walk_seq(seq_of(body, &rest), target, branch_node, tail_live);
      } else {
        walk_seq(seq_of(body), target, branch_node, tail_live || has_rest);
      }
    }

    // Miss path: no case matched, the packet keeps the enclosing branch id
    // and executes the trailing primitives (Fig. 2's cache-miss FORWARD).
    if (has_rest) walk_seq(rest, bid, branch_node, tail_live);
  }

  // --- primitive lowering ------------------------------------------------

  /// Lower one non-branch surface primitive into IR nodes chained after
  /// `pred`; returns the last one. `rest` (what follows the primitive) is
  /// the context of the supportive-register liveness query.
  int lower(const Primitive& prim, const Seq& rest, BranchId bid, int pred, bool tail_live) {
    auto reg_arg = [&prim](std::size_t i) { return prim.args[i].reg; };
    auto int_arg = [&prim](std::size_t i) { return prim.args[i].value; };
    auto mem = [&prim] { return &prim.args[0].text; };
    auto field_arg = [&prim] {
      const auto field = rmt::field_from_name(prim.args[0].text);
      assert(field && "semcheck guarantees resolvable fields");
      return *field;
    };
    auto add = [&](const dp::AtomicOp& atomic, const std::string* vmem = nullptr) {
      IrOp op = make(atomic);
      if (vmem != nullptr) op.vmem = *vmem;  // mask/base bound at entry generation
      pred = emit(std::move(op), bid, pred);
    };

    switch (prim.kind) {
      case PrimKind::Extract: add(dp::AtomicOp::extract(field_arg(), reg_arg(1))); break;
      case PrimKind::Modify: add(dp::AtomicOp::modify(field_arg(), reg_arg(1))); break;
      case PrimKind::Hash5Tuple: add(dp::AtomicOp::hash_5_tuple()); break;
      case PrimKind::Hash: add(dp::AtomicOp::hash_har()); break;
      case PrimKind::Hash5TupleMem: add(dp::AtomicOp::hash_5_tuple_mem(0), mem()); break;
      case PrimKind::HashMem: add(dp::AtomicOp::hash_har_mem(0), mem()); break;
      case PrimKind::MemAdd:
      case PrimKind::MemSub:
      case PrimKind::MemAnd:
      case PrimKind::MemOr:
      case PrimKind::MemRead:
      case PrimKind::MemWrite:
      case PrimKind::MemMax:
        // Offset step first (separate AST node / depth, Fig. 5b), then the
        // SALU operation.
        add(dp::AtomicOp::offset(0), mem());
        add(dp::AtomicOp::mem(salu_of(prim.kind)), mem());
        break;
      case PrimKind::Loadi: add(dp::AtomicOp::loadi(reg_arg(0), int_arg(1))); break;
      case PrimKind::Add:
      case PrimKind::And:
      case PrimKind::Or:
      case PrimKind::Max:
      case PrimKind::Min:
      case PrimKind::Xor:
        add(dp::AtomicOp::alu(alu_kind(prim.kind), reg_arg(0), reg_arg(1)));
        break;

      // ---- pseudo primitives (Fig. 14) ---------------------------------
      case PrimKind::Move:
        // MOVE(A, B) = LOADI(A, 0); ADD(A, B)
        add(dp::AtomicOp::loadi(reg_arg(0), 0));
        add(dp::AtomicOp::alu(dp::OpKind::Add, reg_arg(0), reg_arg(1)));
        break;
      case PrimKind::Equal:
        // EQUAL(A, B) = XOR(A, B): A == 0 iff equal
        add(dp::AtomicOp::alu(dp::OpKind::Xor, reg_arg(0), reg_arg(1)));
        break;
      case PrimKind::Sgt:
        // SGT(A, B) = MIN(A, B); XOR(A, B): A == 0 iff A >= B
        add(dp::AtomicOp::alu(dp::OpKind::Min, reg_arg(0), reg_arg(1)));
        add(dp::AtomicOp::alu(dp::OpKind::Xor, reg_arg(0), reg_arg(1)));
        break;
      case PrimKind::Slt:
        add(dp::AtomicOp::alu(dp::OpKind::Max, reg_arg(0), reg_arg(1)));
        add(dp::AtomicOp::alu(dp::OpKind::Xor, reg_arg(0), reg_arg(1)));
        break;
      case PrimKind::Not:
        // NOT(A) = LOADI(C, 0xffffffff); XOR(A, C)
        with_support(rest, tail_live, bit(reg_arg(0)), add, [&](Reg c) {
          add(dp::AtomicOp::loadi(c, kRegMax));
          add(dp::AtomicOp::alu(dp::OpKind::Xor, reg_arg(0), c));
        });
        break;
      case PrimKind::Addi:
      case PrimKind::Andi:
      case PrimKind::Xori: {
        const dp::OpKind alu = prim.kind == PrimKind::Addi   ? dp::OpKind::Add
                               : prim.kind == PrimKind::Andi ? dp::OpKind::And
                                                             : dp::OpKind::Xor;
        with_support(rest, tail_live, bit(reg_arg(0)), add, [&](Reg c) {
          add(dp::AtomicOp::loadi(c, int_arg(1)));
          add(dp::AtomicOp::alu(alu, reg_arg(0), c));
        });
        break;
      }
      case PrimKind::Subi:
        // SUBI(A, i) = LOADI(C, 2^32 - i); ADD(A, C)
        with_support(rest, tail_live, bit(reg_arg(0)), add, [&](Reg c) {
          add(dp::AtomicOp::loadi(c, 0u - int_arg(1)));
          add(dp::AtomicOp::alu(dp::OpKind::Add, reg_arg(0), c));
        });
        break;
      case PrimKind::Sub:
        // SUB(A, B) = A + ~B + 1 via the supportive register. The paper's
        // Fig. 14 listing omits the final +1 correction; we emit the
        // corrected 6-op sequence (see DESIGN.md §2).
        with_support(rest, tail_live, bit(reg_arg(0)) | bit(reg_arg(1)), add, [&](Reg c) {
          const Reg a = reg_arg(0);
          const Reg b = reg_arg(1);
          add(dp::AtomicOp::loadi(c, kRegMax));
          add(dp::AtomicOp::alu(dp::OpKind::Xor, b, c));  // b = ~b
          add(dp::AtomicOp::alu(dp::OpKind::Add, a, b));  // a += ~b
          add(dp::AtomicOp::alu(dp::OpKind::Xor, b, c));  // restore b
          add(dp::AtomicOp::loadi(c, 1));
          add(dp::AtomicOp::alu(dp::OpKind::Add, a, c));  // a += 1
        });
        break;

      // ---- forwarding ---------------------------------------------------
      case PrimKind::Forward: add(dp::AtomicOp::forward(static_cast<Port>(int_arg(0)))); break;
      case PrimKind::Multicast: add(dp::AtomicOp::multicast(int_arg(0))); break;
      case PrimKind::Drop: add(dp::AtomicOp::drop()); break;
      case PrimKind::Return: add(dp::AtomicOp::ret()); break;
      case PrimKind::Report: add(dp::AtomicOp::report()); break;

      case PrimKind::Branch: assert(false && "handled in walk_branch"); break;
    }
    return pred;
  }

  [[nodiscard]] static dp::OpKind alu_kind(PrimKind kind) {
    switch (kind) {
      case PrimKind::Add: return dp::OpKind::Add;
      case PrimKind::And: return dp::OpKind::And;
      case PrimKind::Or: return dp::OpKind::Or;
      case PrimKind::Max: return dp::OpKind::Max;
      case PrimKind::Min: return dp::OpKind::Min;
      case PrimKind::Xor: return dp::OpKind::Xor;
      default: assert(false); return dp::OpKind::Nop;
    }
  }

  [[nodiscard]] static IrOp make(const dp::AtomicOp& op) {
    return IrOp{op.kind, op.field, op.reg0, op.reg1, op.imm, op.salu, {}, {}};
  }

  /// Run `body(C)` with a supportive register C not in `used` (bit per
  /// register), wrapping it with BACKUP/RESTORE unless C is dead after this
  /// primitive (register-lifetime optimization, §4.2).
  template <typename Add, typename Body>
  void with_support(const Seq& rest, bool tail_live, unsigned used, Add& add, Body body) {
    // Candidate supportive registers: prefer a dead one.
    Reg support = Reg::Har;
    bool found_dead = false;
    for (Reg r : {Reg::Har, Reg::Sar, Reg::Mar}) {
      if ((used & bit(r)) != 0) continue;
      support = r;  // fall back to any unused register
      if (!live_after(r, rest, tail_live)) {
        found_dead = true;
        break;
      }
    }
    if (!found_dead) add(dp::AtomicOp::backup(support));
    body(support);
    if (!found_dead) add(dp::AtomicOp::restore(support));
  }

  /// Is register `r` live at the start of `rest`? Scans it in order; a
  /// read before a write keeps it live, a write first kills it. Falling off
  /// the end defers to `tail_live`.
  [[nodiscard]] static bool live_after(Reg r, const Seq& rest, bool tail_live) {
    for (const Seq* s = &rest; s != nullptr; s = s->next) {
      for (const Primitive* prim = s->begin; prim != s->end; ++prim) {
        // A BRANCH reads all three registers (key match), so any later
        // conditional keeps the register live.
        const RegUse use = reg_use(*prim);
        if ((use.reads & bit(r)) != 0) return true;
        if ((use.writes & bit(r)) != 0) return false;
      }
    }
    return tail_live;
  }

  // --- depth assignment and alignment ------------------------------------

  void assign_depths() {
    const std::size_t n = nodes_.size();
    auto at = [this](int id) -> IrNode& { return nodes_[static_cast<std::size_t>(id)]; };

    // Memory alignment classes: for each vmem, partition its Mem nodes into
    // levels by DAG reachability; nodes in the same level (parallel
    // branches) must share a depth (same physical stage, Fig. 5b). A node's
    // ancestors are its parent chain, so its level is one more than that of
    // its nearest same-vmem Mem ancestor (1 with none).
    members_.reserve(static_cast<std::size_t>(std::count_if(
        nodes_.begin(), nodes_.end(),
        [](const IrNode& node) { return node.op.kind == dp::OpKind::Mem; })));
    for (const auto& node : nodes_) {
      if (node.op.kind != dp::OpKind::Mem) continue;
      int level = 1;
      for (const IrNode* a = &node; !a->preds.empty();) {
        a = &at(a->preds.front());
        if (a->op.kind == dp::OpKind::Mem && a->op.vmem == node.op.vmem) {
          // members_ is still in id order here.
          level = std::lower_bound(members_.begin(), members_.end(), a->id,
                                   [](const Member& m, int id) { return m.id < id; })
                      ->level + 1;
          break;
        }
      }
      members_.push_back(Member{&memory(node.op.vmem), level, node.id});
    }
    // Classes are the runs of equal (memory, level); a lone node needs no
    // raise.
    std::sort(members_.begin(), members_.end(), [](const Member& a, const Member& b) {
      return std::tie(a.memory, a.level, a.id) < std::tie(b.memory, b.level, b.id);
    });
    auto for_each_class = [this](auto&& fn) {
      for (auto first = members_.begin(); first != members_.end();) {
        auto last = std::find_if(first, members_.end(), [&](const Member& m) {
          return m.memory != first->memory || m.level != first->level;
        });
        if (last - first > 1) fn(first, last);
        first = last;
      }
    };

    auto relax_paths = [&] {  // longest-path depths; true when one rose
      bool rose = false;
      for (auto& node : nodes_) {  // nodes_ is already in topological order
        const int d = node.preds.empty() ? 1 : at(node.preds.front()).depth + 1;
        if (d > node.depth) {
          node.depth = d;
          rose = true;
        }
      }
      return rose;
    };
    auto class_depth = [&](auto first, auto last) {
      int dmax = 0;
      for (auto m = first; m != last; ++m) dmax = std::max(dmax, at(m->id).depth);
      return dmax;
    };

    // Fixpoint: longest-path depths, then raise alignment classes. Class
    // constraints are equalities and each tree edge adds one, so a feasible
    // program settles within n passes. One that does not has a positive
    // cycle: parallel branches order two aligned memories differently, and
    // no depth assignment exists.
    for (auto& node : nodes_) node.depth = 0;
    bool changed = true;
    for (int pass = 1; changed; ++pass) {
      if (pass > static_cast<int>(n) + 8) {
        fail_unaligned(relax_paths, class_depth, for_each_class);
        return;
      }
      changed = relax_paths();
      for_each_class([&](auto first, auto last) {
        const int dmax = class_depth(first, last);
        for (auto m = first; m != last; ++m) {
          if (at(m->id).depth < dmax) {
            at(m->id).depth = dmax;
            changed = true;
          }
        }
      });
    }
  }

  /// Reject a program whose alignment diverged, naming the memories whose
  /// aligned accesses still pull apart after one more longest-path pass.
  template <typename Relax, typename ClassDepth, typename ForEachClass>
  [[gnu::cold]] void fail_unaligned(Relax& relax_paths, ClassDepth& class_depth,
                                    ForEachClass& for_each_class) {
    relax_paths();
    std::string names;
    const lang::Annotation* named = nullptr;
    for_each_class([&](auto first, auto last) {
      const int dmax = class_depth(first, last);
      const bool apart = std::any_of(first, last, [&](const Member& m) {
        return nodes_[static_cast<std::size_t>(m.id)].depth < dmax;
      });
      if (!apart || first->memory == named) return;
      named = first->memory;
      names += (names.empty() ? "'" : ", '") + named->name + "'";
    });
    fail(program_.line, "cannot align the parallel-branch accesses of " + names +
                            " to one stage per memory: the branches order them "
                            "differently");
  }

  void finalize(TranslatedProgram& out) {
    out.depth = 0;
    for (const auto& node : out.nodes) out.depth = std::max(out.depth, node.depth);
    out.depth_reqs.assign(static_cast<std::size_t>(out.depth), DepthRequirement{});
    for (const auto& node : out.nodes) {
      auto& req = out.depth_reqs[static_cast<std::size_t>(node.depth - 1)];
      req.entries += node.op.entry_count();
      if (dp::is_forwarding(node.op.kind)) req.forwarding = true;
      if (node.op.kind == dp::OpKind::Mem) {
        req.memory = true;
        if (std::find(req.vmems.begin(), req.vmems.end(), node.op.vmem) == req.vmems.end()) {
          req.vmems.push_back(node.op.vmem);
        }
      }
      if (!node.op.vmem.empty()) {
        // Record the sizes of every referenced vmem (hash/offset included).
        if (auto [it, fresh] = out.vmem_sizes.try_emplace(node.op.vmem); fresh) {
          it->second = round_pow2(memory(node.op.vmem).size);
        }
      }
    }
    // Each vmem's aligned levels: the distinct depths of its Mem nodes.
    for (const Member& m : members_) {
      const IrNode& node = out.nodes[static_cast<std::size_t>(m.id)];
      std::vector<int>& depths = out.vmem_depths[node.op.vmem];
      const auto at = std::lower_bound(depths.begin(), depths.end(), node.depth);
      if (at == depths.end() || *at != node.depth) depths.insert(at, node.depth);
    }
  }

  /// A Mem node, keyed by the declaration of its memory and its level.
  struct Member {
    const lang::Annotation* memory;
    int level;
    int id;
  };

  const lang::Unit& unit_;
  const lang::ProgramDecl& program_;
  std::vector<IrNode> nodes_;
  std::vector<Member> members_;
  int next_branch_ = 1;
  bool failed_ = false;
  Error error_;
};

}  // namespace

std::uint32_t round_pow2(std::uint32_t size) noexcept {
  std::uint32_t p = 1;
  while (p < size) p <<= 1;
  return p;
}

Result<TranslatedProgram> translate(const lang::Unit& unit,
                                    const lang::ProgramDecl& program) {
  return Translator(unit, program).run();
}

}  // namespace p4runpro::rp
