#include "compiler/semcheck.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "dataplane/init_block.h"
#include "rmt/packet.h"

namespace p4runpro::rp {

namespace {

using lang::Argument;
using lang::Primitive;
using lang::PrimKind;

[[nodiscard, gnu::cold]] Error at_line(int line, std::string message) {
  return Error{std::move(message), "line " + std::to_string(line),
               ErrorCode::SemanticError};
}

/// Expected argument shapes. R = register, F = field, M = memory
/// identifier, I = integer.
[[nodiscard]] const char* signature(PrimKind kind) noexcept {
  switch (kind) {
    case PrimKind::Extract: return "FR";
    case PrimKind::Modify: return "FR";
    case PrimKind::Hash5Tuple: return "";
    case PrimKind::Hash: return "";
    case PrimKind::Hash5TupleMem: return "M";
    case PrimKind::HashMem: return "M";
    case PrimKind::Branch: return "";
    case PrimKind::MemAdd:
    case PrimKind::MemSub:
    case PrimKind::MemAnd:
    case PrimKind::MemOr:
    case PrimKind::MemRead:
    case PrimKind::MemWrite:
    case PrimKind::MemMax:
      return "M";
    case PrimKind::Loadi: return "RI";
    case PrimKind::Add:
    case PrimKind::And:
    case PrimKind::Or:
    case PrimKind::Max:
    case PrimKind::Min:
    case PrimKind::Xor:
    case PrimKind::Move:
    case PrimKind::Sub:
    case PrimKind::Equal:
    case PrimKind::Sgt:
    case PrimKind::Slt:
      return "RR";
    case PrimKind::Not: return "R";
    case PrimKind::Addi:
    case PrimKind::Andi:
    case PrimKind::Xori:
    case PrimKind::Subi:
      return "RI";
    case PrimKind::Forward: return "I";
    case PrimKind::Multicast: return "I";
    case PrimKind::Drop:
    case PrimKind::Return:
    case PrimKind::Report:
      return "";
  }
  return "";
}

/// Does an element of `items` before `end` carry `name`? Names are few, so
/// a scan beats building a set.
template <typename T>
[[nodiscard]] bool named(const std::vector<T>& items, std::size_t end, const std::string& name) {
  return std::any_of(items.begin(), items.begin() + static_cast<std::ptrdiff_t>(end),
                     [&name](const T& item) { return item.name == name; });
}

class Checker {
 public:
  Checker(const lang::Unit& unit, const lang::ProgramDecl& program)
      : unit_(unit), program_(program) {}

  Status run() {
    if (program_.filters.empty()) {
      return at_line(program_.line, "program '" + program_.name + "' needs a traffic filter");
    }
    for (const auto& filter : program_.filters) {
      const auto field = rmt::field_from_name(filter.field);
      if (!field) {
        return at_line(filter.line, "unknown field '" + filter.field + "' in filter");
      }
      if (!dp::filter_key_slot(*field)) {
        return at_line(filter.line,
                       "field '" + filter.field + "' cannot be used in a flow filter");
      }
    }
    return check_body(program_.body);
  }

 private:
  Status check_body(const std::vector<Primitive>& body) {
    for (const auto& prim : body) {
      if (auto s = check_primitive(prim); !s.ok()) return s;
    }
    return {};
  }

  Status check_primitive(const Primitive& prim) {
    if (prim.kind == PrimKind::Branch) return check_branch(prim);

    const std::string_view sig = signature(prim.kind);
    if (prim.args.size() != sig.size()) {
      return at_line(prim.line, std::string(lang::prim_name(prim.kind)) + " expects " +
                                    std::to_string(sig.size()) + " argument(s), got " +
                                    std::to_string(prim.args.size()));
    }
    for (std::size_t i = 0; i < sig.size(); ++i) {
      if (auto s = check_argument(prim, prim.args[i], sig[i]); !s.ok()) return s;
    }
    // Kind-specific extras.
    if (prim.kind == PrimKind::Modify) {
      const auto field = rmt::field_from_name(prim.args[0].text);
      if (field == rmt::FieldId::MetaIngressPort || field == rmt::FieldId::MetaQdepth) {
        return at_line(prim.line, "intrinsic metadata field '" + prim.args[0].text +
                                      "' is read-only");
      }
    }
    if (prim.kind == PrimKind::Forward && prim.args[0].value > 255) {
      return at_line(prim.line, "egress port out of range");
    }
    return {};
  }

  Status check_branch(const Primitive& prim) {
    if (prim.cases.empty()) {
      return at_line(prim.line, "BRANCH needs at least one case");
    }
    for (const auto& c : prim.cases) {
      if (c.conditions.empty()) {
        return at_line(c.line, "case needs at least one condition");
      }
      unsigned seen = 0;  // bit per register
      for (const auto& cond : c.conditions) {
        const unsigned bit = 1u << static_cast<unsigned>(cond.reg);
        if ((seen & bit) != 0) {
          return at_line(cond.line, std::string("duplicate condition on register ") +
                                        to_string(cond.reg));
        }
        seen |= bit;
      }
      if (auto s = check_body(c.body); !s.ok()) return s;
    }
    return {};
  }

  Status check_argument(const Primitive& prim, const Argument& arg, char expected) {
    auto prim_str = [&prim] { return std::string(lang::prim_name(prim.kind)); };
    switch (expected) {
      case 'R':
        if (arg.kind != Argument::Kind::Register) {
          return at_line(arg.line, prim_str() + ": expected a register argument");
        }
        return {};
      case 'I':
        if (arg.kind != Argument::Kind::Integer) {
          return at_line(arg.line, prim_str() + ": expected an integer argument");
        }
        return {};
      case 'F': {
        if (arg.kind != Argument::Kind::Field) {
          return at_line(arg.line, prim_str() + ": expected a header/metadata field");
        }
        if (!rmt::field_from_name(arg.text)) {
          return at_line(arg.line, "unknown field '" + arg.text + "'");
        }
        return {};
      }
      case 'M': {
        if (arg.kind != Argument::Kind::Identifier) {
          return at_line(arg.line, prim_str() + ": expected a memory identifier");
        }
        if (!named(unit_.annotations, unit_.annotations.size(), arg.text)) {
          return at_line(arg.line, "memory '" + arg.text + "' was not declared with '@'");
        }
        return {};
      }
      default:
        return at_line(arg.line, "internal: bad signature");
    }
  }

  const lang::Unit& unit_;
  const lang::ProgramDecl& program_;
};

}  // namespace

Status check_program(const lang::Unit& unit, const lang::ProgramDecl& program) {
  return Checker(unit, program).run();
}

Status check_unit(const lang::Unit& unit) {
  const auto& anns = unit.annotations;
  for (std::size_t i = 0; i < anns.size(); ++i) {
    const auto& ann = anns[i];
    // Sizes are rounded up to powers of two by the translator (mask-based
    // address translation; the round-up is the internal fragmentation §7
    // mentions — e.g. `@ port_pool 10` in the paper's lb program), so a
    // size above 2^31 has no 32-bit round-up.
    if (ann.size == 0) {
      return Error{"memory '" + ann.name + "' must have a non-zero size",
                   "line " + std::to_string(ann.line), ErrorCode::SemanticError};
    }
    if (ann.size > (1u << 31)) {
      return Error{"memory '" + ann.name + "' declares " + std::to_string(ann.size) +
                       " buckets, more than 2^31",
                   "line " + std::to_string(ann.line), ErrorCode::SemanticError};
    }
    if (named(anns, i, ann.name)) {
      return Error{"duplicate memory declaration '" + ann.name + "'",
                   "line " + std::to_string(ann.line), ErrorCode::SemanticError};
    }
  }
  for (std::size_t i = 0; i < unit.programs.size(); ++i) {
    const auto& prog = unit.programs[i];
    if (named(unit.programs, i, prog.name)) {
      return Error{"duplicate program name '" + prog.name + "'",
                   "line " + std::to_string(prog.line), ErrorCode::SemanticError};
    }
    if (auto s = check_program(unit, prog); !s.ok()) return s;
  }
  return {};
}

}  // namespace p4runpro::rp
