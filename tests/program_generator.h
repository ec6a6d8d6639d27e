// Seeded generator of valid random P4runpro programs, shared by the
// random-program differential fuzzer and the front-end golden table.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace p4runpro::testutil {

/// Generates a valid random program. Memory addressing is always clamped
/// in-program (ANDI with size-1 right before each memory op) so the
/// programmer contract of §4.1.2 holds by construction.
class ProgramGenerator {
 public:
  explicit ProgramGenerator(std::uint64_t seed) : rng_(seed) {}

  std::string generate() {
    out_.str("");
    mem_count_ = 1 + static_cast<int>(rng_.uniform(2));
    for (int m = 0; m < mem_count_; ++m) {
      sizes_.push_back(16u << rng_.uniform(3));  // 16/32/64
      out_ << "@ m" << m << " " << sizes_.back() << "\n";
    }
    out_ << "program fuzz(<hdr.ipv4.proto, 17, 0xff>) {\n";
    emit_sequence(4 + static_cast<int>(rng_.uniform(6)), 0);
    out_ << "}\n";
    return out_.str();
  }

 private:
  const char* reg(int i) const { return i == 0 ? "har" : i == 1 ? "sar" : "mar"; }
  const char* random_reg() { return reg(static_cast<int>(rng_.uniform(3))); }

  void emit_sequence(int length, int depth) {
    for (int i = 0; i < length; ++i) {
      const double roll = rng_.uniform01();
      if (roll < 0.12 && depth < 2) {
        emit_branch(depth);
        return;  // trailing primitives after a branch end the sequence here
      }
      if (roll < 0.32) {
        emit_memory_op();
      } else {
        emit_stateless_op();
      }
    }
    if (depth == 0 && rng_.uniform01() < 0.6) {
      const char* kTerminal[] = {"DROP;", "RETURN;", "REPORT;", "FORWARD(3);",
                                 "MULTICAST(1);"};
      out_ << "  " << kTerminal[rng_.uniform(5)] << "\n";
    }
  }

  void emit_stateless_op() {
    switch (rng_.uniform(9)) {
      case 0:
        out_ << "  EXTRACT(hdr.ipv4.src, " << random_reg() << ");\n";
        break;
      case 1:
        out_ << "  EXTRACT(hdr.ipv4.len, " << random_reg() << ");\n";
        break;
      case 2:
        out_ << "  LOADI(" << random_reg() << ", " << rng_.uniform(1000) << ");\n";
        break;
      case 3: {
        const char* kAlu[] = {"ADD", "AND", "OR", "MAX", "MIN", "XOR"};
        out_ << "  " << kAlu[rng_.uniform(6)] << "(" << random_reg() << ", "
             << random_reg() << ");\n";
        break;
      }
      case 4: {
        const char* kPseudo[] = {"MOVE", "SUB", "EQUAL", "SGT", "SLT"};
        const int a = static_cast<int>(rng_.uniform(3));
        const int b = static_cast<int>(rng_.uniform(3));
        out_ << "  " << kPseudo[rng_.uniform(5)] << "(" << reg(a) << ", " << reg(b)
             << ");\n";
        break;
      }
      case 5: {
        const char* kImm[] = {"ADDI", "SUBI", "ANDI", "XORI"};
        out_ << "  " << kImm[rng_.uniform(4)] << "(" << random_reg() << ", "
             << rng_.uniform(5000) << ");\n";
        break;
      }
      case 6:
        out_ << "  NOT(" << random_reg() << ");\n";
        break;
      case 7:
        out_ << "  HASH_5_TUPLE;\n";
        break;
      default:
        out_ << "  MODIFY(hdr.ipv4.dscp, " << random_reg() << ");\n";
        break;
    }
  }

  void emit_memory_op() {
    const int m = static_cast<int>(rng_.uniform(static_cast<std::uint64_t>(mem_count_)));
    // Address setup: hashed or loaded, then clamped to the block.
    if (rng_.uniform01() < 0.5) {
      out_ << "  HASH_5_TUPLE_MEM(m" << m << ");\n";
    } else {
      out_ << "  LOADI(mar, " << rng_.uniform(sizes_[static_cast<std::size_t>(m)])
           << ");\n";
    }
    out_ << "  ANDI(mar, " << (sizes_[static_cast<std::size_t>(m)] - 1) << ");\n";
    const char* kMem[] = {"MEMADD", "MEMSUB", "MEMAND", "MEMOR",
                          "MEMREAD", "MEMWRITE", "MEMMAX"};
    out_ << "  " << kMem[rng_.uniform(7)] << "(m" << m << ");\n";
  }

  void emit_branch(int depth) {
    out_ << "  BRANCH:\n";
    const int cases = 1 + static_cast<int>(rng_.uniform(3));
    for (int c = 0; c < cases; ++c) {
      const Word value = static_cast<Word>(rng_.uniform(4));
      const Word mask = rng_.uniform01() < 0.5 ? 0x3u : 0xffffffffu;
      out_ << "  case(<" << random_reg() << ", " << value << ", 0x" << std::hex
           << mask << std::dec << ">) {\n";
      emit_sequence(1 + static_cast<int>(rng_.uniform(3)), depth + 1);
      out_ << "  };\n";
    }
    // Trailing primitives (replicated into non-terminal cases).
    emit_sequence(1 + static_cast<int>(rng_.uniform(2)), depth + 1);
  }

  Rng rng_;
  std::ostringstream out_;
  int mem_count_ = 0;
  std::vector<std::uint32_t> sizes_;
};

}  // namespace p4runpro::testutil
