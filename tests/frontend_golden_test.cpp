// Front-end output pin: the token stream of `lang::lex` and every field of
// every `TranslatedProgram` that `rp::compile_source` returns (or the
// diagnostic of a rejected input, code, message and location) over a wide
// input set: the catalog and extension programs under three configurations,
// the on-disk corpus (the P4lite listing through `compile_p4lite`), 500
// seeded random programs, the rejected literals of the lexer, translate,
// edge-case and P4lite suites, one source per remaining diagnostic, every
// byte prefix of three catalog sources and 2,000 seeded single-byte edits
// of catalog sources.
//
// Each group of inputs folds into one line of tests/data/frontend_golden.txt
// (label, inputs, accepted inputs, tokens, IR nodes and a 64-bit FNV-1a hash
// of the full stream), so a rework of the lexer, parser, semantic checker or
// translation pass that changes any token, node or diagnostic names the
// group it changed.
//
// P4RUNPRO_FRONTEND_GOLDEN_OUT=<file> writes the computed table (regenerate
// it only for an intended change of the front end's output).
// P4RUNPRO_FRONTEND_DUMP=<file> writes the unhashed stream of every input,
// for diffing two builds.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "apps/program_library.h"
#include "common/rng.h"
#include "compiler/compiler.h"
#include "compiler/p4lite.h"
#include "lang/lexer.h"

#include "program_generator.h"

namespace p4runpro::rp {
namespace {

int n(auto value) { return static_cast<int>(value); }

void dump_program(std::ostream& out, const TranslatedProgram& p) {
  out << "program " << p.name << " depth=" << p.depth << " branches=" << p.num_branches << '\n';
  for (const auto& f : p.filters) {
    out << " filter " << n(f.field) << ' ' << f.value << ' ' << f.mask << '\n';
  }
  for (const auto& [vmem, size] : p.vmem_sizes) out << " vmem " << vmem << ' ' << size << '\n';
  for (const auto& node : p.nodes) {
    const IrOp& op = node.op;
    out << " node " << node.id << " b=" << node.branch << " d=" << node.depth << " op="
        << n(op.kind) << ' ' << n(op.field) << ' ' << n(op.reg0) << ' ' << n(op.reg1) << ' '
        << op.imm << ' ' << n(op.salu) << " vmem=" << op.vmem << " preds=";
    for (int pred : node.preds) out << pred << ',';
    for (const auto& rule : op.cases) {
      out << " case->" << rule.target << ':';
      for (const auto& c : rule.conditions) {
        out << '<' << n(c.reg) << ',' << c.value << ',' << c.mask << '@' << c.line << '>';
      }
    }
    out << '\n';
  }
  for (const auto& req : p.depth_reqs) {
    out << " req " << req.entries << ' ' << req.forwarding << ' ' << req.memory;
    for (const auto& vmem : req.vmems) out << ' ' << vmem;
    out << '\n';
  }
  for (const auto& [vmem, depths] : p.vmem_depths) {
    out << " levels " << vmem;
    for (int d : depths) out << ' ' << d;
    out << '\n';
  }
}

/// One group of inputs: its dump stream is hashed into a single golden row.
struct Group {
  std::string label;
  int inputs = 0;
  int accepted = 0;
  std::size_t tokens = 0;
  std::size_t nodes = 0;
  std::uint64_t hash = 14695981039346656037ull;  // FNV-1a 64
  std::ofstream* dump = nullptr;

  void fold(const std::string& text) {
    for (unsigned char ch : text) {
      hash ^= ch;
      hash *= 1099511628211ull;
    }
    if (dump != nullptr) *dump << text;
  }

  /// Lex and compile one DSL source.
  void add(const std::string& name, std::string_view source) {
    std::ostringstream out;
    out << "-- " << name << '\n';
    ++inputs;
    auto tokens = lang::lex(source);
    if (tokens.ok()) {
      this->tokens += tokens.value().size();
      for (const auto& t : tokens.value()) {
        out << "tok " << lang::token_kind_name(t.kind) << " '" << t.text << "' " << t.value
            << ' ' << t.line << ':' << t.column << '\n';
      }
    } else {
      out << "lex error " << tokens.error().str() << '\n';
    }
    auto compiled = compile_source(source);
    if (compiled.ok()) {
      ++accepted;
      for (const auto& p : compiled.value()) {
        nodes += p.nodes.size();
        dump_program(out, p);
      }
    } else {
      out << "error " << compiled.error().str() << '\n';
    }
    fold(out.str());
  }

  /// Translate P4lite source to DSL, then lex and compile the DSL.
  void add_p4lite(const std::string& name, std::string_view source) {
    auto dsl = compile_p4lite(source);
    if (dsl.ok()) return add(name, dsl.value());
    ++inputs;
    fold("-- " + name + "\np4lite error " + dsl.error().str() + '\n');
  }

  [[nodiscard]] std::string row() const {
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(hash));
    std::ostringstream out;
    out << label << " inputs=" << inputs << " ok=" << accepted << " tokens=" << tokens
        << " nodes=" << nodes << " hash=" << hex;
    return out.str();
  }
};

std::string catalog_source(const std::string& key, int config) {
  apps::ProgramConfig c;
  c.instance_name = key;
  if (config == 1) {
    c.mem_buckets = 1000;
    c.elastic_cases = 1;
  } else if (config == 2) {
    c.mem_buckets = 65536;
    c.elastic_cases = 8;
    c.filter_value = 4242;
  }
  return apps::make_program_source(key, c);
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::string chain_of(int ops) {
  std::string out = "program chain(<hdr.ipv4.proto, 17, 0xff>) {\n";
  for (int i = 0; i < ops; ++i) out += "  ADD(har, sar);\n";
  return out + "}\n";
}

/// Rejected literal inputs of lang_test, translate_test and edge_cases_test
/// (the last two are rejected by the controller, not the front end).
const std::vector<std::string> kRejectedDsl = {
    "10.0.0", "10.0.0.256", "1.2.3.4.5", "/* never closed", "0x100000000",
    "program p(<hdr.ipv4.src, 1, 0xff>) { BOGUS; }", "program p() { DROP; }", "@ mem 64",
    "program p(<hdr.ipv4.src, 1, 0xff>) { BRANCH: case(<foo, 1, 0xff>) { DROP; }; }",
    "program p(<hdr.ipv4.src, 1, 0xff>) { MEMADD(nope); }",
    "program p(<hdr.ipv4.src, 1, 0xff>) { LOADI(5, har); }",
    "program p(<hdr.ipv4.src, 1, 0xff>) { EXTRACT(hdr.bogus.x, har); }",
    "program p(<hdr.ipv4.src, 1, 0xff>) { MODIFY(meta.qdepth, har); }",
    "program p(<hdr.nc.op, 1, 0xff>) { DROP; }", chain_of(45),
    "program fresh(<hdr.ipv4.proto, 17, 0xff>) { FORWARD(1); }\n"
    "program taken(<hdr.ipv4.proto, 1, 0xff>) { FORWARD(2); }\n"};

/// One source per remaining diagnostic of the lexer, parser and semantic
/// checker, and literals at the edges of the integer and IPv4 grammars.
/// (A memory declaration above 2^31 buckets is left out: the translator
/// does not return on it.)
std::string prog(const std::string& body, const std::string& decls = "") {
  return decls + "program p(<hdr.ipv4.src, 1, 0xff>) { " + body + " }";
}
const std::vector<std::string> kDiagnostics = {
    prog("LOADI(har, 1.2.3.4.5a);"), prog("LOADI(har, 1.2.3.4.1234);"),
    prog("LOADI(har, 1..2.3);"), prog("LOADI(har, 255.255.255.255);"),
    prog("LOADI(har, 0x);"), prog("LOADI(har, 0b);"), prog("LOADI(har, 0b102);"),
    prog("LOADI(har, 0xfG);"), prog("LOADI(har, 08);"), prog("LOADI(har, 4294967296);"),
    prog("LOADI(har, 0B11);"), prog("LOADI(har, 0XAb);"), prog("LOADI(_x.y, 1);"),
    prog("BRANCH: case(<har, 1, 1>, <har, 2, 2>) { DROP; };"),
    prog("DROP;", "@ m 8\n@ m 16\n"), prog("DROP;", "@ m 0\n"),
    "program a(<hdr.ipv4.src, 1, 0xff>) { DROP; }\nprogram a(<hdr.ipv4.src, 2, 0xff>) { DROP; }",
    prog("LOADI(har);"), prog("FORWARD(256);"), prog("MODIFY(meta.ingress_port, har);"),
    prog("EXTRACT(foo, har);"), prog("MEMADD(hdr.ipv4.src);", "@ m 8\n"), prog("FORWARD(har);"),
    "program p(<hdr.bogus, 1, 0xff>) { DROP; }", prog("BRANCH: DROP;"),
    prog("BRANCH: case(<har, 1, 1>) { DROP; }"),
    prog("HASH_5_TUPLE_MEM(m); ANDI(mar, 7); MEMMAX(m); MEMREAD(m2);",
         "@ m 8\n@ m2 2147483648\n"),
    "@ m 8 @ n 9 program p(<hdr.ipv4.src, 1, 0xff>, <hdr.udp.dst_port, 2, 0xffff>) { MEMADD(n); }",
    "@", "@ m", "program", "program p", "program p(", "program p(<",
    "program p(<hdr.ipv4.src,", "/**/", "//", "/* a */ /", "\v\f\r\t", "x\n\n y", "\xc3\xa9",
    "program p(<hdr.ipv4.src, 1, 0xff>) { DROP; } $"};

/// Rejected literal inputs of p4lite_test.
const std::vector<std::string> kRejectedP4lite = {
    "program p on ipv4.proto == 17 { mar = hash5(nope); }",
    "program p on ipv4.proto == 17 { sar == 4; }",
    "memory m[8];\nprogram p on ipv4.proto == 17 { har = m[mar]; }", "memory m[8];",
    "program p on ipv4.proto == 17 {\n  sar = @;\n}"};

/// Bytes a single-byte edit draws from: letters, digits, whitespace, comment
/// and literal characters, every punctuation token, NUL and a byte above 0x7f.
const std::string kEditBytes =
    std::string("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
                "\t\r\n\v\f /*.xb_@(){}<>,;:\xe9") + '\0';

std::vector<Group> groups(std::ofstream* dump) {
  std::vector<Group> out;
  auto group = [&](std::string label, const std::function<void(Group&)>& fill) {
    Group g;
    g.label = std::move(label);
    g.dump = dump;
    if (dump != nullptr) *dump << "== " << g.label << '\n';
    fill(g);
    out.push_back(std::move(g));
  };
  auto programs = apps::program_catalog();
  for (const auto& info : apps::extension_catalog()) programs.push_back(info);
  for (int config = 0; config < 3; ++config) {
    for (const auto& info : programs) {
      group("catalog " + info.key + " config=" + std::to_string(config),
            [&](Group& g) { g.add(info.key, catalog_source(info.key, config)); });
    }
  }
  const auto corpus = std::filesystem::path(P4RUNPRO_SOURCE_DIR) / "programs";
  for (const char* file : {"cache.p4rp", "hh.p4rp", "lb.p4rp", "syn_guard.p4l"}) {
    group(std::string("corpus ") + file, [&](Group& g) {
      const std::string text = read_file(corpus / file);
      if (std::string_view(file).ends_with(".p4l")) return g.add_p4lite(file, text);
      g.add(file, text);
    });
  }
  for (int block = 0; block < 10; ++block) {
    group("random seeds " + std::to_string(block * 50) + ".." + std::to_string(block * 50 + 49),
          [&](Group& g) {
            for (int seed = block * 50; seed < block * 50 + 50; ++seed) {
              testutil::ProgramGenerator generator(static_cast<std::uint64_t>(seed));
              g.add("seed " + std::to_string(seed), generator.generate());
            }
          });
  }
  for (std::size_t i = 0; i < kRejectedDsl.size(); ++i) {
    group("rejected dsl " + std::to_string(i), [&](Group& g) { g.add("dsl", kRejectedDsl[i]); });
  }
  for (std::size_t i = 0; i < kDiagnostics.size(); ++i) {
    group("diagnostic " + std::to_string(i), [&](Group& g) { g.add("dsl", kDiagnostics[i]); });
  }
  for (std::size_t i = 0; i < kRejectedP4lite.size(); ++i) {
    group("rejected p4lite " + std::to_string(i),
          [&](Group& g) { g.add_p4lite("p4lite", kRejectedP4lite[i]); });
  }
  for (const char* key : {"cache", "hh", "hll"}) {
    group(std::string("prefixes ") + key, [&](Group& g) {
      const std::string source = catalog_source(key, 0);
      for (std::size_t len = 0; len <= source.size(); ++len) {
        g.add(std::to_string(len), std::string_view(source).substr(0, len));
      }
    });
  }
  Rng rng(2026);
  for (int block = 0; block < 10; ++block) {
    group("edits " + std::to_string(block * 200) + ".." + std::to_string(block * 200 + 199),
          [&](Group& g) {
            for (int i = 0; i < 200; ++i) {
              const auto& info = programs[rng.uniform(programs.size())];
              std::string source = catalog_source(info.key, static_cast<int>(rng.uniform(3)));
              const std::size_t at = rng.uniform(source.size());
              const char byte = kEditBytes[rng.uniform(kEditBytes.size())];
              const auto kind = rng.uniform(3);
              if (kind == 0) source[at] = byte;
              if (kind == 1) source.insert(at, 1, byte);
              if (kind == 2) source.erase(at, 1);
              g.add(info.key + " edit " + std::to_string(kind) + " at " + std::to_string(at),
                    source);
            }
          });
  }
  return out;
}

std::vector<std::string> read_lines(const std::filesystem::path& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line.front() != '#') lines.push_back(line);
  }
  return lines;
}

TEST(FrontendGolden, EveryInputMatchesTheGoldenStream) {
  std::ofstream dump;
  if (const char* dump_path = std::getenv("P4RUNPRO_FRONTEND_DUMP")) dump.open(dump_path);
  const auto computed = groups(dump.is_open() ? &dump : nullptr);
  std::vector<std::string> got;
  for (const auto& g : computed) got.push_back(g.row());

  if (const char* out_path = std::getenv("P4RUNPRO_FRONTEND_GOLDEN_OUT")) {
    std::ofstream out(out_path);
    out << "# input group -> inputs, accepted, tokens, IR nodes, FNV-1a of the stream\n";
    for (const auto& line : got) out << line << '\n';
  }

  const auto want = read_lines(std::filesystem::path(P4RUNPRO_SOURCE_DIR) / "tests" / "data" /
                               "frontend_golden.txt");
  ASSERT_EQ(want.size(), got.size()) << "golden table has a different number of rows";
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(want[i], got[i]) << "group '" << computed[i].label << "' changed";
  }
}

}  // namespace
}  // namespace p4runpro::rp
