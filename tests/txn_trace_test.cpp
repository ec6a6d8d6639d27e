// Transaction trace pin: the observable stream a deploy transaction leaves
// behind — every span (tree, name, args, virtual window, trace id), every
// monitor event, every audit event, each operation's outcome and the final
// virtual clock — over a grid of control operations. Each operation runs
// once clean and then with one channel fault at a spread of (hop, write
// index) points, on one switch and on a 3-hop chain, through the serial and
// the async channel. Three scenarios drive ChainTransaction directly: a
// reserve that fails on one hop, a staged transaction that is dropped, and
// one dropped before staging.
//
// Each scenario folds into one line of tests/data/txn_trace_golden.txt
// (label, span / monitor-event / audit-event counts, final clock in ns and
// a 64-bit FNV-1a hash of the full stream), so a rework of the transaction
// layer that moves any span, event or virtual instant names the scenario it
// changed. Wall-clock span fields are left out; the allocation charge is
// fixed, so every figure is virtual time.
//
// P4RUNPRO_TXN_GOLDEN_OUT=<file> writes the computed table (regenerate it
// only for an intended change of the stream). P4RUNPRO_TXN_TRACE_DUMP=<file>
// writes the unhashed stream of every scenario, for diffing two builds.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/program_library.h"
#include "common/clock.h"
#include "common/result.h"
#include "compiler/compiler.h"
#include "compiler/solver.h"
#include "control/controller.h"
#include "dataplane/runpro_dataplane.h"
#include "dataplane/switch_chain.h"
#include "obs/telemetry.h"

namespace p4runpro {
namespace {

constexpr int kChainHops = 3;
/// Fault points per (operation, hop), each in a different batch of some
/// operation: an hh link writes recirc (0), RPB entries (1-29) and filters
/// (30); a cache relink writes the carry-over (0), its install (1-18) and
/// then retires the old version (19-37); a cache revoke deletes filters
/// (0), RPB entries (1-16) and recirc (17), then resets memory (18). At 39
/// every operation completes.
constexpr int kWriteIndices[] = {0, 1, 17, 18, 30, 37, 39};

dp::DataplaneSpec spec(int hops) {
  dp::DataplaneSpec spec;
  spec.memory_per_rpb = 4096;
  spec.entries_per_rpb = 256;
  spec.max_recirculations = hops == 1 ? 1 : hops - 1;
  return spec;
}

std::string source(const std::string& key, const std::string& name,
                   std::uint32_t mem_buckets = 64) {
  apps::ProgramConfig config;
  config.instance_name = name;
  config.mem_buckets = mem_buckets;
  return apps::make_program_source(key, config);
}

/// One switch or a chain, with the telemetry bundle the stream is read from.
struct Bed {
  SimClock clock;
  obs::Telemetry telemetry;
  std::unique_ptr<dp::RunproDataplane> dataplane;
  std::unique_ptr<dp::SwitchChain> chain;
  std::unique_ptr<ctrl::Controller> controller;

  Bed(int hops, bool async) {
    const rmt::ParserConfig parser{{7777}};
    if (hops == 1) {
      dataplane = std::make_unique<dp::RunproDataplane>(spec(1), parser);
      controller = std::make_unique<ctrl::Controller>(*dataplane, clock, rp::Objective{},
                                                      ctrl::BfrtCostModel{}, &telemetry);
    } else {
      chain = std::make_unique<dp::SwitchChain>(hops, spec(hops), parser);
      controller = std::make_unique<ctrl::Controller>(*chain, clock, rp::Objective{},
                                                      ctrl::BfrtCostModel{}, &telemetry);
    }
    controller->set_fixed_alloc_charge_ms(1.0);
    controller->set_async_writes(async);
  }

  dp::RunproDataplane& switch_at(int hop) {
    return chain ? chain->switch_at(hop) : *dataplane;
  }
};

enum class Op { LinkSingle, Relink, Revoke, Session, ReserveFail, DropStaged, DropUnstaged };

const char* op_name(Op op) {
  switch (op) {
    case Op::LinkSingle: return "link_single";
    case Op::Relink: return "relink";
    case Op::Revoke: return "revoke";
    case Op::Session: return "link_session";
    case Op::ReserveFail: return "reserve_fail";
    case Op::DropStaged: return "drop_staged";
    case Op::DropUnstaged: return "drop_unstaged";
  }
  return "?";
}

struct Scenario {
  int hops = 1;
  bool async = false;
  bool clean = false;  ///< the unfaulted sequence of every operation
  Op op = Op::LinkSingle;
  int fault_hop = -1;  ///< -1: no fault armed
  int fault_write = -1;

  [[nodiscard]] std::string label() const {
    std::ostringstream out;
    out << "hops=" << hops << (async ? " async " : " serial ");
    if (clean) {
      out << "clean";
    } else {
      out << op_name(op);
      if (fault_hop >= 0) out << " fault=" << fault_hop << '@' << fault_write;
    }
    return out.str();
  }
};

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;
  for (int hops : {1, kChainHops}) {
    for (bool async : {false, true}) {
      out.push_back(Scenario{hops, async, true});
      for (Op op : {Op::ReserveFail, Op::DropStaged, Op::DropUnstaged}) {
        out.push_back(Scenario{hops, async, false, op});
      }
      for (Op op : {Op::LinkSingle, Op::Relink, Op::Revoke, Op::Session}) {
        for (int hop = 0; hop < hops; ++hop) {
          for (int write : kWriteIndices) {
            out.push_back(Scenario{hops, async, false, op, hop, write});
          }
        }
      }
    }
  }
  return out;
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void outcome(std::ostringstream& out, const char* what, const Status& s) {
  out << "op " << what << ' ' << (s.ok() ? std::string("ok") : s.error().str()) << '\n';
}

void outcome(std::ostringstream& out, const char* what, const Result<ctrl::LinkResult>& r) {
  if (!r.ok()) {
    out << "op " << what << ' ' << r.error().str() << '\n';
    return;
  }
  const auto& v = r.value();
  out << "op " << what << " ok id=" << v.id << " name=" << v.name << " trace=" << v.trace
      << " parse=" << num(v.stats.parse_ms) << " alloc=" << num(v.stats.alloc_ms)
      << " update=" << num(v.stats.update_ms) << '\n';
}

/// Drive ChainTransaction directly on the bed's hops: a reserve starved on
/// the last hop (the middle one of a chain, so a hop after it never
/// reserves), or a transaction dropped after or before staging.
void direct_transaction(Bed& bed, int hops, Op op, std::ostringstream& out) {
  auto compiled = rp::compile_source(source("hh", "hh_direct"), nullptr);
  ASSERT_TRUE(compiled.ok());
  const rp::TranslatedProgram& ir = compiled.value().front();
  std::vector<rp::AllocationResult> allocs;
  std::vector<ctrl::ChainHop> contexts;
  for (int h = 0; h < hops; ++h) {
    auto alloc = rp::solve_allocation(ir, bed.switch_at(h).spec(),
                                      bed.controller->resources(h).snapshot(),
                                      rp::Objective{});
    ASSERT_TRUE(alloc.ok());
    allocs.push_back(std::move(alloc).take());
    contexts.push_back(ctrl::ChainHop{&bed.switch_at(h), &bed.controller->resources(h),
                                      &bed.controller->updates(h)});
  }
  if (op == Op::ReserveFail) {
    auto& starved = bed.controller->resources(hops == 1 ? 0 : 1);
    const auto free_entries = starved.snapshot().free_entries;
    for (std::size_t i = 0; i < free_entries.size(); ++i) {
      ASSERT_TRUE(starved.reserve_entries(static_cast<int>(i) + 1, free_entries[i]).ok());
    }
  }
  ctrl::ChainTransaction txn(contexts, ir, std::move(allocs.front()), 99, 7, 0,
                             &bed.telemetry);
  if (op != Op::DropUnstaged) {
    const Status staged = txn.stage_all();
    outcome(out, op_name(op), staged);
    out << "txn phase=" << static_cast<int>(txn.phase())
        << " faulted_hop=" << txn.faulted_hop() << " ops=" << txn.total_staged_ops() << '\n';
  }
}

void run_op(Bed& bed, Op op, ProgramId base, std::ostringstream& out) {
  ctrl::Controller& c = *bed.controller;
  switch (op) {
    case Op::LinkSingle:
      outcome(out, "link_single", c.link_single(source("hh", "hh")));
      break;
    case Op::Relink:
      outcome(out, "relink", c.relink(base, source("cache", "cache", 128)));
      break;
    case Op::Revoke:
      outcome(out, "revoke", c.revoke(base));
      break;
    case Op::Session:
      outcome(out, "link_session", c.link_session(ctrl::SessionSpec{source("hh", "hh"), 0}));
      break;
    default:
      break;
  }
}

void serialise(const Bed& bed, std::ostringstream& out) {
  for (const auto& s : bed.telemetry.tracer.spans()) {
    out << "span p=" << s.parent << " d=" << s.depth << ' ' << s.name << ' ' << s.cat
        << " trace=" << s.trace << " [" << s.start_vns << ',' << s.end_vns << "] open=" << s.open;
    for (const auto& [k, v] : s.args) out << ' ' << k << '=' << v;
    out << '\n';
  }
  for (const auto& e : bed.telemetry.monitor.events()) {
    out << "mon " << e.seq << " kind=" << static_cast<int>(e.kind) << " t=" << num(e.t_ms)
        << " prog=" << e.program << " name=" << e.program_name << " rule=" << e.rule
        << " detail=" << e.detail << " value=" << num(e.value) << " threshold="
        << num(e.threshold) << " rpb=" << e.rpb << " entries=" << e.entries
        << " hops=" << e.hops << " faulted_hop=" << e.faulted_hop << " trace=" << e.trace
        << " series=" << e.series << " tenant=" << e.tenant << " old=" << e.old_program
        << " gain=" << e.gain << '\n';
  }
  for (const auto& e : bed.controller->events()) {
    out << "ctl kind=" << static_cast<int>(e.kind) << " t=" << num(e.t_ms) << " id=" << e.id
        << " name=" << e.name << " detail=" << e.detail << '\n';
  }
  out << "clock " << bed.clock.now_ns() << '\n';
}

struct ScenarioRun {
  std::string stream;
  std::string row;
};

ScenarioRun run(const Scenario& s) {
  ScenarioRun result;
  std::ostringstream out;
  {
    Bed bed(s.hops, s.async);
    ctrl::Controller& c = *bed.controller;
    auto base = c.link_single(source("cache", "cache"));
    outcome(out, "base", base);
    EXPECT_TRUE(base.ok()) << s.label();
    if (!base.ok()) return result;
    const ProgramId base_id = base.value().id;

    if (s.clean) {
      auto hh = c.link_single(source("hh", "hh"));
      outcome(out, "link_single", hh);
      auto session = c.link_session(ctrl::SessionSpec{source("hh", "hh_session"), 0});
      outcome(out, "link_session", session);
      outcome(out, "relink", c.relink(base_id, source("cache", "cache", 128)));
      if (hh.ok()) outcome(out, "revoke", c.revoke(hh.value().id));
      if (session.ok()) outcome(out, "revoke", c.revoke(session.value().id));
    } else if (s.fault_hop < 0) {
      direct_transaction(bed, s.hops, s.op, out);
    } else {
      c.updates(s.fault_hop).set_fault_after_writes(s.fault_write);
      run_op(bed, s.op, base_id, out);
      c.updates(s.fault_hop).set_fault_after_writes(-1);
      // The books after the operation (committed or rolled back) decide
      // the next deploy's id, placements and channel time.
      outcome(out, "after", c.link_single(source("hh", "hh_after")));
    }
    serialise(bed, out);

    std::uint64_t hash = 14695981039346656037ull;  // FNV-1a 64
    result.stream = out.str();
    for (unsigned char ch : result.stream) {
      hash ^= ch;
      hash *= 1099511628211ull;
    }
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(hash));
    std::ostringstream row;
    row << s.label() << " spans=" << bed.telemetry.tracer.spans().size()
        << " mon=" << bed.telemetry.monitor.events().size()
        << " ctl=" << c.events().size() << " clock=" << bed.clock.now_ns() << " hash=" << hex;
    result.row = row.str();
  }
  return result;
}

std::vector<std::string> read_lines(const std::filesystem::path& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line.front() != '#') lines.push_back(line);
  }
  return lines;
}

TEST(TxnTrace, EveryScenarioMatchesTheGoldenStream) {
  std::vector<std::string> got;
  std::ofstream dump;
  if (const char* dump_path = std::getenv("P4RUNPRO_TXN_TRACE_DUMP")) dump.open(dump_path);
  for (const Scenario& s : scenarios()) {
    const ScenarioRun r = run(s);
    if (dump.is_open()) dump << "== " << s.label() << '\n' << r.stream;
    got.push_back(r.row);
  }

  if (const char* out_path = std::getenv("P4RUNPRO_TXN_GOLDEN_OUT")) {
    std::ofstream out(out_path);
    out << "# scenario -> spans, monitor events, audit events, final clock (ns), "
           "FNV-1a of the stream\n";
    for (const auto& line : got) out << line << '\n';
  }

  const auto want = read_lines(std::filesystem::path(P4RUNPRO_SOURCE_DIR) / "tests" / "data" /
                               "txn_trace_golden.txt");
  ASSERT_EQ(want.size(), got.size()) << "golden table has a different number of rows";
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(want[i], got[i]) << "scenario '" << scenarios()[i].label() << "' changed";
  }
}

}  // namespace
}  // namespace p4runpro
