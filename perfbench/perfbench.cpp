// End-to-end and per-layer benchmark for the P4runpro simulator.
//
//   perfbench --workload <deploy_churn|packet_mix|churn_under_traffic|chain_churn>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Every workload runs in the default configuration: controller attached,
// health monitor on (it is the master pipe's packet observer), programs
// drawn from the built-in catalog. All inputs (program mix, instance names,
// filters, packet trace) are derived from --seed.
//
// --trace 0 measures the end-to-end metrics. --trace 1 is a separate run
// that times each layer from outside the program: the benchmark calls the
// layers' public functions itself (lang::lex, lang::parse, rp::check_unit,
// rp::translate, rp::solve_allocation, rp::generate_entries,
// rmt::Parser::parse, the dp::TableSnapshot constructor, inject_batch) and
// reads the registry counters and histograms the program already keeps.
// Virtual-time figures (the calibrated bfrt channel model, unit "vms") and
// host wall-clock figures are reported side by side, never combined.
//
// The gated end-to-end timings are host-scaled: wall time multiplied by how
// much slower than nominal a fixed probe of the benchmark's own ran on the
// same thread right then (see SpeedProbe). The unscaled wall-clock figures
// are printed beside them.
//
// stdout: one "name value unit" line per figure, then, as the last line, one
// JSON object {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// The exit code is 1 when a correctness check fails.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "apps/program_library.h"
#include "common/clock.h"
#include "common/rng.h"
#include "compiler/entrygen.h"
#include "compiler/semcheck.h"
#include "compiler/solver.h"
#include "compiler/translate.h"
#include "control/chain_controller.h"
#include "control/controller.h"
#include "dataplane/runpro_dataplane.h"
#include "dataplane/snapshot_hub.h"
#include "dataplane/switch_chain.h"
#include "dataplane/table_snapshot.h"
#include "lang/lexer.h"
#include "lang/parser.h"
#include "obs/monitor.h"
#include "obs/telemetry.h"
#include "traffic/flowgen.h"

namespace {

using namespace p4runpro;
using Clock = std::chrono::steady_clock;

// --- small utilities -------------------------------------------------------

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

Clock::time_point after_seconds(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

/// Keeps a computed value alive so the optimizer cannot drop the work.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Nearest-rank q-quantile of `values`, which it sorts; 0 when empty.
double nearest_rank(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// --- host speed ------------------------------------------------------------

/// Which probe scales a timing: the one whose instruction mix is closest to
/// the operation timed.
enum class ProbeKind {
  kControl,  // hashed lookups and string formatting, as compiling and linking
  kPacket,   // first-match ternary lookups, as the match-action stages
};

/// Fixed pieces of work of the benchmark's own. The program under test
/// never runs them, so only the host can change their time. Other tenants
/// of a shared host slow a process down by up to 2x, in phases from a
/// fraction of a second to several runs long; a probe run on the same thread
/// next to the timed operations slows down with them, and the gated timings
/// are scaled by it.
class SpeedProbe {
 public:
  static SpeedProbe& instance() {
    static SpeedProbe probe;
    return probe;
  }

  /// Host speed now, as the probe's nominal time over its measured time
  /// (the median of three passes): a time multiplied by it is the time the
  /// same work takes on the reference host when that host is quiet. The
  /// reference is a 4-vCPU Xeon (Sapphire Rapids) KVM guest.
  double factor(ProbeKind kind) {
    std::vector<double> passes = {run_us(kind), run_us(kind), run_us(kind)};
    const double us = nearest_rank(passes, 0.5);
    const std::lock_guard<std::mutex> lock(mu_);
    probe_us_[index(kind)].push_back(us);
    return kNominalUs[index(kind)] / us;
  }

  /// Median probe time of the run so far, in microseconds; 0 when unused.
  double median_us(ProbeKind kind) {
    const std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> values = probe_us_[index(kind)];
    return nearest_rank(values, 0.5);
  }

  /// Memory the probe's tables hold, in MiB.
  [[nodiscard]] double table_mb() const {
    const std::size_t words = near_.slots.size() + far_.slots.size();
    return static_cast<double>(words * sizeof(std::uint64_t)) / (1024.0 * 1024.0);
  }

 private:
  static constexpr double kNominalUs[2] = {145.0, 125.0};

  static std::size_t index(ProbeKind kind) { return kind == ProbeKind::kControl ? 0 : 1; }

  static std::uint64_t mix(std::uint64_t& x) {  // splitmix64 step
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  /// Open-addressing hash set of random odd keys, half full.
  struct KeySet {
    std::vector<std::uint64_t> slots;

    explicit KeySet(std::size_t size) : slots(size, 0) {
      std::uint64_t x = size;
      for (std::size_t i = 0; i < size / 2; ++i) {
        const std::uint64_t key = mix(x) | 1;
        std::size_t at = key & (size - 1);
        while (slots[at] != 0) at = (at + 1) & (size - 1);
        slots[at] = key;
      }
    }

    /// Looks up `count` keys, every other one present.
    [[nodiscard]] std::uint64_t probe(int count) const {
      const std::size_t mask = slots.size() - 1;
      std::uint64_t x = slots.size();
      std::uint64_t acc = 0;
      for (int i = 0; i < count; ++i) {
        const std::uint64_t key = (mix(x) | 1) + (i % 2 == 0 ? 0 : 2);
        std::size_t at = key & mask;
        while (slots[at] != 0 && slots[at] != key) at = (at + 1) & mask;
        acc += slots[at] == key ? at : 1;
      }
      return acc;
    }
  };

  /// Headers of four 32-bit fields sent through eight stages, each taking
  /// the first of its entries whose masked fields match and rewriting a
  /// field by it.
  struct TernaryStages {
    static constexpr std::size_t kHeaders = 256;
    static constexpr std::size_t kEntries = 48;
    static constexpr int kStages = 8;
    std::vector<std::uint32_t> headers, values, masks;

    TernaryStages() {
      std::uint64_t x = 7;
      for (std::size_t i = 0; i < kHeaders * 4; ++i) {
        headers.push_back(static_cast<std::uint32_t>(mix(x)));
      }
      for (std::size_t e = 0; e < kEntries; ++e) {
        for (std::size_t f = 0; f < 4; ++f) {
          const std::uint32_t m = e % 4 == f ? 0x3u << (e % 30) : 0u;
          masks.push_back(m);
          values.push_back(static_cast<std::uint32_t>(mix(x)) & m);
        }
      }
    }

    [[nodiscard]] std::uint64_t run() const {
      std::uint64_t acc = 0;
      for (std::size_t h = 0; h < kHeaders; ++h) {
        std::uint32_t f[4] = {headers[h * 4], headers[h * 4 + 1], headers[h * 4 + 2],
                              headers[h * 4 + 3]};
        for (int stage = 0; stage < kStages; ++stage) {
          for (std::size_t e = 0; e < kEntries; ++e) {
            const std::uint32_t* v = &values[e * 4];
            const std::uint32_t* m = &masks[e * 4];
            if ((f[0] & m[0]) == v[0] && (f[1] & m[1]) == v[1] && (f[2] & m[2]) == v[2] &&
                (f[3] & m[3]) == v[3]) {
              f[stage % 4] ^= static_cast<std::uint32_t>(e * 2654435761u);
              acc += e;
              break;
            }
          }
        }
      }
      return acc;
    }
  };

  static constexpr int kNearLookups = 8192;  // 256 KiB set: the L2 cache
  static constexpr int kFarLookups = 2048;   // 8 MiB set: shared cache and memory
  static constexpr int kStrings = 384;
  static constexpr int kStagePasses = 16;

  SpeedProbe() : near_(1u << 15), far_(1u << 20) {}

  double run_us(ProbeKind kind) const {
    const auto t0 = Clock::now();
    std::uint64_t acc = 0;
    if (kind == ProbeKind::kPacket) {
      for (int i = 0; i < kStagePasses; ++i) acc += stages_.run();
    } else {
      acc = near_.probe(kNearLookups) + far_.probe(kFarLookups);
      for (int i = 0; i < kStrings; ++i) {
        auto text = std::make_unique<std::string>("prog_" + std::to_string(acc + i) + "_" +
                                                  std::to_string(i));
        acc += text->size() + static_cast<std::uint64_t>(text->find('_', 5));
      }
    }
    keep(acc);
    return us_between(t0, Clock::now());
  }

  KeySet near_, far_;
  TernaryStages stages_;
  std::mutex mu_;
  std::vector<double> probe_us_[2];
};

constexpr std::size_t kReservoir = 1u << 14;

/// Samples of one quantity in bounded memory, so that a run completing more
/// operations does not hold more memory (peak RSS is a gated metric). Count,
/// sum and max are exact. Whole-run quantiles come from a uniform reservoir
/// of up to kReservoir values, exact below that.
///
/// Samples made with a block size also give the gated, host-scaled figures:
/// each block of consecutive values is reduced, as it completes, to its
/// median and 75th percentile, both multiplied by the host speed factor the
/// probe measures right then, on the same thread. The figure is the median
/// over blocks.
class Samples {
 public:
  Samples() = default;
  Samples(std::size_t block, ProbeKind kind) : block_size_(block), kind_(kind) {}

  void add(double v) {
    max_ = count_ == 0 ? v : std::max(max_, v);
    ++count_;
    sum_ += v;
    if (reservoir_.size() < kReservoir) {
      reservoir_.push_back(v);
    } else if (const std::uint64_t slot = rng_.uniform(count_); slot < kReservoir) {
      reservoir_[slot] = v;
    }
    if (block_size_ == 0) return;
    block_.push_back(v);
    if (block_.size() == block_size_) {
      const double p50 = nearest_rank(block_, 0.5);
      const double p75 = nearest_rank(block_, 0.75);
      const double factor = SpeedProbe::instance().factor(kind_);
      block_p50_.push_back(p50 * factor);
      block_p75_.push_back(p75 * factor);
      block_.clear();
    }
  }

  /// Pools `other` into these samples: complete blocks are kept, and the
  /// reservoirs merge in proportion to the counts they stand for.
  void append(const Samples& other) {
    block_p50_.insert(block_p50_.end(), other.block_p50_.begin(), other.block_p50_.end());
    block_p75_.insert(block_p75_.end(), other.block_p75_.begin(), other.block_p75_.end());
    const bool exact = reservoir_.size() == count_ && other.reservoir_.size() == other.count_;
    if (exact && count_ + other.count_ <= kReservoir) {
      reservoir_.insert(reservoir_.end(), other.reservoir_.begin(), other.reservoir_.end());
    } else {
      const double from_this =
          static_cast<double>(count_) / static_cast<double>(count_ + other.count_);
      std::vector<double> merged;
      merged.reserve(kReservoir);
      for (std::size_t i = 0; i < kReservoir; ++i) {
        const auto& from = rng_.uniform01() < from_this ? reservoir_ : other.reservoir_;
        merged.push_back(from[rng_.uniform(from.size())]);
      }
      reservoir_ = std::move(merged);
    }
    if (other.count_ > 0) max_ = count_ == 0 ? other.max_ : std::max(max_, other.max_);
    count_ += other.count_;
    sum_ += other.sum_;
  }

  void clear() { *this = Samples(block_size_, kind_); }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] double quantile(double q) const {
    std::vector<double> values = reservoir_;
    return nearest_rank(values, q);
  }
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  [[nodiscard]] double max() const noexcept { return max_; }

  /// Host-scaled median and 75th percentile: the median over blocks of each
  /// block's scaled quantile; 0 before the first block completes.
  [[nodiscard]] double scaled_p50() const { return median_of(block_p50_); }
  [[nodiscard]] double scaled_p75() const { return median_of(block_p75_); }
  [[nodiscard]] std::size_t blocks() const noexcept { return block_p50_.size(); }

 private:
  static double median_of(std::vector<double> values) { return nearest_rank(values, 0.5); }

  std::size_t block_size_ = 0;
  ProbeKind kind_ = ProbeKind::kControl;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
  std::vector<double> reservoir_;
  Rng rng_{1};
  std::vector<double> block_;
  std::vector<double> block_p50_, block_p75_;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports. `gated` is the benchmark's end-to-end set
/// (the same names on every workload, the JSON metrics of an untraced
/// run); `named` holds the workload-specific end-to-end figures and input
/// properties printed in the table; `layers` the per-layer figures of a
/// traced run (the JSON metrics of a traced run). check() may be called
/// from client threads; everything else only from the main thread.
struct Report {
  std::atomic<bool> correct{true};
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> gated;
  std::vector<Metric> named;
  std::vector<Metric> layers;

  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct.store(false);
      std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    layers.push_back({name, value, unit});
  }
  void note(const std::string& name, double value, const std::string& unit) {
    named.push_back({name, value, unit});
  }
  void gate(const std::string& name, double value, const std::string& unit) {
    check(value > 0.0, "end-to-end metric " + name + " has no measurement");
    gated.push_back({name, value, unit});
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// --- inputs ----------------------------------------------------------------

rmt::ParserConfig parser_config() { return rmt::ParserConfig{{7777, 7788, 9999, 5555}}; }

/// Catalog keys whose templates take a filter override (UDP port or IPv4
/// prefix): the only ones whose instances can be kept off the packet trace.
const std::vector<std::string>& port_keys() {
  static const std::vector<std::string> keys = {"cache", "nc", "dqacc", "calculator"};
  return keys;
}
const std::vector<std::string>& prefix_keys() {
  static const std::vector<std::string> keys = {"lb", "hh", "cms", "bf", "sumax", "hll"};
  return keys;
}

bool is_port_key(const std::string& key) {
  const auto& keys = port_keys();
  return std::find(keys.begin(), keys.end(), key) != keys.end();
}

std::vector<std::string> all_catalog_keys() {
  std::vector<std::string> keys;
  for (const auto& info : apps::program_catalog()) keys.push_back(info.key);
  return keys;
}

std::vector<std::string> off_trace_keys() {
  std::vector<std::string> keys = port_keys();
  keys.insert(keys.end(), prefix_keys().begin(), prefix_keys().end());
  return keys;
}

/// Catalog programs a 3-hop chain accepts (no memory touched in two rounds).
std::vector<std::string> chain_keys() {
  return {"bf", "cache", "calculator", "cms", "ecn", "firewall",
          "hh", "hll", "l2", "l3", "sumax", "tunnel"};
}

/// Seeded stream of single-program sources with unique instance names. Keys
/// come in rounds, each a seeded permutation of `keys`, so every seed draws
/// the same mix and only its order differs. With `off_trace`, every instance
/// gets a filter no packet of the trace matches (UDP ports from 20000, IPv4
/// prefixes 10.100/16 .. 10.239/16).
class SourceGen {
 public:
  SourceGen(std::vector<std::string> keys, std::string prefix, std::uint64_t seed,
            bool off_trace)
      : keys_(std::move(keys)), prefix_(std::move(prefix)), rng_(seed),
        off_trace_(off_trace) {}

  std::string next() {
    if (round_.empty()) {
      round_ = keys_;
      for (std::size_t i = round_.size(); i > 1; --i) {
        std::swap(round_[i - 1], round_[rng_.uniform(i)]);
      }
    }
    const std::string key = round_.back();
    round_.pop_back();
    apps::ProgramConfig config;
    config.instance_name = prefix_ + key + "_" + std::to_string(count_);
    if (off_trace_) {
      const auto slot = static_cast<Word>(rng_.uniform(140));
      config.filter_value =
          is_port_key(key) ? 20000u + slot * 100u + static_cast<Word>(count_ % 100)
                           : (10u << 24) | ((100u + slot) << 16);
    }
    ++count_;
    return apps::make_program_source(key, config);
  }

 private:
  std::vector<std::string> keys_;
  std::vector<std::string> round_;
  std::string prefix_;
  Rng rng_;
  bool off_trace_;
  std::uint64_t count_ = 0;
};

/// The packet-claiming programs of the traffic workloads.
std::vector<std::string> on_trace_sources() {
  const auto make = [](const char* key, const char* name, Word filter) {
    apps::ProgramConfig config;
    config.instance_name = name;
    config.filter_value = filter;
    return apps::make_program_source(key, config);
  };
  return {make("hh", "on_hh", 0x0a000000u),     // src 10.0/16, recirculates
          make("lb", "on_lb", 0x0a020000u),     // dst 10.2/16
          make("cache", "on_cache", 7777u)};    // UDP 7777 cache reads
}

constexpr std::size_t kTracePackets = 1u << 16;
constexpr std::size_t kBatch = 256;

/// Seeded campus + in-network-cache trace, interleaved by timestamp. Campus
/// packets are re-addressed by a seeded draw so the installed programs each
/// claim a share: dst 10.2/16 goes to `lb`, src 10.254/16 stays unclaimed,
/// the rest (src 10.0/16) goes to `hh`; cache reads (UDP 7777) go to `cache`.
std::vector<rmt::Packet> build_trace(std::uint64_t seed) {
  traffic::CampusTraceConfig campus;
  campus.duration_s = 6.0;
  campus.seed = seed * 2 + 1;
  traffic::CacheWorkloadConfig cache;
  cache.rate_mbps = 20.0;
  cache.duration_s = 6.0;
  cache.seed = seed * 2 + 2;
  const traffic::Trace a = traffic::make_campus_trace(campus);
  const traffic::Trace b = traffic::make_cache_workload(cache).trace;

  Rng rng(seed ^ 0x5eedu);
  std::vector<rmt::Packet> out;
  out.reserve(kTracePackets);
  std::size_t i = 0;
  std::size_t j = 0;
  while (out.size() < kTracePackets && (i < a.packets.size() || j < b.packets.size())) {
    const bool take_a = j >= b.packets.size() ||
                        (i < a.packets.size() && a.packets[i].t_ns <= b.packets[j].t_ns);
    if (!take_a) {
      out.push_back(b.packets[j++].pkt);
      continue;
    }
    rmt::Packet pkt = a.packets[i++].pkt;
    const double draw = rng.uniform01();
    if (pkt.ipv4 && draw < 0.25) {
      pkt.ipv4->dst = 0x0a020000u | (pkt.ipv4->dst & 0xffffu);
    } else if (pkt.ipv4 && draw < 0.40) {
      pkt.ipv4->src = 0x0afe0000u | (pkt.ipv4->src & 0xffffu);
    }
    out.push_back(pkt);
  }
  // Short generator output wraps around so every seed yields a full trace.
  for (std::size_t k = 0; out.size() < kTracePackets; ++k) out.push_back(out[k]);
  return out;
}

std::vector<std::span<const rmt::Packet>> batches_of(const std::vector<rmt::Packet>& trace) {
  std::vector<std::span<const rmt::Packet>> out;
  for (std::size_t at = 0; at < trace.size(); at += kBatch) {
    out.emplace_back(trace.data() + at, std::min(kBatch, trace.size() - at));
  }
  return out;
}

// --- beds ------------------------------------------------------------------

/// Span buffer of every bed. A long-lived controller fills the default
/// buffer and drops spans from then on; a small buffer reaches that steady
/// state during set-up, so memory and per-operation cost do not depend on
/// how long a run lasts.
constexpr std::size_t kSpanCapacity = 4096;

/// One switch with its controller, monitor and private telemetry bundle.
struct SwitchBed {
  SwitchBed() { telemetry.tracer.set_capacity(kSpanCapacity); }

  obs::Telemetry telemetry;
  SimClock clock;
  dp::RunproDataplane dataplane{dp::DataplaneSpec{}, parser_config()};
  ctrl::Controller controller{dataplane, clock, rp::Objective{}, ctrl::BfrtCostModel{},
                              &telemetry};
};

dp::DataplaneSpec chain_spec() {
  dp::DataplaneSpec spec;
  spec.max_recirculations = 2;  // 3 hops: one round per hop
  return spec;
}

struct ChainBed {
  ChainBed() { telemetry.tracer.set_capacity(kSpanCapacity); }

  obs::Telemetry telemetry;
  SimClock clock;
  dp::SwitchChain chain{3, chain_spec(), parser_config()};
  ctrl::ChainController controller{chain, clock, rp::Objective{}, ctrl::BfrtCostModel{},
                                   &telemetry};
};

/// Program count and per-RPB occupancy, for the steady-state check.
struct Occupancy {
  std::size_t programs = 0;
  std::vector<std::uint32_t> entries;
  std::vector<std::uint32_t> memory;

  bool operator==(const Occupancy&) const = default;
};

Occupancy occupancy_of(const ctrl::ResourceManager& resources, std::size_t programs) {
  Occupancy occ;
  occ.programs = programs;
  for (int rpb = 1; rpb <= resources.spec().total_rpbs(); ++rpb) {
    occ.entries.push_back(resources.entries_used(rpb));
    occ.memory.push_back(resources.memory_used(rpb));
  }
  return occ;
}

double mean_entries_per_rpb(const ctrl::ResourceManager& resources) {
  const int rpbs = resources.spec().total_rpbs();
  double sum = 0.0;
  for (int rpb = 1; rpb <= rpbs; ++rpb) sum += resources.entries_used(rpb);
  return sum / rpbs;
}

constexpr int kSetups = 21;

/// Set-up times of one run: wall seconds, and the same scaled by the host
/// speed measured just before each set-up (the gated figure).
struct SetupTimes {
  Samples wall_s, scaled_s;

  void report_to(Report& report) const {
    report.note("setup_wall_s", wall_s.median(), "s");
    report.gate("setup_s", scaled_s.median(), "s");
  }
};

/// Runs `build` kSetups times, timing each, and keeps the last result. The
/// previous result is destroyed before the next build starts.
template <typename Build>
auto timed_setups(SetupTimes& times, Build&& build) {
  decltype(build()) kept{};
  for (int i = 0; i < kSetups; ++i) {
    kept = {};
    const double factor = SpeedProbe::instance().factor(ProbeKind::kControl);
    const auto t0 = Clock::now();
    kept = build();
    const double s = seconds_between(t0, Clock::now());
    times.wall_s.add(s);
    times.scaled_s.add(s * factor);
  }
  return kept;
}

template <typename LinkFn>
void prefill(LinkFn&& link, SourceGen& gen, std::size_t count, Report& report) {
  for (std::size_t i = 0; i < count; ++i) {
    const auto linked = link(gen.next());
    report.check(linked.ok(), linked.ok() ? "" : "prefill link failed: " + linked.error().str());
  }
}

// --- registry reads --------------------------------------------------------

struct HistPoint {
  std::uint64_t count = 0;
  double sum = 0.0;
};

HistPoint hist_point(const obs::MetricsRegistry& registry, std::string_view name) {
  const obs::Histogram* h = registry.find_histogram(name);
  return h == nullptr ? HistPoint{} : HistPoint{h->count(), h->sum()};
}

std::uint64_t counter_value(const obs::MetricsRegistry& registry, std::string_view name) {
  const obs::Counter* c = registry.find_counter(name);
  return c == nullptr ? 0 : c->value();
}

double mean_between(HistPoint a, HistPoint b) {
  return b.count > a.count ? (b.sum - a.sum) / static_cast<double>(b.count - a.count) : 0.0;
}

/// Registry state at the start of a measured phase; `finish` reports the
/// deltas as per-layer control metrics. Read only while no session runs.
struct ControlRegistryDelta {
  HistPoint queue_wait;
  HistPoint lock_hold;
  std::uint64_t retries = 0;
  std::uint64_t writes = 0;
  std::uint64_t batches = 0;

  static ControlRegistryDelta at(const obs::MetricsRegistry& registry) {
    ControlRegistryDelta d;
    d.queue_wait = hist_point(registry, "ctrl.tenant.queue_wait_ms");
    d.lock_hold = hist_point(registry, "ctrl.commit.lock_hold_ms");
    d.retries = counter_value(registry, "ctrl.link.retries");
    d.writes = counter_value(registry, "ctrl.bfrt.entry_writes");
    d.batches = counter_value(registry, "ctrl.bfrt.batches");
    return d;
  }

  void finish(const obs::MetricsRegistry& registry, std::size_t links, Report& report) const {
    const ControlRegistryDelta end = at(registry);
    const double per_link = links == 0 ? 0.0 : 1.0 / static_cast<double>(links);
    report.layer("control.admission_wait_us",
                 1000.0 * mean_between(queue_wait, end.queue_wait), "us");
    // The lock-hold histogram is kept in virtual (channel model) time.
    report.layer("control.lock_hold_vms", mean_between(lock_hold, end.lock_hold), "vms");
    report.layer("control.link_retries",
                 static_cast<double>(end.retries - retries) * per_link, "1/link");
    // Writes and batches of the revokes are included: one link per revoke.
    report.layer("control.bfrt_writes_per_link",
                 static_cast<double>(end.writes - writes) * per_link, "1/link");
    report.layer("control.bfrt_batches_per_link",
                 static_cast<double>(end.batches - batches) * per_link, "1/link");
  }
};

// --- compile layers, timed from outside ------------------------------------

/// Wall time of each compiler layer on one source, measured by calling the
/// layer's public function directly. lang::parse lexes internally, so the
/// parse figure includes lexing and the lex figure is a part of it.
struct CompileLayers {
  Samples lex_us, parse_us, semcheck_us, translate_us, solve_us, entrygen_us;
  Samples nodes, entries;

  /// Returns the summed layer time in microseconds, or a negative value
  /// (and a failed check) when a layer rejects the source.
  double run(std::string_view source, const dp::DataplaneSpec& spec,
             const ctrl::ResourceManager::Snapshot& snapshot, Report& report) {
    const auto t0 = Clock::now();
    auto tokens = lang::lex(source);
    const auto t1 = Clock::now();
    auto unit = lang::parse(source);
    const auto t2 = Clock::now();
    if (!tokens.ok() || !unit.ok() || unit.value().programs.size() != 1) {
      report.check(false, "layer probe: lex/parse rejected a catalog source");
      return -1.0;
    }
    keep(tokens.value().size());
    const Status checked = rp::check_unit(unit.value());
    const auto t3 = Clock::now();
    if (!checked.ok()) {
      report.check(false, "layer probe: semcheck rejected a catalog source");
      return -1.0;
    }
    auto ir = rp::translate(unit.value(), unit.value().programs.front());
    const auto t4 = Clock::now();
    if (!ir.ok()) {
      report.check(false, "layer probe: translate rejected a catalog source");
      return -1.0;
    }
    auto alloc = rp::solve_allocation(ir.value(), spec, snapshot, rp::Objective{});
    const auto t5 = Clock::now();
    if (!alloc.ok()) {
      report.check(false, "layer probe: no allocation: " + alloc.error().str());
      return -1.0;
    }
    std::map<std::string, ctrl::VmemPlacement> placements;
    for (const auto& [vmem, rpb] : alloc.value().vmem_rpb) {
      placements[vmem] =
          ctrl::VmemPlacement{rpb, ctrl::MemBlock{0, ir.value().vmem_sizes.at(vmem)}};
    }
    const rp::EntryPlan plan =
        rp::generate_entries(ir.value(), alloc.value(), /*id=*/1, placements, spec);
    const auto t6 = Clock::now();

    lex_us.add(us_between(t0, t1));
    parse_us.add(us_between(t1, t2));
    semcheck_us.add(us_between(t2, t3));
    translate_us.add(us_between(t3, t4));
    solve_us.add(us_between(t4, t5));
    entrygen_us.add(us_between(t5, t6));
    nodes.add(static_cast<double>(alloc.value().nodes_explored));
    entries.add(static_cast<double>(plan.rpb_entries.size() + plan.filters.size() +
                                    static_cast<std::size_t>(plan.rounds - 1)));
    // The parse call lexes again, so counting from t1 counts lexing once.
    return us_between(t1, t6);
  }

  void append(const CompileLayers& other) {
    lex_us.append(other.lex_us);
    parse_us.append(other.parse_us);
    semcheck_us.append(other.semcheck_us);
    translate_us.append(other.translate_us);
    solve_us.append(other.solve_us);
    entrygen_us.append(other.entrygen_us);
    nodes.append(other.nodes);
    entries.append(other.entries);
  }

  void report_to(Report& report) const {
    report.layer("lang.lex_us", lex_us.median(), "us");
    report.layer("lang.parse_us", parse_us.median(), "us");
    report.layer("compiler.semcheck_us", semcheck_us.median(), "us");
    report.layer("compiler.translate_us", translate_us.median(), "us");
    report.layer("compiler.solve_us", solve_us.median(), "us");
    report.layer("compiler.solve_nodes", nodes.mean(), "count");
    report.layer("compiler.entrygen_us", entrygen_us.median(), "us");
    report.layer("compiler.entries_per_link", entries.mean(), "1/link");
  }
};

/// Median wall time of building a TableSnapshot from the master tables.
/// Call only while no control operation mutates them.
double snapshot_build_us(dp::RunproDataplane& dataplane, int repeats) {
  std::vector<std::shared_ptr<dp::Rpb>> rpbs;
  for (int id = 1; id <= dataplane.spec().total_rpbs(); ++id) {
    // Non-owning handles: the dataplane keeps the blocks alive.
    rpbs.emplace_back(&dataplane.rpb(id), [](dp::Rpb*) {});
  }
  Samples build_us;
  for (int i = 0; i < repeats; ++i) {
    const auto t0 = Clock::now();
    const dp::TableSnapshot snap(dataplane.init_block(), rpbs, dataplane.recirc_block(), 0,
                                 0);
    const auto t1 = Clock::now();
    keep(snap.rpb_tables.size());
    build_us.add(us_between(t0, t1));
  }
  return build_us.median();
}

/// Per-layer metrics a workload does not exercise read 0, so every traced
/// run prints the full set.
void fill_missing_layers(Report& report) {
  static const std::vector<std::pair<std::string, std::string>> kAll = {
      {"lang.lex_us", "us"},
      {"lang.parse_us", "us"},
      {"compiler.semcheck_us", "us"},
      {"compiler.translate_us", "us"},
      {"compiler.solve_us", "us"},
      {"compiler.solve_nodes", "count"},
      {"compiler.entrygen_us", "us"},
      {"compiler.entries_per_link", "1/link"},
      {"control.admission_wait_us", "us"},
      {"control.lock_hold_vms", "vms"},
      {"control.link_retries", "1/link"},
      {"control.bfrt_writes_per_link", "1/link"},
      {"control.bfrt_batches_per_link", "1/link"},
      {"control.commit_us", "us"},
      {"control.update_vms_p50", "vms"},
      {"dataplane.snapshot_build_us", "us"},
      {"dataplane.publishes_per_s", "1/s"},
      {"dataplane.retired_pending_max", "count"},
      {"traffic.late_p99_us", "us"},
      {"rmt.parse_ns", "ns/pkt"},
      {"rmt.pipeline_ns", "ns/pkt"},
      {"rmt.observer_path_ns", "ns/pkt"},
      {"rmt.monitored_ns", "ns/pkt"},
      {"obs.monitor_hook_ns", "ns/pkt"},
      {"obs.accounting_ns", "ns/pkt"},
      {"rmt.claimed_frac", "frac"},
      {"rmt.recirc_per_pkt", "1/pkt"},
      {"rmt.lookups_per_pkt", "1/pkt"},
      {"input.installed_programs", "count"},
      {"input.entries_per_rpb", "count"},
      {"trace.overhead_ratio", "ratio"},
  };
  for (const auto& [name, unit] : kAll) {
    const bool present = std::any_of(report.layers.begin(), report.layers.end(),
                                     [&](const Metric& m) { return m.name == name; });
    if (!present) report.layer(name, 0.0, unit);
  }
}

// --- control clients -------------------------------------------------------

/// One control client: links a fresh source and, once it holds more than
/// `window` programs, revokes its oldest. Checks and records every result.
/// Link and revoke times are host-scaled in blocks of `block` operations.
struct ChurnClient {
  SourceGen gen;
  std::size_t window;
  std::deque<ProgramId> held;
  Samples link_us, revoke_us, update_vms, commit_us;
  CompileLayers layers;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  ChurnClient(SourceGen g, std::size_t w, std::size_t block)
      : gen(std::move(g)), window(w), link_us(block, ProbeKind::kControl),
        revoke_us(block, ProbeKind::kControl) {}

  void reset_stats() {
    link_us.clear();
    revoke_us.clear();
    update_vms.clear();
    commit_us.clear();
    layers = {};
    attempted = 0;
    failed = 0;
  }

  /// Links one fresh source through `link`. A traced run first times the
  /// compile layers on the same source. Latency runs from `from` when given
  /// (the due time of an open-loop operation), else from the call.
  template <typename LinkFn>
  bool link_step(LinkFn&& link, bool traced, const dp::DataplaneSpec& spec,
                 const ctrl::ResourceManager::Snapshot& snapshot, Report& report,
                 const Clock::time_point* from = nullptr) {
    const std::string source = gen.next();
    const double compile_us = traced ? layers.run(source, spec, snapshot, report) : 0.0;
    const auto t0 = Clock::now();
    const Result<ctrl::LinkResult> linked = link(source);
    const auto t1 = Clock::now();
    ++attempted;
    if (!linked.ok()) {
      ++failed;
      std::fprintf(stderr, "perfbench: link failed: %s\n", linked.error().str().c_str());
      return false;
    }
    report.check(linked.value().id != 0 && !linked.value().name.empty(),
                 "link returned an empty result");
    held.push_back(linked.value().id);
    link_us.add(us_between(from != nullptr ? *from : t0, t1));
    update_vms.add(linked.value().stats.update_ms);
    if (traced && compile_us >= 0.0) commit_us.add(us_between(t0, t1) - compile_us);
    return true;
  }

  /// Revokes the oldest held program when over the window.
  template <typename RevokeFn>
  void revoke_step(RevokeFn&& revoke, const Clock::time_point* from = nullptr) {
    if (held.size() <= window) return;
    const ProgramId id = held.front();
    held.pop_front();
    const auto t0 = Clock::now();
    const Status revoked = revoke(id);
    const auto t1 = Clock::now();
    ++attempted;
    if (!revoked.ok()) {
      ++failed;
      std::fprintf(stderr, "perfbench: revoke failed: %s\n", revoked.error().str().c_str());
      return;
    }
    revoke_us.add(us_between(from != nullptr ? *from : t0, t1));
  }

  template <typename RevokeFn>
  void drain(RevokeFn&& revoke, Report& report) {
    while (!held.empty()) {
      const Status revoked = revoke(held.front());
      report.check(revoked.ok(), "end-of-run revoke failed");
      held.pop_front();
    }
  }
};

/// Pooled figures of several clients.
struct ClientTotals {
  Samples link_us, revoke_us, update_vms, commit_us;
  CompileLayers layers;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t clients = 0;

  explicit ClientTotals(const std::vector<ChurnClient*>& list) : clients(list.size()) {
    for (const ChurnClient* c : list) {
      link_us.append(c->link_us);
      revoke_us.append(c->revoke_us);
      update_vms.append(c->update_vms);
      commit_us.append(c->commit_us);
      layers.append(c->layers);
      attempted += c->attempted;
      failed += c->failed;
    }
  }

  void report_named(Report& report) const {
    report.note("link_p50_us", link_us.median(), "us");
    report.note("link_p99_us", link_us.quantile(0.99), "us");
    report.note("revoke_p50_us", revoke_us.median(), "us");
    report.note("update_vms_p50", update_vms.median(), "vms");
    report.note("links", static_cast<double>(link_us.size()), "count");
    report.note("fail_frac",
                attempted == 0 ? 0.0
                               : static_cast<double>(failed) / static_cast<double>(attempted),
                "frac");
  }

  void report_layers(Report& report) const {
    layers.report_to(report);
    report.layer("control.commit_us", commit_us.median(), "us");
    report.layer("control.update_vms_p50", update_vms.median(), "vms");
  }
};

double warmup_seconds(const Args& args) { return std::min(1.0, 0.1 * args.seconds); }

/// Operations per host-scaled block: about 25 ms of closed-loop control
/// work, of packet batches, and about 170 ms of the open-loop schedule.
constexpr std::size_t kControlBlock = 50;
constexpr std::size_t kBatchBlock = 200;
constexpr std::size_t kOpenLoopBlock = 10;

// --- workload: deploy_churn ------------------------------------------------

/// Closed loop, 2 session clients (tenants 1 and 2) on their own threads,
/// each alternating Controller::link_session of a fresh all-15-mix source
/// with a revoke of its oldest program. No traffic, no sharding: nothing is
/// published.
void run_deploy_churn(const Args& args, Report& report) {
  constexpr std::size_t kBase = 96;
  constexpr std::size_t kWindow = 4;
  SetupTimes setup_s;
  auto bed = timed_setups(setup_s, [&] {
    auto b = std::make_unique<SwitchBed>();
    SourceGen base(all_catalog_keys(), "base_", args.seed, false);
    prefill([&](const std::string& s) { return b->controller.link_single(s); }, base, kBase,
            report);
    return b;
  });
  ctrl::Controller& controller = bed->controller;
  for (ctrl::TenantId tenant : {1u, 2u}) {
    controller.tenants().register_tenant(tenant, ctrl::TenantQuota{});
  }
  const Occupancy base = occupancy_of(controller.resources(), controller.program_count());
  const auto snapshot = controller.resources().snapshot();
  const dp::DataplaneSpec spec = bed->dataplane.spec();

  ChurnClient c1(SourceGen(all_catalog_keys(), "t1_", args.seed * 7919 + 1, false), kWindow,
                 kControlBlock);
  ChurnClient c2(SourceGen(all_catalog_keys(), "t2_", args.seed * 7919 + 2, false), kWindow,
                 kControlBlock);
  std::vector<ChurnClient*> clients = {&c1, &c2};

  const auto phase = [&](double seconds, bool traced) {
    for (ChurnClient* c : clients) c->reset_stats();
    const auto start = Clock::now();
    const auto end = after_seconds(start, seconds);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < clients.size(); ++i) {
      threads.emplace_back([&, i] {
        ChurnClient& c = *clients[i];
        const auto tenant = static_cast<ctrl::TenantId>(i + 1);
        while (Clock::now() < end) {
          c.link_step(
              [&](const std::string& s) {
                return controller.link_session(ctrl::SessionSpec{s, tenant});
              },
              traced, spec, snapshot, report);
          c.revoke_step([&](ProgramId id) { return controller.revoke(id); });
        }
      });
    }
    for (auto& t : threads) t.join();
    return seconds_between(start, Clock::now());
  };

  phase(warmup_seconds(args), false);
  double untraced_op_us = 0.0;
  ControlRegistryDelta registry_at;
  if (args.trace) {
    phase(args.seconds / 3.0, false);
    untraced_op_us = ClientTotals(clients).link_us.scaled_p50();
    registry_at = ControlRegistryDelta::at(bed->telemetry.metrics);
  }
  const double elapsed = phase(args.trace ? args.seconds * 2.0 / 3.0 : args.seconds, args.trace);
  const ClientTotals totals(clients);
  report.attempted = totals.attempted;
  report.failed = totals.failed;

  const std::size_t steady_programs = controller.program_count();
  const double steady_entries = mean_entries_per_rpb(controller.resources());
  report.check(steady_programs == kBase + clients.size() * kWindow,
               "installed count drifted from the steady state during churn");
  if (args.trace) {
    totals.report_layers(report);
    registry_at.finish(bed->telemetry.metrics, totals.link_us.size(), report);
    report.layer("dataplane.snapshot_build_us", snapshot_build_us(bed->dataplane, 21), "us");
    report.layer("input.installed_programs", static_cast<double>(steady_programs), "count");
    report.layer("input.entries_per_rpb", steady_entries, "count");
    report.layer("trace.overhead_ratio", totals.link_us.scaled_p50() / untraced_op_us, "ratio");
  }
  for (ChurnClient* c : clients) {
    c->drain([&](ProgramId id) { return controller.revoke(id); }, report);
  }
  report.check(occupancy_of(controller.resources(), controller.program_count()) == base,
               "program count or per-RPB occupancy differs from the steady state");

  totals.report_named(report);
  report.note("ops_per_s", static_cast<double>(totals.attempted) / elapsed, "1/s");
  report.note("input.installed_programs", static_cast<double>(steady_programs), "count");
  report.note("input.entries_per_rpb", steady_entries, "count");
  report.note("input.publishes_per_s", 0.0, "1/s");
  report.gate("op_p50_us", totals.link_us.scaled_p50(), "us");
  report.gate("op_p75_us", totals.link_us.scaled_p75(), "us");
  setup_s.report_to(report);
}

// --- workload: chain_churn -------------------------------------------------

/// Closed loop, 1 client: ChainController::link of a fresh chain-compatible
/// catalog source on a 3-hop SwitchChain, then revoke of its oldest program.
void run_chain_churn(const Args& args, Report& report) {
  constexpr std::size_t kBase = 48;
  constexpr std::size_t kWindow = 4;
  SetupTimes setup_s;
  auto bed = timed_setups(setup_s, [&] {
    auto b = std::make_unique<ChainBed>();
    SourceGen base(chain_keys(), "base_", args.seed, false);
    prefill([&](const std::string& s) { return b->controller.link(s); }, base, kBase, report);
    return b;
  });
  ctrl::ChainController& controller = bed->controller;
  const auto base_of = [&] {
    std::vector<Occupancy> hops;
    for (int hop = 0; hop < controller.length(); ++hop) {
      hops.push_back(occupancy_of(controller.resources(hop), controller.program_count()));
    }
    return hops;
  };
  const std::vector<Occupancy> base = base_of();
  const auto snapshot = controller.resources(0).snapshot();
  const dp::DataplaneSpec spec = chain_spec();

  ChurnClient client(SourceGen(chain_keys(), "c_", args.seed * 7919 + 3, false), kWindow,
                     kControlBlock);
  const auto phase = [&](double seconds, bool traced) {
    client.reset_stats();
    const auto start = Clock::now();
    const auto end = after_seconds(start, seconds);
    while (Clock::now() < end) {
      client.link_step([&](const std::string& s) { return controller.link(s); }, traced, spec,
                       snapshot, report);
      client.revoke_step([&](ProgramId id) { return controller.revoke(id); });
    }
    return seconds_between(start, Clock::now());
  };

  phase(warmup_seconds(args), false);
  double untraced_op_us = 0.0;
  ControlRegistryDelta registry_at;
  if (args.trace) {
    phase(args.seconds / 3.0, false);
    untraced_op_us = client.link_us.scaled_p50();
    registry_at = ControlRegistryDelta::at(bed->telemetry.metrics);
  }
  const double elapsed = phase(args.trace ? args.seconds * 2.0 / 3.0 : args.seconds, args.trace);
  const ClientTotals totals({&client});
  report.attempted = totals.attempted;
  report.failed = totals.failed;

  const std::size_t steady_programs = controller.program_count();
  const double steady_entries = mean_entries_per_rpb(controller.resources(0));
  report.check(steady_programs == kBase + kWindow,
               "installed count drifted from the steady state during churn");
  if (args.trace) {
    totals.report_layers(report);
    registry_at.finish(bed->telemetry.metrics, totals.link_us.size(), report);
    report.layer("dataplane.snapshot_build_us",
                 snapshot_build_us(bed->chain.switch_at(0), 21), "us");
    report.layer("input.installed_programs", static_cast<double>(steady_programs), "count");
    report.layer("input.entries_per_rpb", steady_entries, "count");
    report.layer("trace.overhead_ratio", totals.link_us.scaled_p50() / untraced_op_us, "ratio");
  }
  client.drain([&](ProgramId id) { return controller.revoke(id); }, report);
  report.check(base_of() == base,
               "program count or per-RPB occupancy differs from the steady state");

  totals.report_named(report);
  report.note("ops_per_s", static_cast<double>(totals.attempted) / elapsed, "1/s");
  report.note("input.installed_programs", static_cast<double>(steady_programs), "count");
  report.note("input.entries_per_rpb", steady_entries, "count");
  report.note("input.publishes_per_s", 0.0, "1/s");
  report.gate("op_p50_us", totals.link_us.scaled_p50(), "us");
  report.gate("op_p75_us", totals.link_us.scaled_p75(), "us");
  setup_s.report_to(report);
}

// --- traffic beds ----------------------------------------------------------

/// A switch holding the on-trace programs plus `fillers` off-trace catalog
/// programs, and the seeded packet trace.
struct TrafficBed {
  std::unique_ptr<SwitchBed> bed;
  std::vector<rmt::Packet> trace;
};

TrafficBed build_traffic_bed(std::uint64_t seed, std::size_t fillers, Report& report) {
  TrafficBed tb;
  tb.bed = std::make_unique<SwitchBed>();
  auto link = [&](const std::string& s) { return tb.bed->controller.link_single(s); };
  for (const std::string& source : on_trace_sources()) {
    const auto linked = link(source);
    report.check(linked.ok(), "on-trace program failed to link");
  }
  SourceGen gen(off_trace_keys(), "fill_", seed, true);
  prefill(link, gen, fillers, report);
  tb.trace = build_trace(seed);
  return tb;
}

/// Fate and recirculation tallies of one pass over a trace.
struct Tally {
  std::uint64_t packets = 0, forwarded = 0, returned = 0, dropped = 0, reported = 0;
  std::uint64_t multicasted = 0, recirc_limited = 0, recirc_passes = 0;

  void add(const rmt::Pipeline::BatchResult& r) {
    packets += r.packets;
    forwarded += r.forwarded;
    returned += r.returned;
    dropped += r.dropped;
    reported += r.reported;
    multicasted += r.multicasted;
    recirc_limited += r.recirc_limited;
    recirc_passes += r.recirc_passes;
  }
  void add(const rmt::PipelineResult& r) {
    ++packets;
    recirc_passes += static_cast<std::uint64_t>(r.recirc_passes);
    switch (r.fate) {
      case rmt::PacketFate::Forwarded: ++forwarded; break;
      case rmt::PacketFate::Returned: ++returned; break;
      case rmt::PacketFate::Dropped: ++dropped; break;
      case rmt::PacketFate::Reported: ++reported; break;
      case rmt::PacketFate::RecircLimit: ++recirc_limited; break;
      case rmt::PacketFate::Multicasted: ++multicasted; break;
    }
  }
  bool operator==(const Tally&) const = default;

  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the fields
    for (const std::uint64_t v : {packets, forwarded, returned, dropped, reported,
                                  multicasted, recirc_limited, recirc_passes}) {
      h = (h ^ v) * 1099511628211ull;
    }
    return h;
  }
};

// --- workload: packet_mix --------------------------------------------------

/// Median cost of one steady_clock read, in nanoseconds.
double clock_read_ns() {
  constexpr int kReads = 1 << 16;
  Samples per_read;
  for (int round = 0; round < 9; ++round) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kReads; ++i) keep(Clock::now());
    per_read.add(1000.0 * us_between(t0, Clock::now()) / kReads);
  }
  return per_read.median();
}

/// An observer that samples nothing and records nothing. Attaching it puts
/// inject_batch on the per-packet observed path with no hook work.
class NullObserver final : public rmt::PacketObserver {
 public:
  bool sample_packet() override { return false; }
  void on_packet(const rmt::PacketObservation&) override {}
};

/// One thread, closed loop: batches of the seeded trace through
/// inject_batch with the health monitor attached. No control operations.
void run_packet_mix(const Args& args, Report& report) {
  constexpr std::size_t kFillers = 40;
  SetupTimes setup_s;
  TrafficBed main = timed_setups(setup_s, [&] {
    return build_traffic_bed(args.seed, kFillers, report);
  });
  SwitchBed& bed = *main.bed;
  rmt::Pipeline& pipe = bed.dataplane.pipeline();
  rmt::PacketObserver* const monitor = pipe.observer();
  report.check(monitor != nullptr, "health monitor is not attached");
  const auto batches = batches_of(main.trace);
  const auto programs = bed.controller.running_programs();

  // First pass on the measured bed, batched, and a per-packet replay of the
  // same trace on a twin bed: fates, recirculation passes and per-program
  // claims must agree exactly.
  Tally batched;
  for (const auto& batch : batches) {
    batched.add(bed.dataplane.inject_batch(batch));
    (void)pipe.drain_cpu_queue();
  }
  TrafficBed twin = build_traffic_bed(args.seed, kFillers, report);
  Tally replayed;
  for (std::size_t i = 0; i < twin.trace.size(); ++i) {
    replayed.add(twin.bed->dataplane.inject(twin.trace[i]));
    if (i % kBatch == kBatch - 1) (void)twin.bed->dataplane.pipeline().drain_cpu_queue();
  }
  report.check(batched == replayed, "batched fates differ from the per-packet replay");
  std::uint64_t claimed = 0;
  for (const ProgramId id : programs) {
    report.check(bed.dataplane.claimed_packets(id) == twin.bed->dataplane.claimed_packets(id),
                 "per-program claims differ from the per-packet replay");
    claimed += twin.bed->dataplane.claimed_packets(id);
  }
  const rmt::StageStats& twin_stats = twin.bed->dataplane.pipeline().stage_stats();
  const double packets_per_pass = static_cast<double>(replayed.packets);
  const double claimed_frac = static_cast<double>(claimed) / packets_per_pass;
  const double recirc_per_pkt = static_cast<double>(replayed.recirc_passes) / packets_per_pass;
  const double lookups_per_pkt =
      static_cast<double>(twin_stats.table_hits + twin_stats.table_misses) / packets_per_pass;
  twin = {};

  std::size_t next = 0;
  std::uint64_t drops_at = pipe.cpu_queue_drops();
  Samples batch_us(kBatchBlock, ProbeKind::kPacket);
  std::uint64_t packets = 0;
  // Returns the wall time of the loop.
  const auto loop = [&](double seconds) {
    batch_us.clear();
    packets = 0;
    const auto start = Clock::now();
    const auto end = after_seconds(start, seconds);
    while (Clock::now() < end) {
      const auto& batch = batches[next++ % batches.size()];
      const auto t0 = Clock::now();
      const auto result = bed.dataplane.inject_batch(batch);
      const auto t1 = Clock::now();
      batch_us.add(us_between(t0, t1));
      packets += result.packets;
      (void)pipe.drain_cpu_queue();
    }
    return seconds_between(start, Clock::now());
  };

  loop(warmup_seconds(args));
  drops_at = pipe.cpu_queue_drops();
  double pps = 0.0;  // packets per wall second
  if (args.trace) {
    loop(args.seconds / 3.0);
    const double untraced_batch_us = batch_us.scaled_p50();
    // Traced loop: the monitor accounts its own hook time.
    obs::ProgramHealthMonitor& health = bed.telemetry.monitor;
    health.set_overhead_accounting(true);
    const double traced_elapsed = loop(args.seconds / 3.0);
    pps = static_cast<double>(packets) / traced_elapsed;
    report.attempted = packets;
    report.failed = pipe.cpu_queue_drops() - drops_at;
    report.layer("trace.overhead_ratio", batch_us.scaled_p50() / untraced_batch_us, "ratio");

    // Layer passes over the whole trace, alternated until the time is up:
    // the parser alone, then the same batches with the observer detached
    // (lean path), with an observer that does nothing (the per-packet
    // observed path), and with the monitor accounting its hook time.
    Samples parse_ns, pipeline_ns, observed_ns, monitored_ns, hook_ns;
    const double n = static_cast<double>(main.trace.size());
    const auto ns_per_packet = [&](rmt::PacketObserver* observer) {
      pipe.set_observer(observer);
      const auto t0 = Clock::now();
      for (const auto& batch : batches) keep(bed.dataplane.inject_batch(batch).packets);
      const double ns = 1000.0 * us_between(t0, Clock::now()) / n;
      (void)pipe.drain_cpu_queue();
      return ns;
    };
    NullObserver null_observer;
    const auto end = after_seconds(Clock::now(), args.seconds / 3.0);
    do {
      const auto t0 = Clock::now();
      for (const rmt::Packet& pkt : main.trace) {
        const rmt::Phv phv = pipe.parser().parse(pkt);
        keep(phv.parse_bitmap);
      }
      parse_ns.add(1000.0 * us_between(t0, Clock::now()) / n);
      pipeline_ns.add(ns_per_packet(nullptr));
      observed_ns.add(ns_per_packet(&null_observer));
      const auto hook_ns_at = health.hook_ns();
      const auto hook_calls_at = health.hook_calls();
      monitored_ns.add(ns_per_packet(monitor));
      const auto calls = health.hook_calls() - hook_calls_at;
      hook_ns.add(calls == 0 ? 0.0
                             : static_cast<double>(health.hook_ns() - hook_ns_at) /
                                   static_cast<double>(calls));
    } while (Clock::now() < end);
    health.set_overhead_accounting(false);

    // The lean pipeline plus the hook leaves out what attaching any
    // observer costs (per-packet inject, result copy) and the accounting's
    // clock read that lands outside the hook window, so the checked sum has
    // those as parts of their own.
    const double observer_path = observed_ns.median() - pipeline_ns.median();
    const double accounting = clock_read_ns();
    const double parts =
        (pipeline_ns.median() + observer_path + hook_ns.median() + accounting) /
        monitored_ns.median();
    report.check(std::abs(parts - 1.0) <= 0.10,
                 "pipeline + observer path + monitor hook is not within 10% of the "
                 "monitored packet cost");
    report.layer("rmt.parse_ns", parse_ns.median(), "ns/pkt");
    report.layer("rmt.pipeline_ns", pipeline_ns.median(), "ns/pkt");
    report.layer("rmt.observer_path_ns", observer_path, "ns/pkt");
    report.layer("rmt.monitored_ns", monitored_ns.median(), "ns/pkt");
    report.layer("obs.monitor_hook_ns", hook_ns.median(), "ns/pkt");
    report.layer("obs.accounting_ns", accounting, "ns/pkt");
    report.note("rmt.parts_ratio", parts, "ratio");
    report.note("rmt.pipeline_hook_ratio",
                (pipeline_ns.median() + hook_ns.median()) / monitored_ns.median(), "ratio");
    report.layer("rmt.claimed_frac", claimed_frac, "frac");
    report.layer("rmt.recirc_per_pkt", recirc_per_pkt, "1/pkt");
    report.layer("rmt.lookups_per_pkt", lookups_per_pkt, "1/pkt");
    report.layer("input.installed_programs", static_cast<double>(programs.size()), "count");
    report.layer("input.entries_per_rpb", mean_entries_per_rpb(bed.controller.resources()),
                 "count");
  } else {
    const double elapsed = loop(args.seconds);
    pps = static_cast<double>(packets) / elapsed;
    report.attempted = packets;
    report.failed = pipe.cpu_queue_drops() - drops_at;
  }

  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(batched.digest()));
  std::printf("tally_digest %s\n", digest);
  report.note("pps", pps, "1/s");
  report.note("batch_p50_us", batch_us.median(), "us");
  report.note("batch_p99_us", batch_us.quantile(0.99), "us");
  report.note("fail_frac", static_cast<double>(report.failed) / static_cast<double>(packets),
              "frac");
  report.note("input.claimed_frac", claimed_frac, "frac");
  report.note("input.recirc_per_pkt", recirc_per_pkt, "1/pkt");
  report.note("input.installed_programs", static_cast<double>(programs.size()), "count");
  report.note("input.entries_per_rpb", mean_entries_per_rpb(bed.controller.resources()),
              "count");
  report.note("input.publishes_per_s", 0.0, "1/s");
  report.gate("op_p50_us", batch_us.scaled_p50(), "us");
  report.gate("op_p75_us", batch_us.scaled_p75(), "us");
  setup_s.report_to(report);
}

// --- workload: churn_under_traffic -----------------------------------------

/// One shard worker: sends the trace through inject_batch_on in a closed
/// loop and publishes the latest snapshot epoch it matched against.
struct ShardWorker {
  Samples batch_us{kBatchBlock, ProbeKind::kPacket};
  std::uint64_t packets = 0;
  std::uint64_t recirc_passes = 0;
  std::uint64_t last_epoch = 0;
  bool epoch_went_back = false;
  std::atomic<std::uint64_t> seen_epoch{0};

  void run(dp::RunproDataplane& dataplane, int shard,
           const std::vector<std::span<const rmt::Packet>>& batches,
           const std::atomic<bool>& stop) {
    rmt::Pipeline& pipe = dataplane.shard_pipeline(shard);
    std::size_t next = batches.size() / 2 * static_cast<std::size_t>(shard);
    while (!stop.load(std::memory_order_relaxed)) {
      const auto& batch = batches[next++ % batches.size()];
      const auto t0 = Clock::now();
      const auto result = dataplane.inject_batch_on(shard, batch);
      const auto t1 = Clock::now();
      batch_us.add(us_between(t0, t1));
      packets += result.packets;
      recirc_passes += result.recirc_passes;
      if (result.snapshot_epoch < last_epoch) epoch_went_back = true;
      last_epoch = result.snapshot_epoch;
      seen_epoch.store(last_epoch, std::memory_order_release);
      (void)pipe.drain_cpu_queue();
    }
  }
};

/// Writes beside reads: 2 shard workers send the trace through
/// inject_batch_on while one control client links and revokes through
/// link_session on an open-loop fixed-rate schedule, async channel on. The
/// installed count is high, so every publish deep-copies many entries.
void run_churn_under_traffic(const Args& args, Report& report) {
  constexpr std::size_t kFillers = 200;
  constexpr std::size_t kWindow = 4;
  constexpr int kShards = 2;
  constexpr double kLinksPerSecond = 60.0;  // plus as many revokes
  SetupTimes setup_s;
  TrafficBed main = timed_setups(setup_s, [&] {
    return build_traffic_bed(args.seed, kFillers, report);
  });
  SwitchBed& bed = *main.bed;
  ctrl::Controller& controller = bed.controller;
  const Occupancy base = occupancy_of(controller.resources(), controller.program_count());
  const auto snapshot = controller.resources().snapshot();
  const dp::DataplaneSpec spec = bed.dataplane.spec();
  const auto batches = batches_of(main.trace);
  bed.dataplane.enable_sharding(kShards);
  controller.set_async_writes(true);
  dp::SnapshotHub& hub = *bed.dataplane.snapshot_hub();

  ChurnClient client(SourceGen(off_trace_keys(), "churn_", args.seed * 7919 + 4, true),
                     kWindow, kOpenLoopBlock);
  Samples visible_us(kOpenLoopBlock, ProbeKind::kControl), late_us, batch_us, retired;
  std::uint64_t packets = 0;
  std::uint64_t recirc_passes = 0;
  std::uint64_t total_packets = 0;

  const auto window = [&](double seconds, bool traced) {
    client.reset_stats();
    visible_us.clear();
    late_us.clear();
    batch_us.clear();
    retired.clear();
    std::vector<std::unique_ptr<ShardWorker>> workers;
    std::vector<std::thread> threads;
    std::atomic<bool> stop{false};
    for (int s = 0; s < kShards; ++s) {
      workers.push_back(std::make_unique<ShardWorker>());
      threads.emplace_back([&, s] {
        workers[static_cast<std::size_t>(s)]->run(bed.dataplane, s, batches, stop);
      });
    }
    const auto seen = [&] {
      std::uint64_t e = 0;
      for (const auto& w : workers) e = std::max(e, w->seen_epoch.load(std::memory_order_acquire));
      return e;
    };
    const std::uint64_t publishes_at = hub.publishes();
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kLinksPerSecond));
    const auto start = Clock::now();
    const auto end = after_seconds(start, seconds);
    for (std::int64_t k = 0;; ++k) {
      const Clock::time_point due = start + period * k;
      if (due >= end) break;
      std::this_thread::sleep_until(due);
      late_us.add(us_between(due, Clock::now()));
      const std::uint64_t epoch_before = hub.epoch();
      const bool linked = client.link_step(
          [&](const std::string& s) { return controller.link_session(ctrl::SessionSpec{s, 0}); },
          traced, spec, snapshot, report, &due);
      if (linked) {
        const std::uint64_t published = hub.epoch();
        report.check(published > epoch_before, "a link did not publish a snapshot");
        const auto give_up = after_seconds(due, 2.0);
        while (seen() < published && Clock::now() < give_up) {
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
        report.check(seen() >= published, "no shard batch saw a published link");
        visible_us.add(us_between(due, Clock::now()));
      }
      retired.add(static_cast<double>(hub.retired_pending()));
      const Clock::time_point revoke_due = due + period / 2;
      std::this_thread::sleep_until(revoke_due);
      late_us.add(us_between(revoke_due, Clock::now()));
      client.revoke_step([&](ProgramId id) { return controller.revoke(id); }, &revoke_due);
      retired.add(static_cast<double>(hub.retired_pending()));
    }
    stop.store(true, std::memory_order_relaxed);
    for (auto& t : threads) t.join();
    const double elapsed = seconds_between(start, Clock::now());
    packets = 0;
    recirc_passes = 0;
    for (const auto& w : workers) {
      report.check(!w->epoch_went_back, "a shard's snapshot epoch went backwards");
      batch_us.append(w->batch_us);
      packets += w->packets;
      recirc_passes += w->recirc_passes;
    }
    total_packets += packets;
    return std::make_pair(elapsed, static_cast<double>(hub.publishes() - publishes_at));
  };

  window(warmup_seconds(args), false);
  double untraced_op_us = 0.0;
  ControlRegistryDelta registry_at;
  if (args.trace) {
    window(args.seconds / 3.0, false);
    untraced_op_us = visible_us.scaled_p50();
    registry_at = ControlRegistryDelta::at(bed.telemetry.metrics);
  }
  const auto [elapsed, publishes] = window(args.trace ? args.seconds * 2.0 / 3.0 : args.seconds,
                                           args.trace);
  const double pps = static_cast<double>(packets) / elapsed;
  const ClientTotals totals({&client});
  report.attempted = totals.attempted;
  report.failed = totals.failed;

  const std::size_t steady_programs = controller.program_count();
  const double steady_entries = mean_entries_per_rpb(controller.resources());
  report.check(steady_programs == base.programs + kWindow,
               "installed count drifted from the steady state during churn");
  if (args.trace) {
    totals.report_layers(report);
    registry_at.finish(bed.telemetry.metrics, totals.link_us.size(), report);
    report.layer("dataplane.snapshot_build_us", snapshot_build_us(bed.dataplane, 21), "us");
    report.layer("dataplane.publishes_per_s", publishes / elapsed, "1/s");
    report.layer("dataplane.retired_pending_max", retired.max(), "count");
    report.layer("traffic.late_p99_us", late_us.quantile(0.99), "us");
    std::uint64_t claimed = 0;
    std::uint64_t lookups = 0;
    for (const ProgramId id : controller.running_programs()) {
      claimed += bed.dataplane.claimed_packets(id);
    }
    for (int s = 0; s < kShards; ++s) {
      const auto& stats = bed.dataplane.shard_pipeline(s).stage_stats();
      lookups += stats.table_hits + stats.table_misses;
    }
    const double all = static_cast<double>(total_packets);
    report.layer("rmt.claimed_frac", static_cast<double>(claimed) / all, "frac");
    report.layer("rmt.recirc_per_pkt", static_cast<double>(recirc_passes) / packets, "1/pkt");
    report.layer("rmt.lookups_per_pkt", static_cast<double>(lookups) / all, "1/pkt");
    report.layer("input.installed_programs", static_cast<double>(steady_programs), "count");
    report.layer("input.entries_per_rpb", steady_entries, "count");
    report.layer("trace.overhead_ratio", visible_us.scaled_p50() / untraced_op_us, "ratio");
  }
  client.drain([&](ProgramId id) { return controller.revoke(id); }, report);
  report.check(occupancy_of(controller.resources(), controller.program_count()) == base,
               "program count or per-RPB occupancy differs from the steady state");

  totals.report_named(report);
  report.note("visible_p50_us", visible_us.median(), "us");
  report.note("visible_p99_us", visible_us.quantile(0.99), "us");
  report.note("pps", pps, "1/s");
  report.note("batch_p50_us", batch_us.median(), "us");
  report.note("batch_p99_us", batch_us.quantile(0.99), "us");
  report.note("late_p99_us", late_us.quantile(0.99), "us");
  report.note("input.installed_programs", static_cast<double>(steady_programs), "count");
  report.note("input.entries_per_rpb", steady_entries, "count");
  report.note("input.publishes_per_s", publishes / elapsed, "1/s");
  report.gate("op_p50_us", visible_us.scaled_p50(), "us");
  report.gate("op_p75_us", visible_us.scaled_p75(), "us");
  // Shard batches run in parallel, one per worker.
  report.note("pps_scaled", kShards * 1e6 * kBatch / batch_us.scaled_p50(), "1/s");
  setup_s.report_to(report);
}

// --- main ------------------------------------------------------------------

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <deploy_churn|packet_mix|"
               "churn_under_traffic|chain_churn> --seed <n> --seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing flag value");
    const char* value = argv[++i];
    char* rest = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &rest, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &rest);
      if (!(args.seconds > 0.0)) usage("--seconds must be positive");
    } else if (flag == "--trace") {
      args.trace = std::string_view(value) == "1";
    } else {
      usage("unknown flag");
    }
    if (rest != nullptr && *rest != '\0') usage("malformed number");
  }
  if (args.workload.empty()) usage("--workload is required");
  return args;
}

void print_json(const Report& report, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  Report report;
  if (args.workload == "deploy_churn") {
    run_deploy_churn(args, report);
  } else if (args.workload == "packet_mix") {
    run_packet_mix(args, report);
  } else if (args.workload == "churn_under_traffic") {
    run_churn_under_traffic(args, report);
  } else if (args.workload == "chain_churn") {
    run_chain_churn(args, report);
  } else {
    usage("unknown workload");
  }
  // The probe's tables are the benchmark's own memory, not the program's.
  report.gate("peak_rss_mb", peak_rss_mb() - SpeedProbe::instance().table_mb(), "MB");
  report.note("host.control_probe_us", SpeedProbe::instance().median_us(ProbeKind::kControl),
              "us");
  report.note("host.packet_probe_us", SpeedProbe::instance().median_us(ProbeKind::kPacket),
              "us");
  report.check(report.attempted > 0, "no operation was attempted");
  for (const Metric& m : report.named) {
    std::printf("%-32s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (args.trace) {
    fill_missing_layers(report);
    for (const Metric& m : report.layers) {
      std::printf("%-32s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  for (const Metric& m : report.gated) {
    report.check(std::isfinite(m.value), "non-finite metric " + m.name);
  }
  print_json(report, args.trace ? report.layers : report.gated);
  return report.correct ? 0 : 1;
}
