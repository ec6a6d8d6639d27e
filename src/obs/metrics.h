// Telemetry metrics registry: named counters, gauges and fixed-bucket
// histograms shared by every layer of the stack (compiler, controller, RMT
// pipeline). Dependency-free and cheap enough for hot paths: a Counter is a
// plain uint64 behind a stable reference, so callers resolve the name once
// and increment through the cached pointer.
//
// Besides owned metrics the registry supports *probes*: externally-owned
// values (e.g. the pipeline's packet counters) registered as callbacks and
// sampled at export time, so the member variable stays the single source of
// truth. Probes carry an owner token; owners unregister in their destructor.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace p4runpro::obs {

/// Monotonic event count.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) noexcept { value_ += delta; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }
  void reset() noexcept { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  void add(double delta) noexcept { value_ += delta; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram with quantile extraction. Buckets are defined by
/// ascending upper bounds; an implicit overflow bucket catches everything
/// above the last bound. Quantiles interpolate linearly inside the bucket
/// that crosses the requested rank (the overflow bucket is clamped to the
/// maximum observed value).
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double min() const noexcept { return count_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const noexcept { return count_ == 0 ? 0.0 : max_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  /// q in [0, 1]; p50/p90/p99 are quantile(0.5) etc. An empty histogram
  /// returns 0.0 for every q (never NaN) — but 0 is a *sentinel*, not a
  /// measurement: check count() before treating it as one. The JSONL
  /// exporter and the time-series rollups skip empty histograms entirely
  /// for this reason.
  [[nodiscard]] double quantile(double q) const noexcept;

  [[nodiscard]] const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// Per-bucket counts; size() == bounds().size() + 1 (overflow last).
  [[nodiscard]] const std::vector<std::uint64_t>& bucket_counts() const noexcept {
    return counts_;
  }

  /// Default bounds for millisecond timings: 1 us .. ~100 s, ~3 buckets per
  /// decade.
  [[nodiscard]] static std::vector<double> time_ms_bounds();
  /// Default bounds for entry/size counts: 1 .. 65536, powers of two.
  [[nodiscard]] static std::vector<double> count_bounds();

 private:
  std::vector<double> bounds_;          // ascending upper bounds
  std::vector<std::uint64_t> counts_;   // bounds_.size() + 1 (overflow)
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

class MetricsRegistry {
 public:
  /// Look up or create. References are stable for the registry's lifetime
  /// (node-based storage); hot paths should cache them.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `bounds` applies only on first creation; empty means time_ms_bounds().
  Histogram& histogram(std::string_view name, std::span<const double> bounds = {});

  /// Register an externally-owned value sampled at export time. A probe
  /// with the same name replaces the previous one (last owner wins).
  void register_probe(std::string_view name, const void* owner,
                      std::function<double()> fn);
  /// Drop every probe registered by `owner` (called from owner destructors;
  /// probes re-registered under the same name by a newer owner are kept).
  /// Each dropped probe's final sample is frozen into an owned gauge so
  /// later exports still see the last value.
  void unregister_probes(const void* owner);

  /// Sample one probe or gauge by name; returns 0 when absent.
  [[nodiscard]] double gauge_value(std::string_view name) const;
  [[nodiscard]] const Counter* find_counter(std::string_view name) const;
  [[nodiscard]] const Histogram* find_histogram(std::string_view name) const;

  [[nodiscard]] const std::map<std::string, Counter, std::less<>>& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Gauge, std::less<>>& gauges() const noexcept {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, Histogram, std::less<>>& histograms()
      const noexcept {
    return histograms_;
  }
  /// Gauge view merging owned gauges and sampled probes, sorted by name.
  [[nodiscard]] std::vector<std::pair<std::string, double>> sampled_gauges() const;

  /// Drops every metric and probe: references handed out before are invalid.
  void clear();
  /// Changes at every clear(); no two registries start with the same one.
  /// MetricRef re-resolves when it changes.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

 private:
  struct Probe {
    const void* owner = nullptr;
    std::function<double()> fn;
  };

  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  std::map<std::string, Probe, std::less<>> probes_;
  std::uint64_t epoch_ = next_epoch();

  [[nodiscard]] static std::uint64_t next_epoch() noexcept;
};

/// A handle on one registry metric for hot paths: looked up by name on
/// first use, then reused until the registry is cleared (clear() drops every
/// metric it handed out) or another registry is passed. The metric is
/// created at its first use, as a by-name lookup would, so caching adds
/// nothing to the exported set. Not thread-safe, as the registry.
template <typename Metric>
class MetricRef {
 public:
  /// `name` must outlive the handle (a literal). A histogram's `bounds`
  /// (null: time_ms_bounds()) apply only on creation.
  explicit MetricRef(std::string_view name, std::vector<double> (*bounds)() = nullptr)
      : name_(name), bounds_(bounds) {}

  Metric& in(MetricsRegistry& registry) {
    if (registry_ != &registry || epoch_ != registry.epoch()) {
      metric_ = &resolve(registry);
      registry_ = &registry;
      epoch_ = registry.epoch();
    }
    return *metric_;
  }

 private:
  Metric& resolve(MetricsRegistry& registry) const {
    if constexpr (std::is_same_v<Metric, Histogram>) {
      return bounds_ != nullptr ? registry.histogram(name_, bounds_())
                                : registry.histogram(name_);
    } else if constexpr (std::is_same_v<Metric, Gauge>) {
      return registry.gauge(name_);
    } else {
      return registry.counter(name_);
    }
  }

  std::string_view name_;
  std::vector<double> (*bounds_)();
  MetricsRegistry* registry_ = nullptr;
  std::uint64_t epoch_ = 0;
  Metric* metric_ = nullptr;
};

using CounterRef = MetricRef<Counter>;
using GaugeRef = MetricRef<Gauge>;
using HistogramRef = MetricRef<Histogram>;

/// JSON-lines export: one object per metric, sorted by name within each
/// metric kind (counters, then gauges/probes, then histograms). Output is
/// deterministic for identical registry contents.
void export_metrics_jsonl(const MetricsRegistry& registry, std::ostream& out);

}  // namespace p4runpro::obs
