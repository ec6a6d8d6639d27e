#include "obs/metrics.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "obs/json.h"

namespace p4runpro::obs {

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), counts_(bounds_.size() + 1, 0) {
  std::sort(bounds_.begin(), bounds_.end());
}

void Histogram::observe(double v) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += v;
  if (count_ == 1) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
}

double Histogram::quantile(double q) const noexcept {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count_);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    if (counts_[b] == 0) continue;
    const double lo_cum = static_cast<double>(cumulative);
    cumulative += counts_[b];
    if (static_cast<double>(cumulative) < rank) continue;
    // The rank lands in bucket b: interpolate between its bounds.
    double lo = b == 0 ? std::min(min_, bounds_.empty() ? min_ : bounds_[0]) : bounds_[b - 1];
    double hi = b < bounds_.size() ? bounds_[b] : max_;
    lo = std::max(lo, min_);
    hi = std::min(hi, max_);
    if (hi <= lo) return hi;
    const double frac =
        counts_[b] == 0 ? 0.0 : (rank - lo_cum) / static_cast<double>(counts_[b]);
    return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
  }
  return max_;
}

std::vector<double> Histogram::time_ms_bounds() {
  // 1 us .. 100 s in 1-2-5 steps per decade.
  std::vector<double> bounds;
  for (double decade = 1e-3; decade < 1e5; decade *= 10.0) {
    bounds.push_back(decade);
    bounds.push_back(decade * 2.0);
    bounds.push_back(decade * 5.0);
  }
  return bounds;
}

std::vector<double> Histogram::count_bounds() {
  std::vector<double> bounds;
  for (double b = 1.0; b <= 65536.0; b *= 2.0) bounds.push_back(b);
  return bounds;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  return counters_.emplace(std::string(name), Counter{}).first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second;
  return gauges_.emplace(std::string(name), Gauge{}).first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::span<const double> bounds) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  std::vector<double> b = bounds.empty()
                              ? Histogram::time_ms_bounds()
                              : std::vector<double>(bounds.begin(), bounds.end());
  return histograms_.emplace(std::string(name), Histogram(std::move(b))).first->second;
}

void MetricsRegistry::register_probe(std::string_view name, const void* owner,
                                     std::function<double()> fn) {
  probes_.insert_or_assign(std::string(name), Probe{owner, std::move(fn)});
}

void MetricsRegistry::unregister_probes(const void* owner) {
  for (auto it = probes_.begin(); it != probes_.end();) {
    if (it->second.owner == owner) {
      // Freeze the final sample into an owned gauge so exports taken after
      // the owner's death still carry the last observed value.
      gauge(it->first).set(it->second.fn());
      it = probes_.erase(it);
    } else {
      ++it;
    }
  }
}

double MetricsRegistry::gauge_value(std::string_view name) const {
  if (const auto it = probes_.find(name); it != probes_.end()) return it->second.fn();
  if (const auto it = gauges_.find(name); it != gauges_.end()) return it->second.value();
  return 0.0;
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Histogram* MetricsRegistry::find_histogram(std::string_view name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

std::vector<std::pair<std::string, double>> MetricsRegistry::sampled_gauges() const {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(gauges_.size() + probes_.size());
  auto g = gauges_.begin();
  auto p = probes_.begin();
  // Merge the two sorted maps; a probe shadows an owned gauge of the same name.
  while (g != gauges_.end() || p != probes_.end()) {
    if (p == probes_.end() || (g != gauges_.end() && g->first < p->first)) {
      out.emplace_back(g->first, g->second.value());
      ++g;
    } else {
      if (g != gauges_.end() && g->first == p->first) ++g;
      out.emplace_back(p->first, p->second.fn());
      ++p;
    }
  }
  return out;
}

void MetricsRegistry::clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  probes_.clear();
  epoch_ = next_epoch();
}

std::uint64_t MetricsRegistry::next_epoch() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void export_metrics_jsonl(const MetricsRegistry& registry, std::ostream& out) {
  for (const auto& [name, counter] : registry.counters()) {
    out << "{\"name\":\"" << json_escape(name) << "\",\"type\":\"counter\",\"value\":"
        << counter.value() << "}\n";
  }
  for (const auto& [name, value] : registry.sampled_gauges()) {
    out << "{\"name\":\"" << json_escape(name) << "\",\"type\":\"gauge\",\"value\":"
        << json_number(value) << "}\n";
  }
  for (const auto& [name, h] : registry.histograms()) {
    // Empty histograms are skipped: their 0-valued p50/p90/p99 read as
    // measurements when they are really "no data" (see Histogram::quantile).
    if (h.count() == 0) continue;
    out << "{\"name\":\"" << json_escape(name) << "\",\"type\":\"histogram\",\"count\":"
        << h.count() << ",\"sum\":" << json_number(h.sum())
        << ",\"min\":" << json_number(h.min()) << ",\"max\":" << json_number(h.max())
        << ",\"p50\":" << json_number(h.quantile(0.5))
        << ",\"p90\":" << json_number(h.quantile(0.9))
        << ",\"p99\":" << json_number(h.quantile(0.99)) << ",\"buckets\":[";
    const auto& counts = h.bucket_counts();
    bool first = true;
    for (std::size_t b = 0; b < counts.size(); ++b) {
      if (counts[b] == 0) continue;  // sparse: empty buckets are implicit
      if (!first) out << ",";
      first = false;
      out << "{\"le\":";
      if (b < h.bounds().size()) {
        out << json_number(h.bounds()[b]);
      } else {
        out << "\"+inf\"";
      }
      out << ",\"count\":" << counts[b] << "}";
    }
    out << "]}\n";
  }
}

}  // namespace p4runpro::obs
