#include "obs/trace.h"

#include <algorithm>
#include <cstdio>

#include "obs/json.h"

namespace p4runpro::obs {

namespace {

/// Nanoseconds rendered as microseconds with fixed 3 decimals, computed in
/// integer arithmetic so the output is bit-for-bit deterministic.
[[nodiscard]] std::string micros_fixed(SimClock::Nanos ns) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  return buf;
}

[[nodiscard]] std::string wall_ms_fixed(double ms) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6f", ms);
  return buf;
}

}  // namespace

void SpanTracer::Scope::arg(std::string_view key, std::string_view value) {
  if (tracer_ == nullptr) return;
  if (SpanRecord* span = tracer_->live_span(index_, generation_)) {
    span->args.emplace_back(std::string(key), std::string(value));
  }
}

void SpanTracer::Scope::arg(std::string_view key, std::uint64_t value) {
  arg(key, std::string_view(std::to_string(value)));
}

void SpanTracer::Scope::end() {
  if (tracer_ == nullptr) return;
  tracer_->end_span(index_, generation_);
  tracer_ = nullptr;
  index_ = kNoSpan;
}

SpanTracer::SpanTracer() = default;

SpanTracer::Scope SpanTracer::span(std::string_view name, std::string_view cat) {
  if (full()) {
    ++dropped_;
    return Scope{};
  }
  SpanRecord record;
  record.name = std::string(name);
  record.cat = std::string(cat);
  record.parent = open_stack_.empty()
                      ? -1
                      : static_cast<std::ptrdiff_t>(open_stack_.back());
  record.depth = static_cast<int>(open_stack_.size());
  record.start_vns = clock_ != nullptr ? clock_->now_ns() : 0;
  record.end_vns = record.start_vns;
  record.start_wall_ms = wall_.elapsed_ms();
  if (trace_ctx_ != nullptr && trace_ctx_->valid()) {
    record.trace = trace_ctx_->trace_id;
    if (trace_ctx_->parent_span == 0) {
      // First span under a fresh context: it anchors the whole operation.
      trace_ctx_->parent_span = spans_.size() + 1;
    }
  }
  const std::size_t index = spans_.size();
  spans_.push_back(std::move(record));
  open_stack_.push_back(index);
  return Scope{this, index, generation_};
}

void SpanTracer::record_span(std::string_view name, std::string_view cat,
                             SimClock::Nanos start_vns, SimClock::Nanos end_vns,
                             std::uint64_t trace,
                             std::vector<std::pair<std::string, std::string>> args) {
  if (full()) {
    ++dropped_;
    return;
  }
  SpanRecord record;
  record.name = std::string(name);
  record.cat = std::string(cat);
  record.parent = open_stack_.empty()
                      ? -1
                      : static_cast<std::ptrdiff_t>(open_stack_.back());
  record.depth = static_cast<int>(open_stack_.size());
  record.trace = trace;
  record.start_vns = start_vns;
  record.end_vns = end_vns;
  record.start_wall_ms = wall_.elapsed_ms();
  record.wall_ms = 0.0;  // retrospective record: no wall duration to report
  record.open = false;
  record.args = std::move(args);
  spans_.push_back(std::move(record));
}

SpanRecord* SpanTracer::live_span(std::size_t index, std::uint64_t generation) {
  if (generation != generation_ || index >= spans_.size()) return nullptr;
  return spans_[index].open ? &spans_[index] : nullptr;
}

void SpanTracer::end_span(std::size_t index, std::uint64_t generation) {
  SpanRecord* span = live_span(index, generation);
  if (span == nullptr) return;
  const SimClock::Nanos now_vns = clock_ != nullptr ? clock_->now_ns() : span->start_vns;
  const double now_wall = wall_.elapsed_ms();
  // Close any still-open descendants first (out-of-order end).
  while (!open_stack_.empty() && open_stack_.back() != index) {
    SpanRecord& inner = spans_[open_stack_.back()];
    if (inner.open) {
      inner.end_vns = now_vns;
      inner.wall_ms = now_wall - inner.start_wall_ms;
      inner.open = false;
    }
    open_stack_.pop_back();
  }
  if (!open_stack_.empty()) open_stack_.pop_back();
  span->end_vns = now_vns;
  span->wall_ms = now_wall - span->start_wall_ms;
  span->open = false;
}

std::vector<std::size_t> SpanTracer::children_of(std::size_t index) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent == static_cast<std::ptrdiff_t>(index)) out.push_back(i);
  }
  return out;
}

std::size_t SpanTracer::find(std::string_view name) const {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) return i;
  }
  return kNoSpan;
}

void SpanTracer::clear() {
  spans_.clear();
  open_stack_.clear();
  dropped_ = 0;
  ++generation_;
}

void export_chrome_trace(const SpanTracer& tracer, std::ostream& out,
                         bool include_wall) {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& span : tracer.spans()) {
    if (span.open) continue;  // unfinished spans are not exported
    if (!first) out << ",";
    first = false;
    out << "\n{\"name\":\"" << json_escape(span.name) << "\",\"cat\":\""
        << json_escape(span.cat.empty() ? "default" : span.cat)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << micros_fixed(span.start_vns)
        << ",\"dur\":" << micros_fixed(span.virtual_ns());
    if (include_wall || !span.args.empty() || span.trace != 0) {
      out << ",\"args\":{";
      bool first_arg = true;
      if (span.trace != 0) {
        out << "\"trace\":\"" << format_trace_id(span.trace) << "\"";
        first_arg = false;
      }
      for (const auto& [key, value] : span.args) {
        if (!first_arg) out << ",";
        first_arg = false;
        out << "\"" << json_escape(key) << "\":\"" << json_escape(value) << "\"";
      }
      if (include_wall) {
        if (!first_arg) out << ",";
        out << "\"wall_ms\":\"" << wall_ms_fixed(span.wall_ms) << "\"";
      }
      out << "}";
    }
    out << "}";
  }
  out << "\n]}\n";
}

}  // namespace p4runpro::obs
