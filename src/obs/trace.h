// Phase-span tracer: nested, named spans timed in SimClock virtual time
// (primary, deterministic) and wall time (secondary, for real computation
// cost such as the allocation solver). Completed spans form a tree; the
// Chrome trace_event exporter writes a file that about://tracing and
// Perfetto load directly.
//
// Span naming convention (docs/OBSERVABILITY.md): dotted lowercase phases,
// e.g. the controller's link tree is
//   link -> parse, translate, solve, entrygen, install -> bfrt.batch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "obs/trace_context.h"

namespace p4runpro::obs {

/// One completed (or still open) span.
struct SpanRecord {
  std::string name;
  std::string cat;              ///< layer tag: "ctrl", "compiler", "bfrt", ...
  std::ptrdiff_t parent = -1;   ///< index into SpanTracer::spans(), -1 = root
  int depth = 0;                ///< nesting level (0 = root)
  /// Causal trace id of the control operation this span belongs to
  /// (0 = opened outside any traced entry point).
  std::uint64_t trace = 0;
  SimClock::Nanos start_vns = 0;  ///< virtual start
  SimClock::Nanos end_vns = 0;    ///< virtual end (== start while open)
  double start_wall_ms = 0.0;   ///< wall-clock start, relative to tracer birth
  double wall_ms = 0.0;         ///< wall-clock duration
  bool open = true;
  std::vector<std::pair<std::string, std::string>> args;

  [[nodiscard]] SimClock::Nanos virtual_ns() const noexcept {
    return end_vns - start_vns;
  }
  [[nodiscard]] double virtual_ms() const noexcept {
    return static_cast<double>(virtual_ns()) / 1e6;
  }
};

class SpanTracer {
 public:
  static constexpr std::size_t kNoSpan = static_cast<std::size_t>(-1);

  /// RAII handle; ends the span on destruction (or explicitly). Inert when
  /// default-constructed or when the tracer dropped the span (cap reached).
  class Scope {
   public:
    Scope() = default;
    Scope(SpanTracer* tracer, std::size_t index, std::uint64_t generation)
        : tracer_(tracer), index_(index), generation_(generation) {}
    Scope(Scope&& other) noexcept { *this = std::move(other); }
    Scope& operator=(Scope&& other) noexcept {
      end();
      tracer_ = other.tracer_;
      index_ = other.index_;
      generation_ = other.generation_;
      other.tracer_ = nullptr;
      other.index_ = kNoSpan;
      return *this;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { end(); }

    /// Attach a key/value annotation (rendered into trace_event args).
    void arg(std::string_view key, std::string_view value);
    void arg(std::string_view key, std::uint64_t value);

    void end();
    [[nodiscard]] bool active() const noexcept { return tracer_ != nullptr; }

   private:
    SpanTracer* tracer_ = nullptr;
    std::size_t index_ = kNoSpan;
    std::uint64_t generation_ = 0;  ///< must match the tracer (clear() bumps it)
  };

  SpanTracer();

  /// Virtual-time source. Unset, spans record virtual time 0 (wall time
  /// still measured).
  void set_clock(const SimClock* clock) noexcept { clock_ = clock; }

  /// Active trace context (owned by the Telemetry bundle; obs::TraceScope
  /// swaps it at controller entry points). New spans are stamped with its
  /// trace id; the first span opened under a fresh context becomes the
  /// context's root (parent_span). Null disables stamping.
  void set_trace_context(TraceContext* context) noexcept { trace_ctx_ = context; }

  /// Open a nested span. Scope ends it; out-of-order ends close any still
  /// open descendants at the same instant.
  [[nodiscard]] Scope span(std::string_view name, std::string_view cat = "");

  /// Record an already-completed span with explicit virtual start/end times,
  /// an explicit trace id and the wall duration it measured. The record
  /// parents under the currently open span and never anchors the active
  /// trace context. Subject to the same capacity cap as span(). Two users:
  ///  - the async control channel: the writer thread charges batches
  ///    off-thread, and the caller replays them at completion time, stamped
  ///    with the trace id captured at submission (not whatever context is
  ///    active at finish); a replay has no wall duration and leaves it 0;
  ///  - the controller's compile and solve records: the pure compiler runs
  ///    on any thread, and the controller records its "parse", "translate"
  ///    and "solve" spans under the session lock with the wall time each
  ///    layer measured.
  void record_span(std::string_view name, std::string_view cat,
                   SimClock::Nanos start_vns, SimClock::Nanos end_vns,
                   std::uint64_t trace,
                   std::vector<std::pair<std::string, std::string>> args = {},
                   double wall_ms = 0.0);

  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept { return spans_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  /// True when the capacity cap is reached: the next span is dropped.
  [[nodiscard]] bool full() const noexcept { return spans_.size() >= max_spans_; }

  /// Children of span `index`, in recording order.
  [[nodiscard]] std::vector<std::size_t> children_of(std::size_t index) const;
  /// First span with this name, or kNoSpan.
  [[nodiscard]] std::size_t find(std::string_view name) const;

  /// Drop all recorded spans (open scopes become inert).
  void clear();

  /// Upper bound on retained spans; beyond it new spans are counted as
  /// dropped instead of recorded (long bench runs stay bounded).
  void set_capacity(std::size_t max_spans) noexcept { max_spans_ = max_spans; }

 private:
  friend class Scope;
  void end_span(std::size_t index, std::uint64_t generation);
  [[nodiscard]] SpanRecord* live_span(std::size_t index, std::uint64_t generation);

  const SimClock* clock_ = nullptr;
  TraceContext* trace_ctx_ = nullptr;
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> open_stack_;
  std::size_t max_spans_ = 1u << 20;
  std::uint64_t dropped_ = 0;
  std::uint64_t generation_ = 0;  ///< bumped by clear(); stale scopes no-op
  WallTimer wall_;
};

/// Chrome trace_event export ("traceEvents" JSON, complete events ph:"X",
/// timestamps in microseconds of *virtual* time). With `include_wall` the
/// wall-clock duration is added to each event's args — leave it off for
/// deterministic byte-identical exports of identical runs.
void export_chrome_trace(const SpanTracer& tracer, std::ostream& out,
                         bool include_wall = false);

}  // namespace p4runpro::obs
