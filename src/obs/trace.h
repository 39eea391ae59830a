#ifndef LIMCAP_OBS_TRACE_H_
#define LIMCAP_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace limcap::obs {

/// Index of a span within its tracer; stable for the tracer's lifetime.
using SpanId = uint32_t;
inline constexpr SpanId kNoSpan = 0xFFFFFFFFu;

/// One hierarchical interval of the answer path. Spans carry two
/// timelines: the wall clock (microseconds since the tracer's epoch,
/// always present) and the execution's *simulated* clock (milliseconds,
/// present only for spans the source-access runtime placed on its
/// simulated timeline — see FetchScheduler). Counters attach exact
/// integals/doubles (attempts, activations, facts) so exporters and the
/// consistency tests never re-derive them from timing.
struct Span {
  std::string name;    ///< taxonomy name, e.g. "fetch", "eval.round"
  std::string detail;  ///< free-form label, e.g. the source or connection
  SpanId parent = kNoSpan;
  double start_us = 0;  ///< wall clock, relative to the tracer epoch
  double dur_us = 0;
  double sim_start_ms = -1;  ///< simulated placement; < 0 means none
  double sim_dur_ms = 0;
  std::vector<std::pair<std::string, double>> counters;
  bool open = false;  ///< Begin seen, End not yet
};

/// Records the span tree of one query answer. Contract:
///
///   * Single-threaded: only the driver thread of an execution may touch
///     a tracer. The fetch scheduler honors this by emitting spans only
///     at its (driver-side, deterministic-order) merge point, never from
///     worker threads — which is also what keeps traced runs
///     bit-identical to untraced ones.
///   * Disabled is free: every emission site in the library guards with
///     `tracer != nullptr && tracer->enabled()`, so the disabled hot
///     path costs two branches and performs no allocation. The
///     compile-time analogue is NullTracer below.
///   * Begin/End nest: End(id) closes `id` and any span opened after it
///     that is still open (malformed nesting never corrupts the tree).
class Tracer {
 public:
  explicit Tracer(bool enabled = true)
      : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span as a child of the innermost open span.
  SpanId Begin(std::string name, std::string detail = std::string());
  void End(SpanId id);

  /// A zero-length child span (an event).
  SpanId Instant(std::string name, std::string detail = std::string());

  /// Places `id` on the simulated timeline.
  void SetSimulated(SpanId id, double start_ms, double dur_ms);
  /// Attaches (or accumulates into) a named counter of `id`.
  void Counter(SpanId id, std::string name, double value);

  const std::vector<Span>& spans() const { return spans_; }
  bool empty() const { return spans_.empty(); }

  // -- Aggregation helpers (the consistency contract's query surface) --

  /// Number of spans named `name` (optionally filtered by detail).
  std::size_t CountSpans(std::string_view name) const;
  std::size_t CountSpans(std::string_view name,
                         std::string_view detail) const;
  /// Sum of counter `counter` over all spans named `name`.
  double SumCounter(std::string_view name, std::string_view counter) const;
  /// Same, restricted to spans whose detail is `detail`.
  double SumCounter(std::string_view name, std::string_view detail,
                    std::string_view counter) const;

 private:
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<SpanId> open_stack_;
};

/// RAII span. Null or disabled tracer: every operation is a no-op (two
/// branches, no allocation — the strings are not even constructed when
/// callers pass string literals through the const char* overloads).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(Live(tracer)), id_(tracer_ ? tracer_->Begin(name) : kNoSpan) {}
  ScopedSpan(Tracer* tracer, const char* name, std::string detail)
      : tracer_(Live(tracer)),
        id_(tracer_ ? tracer_->Begin(name, std::move(detail)) : kNoSpan) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Counter(const char* name, double value) {
    if (tracer_ != nullptr) tracer_->Counter(id_, name, value);
  }
  void SetSimulated(double start_ms, double dur_ms) {
    if (tracer_ != nullptr) tracer_->SetSimulated(id_, start_ms, dur_ms);
  }
  SpanId id() const { return id_; }
  Tracer* tracer() const { return tracer_; }

 private:
  static Tracer* Live(Tracer* tracer) {
    return tracer != nullptr && tracer->enabled() ? tracer : nullptr;
  }
  Tracer* tracer_;
  SpanId id_;
};

/// The compile-time null tracer: an empty type whose operations are
/// constexpr no-ops, for code generic over the tracer ("is the disabled
/// path really free?" is checkable with static_assert — see obs_test).
struct NullTracer {
  static constexpr bool kEnabled = false;
  static constexpr bool enabled() { return false; }
  static constexpr SpanId Begin(std::string_view /*name*/,
                                std::string_view /*detail*/ = {}) {
    return kNoSpan;
  }
  static constexpr void End(SpanId /*id*/) {}
  static constexpr SpanId Instant(std::string_view /*name*/,
                                  std::string_view /*detail*/ = {}) {
    return kNoSpan;
  }
  static constexpr void SetSimulated(SpanId /*id*/, double /*start_ms*/,
                                     double /*dur_ms*/) {}
  static constexpr void Counter(SpanId /*id*/, std::string_view /*name*/,
                                double /*value*/) {}
};

}  // namespace limcap::obs

#endif  // LIMCAP_OBS_TRACE_H_
