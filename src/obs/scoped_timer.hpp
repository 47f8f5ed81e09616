// RAII profiling span.
//
// A ScopedTimer measures the wall-clock time from construction to
// destruction and, on destruction, (a) emits a span event to the default
// sink and (b) records the duration into an optional histogram. When
// neither destination is live at construction time the timer is inert:
// no clock reads, no allocation — so instrumented hot paths cost nothing
// with observability disabled.
//
// When the span event will be emitted, the timer also *opens a causal
// span*: it allocates a span id and installs it as the thread-local
// SpanContext for its lifetime, so every event created inside the scope
// (including on worker threads, via ThreadPool's context capture)
// records this span as its parent. The emitted event carries the span id
// and the parent that was current at construction. A timer that is
// active only for its histogram does not open a span — it will emit no
// event, and children should attach to the nearest emitted ancestor.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "support/span_context.hpp"
#include "support/timer.hpp"

namespace portatune::obs {

class ScopedTimer {
 public:
  ScopedTimer(std::string name, std::string category,
              std::vector<Field> fields = {},
              Histogram* histogram = nullptr,
              Severity severity = Severity::Info)
      : active_(histogram != nullptr || enabled(severity)),
        severity_(severity),
        histogram_(histogram) {
    if (!active_) return;
    name_ = std::move(name);
    category_ = std::move(category);
    fields_ = std::move(fields);
    if (enabled(severity_)) {
      span_id_ = next_span_id();
      parent_span_id_ = current_span_context().span;
      scope_.enter(SpanContext{span_id_});
    }
    timer_.reset();
  }

  ~ScopedTimer() {
    if (!active_) return;
    const double elapsed = timer_.seconds();
    if (histogram_ != nullptr) histogram_->observe(elapsed);
    if (span_id_ != 0 && enabled(severity_)) {
      Event e = make_span(severity_, std::move(name_), std::move(category_),
                          elapsed, std::move(fields_));
      e.span_id = span_id_;
      e.parent_span_id = parent_span_id_;
      emit(e);
    }
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Attach a field after construction (e.g. a result computed inside the
  /// span). Dropped when the timer is inert.
  void add_field(Field field) {
    if (active_) fields_.push_back(std::move(field));
  }

  /// Seconds since construction (0 when inert).
  double seconds() const { return active_ ? timer_.seconds() : 0.0; }

  bool active() const noexcept { return active_; }
  /// The causal span this timer opened (0 when inert or histogram-only).
  std::uint64_t span_id() const noexcept { return span_id_; }

 private:
  bool active_;
  Severity severity_;
  Histogram* histogram_;
  std::uint64_t span_id_ = 0;
  std::uint64_t parent_span_id_ = 0;
  std::string name_, category_;
  std::vector<Field> fields_;
  SpanScope scope_;
  WallTimer timer_;
};

}  // namespace portatune::obs
