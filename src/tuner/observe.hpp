// Search-level observability glue.
//
// SearchSpanGuard wraps one search-algorithm invocation: constructed at
// entry, it emits a "search.<algo>" span event at scope exit summarising
// the run (evals, attempts, failures, best, simulated search time, stop
// reason). It also opens the causal span every window/evaluation event
// of the search nests under — including events emitted on worker threads,
// whose SpanContext is carried across the ThreadPool hop. Inert (no
// clock reads, no allocation) when no sink is listening, so the search
// hot loops cost nothing with observability disabled.
#pragma once

#include <utility>
#include <vector>

#include "obs/event.hpp"
#include "obs/sink.hpp"
#include "support/span_context.hpp"
#include "support/timer.hpp"
#include "tuner/trace.hpp"

namespace portatune::tuner {

class SearchSpanGuard {
 public:
  /// `trace` must outlive the guard (the usual pattern: guard the trace
  /// local of the search function).
  explicit SearchSpanGuard(const SearchTrace& trace)
      : trace_(trace), active_(obs::enabled(obs::Severity::Info)) {
    if (!active_) return;
    span_id_ = next_span_id();
    parent_span_id_ = current_span_context().span;
    scope_.enter(SpanContext{span_id_});
    timer_.reset();
  }

  ~SearchSpanGuard() {
    if (!active_ || !obs::enabled(obs::Severity::Info)) return;
    const auto& fs = trace_.failure_stats();
    std::vector<obs::Field> fields{
        {"algorithm", trace_.algorithm()},
        {"problem", trace_.problem()},
        {"machine", trace_.machine()},
        {"evals", trace_.size()},
        {"attempts", fs.attempts},
        {"failures", fs.failures},
        {"search_seconds", trace_.total_time()},
    };
    if (!trace_.empty())
      fields.emplace_back("best_seconds", trace_.best_seconds());
    if (!trace_.stop_reason().empty())
      fields.emplace_back("stop", trace_.stop_reason());
    obs::Event e = obs::make_span(obs::Severity::Info,
                                  "search." + trace_.algorithm(), "search",
                                  timer_.seconds(), std::move(fields));
    e.span_id = span_id_;
    e.parent_span_id = parent_span_id_;
    obs::emit(e);
  }

  SearchSpanGuard(const SearchSpanGuard&) = delete;
  SearchSpanGuard& operator=(const SearchSpanGuard&) = delete;

 private:
  const SearchTrace& trace_;
  bool active_;
  std::uint64_t span_id_ = 0;
  std::uint64_t parent_span_id_ = 0;
  SpanScope scope_;
  WallTimer timer_;
};

}  // namespace portatune::tuner
