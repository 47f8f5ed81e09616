// Causal span context: which span is "open" on the current thread.
//
// A span id is a process-unique 64-bit identifier allocated by an
// instrumentation site (ScopedTimer, SearchSpanGuard, ObservedEvaluator)
// when it opens a profiling span. The *context* — the id of the innermost
// open span — lives in a thread-local and is what turns a flat event
// stream into a tree: every event records the context current at its
// creation as its parent, so an evaluation span emitted on a worker
// thread still points at the search window that scheduled it.
//
// This header lives in support (not obs) on purpose: ThreadPool must
// capture the submitter's context and re-install it around each task so
// causality survives the thread hop, and support cannot link obs. The
// primitive is therefore obs-agnostic — two thread-local words and an
// atomic counter; the obs layer attaches meaning (event span_id /
// parent_span_id fields).
//
// Cost model: reading the context is one thread-local load; opening a
// scope is two thread-local stores. No locks, no allocation — safe for
// dormant instrumentation paths.
#pragma once

#include <atomic>
#include <cstdint>

namespace portatune {

/// The causal position of the current thread: the id of the innermost
/// open span (0 = no span open). Copyable by value across threads.
struct SpanContext {
  std::uint64_t span = 0;

  bool valid() const noexcept { return span != 0; }
};

namespace detail {
inline thread_local SpanContext t_span_context{};
/// 0 is reserved for "no span"; ids start at 1.
inline std::atomic<std::uint64_t> g_next_span_id{1};
}  // namespace detail

/// The context current on the calling thread (one TLS load).
inline SpanContext current_span_context() noexcept {
  return detail::t_span_context;
}

/// Allocate a fresh process-unique span id (relaxed atomic increment).
inline std::uint64_t next_span_id() noexcept {
  return detail::g_next_span_id.fetch_add(1, std::memory_order_relaxed);
}

/// RAII: install `ctx` as the current context, restore the previous one
/// on destruction. Used both to *open* a span (ctx = the new span's id)
/// and to *adopt* a captured context on a worker thread. A
/// default-constructed scope is inert until enter(), for spans that open
/// only when tracing is on; an inert scope touches no thread-local.
class SpanScope {
 public:
  SpanScope() noexcept = default;
  explicit SpanScope(SpanContext ctx) noexcept { enter(ctx); }
  ~SpanScope() { leave(); }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// Install `ctx`. At most once per scope (or once after each leave()).
  void enter(SpanContext ctx) noexcept {
    previous_ = detail::t_span_context;
    detail::t_span_context = ctx;
    entered_ = true;
  }
  /// Restore the previous context now instead of at destruction.
  void leave() noexcept {
    if (!entered_) return;
    detail::t_span_context = previous_;
    entered_ = false;
  }

 private:
  SpanContext previous_{};
  bool entered_ = false;
};

}  // namespace portatune
