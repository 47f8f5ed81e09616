// ObservedEvaluator: per-evaluation telemetry as an Evaluator decorator.
//
// Wraps any Evaluator and, for every evaluate() call, (a) updates the
// metrics registry (eval.calls / eval.attempts / eval.failures[.kind]
// counters, eval.seconds and eval.latency_seconds histograms) and
// (b) emits one "eval" event carrying the configuration, outcome,
// FailureKind, attempt count, and wall-clock latency. Each evaluation
// opens a causal span for its duration, so any event the inner evaluator
// emits (and the eval event itself) nests under the search window /
// retry chain that issued the call.
//
// Composes freely with the resilience decorators. The recommended stack
// for per-*attempt* events is
//
//     backend -> FaultInjectingEvaluator -> ObservedEvaluator
//             -> ResilientEvaluator -> search
//
// (the observer sees each raw attempt, including injected faults); wrap
// the ResilientEvaluator instead to observe per-*call* outcomes after
// retries collapse.
//
// Batch path: evaluate_batch() emits one "<label>.batch" window span and
// instruments every configuration in the window. When the inner
// evaluator is itself batch-capable (preferred_batch > 1 — e.g. an
// observer wrapped *around* a ParallelEvaluator), the whole window is
// forwarded to the inner evaluate_batch so its parallelism is preserved,
// and per-eval events are emitted from the returned results (their
// latency is then the measured run time plus retry overhead — the
// per-call wall clock is not observable from outside the fan-out).
// Serial inners take the default per-evaluate() path with exact
// latencies. Either way a parallel run emits the same per-eval events a
// serial run does.
//
// Header-only on purpose: it lives in the obs layer but needs the tuner's
// Evaluator interface, and inlining it here keeps the library dependency
// graph acyclic (obs never links tuner).
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "obs/sink.hpp"
#include "support/span_context.hpp"
#include "support/timer.hpp"
#include "tuner/evaluator.hpp"

namespace portatune::obs {

class ObservedEvaluator final : public tuner::Evaluator {
 public:
  /// The inner evaluator must outlive this decorator. Instruments are
  /// bound to `registry` (default: the registry current at construction).
  explicit ObservedEvaluator(tuner::Evaluator& inner,
                             std::string label = "eval",
                             MetricsRegistry* registry = nullptr)
      : inner_(inner),
        label_(std::move(label)),
        batch_label_(label_ + ".batch") {
    MetricsRegistry& r =
        registry != nullptr ? *registry : MetricsRegistry::current();
    calls_ = &r.counter(label_ + ".calls");
    attempts_ = &r.counter(label_ + ".attempts");
    failures_ = &r.counter(label_ + ".failures");
    transient_ = &r.counter(label_ + ".failures.transient");
    deterministic_ = &r.counter(label_ + ".failures.deterministic");
    timeouts_ = &r.counter(label_ + ".failures.timeout");
    seconds_ = &r.histogram(label_ + ".seconds");
    latency_ = &r.histogram(label_ + ".latency_seconds");
  }

  const tuner::ParamSpace& space() const override { return inner_.space(); }
  /// Thread-safe when the inner evaluator is: the instruments are relaxed
  /// atomics and sinks serialize writers internally, so this decorator
  /// composes under a ParallelEvaluator without extra locking.
  tuner::EvalCapabilities capabilities() const override {
    return inner_.capabilities();
  }
  tuner::Evaluator* inner_evaluator() noexcept override { return &inner_; }
  std::string problem_name() const override { return inner_.problem_name(); }
  std::string machine_name() const override { return inner_.machine_name(); }

  tuner::EvalResult evaluate(const tuner::ParamConfig& config) override {
    WallTimer timer;
    // Open a span for the evaluation so events emitted by the inner
    // layers (and the eval event below) nest under this call.
    std::uint64_t span_id = 0, parent_id = 0;
    SpanScope scope;
    if (enabled(Severity::Debug)) {
      span_id = next_span_id();
      parent_id = current_span_context().span;
      scope.enter(SpanContext{span_id});
    }
    const tuner::EvalResult r = inner_.evaluate(config);
    const double latency = timer.seconds();
    record(config, r, latency, span_id, parent_id, /*batched=*/false);
    return r;
  }

  std::vector<tuner::EvalResult> evaluate_batch(
      std::span<const tuner::ParamConfig> batch) override {
    if (batch.size() <= 1) return tuner::Evaluator::evaluate_batch(batch);
    // One window span per batch; worker-side or per-eval events nest
    // under it (fields are only materialized when a sink is listening).
    std::optional<ScopedTimer> window;
    if (enabled(Severity::Debug))
      window.emplace(batch_label_, "eval",
                     std::vector<Field>{{"batch", batch.size()}}, nullptr,
                     Severity::Debug);
    if (inner_.capabilities().preferred_batch <= 1) {
      // Serial inner: the default loop goes through evaluate(), which
      // instruments each call with its exact wall-clock latency.
      return tuner::Evaluator::evaluate_batch(batch);
    }
    const auto results = inner_.evaluate_batch(batch);
    for (std::size_t i = 0; i < results.size() && i < batch.size(); ++i) {
      const tuner::EvalResult& r = results[i];
      record(batch[i], r, r.seconds + r.overhead_seconds, 0,
             window ? window->span_id() : current_span_context().span,
             /*batched=*/true);
    }
    return results;
  }

  const std::string& label() const noexcept { return label_; }

 private:
  /// Shared per-evaluation accounting: instrument updates plus one eval
  /// event. `batched` marks events reconstructed from a forwarded batch,
  /// whose latency is seconds + overhead rather than a measured wall
  /// clock.
  void record(const tuner::ParamConfig& config, const tuner::EvalResult& r,
              double latency, std::uint64_t span_id, std::uint64_t parent_id,
              bool batched) {
    calls_->add();
    attempts_->add(r.attempts);
    latency_->observe(latency);
    if (r.ok) {
      seconds_->observe(r.seconds);
    } else {
      failures_->add();
      switch (r.failure_kind) {
        case tuner::FailureKind::Transient: transient_->add(); break;
        case tuner::FailureKind::Timeout: timeouts_->add(); break;
        default: deterministic_->add(); break;
      }
    }

    // Failures are logged a level up so a Warn-threshold sink still
    // captures every unhealthy evaluation.
    const Severity severity = r.ok ? Severity::Debug : Severity::Warn;
    if (enabled(severity)) {
      std::vector<Field> fields;
      fields.reserve(8);
      fields.emplace_back("config", render_config(config));
      fields.emplace_back("ok", r.ok);
      fields.emplace_back("kind", tuner::to_string(r.failure_kind));
      fields.emplace_back("attempts", r.attempts);
      fields.emplace_back("latency_s", latency);
      if (r.ok) fields.emplace_back("seconds", r.seconds);
      if (r.overhead_seconds > 0.0)
        fields.emplace_back("overhead_s", r.overhead_seconds);
      if (batched) fields.emplace_back("batched", true);
      if (!r.ok) fields.emplace_back("error", r.error);
      Event e = make_span(severity, label_, "eval", latency,
                          std::move(fields));
      e.span_id = span_id;
      // With our own span scope still installed, make_span would have
      // recorded *this* span as its own parent; restore the real one.
      if (span_id != 0 || parent_id != 0) e.parent_span_id = parent_id;
      emit(e);
    }
  }

  static std::string render_config(const tuner::ParamConfig& config) {
    std::string out;
    for (std::size_t i = 0; i < config.size(); ++i) {
      if (i > 0) out += '/';
      out += std::to_string(config[i]);
    }
    return out;
  }

  tuner::Evaluator& inner_;
  std::string label_;
  std::string batch_label_;
  Counter* calls_;
  Counter* attempts_;
  Counter* failures_;
  Counter* transient_;
  Counter* deterministic_;
  Counter* timeouts_;
  Histogram* seconds_;
  Histogram* latency_;
};

}  // namespace portatune::obs
