// The mechanisms the searches share, one copy each: surrogate scoring of
// a candidate pool (predict_all), the pool walked in predicted order
// (RankedPool), the per-evaluation bookkeeping (account_result) and the
// evaluation-window loop (batch_width / evaluate_window / run_window).
// RS, RS_p, RS_b, TuningSession, the adaptive refit search and the
// heuristics' seeded starts are all built from these.
#pragma once

#include <algorithm>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "ml/model.hpp"
#include "tuner/evaluator.hpp"
#include "tuner/param.hpp"
#include "tuner/resilience.hpp"
#include "tuner/search_options.hpp"
#include "tuner/trace.hpp"

namespace portatune::tuner {

/// Rows per predict_all block. A block's feature matrix stays small (RT's
/// 247 features make it 250 KB), where featurizing a whole 10 000-config
/// pool at once would take 20 MB.
inline constexpr std::size_t kPredictBlock = 128;

/// Order-preserving batch prediction over a candidate pool: the pool's
/// only fan-out. Each task featurizes one block of kPredictBlock configs
/// into a row-major ml::Dataset and scores it with one predict_batch
/// call. Prediction is a pure const read of the fitted model, so the
/// result is deterministic: pred[i] depends only on configs[i]. A pool
/// of one block stays on the calling thread.
std::vector<double> predict_all(const ml::Regressor& model,
                                const ParamSpace& space,
                                const std::vector<ParamConfig>& configs);

/// A candidate pool X_p and the order it is walked in. The pool is the
/// first `size` draws of the stream seeded with `seed`; it is walked in
/// draw order until rank() orders it by ascending prediction (equivalent
/// to repeatedly taking the argmin over the remaining pool, Algorithm 2
/// line 7). Re-ordering mid-walk (rank() again after a refit, or
/// draw_order() as a fallback) restarts from the top of the new order;
/// a `used` mask guarantees each candidate is handed out at most once.
class RankedPool {
 public:
  /// Throws on an empty pool.
  RankedPool(const ParamSpace& space, std::size_t size, std::uint64_t seed);

  /// Score every candidate with `model` and walk in ascending order.
  void rank(const ml::Regressor& model);
  /// Walk the remaining candidates in draw order. Predictions are kept.
  void draw_order();
  /// Hand out the first `picks` entries of the current order unseen
  /// (resuming a walk that had consumed them).
  void skip(std::size_t picks);
  /// The next unused candidate's pool index, or nullopt once exhausted.
  std::optional<std::size_t> next();

  std::size_t size() const noexcept { return configs_.size(); }
  const ParamConfig& config(std::size_t i) const { return configs_[i]; }
  /// The latest rank()'s prediction for candidate i.
  double prediction(std::size_t i) const { return pred_[i]; }
  /// Positions of the current order consumed so far.
  std::size_t cursor() const noexcept { return cursor_; }

 private:
  const ParamSpace* space_;
  std::vector<ParamConfig> configs_;
  std::vector<double> pred_;
  std::vector<std::size_t> order_;
  std::vector<bool> used_;
  std::size_t cursor_ = 0;
};

/// Account one evaluation the way every search does: the trace notes the
/// result (attempts, failure kind, retry overhead), the failure budget
/// sees it, and a success becomes a trace entry. Returns true when this
/// result exhausted the failure budget; the trace then carries the
/// diagnostic as its stop reason and the search must stop.
template <class Config>
bool account_result(SearchTrace& trace, FailureBudgetTracker& budget,
                    const EvalResult& r, Config&& config,
                    std::size_t draw_index) {
  trace.note_result(r);
  if (budget.note(r)) {
    trace.set_stop_reason(budget.reason());
    return true;
  }
  if (r.ok)
    trace.record(std::forward<Config>(config), r.seconds, draw_index);
  return false;
}

/// Evaluation window width for the batched search loops. A plain
/// evaluator advertises width 1, which collapses every window to a single
/// draw and reproduces the historical serial loops instruction for
/// instruction; a ParallelEvaluator widens the window to keep its pool
/// busy. Trace parity holds either way because windows are always
/// processed in draw order.
inline std::size_t batch_width(const Evaluator& eval) {
  return std::max<std::size_t>(1, eval.capabilities().preferred_batch);
}

/// Evaluate one search window under a "search.window" span: the causal
/// parent of every evaluation it fans out, across worker threads (the
/// ThreadPool carries the SpanContext into each task). `evals_done` is
/// the trace size going in, so a trace viewer can line windows up with
/// search progress. Dormant path: one enabled() check, no allocation.
std::vector<EvalResult> evaluate_window(Evaluator& eval,
                                        std::span<const ParamConfig> configs,
                                        std::size_t evals_done);

/// Evaluate `configs` as one window and account the results strictly in
/// draw order, regardless of completion order inside the batch — this is
/// what keeps parallel traces bit-identical to serial. `draw_idx[i]` is
/// the CRN identity the trace entry records. `on_result(i, result)` runs
/// after result i is accounted (the search's own bookkeeping: resume
/// watermark, guard observation). The configs are moved into the trace.
/// Returns false when the search must stop: the failure budget ran out
/// (later results are discarded unseen), or the window was cancelled
/// mid-flight — a short result vector; the accounted prefix is
/// consistent, the tail never happened. Either way the trace carries the
/// stop reason.
template <class OnResult>
bool run_window(Evaluator& eval, SearchTrace& trace,
                FailureBudgetTracker& budget,
                std::vector<ParamConfig>& configs,
                const std::vector<std::size_t>& draw_idx,
                OnResult&& on_result) {
  const std::vector<EvalResult> results =
      evaluate_window(eval, configs, trace.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const bool aborted = account_result(trace, budget, results[i],
                                        std::move(configs[i]), draw_idx[i]);
    on_result(i, results[i]);
    if (aborted) return false;
  }
  if (results.size() < configs.size()) {
    trace.set_stop_reason(kCancelledStopReason);
    return false;
  }
  return true;
}

}  // namespace portatune::tuner
