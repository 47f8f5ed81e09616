#include "tuner/random_search.hpp"

#include <algorithm>
#include <optional>

#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "support/error.hpp"
#include "support/stats.hpp"
#include "tuner/guard.hpp"
#include "tuner/observe.hpp"
#include "tuner/sampler.hpp"
#include "tuner/search_loop.hpp"
#include "tuner/transfer.hpp"

namespace portatune::tuner {

namespace {

/// Window width for the guarded search loops. With the guard enabled the
/// width is pinned to GuardOptions::sync_window instead of the
/// evaluator's preferred batch: adaptive decisions (relax/disable
/// pruning, re-rank the pool) depend on observed results, so the
/// interleaving of trust updates and draw decisions must not vary with
/// the thread count — a fixed window keeps serial and parallel traces
/// bit-identical even when the guard fires mid-search. evaluate_batch
/// accepts any window size; a ParallelEvaluator still fans the fixed
/// window out over its pool.
std::size_t guarded_batch_width(const Evaluator& eval,
                                const GuardOptions& guard) {
  if (!guard.enabled) return batch_width(eval);
  return std::max<std::size_t>(1, guard.sync_window);
}

}  // namespace

SearchTrace random_search(Evaluator& eval, const RandomSearchOptions& opt) {
  SearchTrace trace("RS", eval.problem_name(), eval.machine_name());
  SearchSpanGuard span(trace);
  ConfigStream stream(eval.space(), opt.seed);
  // Draws whose results have been accounted on the trace. This — not
  // stream.produced() — is what checkpoints must store: a window may have
  // drawn ahead of what was processed when the search stops, and those
  // tail draws never happened as far as a resumed run is concerned.
  std::size_t consumed = 0;

  if (opt.resume != nullptr) {
    trace = opt.resume->trace;
    // Replay the consumed draws against the same seed: the sampler's RNG
    // state and dedup set end up exactly where the snapshot left them.
    for (std::size_t i = 0; i < opt.resume->draws; ++i)
      if (!stream.next()) break;
    consumed = opt.resume->draws;
    if (auto* resilient = find_layer<ResilientEvaluator>(&eval))
      resilient->restore_quarantine(opt.resume->quarantine);
    // A cancellation marker is "interrupted", not "finished": clear it so
    // the resumed search continues where the shutdown stopped it.
    if (trace.stop_reason() == kCancelledStopReason)
      trace.restore_stop_reason("");
  }

  FailureBudgetTracker budget(opt.failure_budget);
  if (opt.resume != nullptr)
    budget.restore_total(opt.resume->trace.failure_stats().failures);
  const auto take_checkpoint = [&] {
    SearchCheckpoint snapshot;
    snapshot.trace = trace;
    snapshot.draws = consumed;
    if (auto* resilient = find_layer<ResilientEvaluator>(&eval))
      snapshot.quarantine = resilient->quarantined_hashes();
    opt.on_checkpoint(snapshot);
  };
  std::size_t since_checkpoint = 0;
  const auto maybe_checkpoint = [&] {
    if (opt.checkpoint_every == 0 || !opt.on_checkpoint) return;
    if (++since_checkpoint < opt.checkpoint_every) return;
    since_checkpoint = 0;
    take_checkpoint();
  };

  const std::size_t width = batch_width(eval);
  bool space_exhausted = false;
  // An already-exhausted budget (resume of an aborted run) evaluates
  // nothing; the restored trace keeps its checkpointed stop reason.
  while (trace.size() < opt.max_evals && !budget.exhausted() &&
         !space_exhausted) {
    // Graceful shutdown: stop at the window boundary. The final
    // checkpoint below still runs, so the run directory stays resumable.
    if (opt.cancel.cancelled()) {
      trace.set_stop_reason(kCancelledStopReason);
      break;
    }
    // Windows never overshoot: failed evaluations do not count toward
    // max_evals, so the remaining budget is re-measured every window and
    // a short window is drawn near the end.
    const std::size_t want = std::min(width, opt.max_evals - trace.size());
    std::vector<ParamConfig> configs;
    std::vector<std::size_t> draw_idx;
    configs.reserve(want);
    draw_idx.reserve(want);
    const std::size_t first_draw = stream.produced();
    space_exhausted = stream.take(want, configs) < want;
    if (configs.empty()) break;
    for (std::size_t i = 0; i < configs.size(); ++i)
      draw_idx.push_back(first_draw + i);

    // On an abort or a mid-window cancellation `consumed` points at the
    // first unprocessed draw: the serial search would have stopped
    // drawing there, so later results are discarded unseen.
    const bool completed = run_window(
        eval, trace, budget, configs, draw_idx,
        [&](std::size_t i, const EvalResult& r) {
          consumed = draw_idx[i] + 1;
          if (r.ok) maybe_checkpoint();
        });
    if (!completed) break;
  }
  // Final snapshot so interrupted-and-finished runs alike can be extended
  // later (e.g. resumed with a larger eval budget).
  if (opt.on_checkpoint) take_checkpoint();
  return trace;
}

SearchTrace replay_search(Evaluator& eval,
                          std::span<const ParamConfig> order,
                          std::size_t max_evals,
                          std::string algorithm_label,
                          const FailureBudget& fb,
                          CancellationToken cancel) {
  SearchTrace trace(std::move(algorithm_label), eval.problem_name(),
                    eval.machine_name());
  SearchSpanGuard span(trace);
  FailureBudgetTracker budget(fb);
  for (std::size_t i = 0; i < order.size() && trace.size() < max_evals;
       ++i) {
    if (cancel.cancelled()) {
      trace.set_stop_reason(kCancelledStopReason);
      break;
    }
    if (account_result(trace, budget, eval.evaluate(order[i]), order[i], i))
      break;
  }
  return trace;
}

SearchTrace pruned_random_search(Evaluator& eval,
                                 const ml::Regressor& model,
                                 const PrunedSearchOptions& opt) {
  PT_REQUIRE(model.is_fitted(), "RS_p requires a fitted surrogate");
  PT_REQUIRE(opt.delta_percent > 0.0 && opt.delta_percent < 100.0,
             "delta must lie strictly between 0 and 100");
  SearchTrace trace("RS_p", eval.problem_name(), eval.machine_name());
  SearchSpanGuard span(trace);
  const ParamSpace& space = eval.space();
  FailureBudgetTracker budget(opt.failure_budget);

  // Phase 1: estimate the pruning cutoff Delta as the delta-quantile of
  // model predictions over a fresh pool of N configurations. Predictions
  // fan out over the shared pool; the quantile sees them in pool order
  // either way, so the cutoff is identical to the serial computation.
  // With the guard enabled a second, relaxed cutoff is precomputed at the
  // midpoint between delta and 100% — the Degraded state prunes against
  // that instead, keeping roughly half the draws the strict cutoff would
  // have discarded.
  double cutoff = 0.0;
  double relaxed_cutoff = 0.0;
  {
    obs::ScopedTimer phase("search.RS_p.cutoff", "search",
                           {{"pool_size", opt.pool_size},
                            {"delta_percent", opt.delta_percent}});
    const std::vector<ParamConfig> pool =
        probe_configs(space, opt.pool_size, opt.seed ^ 0xb1a5ed0full);
    PT_REQUIRE(!pool.empty(), "empty prediction pool");
    const std::vector<double> pool_pred = predict_all(model, space, pool);
    cutoff = quantile(pool_pred, opt.delta_percent / 100.0);
    phase.add_field({"cutoff_seconds", cutoff});
    if (opt.guard.enabled) {
      const double relaxed_percent =
          opt.delta_percent + (100.0 - opt.delta_percent) / 2.0;
      relaxed_cutoff = quantile(pool_pred, relaxed_percent / 100.0);
      phase.add_field({"relaxed_cutoff_seconds", relaxed_cutoff});
    }
  }

  // Phase 2: walk the shared stream (same order RS sees), evaluating only
  // configurations the surrogate predicts below the cutoff. Survivors are
  // gathered into evaluation windows; the prediction filter itself stays
  // on the (sequential) draw path. The guard, when enabled, owns the
  // effective cutoff: strict while Trusted, relaxed while Degraded, and
  // no pruning at all once Disabled (trust collapse or starvation cap) —
  // from that point the scan degenerates to plain RS over the same
  // stream.
  obs::ScopedTimer scan_phase("search.RS_p.scan", "search");
  std::optional<TrustMonitor> monitor;
  if (opt.guard.enabled) monitor.emplace(opt.guard, "RS_p");
  ConfigStream stream(space, opt.seed);
  std::size_t draws = 0;
  std::size_t pruned = 0;
  const auto publish_prune_stats = [&] {
    scan_phase.add_field({"draws", draws});
    scan_phase.add_field({"pruned", pruned});
    if (monitor) {
      scan_phase.add_field({"guard_state", to_string(monitor->state())});
      scan_phase.add_field({"guard_trust", monitor->trust()});
    }
    if (draws == 0) return;
    auto& metrics = obs::MetricsRegistry::current();
    metrics.counter("search.draws").add(draws);
    metrics.counter("search.pruned_draws").add(pruned);
    metrics.gauge("search.prune_rate")
        .set(static_cast<double>(pruned) / static_cast<double>(draws));
  };
  const auto should_prune = [&](double predicted) {
    if (!monitor) return predicted >= cutoff;
    switch (monitor->state()) {
      case GuardState::Trusted:
        return predicted >= cutoff;
      case GuardState::Degraded:
        return predicted >= relaxed_cutoff;
      case GuardState::Disabled:
        return false;
    }
    return false;
  };
  const std::size_t width = guarded_batch_width(eval, opt.guard);
  bool space_exhausted = false;
  while (trace.size() < opt.max_evals && draws < opt.max_draws &&
         !space_exhausted) {
    if (opt.cancel.cancelled()) {
      trace.set_stop_reason(kCancelledStopReason);
      break;
    }
    const std::size_t want = std::min(width, opt.max_evals - trace.size());
    std::vector<ParamConfig> configs;
    std::vector<std::size_t> draw_idx;
    std::vector<double> window_pred;
    configs.reserve(want);
    draw_idx.reserve(want);
    window_pred.reserve(want);
    while (configs.size() < want && draws < opt.max_draws) {
      auto config = stream.next();
      if (!config) {
        space_exhausted = true;
        break;
      }
      ++draws;
      const double predicted = model.predict(space.features(*config));
      if (should_prune(predicted)) {
        ++pruned;
        // note_prune transitions to Disabled when the starvation cap
        // trips; should_prune then lets every later draw through.
        if (monitor) monitor->note_prune(trace.size());
        continue;
      }
      if (monitor) monitor->note_pass();
      draw_idx.push_back(stream.produced() - 1);
      configs.push_back(std::move(*config));
      window_pred.push_back(predicted);
    }
    if (configs.empty()) break;  // everything left was pruned or drawn out

    const bool completed = run_window(
        eval, trace, budget, configs, draw_idx,
        [&](std::size_t i, const EvalResult& r) {
          if (monitor && r.ok)
            monitor->observe(window_pred[i], r.seconds, trace.size());
        });
    if (!completed) break;
  }
  publish_prune_stats();

  // Fallback guarantee: if the cutoff pruned everything (e.g. a degenerate
  // model), evaluate the first draws unconditionally so the search always
  // returns a configuration. Not after an abort or a cancellation, which
  // leave their reason on the trace. Deliberately serial: it is a
  // <= 10-eval emergency path, not a throughput path.
  if (trace.empty() && trace.stop_reason().empty()) {
    ConfigStream fallback(space, opt.seed);
    while (trace.size() < std::min<std::size_t>(opt.max_evals, 10)) {
      auto config = fallback.next();
      if (!config) break;
      if (account_result(trace, budget, eval.evaluate(*config),
                         std::move(*config), fallback.produced() - 1))
        break;
    }
  }
  return trace;
}

SearchTrace biased_random_search(Evaluator& eval,
                                 const ml::Regressor& model,
                                 const BiasedSearchOptions& opt) {
  PT_REQUIRE(model.is_fitted(), "RS_b requires a fitted surrogate");
  SearchTrace trace("RS_b", eval.problem_name(), eval.machine_name());
  SearchSpanGuard span(trace);
  const ParamSpace& space = eval.space();
  FailureBudgetTracker budget(opt.failure_budget);

  // Phase 1: sample the candidate pool X_p, predict all run times (fanned
  // out over the shared pool — prediction i depends only on pool entry i,
  // so the ranking is deterministic), and rank by ascending prediction.
  RankedPool pool = [&] {
    obs::ScopedTimer rank_phase("search.RS_b.rank", "search",
                                {{"pool_size", opt.pool_size}});
    RankedPool ranked(space, opt.pool_size, opt.seed);
    ranked.rank(model);
    rank_phase.add_field({"pool", ranked.size()});
    return ranked;
  }();

  // Phase 2: evaluate in ascending predicted-run-time order, one window
  // at a time. With the guard enabled the order is no longer immutable:
  // when trust degrades and enough target observations have accumulated,
  // a hybrid forest (source rows + weighted target rows) is refitted once
  // and the remaining pool re-ranked; when trust collapses or the refit
  // fails too, the remainder falls back to draw order — the order the
  // pool was sampled in, i.e. plain RS over X_p.
  std::optional<TrustMonitor> monitor;
  if (opt.guard.enabled) monitor.emplace(opt.guard, "RS_b");
  ml::RegressorPtr refit_model;  // owns the hybrid forest after a refit
  bool draw_order_fallback = false;
  const auto maybe_react = [&] {
    if (!monitor || draw_order_fallback) return;
    if (monitor->state() == GuardState::Disabled) {
      pool.draw_order();
      draw_order_fallback = true;
      return;
    }
    if (monitor->state() == GuardState::Degraded &&
        opt.guard.refit_after > 0 && !monitor->refit_spent() &&
        trace.size() >= opt.guard.refit_after) {
      refit_model =
          fit_hybrid_surrogate(opt.guard.refit_source, trace, space,
                               opt.guard.refit_target_weight,
                               opt.guard.refit_forest);
      pool.rank(*refit_model);
      monitor->note_refit(trace.size());
    }
  };

  const std::size_t width = guarded_batch_width(eval, opt.guard);
  while (trace.size() < opt.max_evals) {
    if (opt.cancel.cancelled()) {
      trace.set_stop_reason(kCancelledStopReason);
      return trace;
    }
    const std::size_t want = std::min(width, opt.max_evals - trace.size());
    std::vector<ParamConfig> configs;
    std::vector<std::size_t> pool_idx;
    configs.reserve(want);
    pool_idx.reserve(want);
    while (configs.size() < want) {
      const std::optional<std::size_t> pick = pool.next();
      if (!pick) break;
      pool_idx.push_back(*pick);
      configs.push_back(pool.config(*pick));
    }
    if (configs.empty()) break;  // pool exhausted

    // The predictions a window was drawn under stay current until
    // maybe_react() runs after it.
    const bool completed = run_window(
        eval, trace, budget, configs, pool_idx,
        [&](std::size_t i, const EvalResult& r) {
          if (monitor && r.ok)
            monitor->observe(pool.prediction(pool_idx[i]), r.seconds,
                             trace.size());
        });
    if (!completed) return trace;
    // Guard reactions happen at window granularity, after the window's
    // results are accounted in draw order — the same points in the
    // decision sequence at every thread count.
    maybe_react();
  }
  return trace;
}

SearchTrace model_free_pruned(Evaluator& eval, const SearchTrace& source,
                              double delta_percent, std::size_t max_evals,
                              const FailureBudget& fb,
                              CancellationToken cancel) {
  PT_REQUIRE(!source.empty(), "RS_pf requires source data");
  SearchTrace trace("RS_pf", eval.problem_name(), eval.machine_name());
  SearchSpanGuard span(trace);
  FailureBudgetTracker budget(fb);
  std::vector<double> ys;
  ys.reserve(source.size());
  for (const auto& e : source.entries()) ys.push_back(e.seconds);
  const double cutoff = quantile(ys, delta_percent / 100.0);

  for (const auto& e : source.entries()) {
    if (trace.size() >= max_evals) break;
    if (cancel.cancelled()) {
      trace.set_stop_reason(kCancelledStopReason);
      break;
    }
    if (e.seconds >= cutoff) continue;  // pruned by the source run time
    if (account_result(trace, budget, eval.evaluate(e.config), e.config,
                       e.draw_index))
      break;
  }
  return trace;
}

SearchTrace model_free_biased(Evaluator& eval, const SearchTrace& source,
                              std::size_t max_evals,
                              const FailureBudget& fb,
                              CancellationToken cancel) {
  PT_REQUIRE(!source.empty(), "RS_bf requires source data");
  SearchTrace trace("RS_bf", eval.problem_name(), eval.machine_name());
  SearchSpanGuard span(trace);
  FailureBudgetTracker budget(fb);
  std::vector<double> ys;
  ys.reserve(source.size());
  for (const auto& e : source.entries()) ys.push_back(e.seconds);
  const auto order = argsort(ys);

  for (std::size_t rank = 0;
       rank < order.size() && trace.size() < max_evals; ++rank) {
    if (cancel.cancelled()) {
      trace.set_stop_reason(kCancelledStopReason);
      break;
    }
    const auto& e = source.entry(order[rank]);
    if (account_result(trace, budget, eval.evaluate(e.config), e.config,
                       e.draw_index))
      break;
  }
  return trace;
}

}  // namespace portatune::tuner
