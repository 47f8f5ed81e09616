#include "tuner/adaptive.hpp"

#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "support/error.hpp"
#include "tuner/observe.hpp"
#include "tuner/search_loop.hpp"
#include "tuner/transfer.hpp"

namespace portatune::tuner {

SearchTrace adaptive_biased_search(Evaluator& target,
                                   const SearchTrace& source,
                                   const AdaptiveSearchOptions& opt) {
  PT_REQUIRE(opt.refit_interval > 0, "refit interval must be positive");
  PT_REQUIRE(opt.target_weight > 0, "target weight must be positive");
  SearchTrace trace("RS_b_adaptive", target.problem_name(),
                    target.machine_name());
  SearchSpanGuard span(trace);
  const ParamSpace& space = target.space();

  // Candidate pool, sampled once (same role as X_p in Algorithm 2).
  RankedPool pool(space, opt.pool_size, opt.seed);
  ml::ForestParams fp = opt.forest;
  fp.seed = opt.seed;
  ml::RandomForest model(fp);
  std::size_t refits = 0;
  const auto rerank = [&] {
    const bool keep_source =
        opt.forget_source_after == 0 ||
        trace.size() < opt.forget_source_after;
    const auto data = hybrid_dataset(keep_source ? &source : nullptr, trace,
                                     space, opt.target_weight);
    if (data.empty()) {
      // Nothing to learn from yet: keep pool order (uniform random).
      pool.draw_order();
      return;
    }
    obs::ScopedTimer refit_span("search.refit", "search",
                                {{"refit", refits},
                                 {"training_rows", data.num_rows()},
                                 {"target_evals", trace.size()}});
    ++refits;
    obs::MetricsRegistry::current().counter("search.refits").add();
    model.fit(data);
    pool.rank(model);
  };

  rerank();
  FailureBudgetTracker budget(opt.failure_budget);
  std::size_t since_refit = 0;
  while (trace.size() < opt.max_evals) {
    const std::optional<std::size_t> pick = pool.next();
    if (!pick) break;  // pool exhausted
    const ParamConfig& config = pool.config(*pick);
    const EvalResult r = target.evaluate(config);
    if (account_result(trace, budget, r, config, *pick)) break;
    if (r.ok && ++since_refit >= opt.refit_interval &&
        trace.size() < opt.max_evals) {
      since_refit = 0;
      rerank();
    }
  }
  return trace;
}

}  // namespace portatune::tuner
