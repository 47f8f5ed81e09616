#include "tuner/search_loop.hpp"

#include "obs/scoped_timer.hpp"
#include "support/error.hpp"
#include "support/stats.hpp"
#include "support/thread_pool.hpp"
#include "tuner/sampler.hpp"

namespace portatune::tuner {

std::vector<double> predict_all(const ml::Regressor& model,
                                const ParamSpace& space,
                                const std::vector<ParamConfig>& configs) {
  std::vector<double> pred(configs.size());
  const std::size_t blocks =
      (configs.size() + kPredictBlock - 1) / kPredictBlock;
  ThreadPool::global().parallel_for(0, blocks, [&](std::size_t b) {
    const std::size_t lo = b * kPredictBlock;
    const std::size_t hi = std::min(configs.size(), lo + kPredictBlock);
    ml::Dataset rows(space.num_params());
    rows.reserve(hi - lo);
    std::vector<double> x(space.num_params());
    for (std::size_t i = lo; i < hi; ++i) {
      space.features(configs[i], x);
      rows.add_row(x, 0.0);
    }
    const std::vector<double> y = model.predict_batch(rows);
    std::copy(y.begin(), y.end(),
              pred.begin() + static_cast<std::ptrdiff_t>(lo));
  });
  return pred;
}

RankedPool::RankedPool(const ParamSpace& space, std::size_t size,
                       std::uint64_t seed)
    : space_(&space), configs_(probe_configs(space, size, seed)) {
  PT_REQUIRE(!configs_.empty(), "empty candidate pool");
  used_.assign(configs_.size(), false);
  draw_order();
}

void RankedPool::rank(const ml::Regressor& model) {
  pred_ = predict_all(model, *space_, configs_);
  order_ = argsort(pred_);
  cursor_ = 0;
}

void RankedPool::draw_order() {
  order_.resize(configs_.size());
  for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
  cursor_ = 0;
}

void RankedPool::skip(std::size_t picks) {
  for (; cursor_ < std::min(picks, order_.size()); ++cursor_)
    used_[order_[cursor_]] = true;
}

std::optional<std::size_t> RankedPool::next() {
  while (cursor_ < order_.size()) {
    const std::size_t pick = order_[cursor_++];
    if (used_[pick]) continue;  // handed out before a re-ordering
    used_[pick] = true;
    return pick;
  }
  return std::nullopt;
}

std::vector<EvalResult> evaluate_window(Evaluator& eval,
                                        std::span<const ParamConfig> configs,
                                        std::size_t evals_done) {
  std::optional<obs::ScopedTimer> span;
  if (obs::enabled(obs::Severity::Debug))
    span.emplace("search.window", "search",
                 std::vector<obs::Field>{{"window", configs.size()},
                                         {"evals_done", evals_done}},
                 nullptr, obs::Severity::Debug);
  return eval.evaluate_batch(configs);
}

}  // namespace portatune::tuner
