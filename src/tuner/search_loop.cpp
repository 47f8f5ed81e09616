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
  const auto body = [&](std::size_t i) {
    pred[i] = model.predict(space.features(configs[i]));
  };
  constexpr std::size_t kParallelThreshold = 256;
  if (configs.size() >= kParallelThreshold)
    ThreadPool::global().parallel_for(0, configs.size(), body);
  else
    for (std::size_t i = 0; i < configs.size(); ++i) body(i);
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
