#include "tuner/session.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "obs/sink.hpp"
#include "support/error.hpp"

namespace portatune::tuner {

TuningSession::TuningSession(Evaluator& eval, SessionOptions opt)
    : eval_(eval),
      opt_(std::move(opt)),
      trace_(opt_.warm_model != nullptr ? "RS_b" : "RS", eval.problem_name(),
             eval.machine_name()),
      budget_(opt_.failure_budget) {
  opened_mono_ = obs::mono_now();
  if (opt_.warm_model != nullptr) {
    PT_REQUIRE(opt_.warm_model->is_fitted(),
               "warm session requires a fitted surrogate");
    obs::ScopedTimer rank_span("session.rank", "service",
                               {{"id", opt_.id},
                                {"pool_size",
                                 static_cast<std::uint64_t>(opt_.pool_size)}});
    pool_.emplace(eval_.space(), opt_.pool_size, opt_.seed);
    pool_->rank(*opt_.warm_model);
  } else {
    stream_ = std::make_unique<ConfigStream>(eval_.space(), opt_.seed);
  }

  if (opt_.resume != nullptr) {
    trace_ = opt_.resume->trace;
    // A cancellation marker is "interrupted", not "finished": clear it so
    // the resumed session continues where the shutdown stopped it.
    if (trace_.stop_reason() == kCancelledStopReason)
      trace_.restore_stop_reason("");
    budget_.restore_total(opt_.resume->trace.failure_stats().failures);
    if (auto* resilient = find_layer<ResilientEvaluator>(&eval_))
      resilient->restore_quarantine(opt_.resume->quarantine);
    // Outstanding suggestions survive the resume: their draws are inside
    // the replayed watermark, so without the restored pairs report()
    // would reject them and the configs would silently never evaluate.
    pending_ = opt_.resume->pending;
    consumed_ = opt_.resume->draws;
    if (stream_ != nullptr) {
      // Replay the consumed draws against the same seed: the sampler's
      // RNG state and dedup set end up exactly where the snapshot left
      // them (the RS resume discipline, random_search.cpp).
      for (std::size_t i = 0; i < consumed_; ++i)
        if (!stream_->next()) break;
    } else {
      pool_->skip(consumed_);
    }
  }
  obs::MetricsRegistry::current().counter("service.sessions_opened").add(1);
  if (!obs::enabled(obs::Severity::Info)) return;
  obs::emit(obs::make_instant(
      obs::Severity::Info, "session.open", "service",
      {{"id", opt_.id},
       {"kind", "tuning"},
       {"problem", eval_.problem_name()},
       {"machine", eval_.machine_name()},
       {"warm", warm()},
       {"resumed", opt_.resume != nullptr},
       {"budget", static_cast<std::uint64_t>(opt_.max_evals)}}));
}

TuningSession::~TuningSession() {
  try {
    close();
  } catch (...) {
    // Destructor: the close span is best-effort; never propagate.
  }
}

void TuningSession::require_open(const char* op) const {
  PT_REQUIRE(!closed_,
             std::string(op) + " on closed session '" + opt_.id + "'");
}

void TuningSession::gather(std::size_t want,
                           std::vector<ParamConfig>& configs,
                           std::vector<std::size_t>& draw_idx,
                           std::vector<std::size_t>& marker) {
  configs.reserve(want);
  draw_idx.reserve(want);
  marker.reserve(want);
  if (stream_ != nullptr) {
    const std::size_t first_draw = stream_->produced();
    if (stream_->take(want, configs) < want) exhausted_ = true;
    for (std::size_t i = 0; i < configs.size(); ++i) {
      draw_idx.push_back(first_draw + i);
      marker.push_back(first_draw + i + 1);
    }
  } else {
    while (configs.size() < want) {
      const std::optional<std::size_t> pick = pool_->next();
      if (!pick) {
        exhausted_ = true;
        break;
      }
      draw_idx.push_back(*pick);
      marker.push_back(pool_->cursor());
      configs.push_back(pool_->config(*pick));
    }
  }
}

SessionStepStats TuningSession::step(std::size_t n) {
  require_open("step");
  SessionStepStats st;
  const std::size_t width = batch_width(eval_);
  const std::size_t target = std::min(n, remaining_budget());
  while (st.evaluated < target && !exhausted_ && !budget_.exhausted()) {
    if (opt_.cancel.cancelled()) {
      trace_.set_stop_reason(kCancelledStopReason);
      exhausted_ = true;
      break;
    }
    const std::size_t want = std::min(width, target - st.evaluated);
    std::vector<ParamConfig> configs;
    std::vector<std::size_t> draw_idx, marker;
    gather(want, configs, draw_idx, marker);
    if (configs.empty()) break;

    // `consumed_` stops at the last accounted result, so a resume after
    // an abort or a mid-window cancellation re-draws the tail.
    const bool completed = run_window(
        eval_, trace_, budget_, configs, draw_idx,
        [&](std::size_t i, const EvalResult& r) {
          consumed_ = marker[i];
          ++(r.ok ? st.evaluated : st.failures);
        });
    if (!completed) {
      exhausted_ = true;
      break;
    }
  }
  obs::MetricsRegistry::current()
      .counter("service.session_evals")
      .add(st.evaluated);
  st.best_seconds = trace_.best_seconds();
  st.exhausted = exhausted_ || budget_.exhausted() || remaining_budget() == 0;
  return st;
}

std::vector<ParamConfig> TuningSession::suggest(std::size_t n) {
  require_open("suggest");
  std::vector<ParamConfig> configs;
  std::vector<std::size_t> draw_idx, marker;
  gather(std::min(n, remaining_budget()), configs, draw_idx, marker);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    pending_.emplace_back(eval_.space().config_hash(configs[i]), draw_idx[i]);
    consumed_ = marker[i];
  }
  return configs;
}

void TuningSession::report(const ParamConfig& config, double seconds) {
  require_open("report");
  PT_REQUIRE(seconds > 0.0, "reported run time must be positive");
  const std::uint64_t hash = eval_.space().config_hash(config);
  auto it = std::find_if(pending_.begin(), pending_.end(),
                         [&](const auto& p) { return p.first == hash; });
  PT_REQUIRE(it != pending_.end(),
             "reported configuration was not suggested by session '" +
                 opt_.id + "'");
  const std::size_t draw_idx = it->second;
  pending_.erase(it);
  const EvalResult r = EvalResult::success(seconds);
  trace_.note_result(r);
  budget_.note(r);
  trace_.record(config, seconds, draw_idx);
}

SearchCheckpoint TuningSession::checkpoint() const {
  SearchCheckpoint snapshot;
  snapshot.trace = trace_;
  snapshot.draws = consumed_;
  snapshot.pending = pending_;
  if (auto* resilient =
          find_layer<ResilientEvaluator>(const_cast<Evaluator*>(&eval_)))
    snapshot.quarantine = resilient->quarantined_hashes();
  return snapshot;
}

void TuningSession::close() {
  if (closed_) return;
  closed_ = true;
  obs::MetricsRegistry::current().counter("service.sessions_closed").add(1);
  if (!obs::enabled(obs::Severity::Info)) return;
  std::vector<obs::Field> fields{
      {"id", opt_.id},
      {"kind", "tuning"},
      {"evals", static_cast<std::uint64_t>(trace_.size())},
      {"failures",
       static_cast<std::uint64_t>(trace_.failure_stats().failures)},
  };
  if (!trace_.empty())
    fields.emplace_back("best_seconds", trace_.best_seconds());
  if (!trace_.stop_reason().empty())
    fields.emplace_back("stop", trace_.stop_reason());
  obs::emit(obs::make_span(obs::Severity::Info, "session.closed", "service",
                           obs::mono_now() - opened_mono_,
                           std::move(fields)));
}

}  // namespace portatune::tuner
