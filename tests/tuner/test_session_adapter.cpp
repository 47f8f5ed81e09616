// Session parity: a TuningSession runs the searches' own mechanisms, so a
// cold session stepped to exhaustion is exactly random_search() and a warm
// one is exactly unguarded biased_random_search() on the same surrogate.
#include <gtest/gtest.h>

#include "apps/tuning_config.hpp"
#include "tuner/experiment.hpp"
#include "tuner/random_search.hpp"
#include "tuner/session.hpp"
#include "tuner/transfer.hpp"

namespace portatune::tuner {
namespace {

void expect_traces_equal(const SearchTrace& a, const SearchTrace& b,
                         const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.entry(i).config, b.entry(i).config) << what << " entry " << i;
    EXPECT_DOUBLE_EQ(a.entry(i).seconds, b.entry(i).seconds)
        << what << " entry " << i;
    EXPECT_EQ(a.entry(i).draw_index, b.entry(i).draw_index)
        << what << " entry " << i;
  }
}

TEST(SessionAdapter, WarmSessionSteppedToExhaustionIsBiasedSearch) {
  for (const char* problem : {"LU", "MM", "RT", "HPL"}) {
    for (const std::size_t threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(problem) + " threads=" +
                   std::to_string(threads));
      const apps::TuningConfig cfg = apps::TuningConfig{}
                                         .problem(problem)
                                         .machines("Westmere", "Sandybridge")
                                         .max_evals(60)
                                         .pool_size(2000)
                                         .seed(17)
                                         .eval_threads(threads);
      const ExperimentSettings settings = cfg.experiment_settings();
      auto source = cfg.make_stack(apps::StackRole::Source);
      const SearchTrace t_a = run_reference_rs(*source, settings);
      ml::ForestParams fp = settings.forest;
      fp.seed = settings.seed;
      const ml::RegressorPtr model = fit_surrogate(t_a, source->space(), fp);

      auto stack_rsb = cfg.make_stack(apps::StackRole::Target);
      BiasedSearchOptions b_opt;
      static_cast<SearchCommon&>(b_opt) = cfg.search_common();
      b_opt.pool_size = cfg.search().pool_size;
      ASSERT_FALSE(b_opt.guard.enabled);
      const SearchTrace rsb = biased_random_search(*stack_rsb, *model, b_opt);

      auto stack_session = cfg.make_stack(apps::StackRole::Target);
      SessionOptions opt = cfg.session_options("warm");
      opt.warm_model = model.get();
      TuningSession session(*stack_session, opt);
      // Ragged step sizes: the step granularity must not change the trace.
      for (std::size_t n : {1u, 7u, 3u, 20u}) {
        if (session.step(n).exhausted) break;
      }
      while (!session.step(9).exhausted) {
      }
      session.close();

      ASSERT_EQ(rsb.size(), 60u);
      expect_traces_equal(session.trace(), rsb, "warm session vs RS_b");
    }
  }
}

TEST(SessionAdapter, ColdSessionSteppedToExhaustionIsRandomSearch) {
  const apps::TuningConfig cfg =
      apps::TuningConfig{}.problem("LU").machine("Power7").max_evals(40)
          .seed(9);

  auto stack_rs = cfg.make_stack();
  RandomSearchOptions rs_opt;
  static_cast<SearchCommon&>(rs_opt) = cfg.search_common();
  const SearchTrace rs = random_search(*stack_rs, rs_opt);

  auto stack_session = cfg.make_stack();
  TuningSession session(*stack_session, cfg.session_options("parity"));
  // Ragged window sizes: the step granularity must not change the trace.
  for (std::size_t n : {1u, 7u, 3u, 20u, 40u}) {
    if (session.step(n).exhausted) break;
  }
  while (!session.step(10).exhausted) {
  }
  session.close();

  expect_traces_equal(session.trace(), rs, "cold session vs RS");
}

TEST(SessionAdapter, SuggestReportInterleavesWithStepLosslessly) {
  const apps::TuningConfig cfg =
      apps::TuningConfig{}.problem("LU").machine("Westmere").max_evals(30)
          .seed(21);

  // Pure service-side stepping.
  auto stack_a = cfg.make_stack();
  TuningSession pure(*stack_a, cfg.session_options("pure"));
  while (!pure.step(10).exhausted) {
  }

  // First few draws measured externally via suggest/report, rest stepped.
  auto stack_b = cfg.make_stack();
  auto stack_meter = cfg.make_stack();  // the "external" measurement rig
  TuningSession hybrid(*stack_b, cfg.session_options("hybrid"));
  for (const auto& c : hybrid.suggest(3)) {
    const EvalResult r = stack_meter->evaluate(c);
    if (r.ok) hybrid.report(c, r.seconds);
  }
  while (!hybrid.step(10).exhausted) {
  }

  // Reported results carry the same draw identity step() would have
  // assigned, so the two traces are identical.
  expect_traces_equal(hybrid.trace(), pure.trace(), "hybrid vs pure");
}

TEST(SessionAdapter, CheckpointResumeReproducesTheUninterruptedTrace) {
  const apps::TuningConfig cfg =
      apps::TuningConfig{}.problem("LU").machine("Sandybridge").max_evals(40)
          .seed(33);

  auto stack_ref = cfg.make_stack();
  TuningSession reference(*stack_ref, cfg.session_options("ref"));
  while (!reference.step(10).exhausted) {
  }

  auto stack_a = cfg.make_stack();
  SearchCheckpoint snapshot;
  {
    TuningSession first(*stack_a, cfg.session_options("interrupted"));
    first.step(15);
    snapshot = first.checkpoint();
  }

  auto stack_b = cfg.make_stack();
  SessionOptions opt = cfg.session_options("resumed");
  opt.resume = &snapshot;
  TuningSession resumed(*stack_b, opt);
  EXPECT_EQ(resumed.trace().size(), snapshot.trace.size());
  while (!resumed.step(10).exhausted) {
  }

  expect_traces_equal(resumed.trace(), reference.trace(), "resumed vs ref");
}

}  // namespace
}  // namespace portatune::tuner
