#include "ml/forest.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "ml/metrics.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace portatune::ml {
namespace {

Dataset friedman_like(std::size_t n, std::uint64_t seed) {
  // y = 10 sin(pi x0 x1) + 20 (x2 - .5)^2 + small noise; x3 irrelevant.
  Rng rng(seed);
  Dataset d(4, {"x0", "x1", "x2", "x3"});
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> x{rng.uniform(), rng.uniform(), rng.uniform(),
                          rng.uniform()};
    const double y = 10 * std::sin(3.14159 * x[0] * x[1]) +
                     20 * (x[2] - 0.5) * (x[2] - 0.5) +
                     0.1 * rng.normal();
    d.add_row(x, y);
  }
  return d;
}

TEST(RandomForest, PredictBeforeFitThrows) {
  RandomForest f;
  EXPECT_THROW(f.predict(std::vector<double>{1, 2, 3, 4}), Error);
}

TEST(RandomForest, ZeroTreesRejected) {
  ForestParams p;
  p.num_trees = 0;
  RandomForest f(p);
  EXPECT_THROW(f.fit(friedman_like(10, 1)), Error);
}

TEST(RandomForest, DeterministicForSeed) {
  const auto d = friedman_like(200, 2);
  ForestParams p;
  p.num_trees = 16;
  p.seed = 99;
  RandomForest a(p), b(p);
  a.fit(d);
  b.fit(d);
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    std::vector<double> x{rng.uniform(), rng.uniform(), rng.uniform(),
                          rng.uniform()};
    EXPECT_DOUBLE_EQ(a.predict(x), b.predict(x));
  }
}

TEST(RandomForest, SerialAndParallelFitAgree) {
  const auto d = friedman_like(150, 4);
  ForestParams p;
  p.num_trees = 8;
  p.seed = 5;
  p.parallel_fit = false;
  RandomForest serial(p);
  serial.fit(d);
  p.parallel_fit = true;
  RandomForest parallel(p);
  parallel.fit(d);
  Rng rng(6);
  for (int i = 0; i < 20; ++i) {
    std::vector<double> x{rng.uniform(), rng.uniform(), rng.uniform(),
                          rng.uniform()};
    EXPECT_DOUBLE_EQ(serial.predict(x), parallel.predict(x));
  }
}

TEST(RandomForest, BeatsMeanPredictorOnHeldOut) {
  const auto train = friedman_like(600, 7);
  const auto test = friedman_like(200, 8);
  ForestParams p;
  p.num_trees = 48;
  p.seed = 9;
  RandomForest f(p);
  f.fit(train);
  const auto pred = f.predict_batch(test);
  std::vector<double> truth(test.targets().begin(), test.targets().end());
  const double forest_rmse = rmse(pred, truth);
  // Mean predictor baseline.
  double m = 0;
  for (double t : truth) m += t;
  m /= static_cast<double>(truth.size());
  double sse = 0;
  for (double t : truth) sse += (t - m) * (t - m);
  const double mean_rmse = std::sqrt(sse / static_cast<double>(truth.size()));
  EXPECT_LT(forest_rmse, 0.5 * mean_rmse);
}

TEST(RandomForest, OobRmseIsFiniteAndReasonable) {
  const auto d = friedman_like(300, 10);
  ForestParams p;
  p.num_trees = 32;
  RandomForest f(p);
  f.fit(d);
  EXPECT_TRUE(std::isfinite(f.oob_rmse()));
  EXPECT_GT(f.oob_rmse(), 0.0);
  EXPECT_LT(f.oob_rmse(), 10.0);
}

TEST(RandomForest, ImportancesIdentifyRelevantFeatures) {
  const auto d = friedman_like(500, 11);
  ForestParams p;
  p.num_trees = 32;
  RandomForest f(p);
  f.fit(d);
  const auto imp = permutation_importance(f, d, p.seed);
  ASSERT_EQ(imp.size(), 4u);
  double sum = 0;
  for (double v : imp) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // The irrelevant x3 must matter less than the dominant x0.
  EXPECT_GT(imp[0], imp[3]);
}

TEST(RandomForest, PredictBatchMatchesScalarPredict) {
  const auto d = friedman_like(100, 12);
  ForestParams p;
  p.num_trees = 8;
  RandomForest f(p);
  f.fit(d);
  const auto batch = f.predict_batch(d);
  for (std::size_t i = 0; i < d.num_rows(); ++i)
    EXPECT_DOUBLE_EQ(batch[i], f.predict(d.row(i)));
}

TEST(RandomForest, PredictBatchIsBitIdenticalOnWideData) {
  // RT's width (247 features); 300 rows is not a multiple of the
  // 128-row block predict_batch walks.
  constexpr std::size_t kFeatures = 247;
  Rng rng(16);
  const auto random_rows = [&](std::size_t n) {
    Dataset d(kFeatures);
    std::vector<double> x(kFeatures);
    for (std::size_t i = 0; i < n; ++i) {
      for (double& v : x) v = rng.uniform();
      d.add_row(x, 3 * x[0] + std::sin(6 * x[5]) + x[200] * x[17]);
    }
    return d;
  };
  const Dataset train = random_rows(100);
  const Dataset rows = random_rows(300);
  ForestParams p;
  p.seed = 17;
  RandomForest f(p);
  f.fit(train);
  const auto batch = f.predict_batch(rows);
  ASSERT_EQ(batch.size(), rows.num_rows());
  for (std::size_t i = 0; i < rows.num_rows(); ++i)
    EXPECT_EQ(batch[i], f.predict(rows.row(i))) << "row " << i;
}

TEST(PermutationImportance, MatchesTheImportancesFitUsedToCompute) {
  // Golden: the importances RandomForest::fit computed itself, printed as
  // hexfloats, before the computation moved out of fit. Same data,
  // forest and seed, so the values must match bit for bit.
  const auto d = friedman_like(500, 11);
  ForestParams p;
  p.num_trees = 32;
  RandomForest f(p);
  f.fit(d);
  const std::vector<double> golden{0x1.9ddcd58f2ae52p-2, 0x1.c94ed49207f2dp-2,
                                   0x1.28fe62f5bf5b3p-3, 0x1.154918fb5e9e8p-8};
  EXPECT_EQ(permutation_importance(f, d, p.seed), golden);
}

class ForestSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ForestSizeSweep, MoreTreesNeverBreakFit) {
  const auto train = friedman_like(300, 13);
  const auto test = friedman_like(100, 14);
  ForestParams p;
  p.num_trees = GetParam();
  p.seed = 15;
  RandomForest f(p);
  f.fit(train);
  const auto pred = f.predict_batch(test);
  std::vector<double> truth(test.targets().begin(), test.targets().end());
  // Any forest size must stay far below the data's spread (~7).
  EXPECT_LT(rmse(pred, truth), 4.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ForestSizeSweep,
                         ::testing::Values(1u, 4u, 16u, 64u));

}  // namespace
}  // namespace portatune::ml
