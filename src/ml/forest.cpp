#include "ml/forest.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace portatune::ml {

void RandomForest::fit(const Dataset& train) {
  PT_REQUIRE(!train.empty(), "cannot fit a forest on an empty dataset");
  PT_REQUIRE(params_.num_trees > 0, "forest needs at least one tree");

  // Model-fit cost is one of the "search overhead" quantities the paper
  // argues is negligible; measure it so the claim is checkable.
  auto& metrics = obs::MetricsRegistry::current();
  obs::ScopedTimer fit_span("forest.fit", "ml",
                            {{"rows", train.num_rows()},
                             {"features", train.num_features()},
                             {"trees", params_.num_trees}},
                            &metrics.histogram("forest.fit_seconds"));
  metrics.counter("forest.fits").add();

  const std::size_t m = train.num_features();
  const std::size_t max_features =
      params_.max_features > 0
          ? params_.max_features
          : std::max<std::size_t>(1, (m + 2) / 3);  // ceil(m/3)

  std::vector<RegressionTree> trees;
  trees.reserve(params_.num_trees);
  std::vector<std::vector<std::size_t>> bags(params_.num_trees);

  // Derive per-tree seeds up front so results are identical whether fitting
  // runs serially or across the pool.
  Rng seeder(params_.seed);
  std::vector<std::uint64_t> bag_seeds, tree_seeds;
  for (std::size_t t = 0; t < params_.num_trees; ++t) {
    bag_seeds.push_back(seeder());
    tree_seeds.push_back(seeder());
  }
  for (std::size_t t = 0; t < params_.num_trees; ++t) {
    TreeParams tp;
    tp.max_depth = params_.max_depth;
    tp.min_samples_leaf = params_.min_samples_leaf;
    tp.min_samples_split = params_.min_samples_split;
    tp.max_features = max_features;
    tp.seed = tree_seeds[t];
    trees.emplace_back(tp);
  }

  const auto fit_one = [&](std::size_t t) {
    Rng rng(bag_seeds[t]);
    std::vector<std::size_t>& bag = bags[t];
    bag.resize(train.num_rows());
    for (auto& r : bag) r = static_cast<std::size_t>(rng.below(train.num_rows()));
    trees[t].fit(train.subset(bag));
  };

  if (params_.parallel_fit && params_.num_trees > 1) {
    ThreadPool::global().parallel_for(0, params_.num_trees, fit_one);
  } else {
    for (std::size_t t = 0; t < params_.num_trees; ++t) fit_one(t);
  }

  nodes_.clear();
  roots_.clear();
  num_features_ = m;
  std::size_t total_nodes = 0;
  for (const auto& tree : trees) total_nodes += tree.node_count();
  PT_REQUIRE(total_nodes <= std::numeric_limits<std::uint32_t>::max(),
             "forest too large to flatten");
  nodes_.reserve(total_nodes);
  roots_.reserve(trees.size());
  for (const auto& tree : trees) append_flat(tree);

  // Out-of-bag error: for each training row, average the predictions of the
  // trees whose bootstrap bag does not contain it.
  double sse = 0.0;
  std::size_t covered = 0;
  std::vector<std::vector<char>> bag_masks(params_.num_trees,
                                           std::vector<char>(train.num_rows(), 0));
  for (std::size_t t = 0; t < params_.num_trees; ++t)
    for (std::size_t r : bags[t]) bag_masks[t][r] = 1;
  for (std::size_t i = 0; i < train.num_rows(); ++i) {
    double sum = 0.0;
    std::size_t votes = 0;
    for (std::size_t t = 0; t < params_.num_trees; ++t) {
      if (!bag_masks[t][i]) {
        sum += walk(roots_[t], train.row(i).data());
        ++votes;
      }
    }
    if (votes == 0) continue;
    const double err = sum / static_cast<double>(votes) - train.target(i);
    sse += err * err;
    ++covered;
  }
  oob_rmse_ = covered > 0
                  ? std::sqrt(sse / static_cast<double>(covered))
                  : std::numeric_limits<double>::quiet_NaN();
  if (covered > 0) metrics.gauge("forest.oob_rmse").set(oob_rmse_);
  fit_span.add_field({"oob_rmse", oob_rmse_});
}

void RandomForest::append_flat(const RegressionTree& tree) {
  const auto base = static_cast<std::uint32_t>(nodes_.size());
  roots_.push_back(base);
  for (std::size_t i = 0; i < tree.nodes_.size(); ++i) {
    const RegressionTree::Node& n = tree.nodes_[i];
    if (n.is_leaf()) {
      nodes_.push_back({n.value, -1, 0});
      continue;
    }
    // RegressionTree::build is preorder: a left child follows its parent.
    PT_ASSERT(n.left == i + 1);
    PT_ASSERT(n.feature <= static_cast<std::size_t>(
                               std::numeric_limits<std::int32_t>::max()));
    nodes_.push_back({n.threshold, static_cast<std::int32_t>(n.feature),
                      base + static_cast<std::uint32_t>(n.right)});
  }
}

double RandomForest::predict(std::span<const double> x) const {
  PT_REQUIRE(is_fitted(), "predict() before fit()");
  PT_REQUIRE(x.size() == num_features_, "feature arity mismatch");
  double sum = 0.0;
  for (const std::uint32_t root : roots_) sum += walk(root, x.data());
  return sum / static_cast<double>(roots_.size());
}

std::vector<double> RandomForest::predict_batch(const Dataset& rows) const {
  PT_REQUIRE(is_fitted(), "predict_batch() before fit()");
  const std::size_t n = rows.num_rows();
  std::vector<double> out(n, 0.0);
  if (n == 0) return out;
  PT_REQUIRE(rows.num_features() == num_features_, "feature arity mismatch");
  // Tree-major over blocks of rows: out[i] accumulates row i's sum in
  // tree order, exactly as predict() does, so results are bit-identical.
  constexpr std::size_t kBlock = 128;
  for (std::size_t lo = 0; lo < n; lo += kBlock) {
    const std::size_t hi = std::min(n, lo + kBlock);
    for (const std::uint32_t root : roots_)
      for (std::size_t i = lo; i < hi; ++i)
        out[i] += walk(root, rows.row(i).data());
  }
  const auto trees = static_cast<double>(roots_.size());
  for (double& y : out) y /= trees;
  return out;
}

}  // namespace portatune::ml
