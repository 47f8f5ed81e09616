// Random forest regressor (Breiman 2001).
//
// The paper's surrogate of choice: an ensemble of CART trees, each fit on a
// bootstrap resample of T_a with per-split feature subsampling; the
// prediction is the mean of the trees' predictions. Tree fitting is
// parallelized over the support thread pool.
//
// Inference never touches the RegressionTree objects: once grown, every
// tree is flattened into one contiguous array of 16-byte nodes for the
// whole forest, and predict / predict_batch / the out-of-bag estimate walk
// that. predict_batch walks tree-major over blocks of rows, so one tree's
// nodes stay hot while the block streams through them; each row's sum is
// still accumulated in tree order and divided once, so a batch prediction
// is bit-identical to predict() on the same row.
#pragma once

#include <cstdint>

#include "ml/tree.hpp"

namespace portatune::ml {

struct ForestParams {
  std::size_t num_trees = 64;
  /// Per-split feature subsample size; 0 = ceil(m/3) (regression default).
  std::size_t max_features = 0;
  std::size_t max_depth = 0;
  std::size_t min_samples_leaf = 2;
  std::size_t min_samples_split = 5;
  std::uint64_t seed = 1;
  /// Fit trees across the global thread pool.
  bool parallel_fit = true;
};

class RandomForest final : public Regressor {
 public:
  explicit RandomForest(ForestParams params = {}) : params_(params) {}

  void fit(const Dataset& train) override;
  double predict(std::span<const double> x) const override;
  /// Serial: callers fan out over blocks of rows (tuner::predict_all), so
  /// no parallel fan-out ever runs inside another.
  std::vector<double> predict_batch(const Dataset& rows) const override;
  bool is_fitted() const noexcept override { return !roots_.empty(); }
  std::string name() const override { return "random_forest"; }

  std::size_t num_trees() const noexcept { return roots_.size(); }

  /// Out-of-bag RMSE estimate computed during fit (NaN if unavailable).
  double oob_rmse() const noexcept { return oob_rmse_; }

 private:
  /// One node of a flattened tree. An internal node's left child is the
  /// next node (trees are built preorder) and `right` indexes the forest
  /// array; a leaf has feature -1 and its mean target in `value`.
  struct FlatNode {
    double value;  ///< split threshold, or the leaf's prediction
    std::int32_t feature;
    std::uint32_t right;
  };
  static_assert(sizeof(FlatNode) == 16);

  void append_flat(const RegressionTree& tree);
  /// The prediction of the tree rooted at `node` for feature row `x`.
  double walk(std::uint32_t node, const double* x) const noexcept {
    for (;;) {
      const FlatNode& n = nodes_[node];
      if (n.feature < 0) return n.value;
      node = x[n.feature] <= n.value ? node + 1 : n.right;
    }
  }

  ForestParams params_;
  std::vector<FlatNode> nodes_;
  std::vector<std::uint32_t> roots_;  ///< each tree's root in nodes_
  std::size_t num_features_ = 0;
  double oob_rmse_ = 0.0;
};

}  // namespace portatune::ml
