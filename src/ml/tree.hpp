// CART regression tree (recursive partitioning).
//
// Implements the recursive-partitioning surrogate of Sec. III-A: the input
// space is split into hyperrectangles by axis-aligned if-else rules chosen
// to minimize within-partition run-time variance; each leaf predicts the
// mean run time of the training configurations it contains (paper Fig. 2).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "ml/model.hpp"
#include "support/rng.hpp"

namespace portatune::ml {

struct TreeParams {
  /// Maximum tree depth (root has depth 0); 0 means unlimited.
  std::size_t max_depth = 0;
  /// A split is attempted only on nodes with at least this many rows.
  std::size_t min_samples_split = 2;
  /// Each child of an accepted split must hold at least this many rows.
  std::size_t min_samples_leaf = 1;
  /// Features examined per split; 0 = all (single tree), forests typically
  /// pass ceil(m/3) for regression.
  std::size_t max_features = 0;
  /// Minimum variance-reduction gain for a split to be accepted.
  double min_gain = 0.0;
  /// Seed for feature subsampling (only consulted when max_features > 0).
  std::uint64_t seed = 1;
};

class RegressionTree final : public Regressor {
 public:
  explicit RegressionTree(TreeParams params = {}) : params_(params) {}

  void fit(const Dataset& train) override;
  double predict(std::span<const double> x) const override;
  bool is_fitted() const noexcept override { return !nodes_.empty(); }
  std::string name() const override { return "regression_tree"; }

  std::size_t node_count() const noexcept { return nodes_.size(); }
  std::size_t leaf_count() const noexcept;
  std::size_t depth() const noexcept;

  /// Render as an indented if-else rule listing (Fig. 2 style).
  std::string to_text(const std::vector<std::string>& feature_names = {})
      const;
  /// Render as Graphviz DOT.
  std::string to_dot(const std::vector<std::string>& feature_names = {}) const;

 private:
  friend class RandomForest;  // flattens fitted trees for inference

  struct Node {
    // Internal node: feature/threshold valid, children indices set.
    // Leaf: left == npos, `value` is the mean target of its rows.
    std::size_t feature = 0;
    double threshold = 0.0;
    std::size_t left = npos;
    std::size_t right = npos;
    double value = 0.0;
    std::size_t samples = 0;
    bool is_leaf() const noexcept { return left == npos; }
  };
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

  struct Split {
    std::size_t feature = 0;
    double threshold = 0.0;
    double gain = -1.0;
  };

  std::size_t build(const Dataset& data, std::vector<std::size_t>& rows,
                    std::size_t depth, Rng& rng);
  std::optional<Split> best_split(const Dataset& data,
                                  std::span<const std::size_t> rows,
                                  Rng& rng) const;
  void render(std::size_t node, std::size_t depth,
              const std::vector<std::string>& names, std::string& out) const;

  TreeParams params_;
  std::vector<Node> nodes_;
  std::size_t num_features_ = 0;
};

}  // namespace portatune::ml
