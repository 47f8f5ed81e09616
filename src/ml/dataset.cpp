#include "ml/dataset.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace portatune::ml {

Dataset::Dataset(std::size_t num_features,
                 std::vector<std::string> feature_names)
    : num_features_(num_features), feature_names_(std::move(feature_names)) {
  PT_REQUIRE(feature_names_.empty() || feature_names_.size() == num_features_,
             "feature name count must match feature count");
}

void Dataset::add_row(std::span<const double> features, double target) {
  if (num_rows() == 0 && num_features_ == 0) num_features_ = features.size();
  PT_REQUIRE(features.size() == num_features_,
             "feature vector arity does not match dataset");
  features_.insert(features_.end(), features.begin(), features.end());
  targets_.push_back(target);
}

void Dataset::reserve(std::size_t rows) {
  features_.reserve(rows * num_features_);
  targets_.reserve(rows);
}

std::string Dataset::feature_name(std::size_t j) const {
  PT_REQUIRE(j < num_features_, "feature index out of range");
  if (j < feature_names_.size()) return feature_names_[j];
  return "x" + std::to_string(j);
}

Dataset Dataset::bootstrap(Rng& rng) const {
  Dataset out(num_features_, feature_names_);
  out.reserve(num_rows());
  for (std::size_t i = 0; i < num_rows(); ++i) {
    const auto pick = static_cast<std::size_t>(rng.below(num_rows()));
    out.add_row(row(pick), target(pick));
  }
  return out;
}

std::pair<Dataset, Dataset> Dataset::split(double test_fraction,
                                           Rng& rng) const {
  PT_REQUIRE(test_fraction >= 0.0 && test_fraction <= 1.0,
             "test_fraction must lie in [0,1]");
  auto order = rng.permutation(num_rows());
  const auto test_count = static_cast<std::size_t>(
      test_fraction * static_cast<double>(num_rows()));
  Dataset train(num_features_, feature_names_);
  Dataset test(num_features_, feature_names_);
  for (std::size_t i = 0; i < order.size(); ++i) {
    Dataset& dst = (i < test_count) ? test : train;
    dst.add_row(row(order[i]), target(order[i]));
  }
  return {std::move(train), std::move(test)};
}

Dataset Dataset::subset(std::span<const std::size_t> rows) const {
  Dataset out(num_features_, feature_names_);
  for (std::size_t i : rows) {
    PT_REQUIRE(i < num_rows(), "subset row index out of range");
    out.add_row(row(i), target(i));
  }
  return out;
}

}  // namespace portatune::ml
