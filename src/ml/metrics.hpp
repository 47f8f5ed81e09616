// Regression quality metrics and cross-validation.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "ml/model.hpp"

namespace portatune::ml {

/// Root-mean-squared error between predictions and truth.
double rmse(std::span<const double> pred, std::span<const double> truth);

/// Mean absolute error.
double mae(std::span<const double> pred, std::span<const double> truth);

/// Coefficient of determination R^2 (1 = perfect, 0 = mean predictor,
/// negative = worse than the mean predictor).
double r_squared(std::span<const double> pred, std::span<const double> truth);

/// k-fold cross-validated RMSE of the regressor produced by `factory`.
/// Folds are contiguous after a seeded shuffle; deterministic.
double kfold_rmse(const Dataset& data, std::size_t folds,
                  const std::function<RegressorPtr()>& factory,
                  std::uint64_t seed = 1);

/// Permutation feature importances of a fitted `model` on `data`: the
/// increase in mean squared error when feature j's column is shuffled
/// (clamped at 0), normalized to sum to 1 (all zero when no feature
/// matters). Deterministic in `seed`.
std::vector<double> permutation_importance(const Regressor& model,
                                           const Dataset& data,
                                           std::uint64_t seed);

}  // namespace portatune::ml
