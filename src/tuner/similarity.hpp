// Machine-similarity quantification — the open question the paper's
// conclusion poses: "Quantification of the dissimilarity between source
// and target machines requires further investigation, and the proposed
// approach will greatly benefit from empirical methods that can assess
// the dissimilarity."
//
// The empirical method implemented here: evaluate a small shared probe
// set of configurations on both machines (a sunk cost of `probes`
// evaluations each) and summarize how the two run-time vectors relate.
// The rank correlation and top-set overlap of the probe predict whether
// a full surrogate transfer will pay off, which the advisor turns into a
// go / no-go recommendation before any model is fitted.
#pragma once

#include <span>

#include "tuner/evaluator.hpp"

namespace portatune::tuner {

struct SimilarityReport {
  std::size_t probes = 0;      ///< configurations measured on both sides
  double pearson = 0.0;
  double spearman = 0.0;
  double kendall = 0.0;
  double top_overlap = 0.0;    ///< best-20% set overlap
  /// Mean |log(t_b / t_a) - mean log ratio|: 0 when the target is a pure
  /// rescaling of the source (perfect portability of the landscape).
  double log_ratio_dispersion = 0.0;
};

struct SimilarityOptions {
  std::size_t probes = 30;
  std::uint64_t seed = 97;
  double top_fraction = 0.2;
};

/// The canonical probe stream seed. Every machine *fingerprint* (see
/// probe_configs in tuner/sampler.hpp) is measured over the same seeded
/// draw sequence, so two fingerprints taken on different machines —
/// possibly in different processes, years apart — are aligned
/// element-for-element and can be compared directly with
/// summarize_probe_vectors.
inline constexpr std::uint64_t kFingerprintSeed = 97;

/// Summarize two aligned probe run-time vectors (the correlation core of
/// measure_similarity, reusable when one side is a *stored* fingerprint
/// rather than a live evaluator). Requires >= 3 aligned pairs.
SimilarityReport summarize_probe_vectors(std::span<const double> a,
                                         std::span<const double> b,
                                         double top_fraction = 0.2);

/// Measure the probe set on both machines and summarize.
SimilarityReport measure_similarity(Evaluator& source, Evaluator& target,
                                    const SimilarityOptions& opt = {});

enum class TransferAdvice {
  Transfer,      ///< strong rank agreement: run RS_b with the surrogate
  TransferTopOnly,  ///< weak global, strong top-set: biasing still pays
  DoNotTransfer  ///< dissimilar machines: tune from scratch
};

std::string to_string(TransferAdvice advice);

/// Thresholded recommendation from a report (thresholds calibrated on the
/// Table IV/V outcomes; see bench_similarity_advisor).
TransferAdvice advise(const SimilarityReport& report);

}  // namespace portatune::tuner
