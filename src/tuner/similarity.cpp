#include "tuner/similarity.hpp"

#include <cmath>

#include "support/correlation.hpp"
#include "support/error.hpp"
#include "support/stats.hpp"
#include "tuner/sampler.hpp"

namespace portatune::tuner {

SimilarityReport summarize_probe_vectors(std::span<const double> a,
                                         std::span<const double> b,
                                         double top_fraction) {
  PT_REQUIRE(a.size() == b.size(), "probe vectors are not aligned");
  PT_REQUIRE(a.size() >= 3, "probe set too small (evaluations failing?)");
  const std::vector<double> ya(a.begin(), a.end());
  const std::vector<double> yb(b.begin(), b.end());

  SimilarityReport report;
  report.probes = ya.size();
  report.pearson = pearson(ya, yb);
  report.spearman = spearman(ya, yb);
  report.kendall = kendall(ya, yb);
  report.top_overlap = top_set_overlap(ya, yb, top_fraction);

  std::vector<double> log_ratio;
  log_ratio.reserve(ya.size());
  for (std::size_t i = 0; i < ya.size(); ++i)
    log_ratio.push_back(std::log(yb[i] / ya[i]));
  const double m = mean(log_ratio);
  double disp = 0.0;
  for (double v : log_ratio) disp += std::abs(v - m);
  report.log_ratio_dispersion = disp / static_cast<double>(log_ratio.size());
  return report;
}

SimilarityReport measure_similarity(Evaluator& source, Evaluator& target,
                                    const SimilarityOptions& opt) {
  PT_REQUIRE(opt.probes >= 3, "need at least three probes");

  ConfigStream stream(source.space(), opt.seed);
  std::vector<double> ya, yb;
  // Draw until `probes` configurations succeed on both machines (capped).
  std::size_t attempts = 0;
  while (ya.size() < opt.probes && attempts < opt.probes * 50) {
    ++attempts;
    auto c = stream.next();
    if (!c) break;
    const auto ra = source.evaluate(*c);
    if (!ra.ok) continue;
    const auto rb = target.evaluate(*c);
    if (!rb.ok) continue;
    ya.push_back(ra.seconds);
    yb.push_back(rb.seconds);
  }
  return summarize_probe_vectors(ya, yb, opt.top_fraction);
}

std::string to_string(TransferAdvice advice) {
  switch (advice) {
    case TransferAdvice::Transfer:
      return "transfer";
    case TransferAdvice::TransferTopOnly:
      return "transfer (top-set only)";
    case TransferAdvice::DoNotTransfer:
      return "do not transfer";
  }
  return "?";
}

TransferAdvice advise(const SimilarityReport& report) {
  // Calibrated against the reproduction's Table IV outcomes: every
  // successful RS_b cell has probe spearman > 0.45 or top-set overlap
  // >= 0.4; the X-Gene failures sit below both.
  if (report.spearman > 0.45) return TransferAdvice::Transfer;
  if (report.top_overlap >= 0.4) return TransferAdvice::TransferTopOnly;
  return TransferAdvice::DoNotTransfer;
}

}  // namespace portatune::tuner
