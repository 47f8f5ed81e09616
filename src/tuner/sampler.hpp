// Uniform without-replacement sampling stream over a parameter space.
//
// This object *is* the paper's variance-reduction device (Sec. IV-D,
// "method of common random numbers"): a stream seeded identically produces
// the identical draw sequence, so RS on the source machine, RS replayed on
// the target machine, and RS-with-pruning on the target machine all walk
// the same configurations in the same order.
#pragma once

#include <functional>
#include <optional>
#include <unordered_set>
#include <vector>

#include "tuner/param.hpp"

namespace portatune::tuner {

class ConfigStream {
 public:
  ConfigStream(const ParamSpace& space, std::uint64_t seed);

  /// Next distinct configuration, or nullopt once the space (or the
  /// rejection budget on astronomically large spaces) is exhausted.
  std::optional<ParamConfig> next();

  /// Append up to `n` further draws to `out`. Returns how many were
  /// appended: fewer than `n` only once the stream is exhausted.
  std::size_t take(std::size_t n, std::vector<ParamConfig>& out);

  /// Number of configurations produced so far.
  std::size_t produced() const noexcept { return produced_; }

  const ParamSpace& space() const noexcept { return *space_; }

 private:
  const ParamSpace* space_;
  Rng rng_;
  std::unordered_set<std::uint64_t> seen_;
  double cardinality_;
  std::size_t produced_ = 0;
  // For tiny spaces, a pre-shuffled full enumeration guarantees exact
  // without-replacement semantics and clean exhaustion.
  std::vector<ParamConfig> enumerated_;
  std::size_t cursor_ = 0;
  bool use_enumeration_ = false;
};

/// The first `count` draws of the stream seeded with `seed` (fewer when
/// the space runs out first). Every candidate pool is sampled through
/// this — the RS_p cutoff pool, the ranked pools of RS_b, warm sessions
/// and seeded starts — as is the canonical probe set that
/// measure_similarity and the surrogate store's machine fingerprints
/// evaluate (tuner/similarity.hpp). Deterministic in (space, seed).
std::vector<ParamConfig> probe_configs(const ParamSpace& space,
                                       std::size_t count,
                                       std::uint64_t seed);

/// Walk the stream seeded with `seed`, handing each draw to `probe`, which
/// returns false to skip it (a configuration that failed to evaluate),
/// until `count` draws were accepted, `count * 50` were tried, or the
/// stream ran out. measure_similarity and the surrogate store's machine
/// fingerprints both probe through this. A failure is a property of the
/// configuration, not of the machine, so every machine skips the same
/// draws and their probe vectors stay element-aligned.
void walk_probes(const ParamSpace& space, std::uint64_t seed,
                 std::size_t count,
                 const std::function<bool(const ParamConfig&)>& probe);

}  // namespace portatune::tuner
