#include "tuner/sampler.hpp"

#include "support/error.hpp"

namespace portatune::tuner {

namespace {
constexpr double kEnumerationLimit = 1 << 16;
}

ConfigStream::ConfigStream(const ParamSpace& space, std::uint64_t seed)
    : space_(&space), rng_(seed), cardinality_(space.cardinality()) {
  PT_REQUIRE(space.num_params() > 0, "empty parameter space");
  if (cardinality_ <= kEnumerationLimit) {
    use_enumeration_ = true;
    // Odometer enumeration of the full product space.
    ParamConfig c(space.num_params(), 0);
    bool done = false;
    while (!done) {
      enumerated_.push_back(c);
      done = true;
      for (std::size_t p = space.num_params(); p-- > 0;) {
        if (static_cast<std::size_t>(++c[p]) <
            space.param(p).values.size()) {
          done = false;
          break;
        }
        c[p] = 0;
      }
    }
    rng_.shuffle(enumerated_);
  }
}

std::optional<ParamConfig> ConfigStream::next() {
  if (use_enumeration_) {
    if (cursor_ >= enumerated_.size()) return std::nullopt;
    ++produced_;
    return enumerated_[cursor_++];
  }
  // Rejection sampling with hash-based dedup. The spaces this path serves
  // have cardinality >> any realistic draw count, so collisions are rare;
  // the retry budget guards against degenerate callers.
  for (int attempt = 0; attempt < 4096; ++attempt) {
    ParamConfig c = space_->random_config(rng_);
    if (seen_.insert(space_->config_hash(c)).second) {
      ++produced_;
      return c;
    }
  }
  return std::nullopt;
}

std::size_t ConfigStream::take(std::size_t n, std::vector<ParamConfig>& out) {
  std::size_t taken = 0;
  for (; taken < n; ++taken) {
    auto c = next();
    if (!c) break;
    out.push_back(std::move(*c));
  }
  return taken;
}

std::vector<ParamConfig> probe_configs(const ParamSpace& space,
                                       std::size_t count,
                                       std::uint64_t seed) {
  ConfigStream stream(space, seed);
  std::vector<ParamConfig> out;
  out.reserve(count);
  stream.take(count, out);
  return out;
}

}  // namespace portatune::tuner
