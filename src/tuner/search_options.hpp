// Options shared by every search algorithm.
//
// Each algorithm's option struct embeds SearchCommon as a base, so the
// evaluation budget, the CRN stream seed, and the failure budget are
// declared once instead of being repeated across a dozen structs. The
// option structs remain aggregates: `Options{.field = x}` designated
// initialization at call sites keeps working (the base is then
// default-initialized), as does plain member assignment.
//
// Driver code usually gets these from apps::TuningConfig
// (apps/tuning_config.hpp), the validated builder that fills
// SearchCommon and its sibling option structs consistently. Every search
// consumes them through the same shared mechanisms — one ranked pool,
// one evaluation-window loop (tuner/search_loop.hpp) — and the six-phase
// transfer protocol has one engine, run_transfer_experiment
// (tuner/experiment.hpp).
#pragma once

#include <cstdint>

#include "support/cancellation.hpp"
#include "tuner/guard.hpp"
#include "tuner/resilience.hpp"

namespace portatune::tuner {

/// stop_reason() recorded when a search is stopped by cooperative
/// cancellation (graceful shutdown). Resume paths clear it: a cancelled
/// search is interrupted, not finished.
inline constexpr const char* kCancelledStopReason =
    "cancelled: shutdown requested";

struct SearchCommon {
  std::size_t max_evals = 100;  ///< n_max, the evaluation budget
  std::uint64_t seed = 1;       ///< shared stream seed (CRN, Sec. IV-D)
  /// Abort (with a diagnostic stop_reason) once failures exceed this.
  FailureBudget failure_budget{};
  /// Surrogate-trust guard (RS_p / RS_b only; inert everywhere else and
  /// inert by default — see tuner/guard.hpp for the state machine).
  GuardOptions guard{};
  /// Cooperative cancellation: checked at window boundaries. A cancelled
  /// search stops cleanly (kCancelledStopReason on the trace, final
  /// checkpoint taken) so the run can be resumed. Invalid by default.
  CancellationToken cancel{};
};

}  // namespace portatune::tuner
