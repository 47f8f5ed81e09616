// Tuning sessions: the stateful core of the autotuning-as-a-service API.
//
// A TuningSession is one long-lived tuning conversation with an
// evaluator: instead of a free function that runs a whole search and
// returns, the caller opens a session, advances it incrementally (step),
// or pulls candidates out and pushes externally measured results back in
// (suggest / report), snapshots it for crash-safety (checkpoint), and
// finally closes it. The service layer (src/service) multiplexes many of
// these concurrently over shared infrastructure — the evaluation cache,
// the surrogate store, the thread pool — but the session state machine
// itself is plain tuner code with no service dependencies, so embedders
// can drive one directly.
//
// A session runs the searches' own mechanisms (tuner/search_loop.hpp),
// not copies of them. A cold session walks the seeded without-replacement
// draw stream, so stepping it to exhaustion is random_search(). A warm
// session walks a RankedPool scored by a surrogate handed in at open (the
// store's nearest-machine forest), so stepping it to exhaustion is
// unguarded biased_random_search() (RS_b). The six-phase transfer
// protocol is a single call, run_transfer_experiment (tuner/experiment.hpp).
//
// Lifecycle observability: every session emits a `session.open` instant
// at construction and a `session.closed` span (duration = session
// lifetime) at close, so the flight recorder's ring always holds the
// recent session history and a Chrome trace shows sessions as slices.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ml/model.hpp"
#include "tuner/random_search.hpp"
#include "tuner/resilience.hpp"
#include "tuner/sampler.hpp"
#include "tuner/search_loop.hpp"
#include "tuner/search_options.hpp"
#include "tuner/trace.hpp"

namespace portatune::tuner {

struct SessionOptions : SearchCommon {
  /// Session label used in events and diagnostics.
  std::string id = "session";
  /// Warm start: rank `pool_size` candidates with this model and
  /// evaluate in ascending predicted order (RS_b, Algorithm 2). The
  /// model must outlive the session. nullptr = cold: plain RS draw
  /// order.
  const ml::Regressor* warm_model = nullptr;
  /// Candidate pool for the warm ranking (ignored when cold).
  std::size_t pool_size = 2000;
  /// Resume an interrupted session from its checkpoint. The same seed —
  /// and, for warm sessions, a model refit from the same stored trace —
  /// must be supplied, so the replayed draw/rank order matches exactly.
  const SearchCheckpoint* resume = nullptr;
};

/// What one step() advanced.
struct SessionStepStats {
  std::size_t evaluated = 0;   ///< new trace entries
  std::size_t failures = 0;    ///< failed evaluations this step
  double best_seconds = 0.0;   ///< session-wide best after the step
  /// True once the session can make no further progress: budget
  /// reached, stream/pool exhausted, failure budget tripped, or
  /// cancelled.
  bool exhausted = false;
};

class TuningSession {
 public:
  /// The evaluator must outlive the session.
  TuningSession(Evaluator& eval, SessionOptions opt);
  ~TuningSession();

  TuningSession(const TuningSession&) = delete;
  TuningSession& operator=(const TuningSession&) = delete;

  const std::string& id() const noexcept { return opt_.id; }
  bool warm() const noexcept { return opt_.warm_model != nullptr; }
  bool closed() const noexcept { return closed_; }

  /// Evaluate up to `n` further configurations through the session's
  /// evaluator (one batch window; the evaluator fans it out if it can).
  /// Throws after close().
  SessionStepStats step(std::size_t n);

  /// Consume and return up to `n` candidate configurations without
  /// evaluating them. The caller measures them externally and feeds the
  /// results back with report(); unreported suggestions simply never
  /// enter the trace (and never consume evaluation budget).
  std::vector<ParamConfig> suggest(std::size_t n);

  /// Record one externally measured run time for a configuration handed
  /// out by suggest(). Throws when the configuration was not suggested
  /// by this session (outstanding suggestions are part of the checkpoint,
  /// so they survive a resume).
  void report(const ParamConfig& config, double seconds);

  /// Snapshot for persistence: the trace, the number of draws / pool
  /// picks consumed, and the outstanding suggestions — exactly what
  /// SessionOptions::resume replays.
  SearchCheckpoint checkpoint() const;

  /// Close the session: emits the lifetime span, after which
  /// step/suggest/report throw. Idempotent. trace() stays readable.
  void close();

  const SearchTrace& trace() const noexcept { return trace_; }
  const Evaluator& evaluator() const noexcept { return eval_; }
  std::size_t consumed_draws() const noexcept { return consumed_; }
  std::size_t remaining_budget() const noexcept {
    return trace_.size() >= opt_.max_evals ? 0
                                           : opt_.max_evals - trace_.size();
  }

 private:
  /// Pull up to `want` fresh configurations (cold: stream draws, warm:
  /// ranked pool picks). `draw_idx[i]` is what the trace entry records
  /// (stream position / pool index, the CRN identity); `marker[i]` is the
  /// consumed-draws watermark once configs[i] is accounted — checkpoints
  /// store the marker of the last accounted result, so a window cancelled
  /// mid-flight rolls its unprocessed tail draws back, exactly like RS.
  void gather(std::size_t want, std::vector<ParamConfig>& configs,
              std::vector<std::size_t>& draw_idx,
              std::vector<std::size_t>& marker);
  void require_open(const char* op) const;

  Evaluator& eval_;
  SessionOptions opt_;
  SearchTrace trace_;
  FailureBudgetTracker budget_;
  double opened_mono_ = 0.0;
  bool closed_ = false;
  bool exhausted_ = false;
  std::size_t consumed_ = 0;  ///< draws (cold) / pool picks (warm) accounted

  std::unique_ptr<ConfigStream> stream_;  ///< cold: the RS draw stream
  std::optional<RankedPool> pool_;        ///< warm: the RS_b ranked pool

  /// Outstanding suggestions: config hash -> draw index, so report()
  /// stamps the entry with the same index step() would have.
  std::vector<std::pair<std::uint64_t, std::size_t>> pending_;
};

}  // namespace portatune::tuner
