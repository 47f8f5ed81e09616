// Shared pieces of the measuring program: the clock, the result report,
// the span/interval recorder and the two timing wrappers (an Evaluator
// decorator and a Regressor wrapper) the traced runs put around the
// library's public objects.
//
// Everything here lives outside the library: the traced runs reach each
// layer only through its public functions, and the wrappers forward every
// capability (batch width, thread safety, inner_evaluator, predict_batch)
// so a traced search takes exactly the code path of an untraced one.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "ml/model.hpp"
#include "obs/json.hpp"
#include "support/stats.hpp"
#include "tuner/evaluator.hpp"
#include "tuner/trace.hpp"

namespace perfbench {

namespace pt = portatune;
using Json = pt::obs::json::Value;
using Members = std::vector<std::pair<std::string, Json>>;

/// Monotonic nanoseconds (steady_clock).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ns_to_ms(std::int64_t ns) {
  return static_cast<double>(ns) / 1e6;
}
inline double ns_to_s(std::int64_t ns) {
  return static_cast<double>(ns) / 1e9;
}

using pt::mean;
using pt::median;

/// Command-line options shared by every workload.
struct RunOptions {
  Json input;            ///< the generated workload description
  double seconds = 10;   ///< measurement length
  bool trace = false;    ///< per-layer (traced) run instead of the timed one
  std::string work_dir;  ///< scratch directory inside the checkout
  std::string cli_path;  ///< the portatune_cli binary (service workload)
};

/// Everything one run prints: metrics with unit and sample count, the
/// operation/check tally and free-form context lines.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples, const std::string& note = "");
  /// One attempted operation or correctness check; a false `ok` counts as
  /// failed and keeps `what` for the diagnostics.
  void attempt(bool ok, const std::string& what);
  void attempt_many(std::size_t n) { attempted_ += n; }
  void context(const std::string& key, Json value);
  Json to_json() const;

 private:
  struct Entry {
    double value;
    std::string unit;
    std::size_t samples;
    std::string note;
  };
  std::vector<std::pair<std::string, Entry>> metrics_;
  std::size_t attempted_ = 0;
  std::vector<std::string> failures_;
  Members context_;
};

/// Report a latency distribution as `<prefix>_p50_ms` and
/// `<prefix>_tail_ms`, the tail being percentile `tail_pct`. The note
/// records the percentile and how many samples lie beyond it.
void latency_metrics(Report& r, const std::string& prefix,
                     const std::vector<double>& ms, double tail_pct);

/// Report `<prefix>_p50_ms` and `<prefix>_tail_ms` of a workload that
/// repeats a fixed cycle of units: `per_unit[u]` holds unit u's times, one
/// per cycle. The p50 is over all samples. For the tail each unit counts
/// once, at its median time across cycles, so it describes the slow units
/// of the cycle's own mix rather than the moments the host stalled.
void unit_latency_metrics(Report& r, const std::string& prefix,
                          const std::vector<std::vector<double>>& per_unit,
                          double tail_pct);

/// Each unit's median across cycles (units without samples are skipped).
std::vector<double> unit_medians(
    const std::vector<std::vector<double>>& per_unit);

/// Host-speed probe. The shared host's speed drifts by up to 2x over
/// minutes, from load outside this program, and moves every time the
/// workload measures the same way. The probe times a fixed kernel that
/// belongs to the benchmark (random fill, sort, log/exp), single-threaded,
/// between the workload's units, when none of the workload's threads are
/// busy. Its median goes into the context as `speed_probe_ms`; run.py
/// scales the timed run's metrics by it (see README "Steadiness").
class SpeedProbe {
 public:
  /// Run the kernel once and keep its time.
  void sample();
  /// Context keys speed_probe_ms (median) and speed_probe_samples.
  void report(Report& r) const;

 private:
  std::vector<double> ms_;
};

/// Peak resident set of this process, in MiB.
double self_peak_rss_mb();

// ---------------------------------------------------------------------
// Span recorder.
//
// Timing wrappers record [start, end) intervals of their calls into a
// per-thread buffer (merging back-to-back calls of the same kind on one
// thread), so a span's self time can be computed as its duration minus
// the union of the child intervals that fall inside it. The wrappers, and
// so the recorder, are used by traced runs only.
// ---------------------------------------------------------------------

enum class Kind { Eval = 0, Predict = 1 };

class IntervalRecorder {
 public:
  void record(Kind kind, std::int64_t t0, std::int64_t t1);
  /// Union length (ns) of the recorded intervals of `kind` clipped to
  /// [t0, t1); kind < 0 unions every kind.
  std::int64_t covered(int kind, std::int64_t t0, std::int64_t t1) const;
  /// Drop everything recorded so far. Callers invoke it only while no
  /// wrapped call is in flight.
  void clear();

  static IntervalRecorder& instance();

 private:
  struct Interval {
    std::int64_t t0, t1;
    int kind;
  };
  struct ThreadLog {
    std::vector<Interval> intervals;
  };
  ThreadLog& local();
  mutable std::mutex mutex_;  ///< guards logs_ (registration and reads)
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

/// Busy time and work counts of one wrapped layer, summed over threads.
struct LayerCounters {
  std::atomic<std::uint64_t> calls{0};    ///< items (evaluations or rows)
  std::atomic<std::uint64_t> batches{0};  ///< evaluate_batch/predict_batch
  std::atomic<std::int64_t> busy_ns{0};

  void add(std::uint64_t items, std::int64_t ns, bool batch) {
    calls.fetch_add(items, std::memory_order_relaxed);
    if (batch) batches.fetch_add(1, std::memory_order_relaxed);
    busy_ns.fetch_add(ns, std::memory_order_relaxed);
  }
};

/// Timing Evaluator decorator. Forwards the whole Evaluator interface,
/// including capabilities() and inner_evaluator(), so the search sees the
/// same batch width and find_layer<> sees the same stack.
class TimingEvaluator final : public pt::tuner::Evaluator {
 public:
  TimingEvaluator(pt::tuner::Evaluator& inner, LayerCounters& counters,
                  bool record_intervals)
      : inner_(inner), counters_(counters), record_(record_intervals) {}

  const pt::tuner::ParamSpace& space() const override {
    return inner_.space();
  }
  pt::tuner::EvalResult evaluate(
      const pt::tuner::ParamConfig& config) override;
  std::vector<pt::tuner::EvalResult> evaluate_batch(
      std::span<const pt::tuner::ParamConfig> batch) override;
  pt::tuner::EvalCapabilities capabilities() const override {
    return inner_.capabilities();
  }
  pt::tuner::Evaluator* inner_evaluator() noexcept override { return &inner_; }
  std::string problem_name() const override { return inner_.problem_name(); }
  std::string machine_name() const override { return inner_.machine_name(); }

 private:
  pt::tuner::Evaluator& inner_;
  LayerCounters& counters_;
  bool record_;
};

/// Timing Regressor wrapper around a fitted model. predict() and
/// predict_batch() forward to the model's own implementations.
class TimedRegressor final : public pt::ml::Regressor {
 public:
  TimedRegressor(const pt::ml::Regressor& inner, LayerCounters& counters)
      : inner_(inner), counters_(counters) {}

  void fit(const pt::ml::Dataset&) override;
  double predict(std::span<const double> x) const override;
  std::vector<double> predict_batch(
      const pt::ml::Dataset& rows) const override;
  bool is_fitted() const noexcept override { return inner_.is_fitted(); }
  std::string name() const override { return inner_.name(); }

 private:
  const pt::ml::Regressor& inner_;
  LayerCounters& counters_;
};

/// Checksum of everything a search produced except the wall-clock column:
/// labels, stop reason, failure accounting and every entry (configuration,
/// run time, search clock, draw index), with doubles printed exactly.
std::uint64_t trace_checksum(const pt::tuner::SearchTrace& trace);

/// Is `problem` one of the registry's mini-apps (HPL, RT) rather than a
/// SPAPT kernel?
inline bool is_app(const std::string& problem) {
  return problem == "HPL" || problem == "RT";
}

int run_transfer(const RunOptions& opt, Report& report);
int run_collect(const RunOptions& opt, Report& report);
int run_service(const RunOptions& opt, Report& report);
/// Write the expected-output file of the transfer workload, computed with
/// the library's own experiment engine (not the benchmark's composition).
int capture_transfer(const RunOptions& opt, const std::string& out_path);

}  // namespace perfbench
