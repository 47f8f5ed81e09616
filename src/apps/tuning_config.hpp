// TuningConfig: one validated builder for a whole tuning run.
//
// A run is described by two structs: the EvaluatorStackOptions of its
// decorator stack and the tuner::ExperimentSettings of its searches.
// TuningConfig holds one of each (plus the transfer's source machine
// and an optional observation label) and keeps the cross-struct
// invariants that drivers used to repeat by hand: the CRN seed is
// shared, the cancel token reaches both the stack and the search, and
// each role's stack gets its machine and label. Every default lives in
// the struct that consumes it.
//
//     auto cfg = apps::TuningConfig{}
//                    .problem("LU").machines("Westmere", "Sandybridge")
//                    .max_evals(200).seed(7).eval_threads(4);
//     auto source = cfg.make_stack(apps::StackRole::Source);
//     auto target = cfg.make_stack(apps::StackRole::Target);
//     auto result = tuner::run_transfer_experiment(*source, *target,
//                                                  cfg.experiment_settings());
//
// Every producer validates first, so an impossible configuration fails
// loudly at build time instead of deep inside a search.
#pragma once

#include <memory>
#include <string>

#include "apps/evaluator_factory.hpp"
#include "tuner/experiment.hpp"
#include "tuner/session.hpp"

namespace portatune::apps {

/// Which evaluator stack of a run a producer builds. Single is a
/// one-machine run (collect / a plain session); Source/Target are the
/// two sides of a transfer and get role-tagged observation labels.
enum class StackRole { Single, Source, Target };

class TuningConfig {
 public:
  // -- Backend ----------------------------------------------------------
  TuningConfig& problem(std::string name);
  /// The machine of Single/Target stacks.
  TuningConfig& machine(std::string name);
  /// The machine of Source stacks (transfers).
  TuningConfig& source_machine(std::string name);
  /// Both transfer sides at once.
  TuningConfig& machines(std::string source, std::string target);
  TuningConfig& compiler(sim::Compiler c);
  TuningConfig& kernel_threads(int n);

  // -- Search -----------------------------------------------------------
  TuningConfig& max_evals(std::size_t n);
  TuningConfig& seed(std::uint64_t s);
  TuningConfig& pool_size(std::size_t n);
  TuningConfig& delta_percent(double d);
  TuningConfig& forest(ml::ForestParams fp);
  TuningConfig& failure_budget(tuner::FailureBudget fb);
  TuningConfig& guard(tuner::GuardOptions g);
  /// Shorthand for the CLI's --guard/--guard-floor/--guard-window trio.
  TuningConfig& guard_enabled(bool on);
  TuningConfig& guard_floor(double floor);
  TuningConfig& guard_window(std::size_t window);
  TuningConfig& cancel(CancellationToken token);

  // -- Evaluator stack layers ------------------------------------------
  TuningConfig& faults(tuner::FaultProfile profile);
  TuningConfig& observe(bool on);
  TuningConfig& observe_label(std::string label);
  TuningConfig& resilient(bool on);
  TuningConfig& retry(tuner::RetryPolicy policy);
  TuningConfig& eval_threads(std::size_t n);
  TuningConfig& batch_width(std::size_t n);
  TuningConfig& eval_deadline_seconds(double s);

  // -- Introspection (CLI summaries, service status) --------------------
  /// The stack every role starts from: `machine` is the Single/Target
  /// machine, and `observe_label` is ignored (see observe_label()).
  const EvaluatorStackOptions& stack() const noexcept { return stack_; }
  /// The search settings, exactly as experiment_settings() returns them.
  const tuner::ExperimentSettings& search() const noexcept { return search_; }
  const std::string& source_machine() const noexcept {
    return source_machine_;
  }
  /// Empty = each role's stack gets its role-derived label.
  const std::string& observe_label() const noexcept { return observe_label_; }

  /// Check the cross-field invariants; throws portatune::Error with the
  /// offending field named. Every producer below calls this first.
  const TuningConfig& validate() const;

  // -- Producers --------------------------------------------------------
  tuner::SearchCommon search_common() const;
  tuner::ExperimentSettings experiment_settings() const;
  tuner::SessionOptions session_options(std::string id) const;
  EvaluatorStackOptions stack_options(StackRole role = StackRole::Single)
      const;
  std::unique_ptr<EvaluatorStack> make_stack(
      StackRole role = StackRole::Single) const;

 private:
  EvaluatorStackOptions stack_;
  tuner::ExperimentSettings search_;
  std::string source_machine_ = "Westmere";
  std::string observe_label_;
};

}  // namespace portatune::apps
