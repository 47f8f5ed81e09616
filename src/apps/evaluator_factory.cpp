#include "apps/evaluator_factory.hpp"

#include "apps/registry.hpp"

namespace portatune::apps {

namespace {

bool injects_faults(const tuner::FaultProfile& p) {
  return p.transient_rate > 0.0 || p.deterministic_rate > 0.0 ||
         p.hang_rate > 0.0 || p.delay_rate > 0.0 || p.spike_rate > 0.0;
}

}  // namespace

EvaluatorStack::EvaluatorStack(const EvaluatorStackOptions& opt)
    : backend_(make_simulated_evaluator(opt.problem, opt.machine,
                                        opt.compiler, opt.kernel_threads)) {
  tuner::Evaluator* top = backend_.get();
  if (injects_faults(opt.faults)) {
    faults_ = std::make_unique<tuner::FaultInjectingEvaluator>(*top,
                                                               opt.faults);
    top = faults_.get();
  }
  // Inside the resilient layer on purpose: the observer sees every raw
  // attempt (including injected faults), one event per attempt.
  if (opt.observe) {
    observed_ =
        std::make_unique<obs::ObservedEvaluator>(*top, opt.observe_label);
    top = observed_.get();
  }
  if (opt.resilient) {
    resilient_ = std::make_unique<tuner::ResilientEvaluator>(*top, opt.retry);
    top = resilient_.get();
  }
  if (opt.eval_threads != 1) {
    tuner::ParallelOptions popt;
    popt.threads = opt.eval_threads;
    popt.batch_width = opt.batch_width;
    popt.cancel = opt.cancel;
    popt.eval_deadline_seconds = opt.eval_deadline_seconds;
    parallel_ = std::make_unique<tuner::ParallelEvaluator>(*top, popt);
    top = parallel_.get();
  }
  top_ = top;
}

std::unique_ptr<EvaluatorStack> make_evaluator_stack(
    const EvaluatorStackOptions& opt) {
  return std::make_unique<EvaluatorStack>(opt);
}

}  // namespace portatune::apps
