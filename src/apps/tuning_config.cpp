#include "apps/tuning_config.hpp"

#include "support/error.hpp"

namespace portatune::apps {

TuningConfig& TuningConfig::problem(std::string name) {
  stack_.problem = std::move(name);
  return *this;
}
TuningConfig& TuningConfig::machine(std::string name) {
  stack_.machine = std::move(name);
  return *this;
}
TuningConfig& TuningConfig::source_machine(std::string name) {
  source_machine_ = std::move(name);
  return *this;
}
TuningConfig& TuningConfig::machines(std::string source, std::string target) {
  source_machine_ = std::move(source);
  stack_.machine = std::move(target);
  return *this;
}
TuningConfig& TuningConfig::compiler(sim::Compiler c) {
  stack_.compiler = c;
  return *this;
}
TuningConfig& TuningConfig::kernel_threads(int n) {
  stack_.kernel_threads = n;
  return *this;
}
TuningConfig& TuningConfig::max_evals(std::size_t n) {
  search_.nmax = n;
  return *this;
}
TuningConfig& TuningConfig::seed(std::uint64_t s) {
  search_.seed = s;
  return *this;
}
TuningConfig& TuningConfig::pool_size(std::size_t n) {
  search_.pool_size = n;
  return *this;
}
TuningConfig& TuningConfig::delta_percent(double d) {
  search_.delta_percent = d;
  return *this;
}
TuningConfig& TuningConfig::forest(ml::ForestParams fp) {
  search_.forest = fp;
  return *this;
}
TuningConfig& TuningConfig::failure_budget(tuner::FailureBudget fb) {
  search_.failure_budget = fb;
  return *this;
}
TuningConfig& TuningConfig::guard(tuner::GuardOptions g) {
  search_.guard = std::move(g);
  return *this;
}
TuningConfig& TuningConfig::guard_enabled(bool on) {
  search_.guard.enabled = on;
  return *this;
}
TuningConfig& TuningConfig::guard_floor(double floor) {
  search_.guard.floor = floor;
  return *this;
}
TuningConfig& TuningConfig::guard_window(std::size_t window) {
  search_.guard.window = window;
  return *this;
}
TuningConfig& TuningConfig::cancel(CancellationToken token) {
  stack_.cancel = token;
  search_.cancel = std::move(token);
  return *this;
}
TuningConfig& TuningConfig::faults(tuner::FaultProfile profile) {
  stack_.faults = profile;
  return *this;
}
TuningConfig& TuningConfig::observe(bool on) {
  stack_.observe = on;
  return *this;
}
TuningConfig& TuningConfig::observe_label(std::string label) {
  observe_label_ = std::move(label);
  return *this;
}
TuningConfig& TuningConfig::resilient(bool on) {
  stack_.resilient = on;
  return *this;
}
TuningConfig& TuningConfig::retry(tuner::RetryPolicy policy) {
  stack_.retry = policy;
  return *this;
}
TuningConfig& TuningConfig::eval_threads(std::size_t n) {
  stack_.eval_threads = n;
  return *this;
}
TuningConfig& TuningConfig::batch_width(std::size_t n) {
  stack_.batch_width = n;
  return *this;
}
TuningConfig& TuningConfig::eval_deadline_seconds(double s) {
  stack_.eval_deadline_seconds = s;
  return *this;
}

const TuningConfig& TuningConfig::validate() const {
  PT_REQUIRE(!stack_.problem.empty(), "TuningConfig: problem must be named");
  PT_REQUIRE(!stack_.machine.empty(), "TuningConfig: machine must be named");
  PT_REQUIRE(search_.nmax > 0, "TuningConfig: max_evals must be positive");
  PT_REQUIRE(search_.pool_size > 0,
             "TuningConfig: pool_size must be positive");
  PT_REQUIRE(search_.delta_percent > 0.0 && search_.delta_percent < 100.0,
             "TuningConfig: delta_percent must lie strictly between 0 "
             "and 100");
  PT_REQUIRE(stack_.kernel_threads >= 1,
             "TuningConfig: kernel_threads must be >= 1");
  PT_REQUIRE(stack_.retry.max_attempts >= 1,
             "TuningConfig: retry.max_attempts must be >= 1");
  PT_REQUIRE(stack_.eval_deadline_seconds >= 0.0,
             "TuningConfig: eval_deadline_seconds must be >= 0");
  const tuner::FailureBudget& fb = search_.failure_budget;
  PT_REQUIRE(fb.max_consecutive > 0 && fb.max_total > 0,
             "TuningConfig: failure budget bounds must be positive");
  const tuner::GuardOptions& g = search_.guard;
  if (g.enabled) {
    PT_REQUIRE(g.floor >= g.disable_floor,
               "TuningConfig: guard floor must be >= disable_floor");
    PT_REQUIRE(g.window >= g.min_observations,
               "TuningConfig: guard window must hold min_observations");
    PT_REQUIRE(g.sync_window > 0,
               "TuningConfig: guard sync_window must be positive");
  }
  return *this;
}

tuner::SearchCommon TuningConfig::search_common() const {
  validate();
  tuner::SearchCommon c;
  c.max_evals = search_.nmax;
  c.seed = search_.seed;
  c.failure_budget = search_.failure_budget;
  c.guard = search_.guard;
  c.cancel = search_.cancel;
  return c;
}

tuner::ExperimentSettings TuningConfig::experiment_settings() const {
  validate();
  return search_;
}

tuner::SessionOptions TuningConfig::session_options(std::string id) const {
  tuner::SessionOptions o;
  static_cast<tuner::SearchCommon&>(o) = search_common();
  o.id = std::move(id);
  o.pool_size = search_.pool_size;
  return o;
}

EvaluatorStackOptions TuningConfig::stack_options(StackRole role) const {
  validate();
  EvaluatorStackOptions so = stack_;
  if (role == StackRole::Source) so.machine = source_machine_;
  if (!observe_label_.empty()) {
    so.observe_label = observe_label_;
  } else {
    switch (role) {
      case StackRole::Single: so.observe_label = "eval"; break;
      case StackRole::Source: so.observe_label = "eval.source"; break;
      case StackRole::Target: so.observe_label = "eval.target"; break;
    }
  }
  return so;
}

std::unique_ptr<EvaluatorStack> TuningConfig::make_stack(
    StackRole role) const {
  return make_evaluator_stack(stack_options(role));
}

}  // namespace portatune::apps
