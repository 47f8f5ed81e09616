// Workload `transfer`: the populated cells of the Table IV grid under the
// paper's protocol (N = 10 000, n_max = 100, delta = 20 %, GNU compiler,
// one fixed CRN seed), run one after another on the calling thread. The
// library still fans pool scoring out over its global thread pool.
//
// Each cell is composed from the public search calls in the engine's
// order: random_search (T_a) -> replay_search (CRN reference) ->
// fit_surrogate -> pruned_random_search -> biased_random_search ->
// model_free_pruned -> model_free_biased, then compare_to_rs. Every
// speedup and the checksum of every phase trace must equal the expected
// file, which capture-transfer writes with the library's own experiment
// engine — so the composition (and, in the traced run, the timing
// wrappers) is proven not to change a single byte.
#include <array>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "apps/evaluator_factory.hpp"
#include "bench.hpp"
#include "support/checksum.hpp"
#include "support/thread_pool.hpp"
#include "tuner/experiment.hpp"
#include "tuner/metrics.hpp"
#include "tuner/random_search.hpp"
#include "tuner/transfer.hpp"

namespace perfbench {
namespace {

using pt::tuner::SearchTrace;
using pt::tuner::Speedups;

constexpr std::array<const char*, 6> kPhases = {
    "source_rs", "target_rs", "pruned", "biased", "pruned_mf", "biased_mf"};

struct Cell {
  std::string problem, source, target;
  std::string key() const { return problem + " " + source + " " + target; }
};

/// What a cell must reproduce: the four speedup pairs (RS_b first: the
/// Table IV cell) and the six phase-trace checksums.
struct CellOutput {
  std::array<Speedups, 4> speedups{};
  std::array<std::uint64_t, 6> checksums{};

  std::string to_line(const Cell& c) const {
    std::ostringstream os;
    char num[64];
    os << c.key();
    for (const Speedups& s : speedups) {
      std::snprintf(num, sizeof num, " %a %a", s.performance, s.search);
      os << num;
    }
    for (std::uint64_t h : checksums) os << ' ' << pt::hex16(h);
    return os.str();
  }
};

/// Per-cell timings and, in the traced run, the layer decomposition.
struct CellTiming {
  std::int64_t wall_ns = 0;
  std::int64_t fit_ns = 0;
  std::array<std::int64_t, 6> phase_ns{};
  std::int64_t search_self_ns = 0;  ///< phase spans minus their children
  std::int64_t predict_wall_ns = 0; ///< union of prediction intervals
  std::int64_t eval_wall_ns = 0;    ///< union of evaluation intervals
  std::size_t evaluations = 0;      ///< backend attempts over six traces
};

struct Settings {
  pt::tuner::ExperimentSettings exp;
  std::vector<Cell> cells;
  std::string expected_path;
  double setup_seconds = 0;
  double cell_tail_pct = 90, step_tail_pct = 99, open_tail_pct = 90;
};

Settings parse_settings(const Json& in) {
  Settings s;
  s.exp.nmax = static_cast<std::size_t>(in.at("nmax").as_number());
  s.exp.pool_size = static_cast<std::size_t>(in.at("pool_size").as_number());
  s.exp.delta_percent = in.at("delta_percent").as_number();
  s.exp.seed = static_cast<std::uint64_t>(in.at("crn_seed").as_number());
  s.setup_seconds = in.at("setup_seconds").as_number();
  for (const Json& c : in.at("cells").as_array())
    s.cells.push_back({c.as_array().at(0).as_string(),
                       c.as_array().at(1).as_string(),
                       c.as_array().at(2).as_string()});
  if (const Json* e = in.find("expected")) s.expected_path = e->as_string();
  const Json& tails = in.at("tail_percentile");
  s.cell_tail_pct = tails.at("cell").as_number();
  s.step_tail_pct = tails.at("step").as_number();
  s.open_tail_pct = tails.at("open").as_number();
  return s;
}

pt::apps::EvaluatorStackOptions paper_stack(const std::string& problem,
                                            const std::string& machine) {
  pt::apps::EvaluatorStackOptions o;
  o.problem = problem;
  o.machine = machine;
  o.compiler = pt::sim::Compiler::Gnu;
  o.kernel_threads = 1;
  o.eval_threads = 1;
  return o;
}

/// One evaluator stack per (problem, machine) the cells use. Simulated
/// stacks without fault/resilience layers are stateless, so one stack
/// serves every cell and pass that names it.
using Stacks =
    std::map<std::string, std::unique_ptr<pt::apps::EvaluatorStack>>;

Stacks build_stacks(const std::vector<Cell>& cells) {
  Stacks stacks;
  for (const Cell& c : cells)
    for (const std::string* m : {&c.source, &c.target}) {
      const std::string key = c.problem + "@" + *m;
      if (stacks.count(key) == 0)
        stacks.emplace(key, pt::apps::make_evaluator_stack(
                                paper_stack(c.problem, *m)));
    }
  return stacks;
}

/// Traced-run instruments: one counter set per layer.
struct Layers {
  LayerCounters kernels, apps, predict;
};

/// Run one cell through the public search API. With `layers` set, the
/// evaluators get the timing decorator, the surrogate the timing wrapper,
/// and every phase span is decomposed into self time and child time.
CellOutput run_cell(const Cell& c, const pt::tuner::ExperimentSettings& s,
                    Stacks& stacks, Layers* layers, CellTiming& timing) {
  const std::int64_t cell0 = now_ns();
  pt::tuner::Evaluator* source = stacks.at(c.problem + "@" + c.source).get();
  pt::tuner::Evaluator* target = stacks.at(c.problem + "@" + c.target).get();
  std::unique_ptr<TimingEvaluator> timed_source, timed_target;
  if (layers != nullptr) {
    LayerCounters& layer = is_app(c.problem) ? layers->apps : layers->kernels;
    timed_source = std::make_unique<TimingEvaluator>(*source, layer, true);
    timed_target = std::make_unique<TimingEvaluator>(*target, layer, true);
    source = timed_source.get();
    target = timed_target.get();
  }
  IntervalRecorder& rec = IntervalRecorder::instance();
  std::array<SearchTrace, 6> traces;
  const auto phase = [&](std::size_t i, auto&& body) {
    const std::int64_t t0 = now_ns();
    traces[i] = body();
    const std::int64_t t1 = now_ns();
    timing.phase_ns[i] = t1 - t0;
    if (layers != nullptr) {
      timing.search_self_ns += (t1 - t0) - rec.covered(-1, t0, t1);
      timing.predict_wall_ns +=
          rec.covered(static_cast<int>(Kind::Predict), t0, t1);
      timing.eval_wall_ns += rec.covered(static_cast<int>(Kind::Eval), t0, t1);
      rec.clear();  // the phase returned: no wrapped call is in flight
    }
  };

  phase(0, [&] {
    pt::tuner::RandomSearchOptions o;
    o.max_evals = s.nmax;
    o.seed = s.seed;
    o.failure_budget = s.failure_budget;
    return pt::tuner::random_search(*source, o);
  });
  phase(1, [&] {
    std::vector<pt::tuner::ParamConfig> order;
    order.reserve(traces[0].size());
    for (const auto& e : traces[0].entries()) order.push_back(e.config);
    return pt::tuner::replay_search(*target, order, s.nmax, "RS",
                                    s.failure_budget);
  });

  pt::ml::ForestParams fp = s.forest;
  fp.seed = s.seed;
  const std::int64_t f0 = now_ns();
  const pt::ml::RegressorPtr fitted =
      pt::tuner::fit_surrogate(traces[0], source->space(), fp);
  timing.fit_ns = now_ns() - f0;
  std::unique_ptr<TimedRegressor> timed_model;
  const pt::ml::Regressor* model = fitted.get();
  if (layers != nullptr) {
    timed_model = std::make_unique<TimedRegressor>(*fitted, layers->predict);
    model = timed_model.get();
  }

  phase(2, [&] {
    pt::tuner::PrunedSearchOptions o;
    o.max_evals = s.nmax;
    o.pool_size = s.pool_size;
    o.delta_percent = s.delta_percent;
    o.seed = s.seed;
    o.failure_budget = s.failure_budget;
    return pt::tuner::pruned_random_search(*target, *model, o);
  });
  phase(3, [&] {
    pt::tuner::BiasedSearchOptions o;
    o.max_evals = s.nmax;
    o.pool_size = s.pool_size;
    o.seed = s.seed;
    o.failure_budget = s.failure_budget;
    return pt::tuner::biased_random_search(*target, *model, o);
  });
  phase(4, [&] {
    return pt::tuner::model_free_pruned(*target, traces[0], s.delta_percent,
                                        SIZE_MAX, s.failure_budget);
  });
  phase(5, [&] {
    return pt::tuner::model_free_biased(*target, traces[0], SIZE_MAX,
                                        s.failure_budget);
  });

  CellOutput out;
  out.speedups = {pt::tuner::compare_to_rs(traces[1], traces[3]),
                  pt::tuner::compare_to_rs(traces[1], traces[2]),
                  pt::tuner::compare_to_rs(traces[1], traces[4]),
                  pt::tuner::compare_to_rs(traces[1], traces[5])};
  timing.wall_ns = now_ns() - cell0;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    out.checksums[i] = trace_checksum(traces[i]);
    timing.evaluations += traces[i].failure_stats().attempts;
  }
  return out;
}

std::map<std::string, std::string> load_expected(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw pt::Error("cannot read expected file " + path);
  std::map<std::string, std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    std::string p, src, tgt;
    is >> p >> src >> tgt;
    lines[p + " " + src + " " + tgt] = line;
  }
  return lines;
}

/// Median of the builds of the evaluator stacks repeated for `seconds`
/// (at least one); the last build is kept for the run.
Stacks timed_setup(const std::vector<Cell>& cells, Report& report,
                   double seconds) {
  std::vector<double> setup_s;
  Stacks stacks;
  const std::int64_t start = now_ns();
  while (setup_s.empty() || ns_to_s(now_ns() - start) < seconds) {
    stacks.clear();
    const std::int64_t t0 = now_ns();
    stacks = build_stacks(cells);
    pt::ThreadPool::global();  // started once; pool scoring fans out on it
    setup_s.push_back(ns_to_s(now_ns() - t0));
  }
  report.metric("setup_s", median(setup_s), "s", setup_s.size());
  return stacks;
}

}  // namespace

int capture_transfer(const RunOptions& opt, const std::string& out_path) {
  const Settings s = parse_settings(opt.input);
  std::ofstream out(out_path);
  out << "# Expected output of the transfer workload: one line per Table IV\n"
         "# cell: problem source target, the (Prf.Imp, Srh.Imp) pairs of\n"
         "# RS_b, RS_p, RS_pf and RS_bf as hex floats, and the checksums of\n"
         "# the six phase traces (source_rs target_rs pruned biased\n"
         "# pruned_mf biased_mf), from tuner::run_transfer_experiment.\n";
  for (const Cell& c : s.cells) {
    auto a = pt::apps::make_evaluator_stack(paper_stack(c.problem, c.source));
    auto b = pt::apps::make_evaluator_stack(paper_stack(c.problem, c.target));
    const pt::tuner::TransferExperimentResult r =
        pt::tuner::run_transfer_experiment(*a, *b, s.exp);
    CellOutput o;
    o.speedups = {r.biased_speedup, r.pruned_speedup, r.pruned_mf_speedup,
                  r.biased_mf_speedup};
    const SearchTrace* traces[] = {&r.source_rs, &r.target_rs, &r.pruned,
                                   &r.biased,    &r.pruned_mf, &r.biased_mf};
    for (std::size_t i = 0; i < 6; ++i)
      o.checksums[i] = trace_checksum(*traces[i]);
    out << o.to_line(c) << '\n';
  }
  return out.good() ? 0 : 1;
}

int run_transfer(const RunOptions& opt, Report& report) {
  const Settings s = parse_settings(opt.input);
  const auto expected = load_expected(s.expected_path);
  Stacks stacks = timed_setup(s.cells, report, s.setup_seconds);

  const auto check = [&](const Cell& c, const CellOutput& o, const char* tag) {
    const auto it = expected.find(c.key());
    report.attempt(it != expected.end() && it->second == o.to_line(c),
                   std::string(tag) + " cell " + c.key() +
                       " differs from the expected output");
  };

  // Untraced passes: the timed run, or the overhead baseline of the
  // traced run (two passes). Passes are whole, so every pass has the same
  // mix of kernel and mini-app cells.
  std::vector<double> cell_ms, step_ms, fit_ms, untraced_pass_s;
  std::vector<std::vector<double>> per_cell_ms(s.cells.size());
  std::size_t evaluations = 0;
  std::vector<std::string> untraced_lines(s.cells.size());
  SpeedProbe probe;
  const std::int64_t start = now_ns();
  do {
    const std::int64_t p0 = now_ns();
    for (std::size_t i = 0; i < s.cells.size(); ++i) {
      CellTiming t;
      const CellOutput o = run_cell(s.cells[i], s.exp, stacks, nullptr, t);
      check(s.cells[i], o, "untraced");
      untraced_lines[i] = o.to_line(s.cells[i]);
      cell_ms.push_back(ns_to_ms(t.wall_ns));
      per_cell_ms[i].push_back(ns_to_ms(t.wall_ns));
      for (std::int64_t ns : t.phase_ns) step_ms.push_back(ns_to_ms(ns));
      fit_ms.push_back(ns_to_ms(t.fit_ns));
      evaluations += t.evaluations;
      if (!opt.trace) probe.sample();
    }
    untraced_pass_s.push_back(ns_to_s(now_ns() - p0));
  } while (opt.trace ? untraced_pass_s.size() < 2
                     : ns_to_s(now_ns() - start) < opt.seconds);

  if (!opt.trace) {
    // Rates use a typical pass: the sum over cells of each cell's median
    // time across passes, which a burst of host contention during one
    // pass does not move.
    double pass_s = 0;
    for (const auto& v : per_cell_ms) pass_s += median(v) / 1e3;
    const double passes = static_cast<double>(untraced_pass_s.size());
    const double cells = static_cast<double>(s.cells.size());
    const char* rate = "per typical pass: sum of per-cell median times";
    report.metric("cells_per_s", cells / pass_s, "1/s", cell_ms.size(), rate);
    latency_metrics(report, "cell", cell_ms, s.cell_tail_pct);
    report.metric("evals_per_s",
                  static_cast<double>(evaluations) / passes / pass_s, "1/s",
                  evaluations, rate);
    report.metric("ops_per_s", 7.0 * cells / pass_s, "1/s",
                  step_ms.size() + fit_ms.size(),
                  "six searches and one fit per cell; per typical pass");
    latency_metrics(report, "step", step_ms, s.step_tail_pct);
    latency_metrics(report, "open", fit_ms, s.open_tail_pct);
    report.metric("peak_rss_mb", self_peak_rss_mb(), "MiB", 1);
    std::vector<Json> pass_json;
    for (double p : untraced_pass_s) pass_json.push_back(Json::make_number(p));
    report.context("pass_seconds", Json::make_array(std::move(pass_json)));
    probe.report(report);
    return 0;
  }

  // Traced passes.
  Layers layers;
  std::array<double, 6> phase_ms{};
  double search_self_ms = 0, fit_total_ms = 0, predict_wall_ms = 0,
         eval_wall_ms = 0, wall_ms = 0;
  std::size_t passes = 0;
  std::vector<std::uint64_t> rows_per_pass;
  std::vector<double> traced_pass_s;
  do {
    const std::uint64_t rows0 = layers.predict.calls.load();
    const std::int64_t p0 = now_ns();
    for (std::size_t i = 0; i < s.cells.size(); ++i) {
      CellTiming t;
      const CellOutput o = run_cell(s.cells[i], s.exp, stacks, &layers, t);
      check(s.cells[i], o, "traced");
      report.attempt(o.to_line(s.cells[i]) == untraced_lines[i],
                     "traced cell " + s.cells[i].key() +
                         " differs from the untraced run");
      for (std::size_t k = 0; k < 6; ++k)
        phase_ms[k] += ns_to_ms(t.phase_ns[k]);
      search_self_ms += ns_to_ms(t.search_self_ns);
      fit_total_ms += ns_to_ms(t.fit_ns);
      predict_wall_ms += ns_to_ms(t.predict_wall_ns);
      eval_wall_ms += ns_to_ms(t.eval_wall_ns);
      wall_ms += ns_to_ms(t.wall_ns);
    }
    traced_pass_s.push_back(ns_to_s(now_ns() - p0));
    rows_per_pass.push_back(layers.predict.calls.load() - rows0);
    ++passes;
  } while (ns_to_s(now_ns() - start) < opt.seconds);

  const double n = static_cast<double>(passes);
  const char* per_pass = "per pass over the grid, mean of traced passes";
  for (std::size_t k = 0; k < 6; ++k)
    report.metric(std::string("tuner.phase_ms.") + kPhases[k], phase_ms[k] / n,
                  "ms", passes, per_pass);
  report.metric("tuner.search_self_ms", search_self_ms / n, "ms", passes,
                per_pass);
  bool rows_repeat = true;
  for (std::uint64_t r : rows_per_pass) rows_repeat &= r == rows_per_pass[0];
  report.attempt(rows_repeat, "ml.predict_rows differs between passes");
  report.metric("ml.predict_rows", static_cast<double>(rows_per_pass[0]),
                "count", passes, "rows predicted in one pass (exact)");
  const double predict_busy_ms = ns_to_ms(layers.predict.busy_ns.load()) / n;
  report.metric("ml.predict_busy_ms", predict_busy_ms, "ms", passes,
                "summed over threads, per pass");
  report.metric("ml.predict_us_per_row",
                predict_busy_ms * 1e3 / static_cast<double>(rows_per_pass[0]),
                "us", passes);
  report.metric("ml.fit_ms", fit_total_ms / n, "ms", passes, per_pass);
  report.metric("kernels.eval_calls",
                static_cast<double>(layers.kernels.calls.load()) / n, "count",
                passes, "per pass (exact)");
  report.metric("kernels.eval_busy_ms", ns_to_ms(layers.kernels.busy_ns) / n,
                "ms", passes, per_pass);
  report.metric("apps.eval_calls",
                static_cast<double>(layers.apps.calls.load()) / n, "count",
                passes, "per pass (exact)");
  report.metric("apps.eval_busy_ms", ns_to_ms(layers.apps.busy_ns) / n, "ms",
                passes, per_pass);
  const double attributed =
      search_self_ms + fit_total_ms + predict_wall_ms + eval_wall_ms;
  report.metric("unattributed_share", 1.0 - attributed / wall_ms, "ratio",
                passes,
                "cell wall minus tuner self, ml fit + predict wall and "
                "kernels/apps eval wall");
  report.metric("tracing_overhead_share",
                median(traced_pass_s) / median(untraced_pass_s) - 1.0, "ratio",
                passes, "traced pass wall / untraced pass wall - 1");
  return 0;
}

}  // namespace perfbench
