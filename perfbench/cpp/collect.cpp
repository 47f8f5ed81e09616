// Workload `collect`: gathering the source-machine data T_a. Plain RS over
// every problem on one machine at `workers` evaluation threads, each T_a
// saved as a v3 trace CSV and loaded back — the round trip of
// `portatune_cli collect` followed by `transfer --from`. No surrogate is
// involved, so the work falls on the evaluator backends, the parallel
// fan-out, sampling and trace persistence.
//
// Stack: registry backend -> [timing decorator, traced run only] ->
// tuner::ParallelEvaluator -> [batch-counting decorator, traced only] ->
// random_search.
//
// Checks: every reloaded T_a equals the in-memory trace (labels,
// configurations, run times, draw indices; the wall-clock column is
// ignored), every round reproduces the first one exactly, and a serial
// (one worker) search reproduces the parallel trace.
#include <filesystem>

#include "apps/registry.hpp"
#include "bench.hpp"
#include "tuner/parallel.hpp"
#include "tuner/persistence.hpp"
#include "tuner/random_search.hpp"

namespace perfbench {
namespace {

using pt::tuner::SearchTrace;

struct Problem {
  std::string name;
  std::size_t nmax = 0;
  std::vector<std::uint64_t> seeds;  ///< one RS seed per seed set
};

struct Settings {
  std::string machine;
  std::vector<Problem> problems;
  std::size_t workers = 1;
  double setup_seconds = 0;
  double cell_tail_pct = 90, step_tail_pct = 90, open_tail_pct = 90;
};

Settings parse_settings(const Json& in) {
  Settings s;
  s.machine = in.at("machine").as_string();
  s.workers = static_cast<std::size_t>(in.at("workers").as_number());
  s.setup_seconds = in.at("setup_seconds").as_number();
  for (const Json& p : in.at("problems").as_array()) {
    Problem prob{p.at("name").as_string(),
                 static_cast<std::size_t>(p.at("nmax").as_number()),
                 {}};
    for (const Json& seed : p.at("seeds").as_array())
      prob.seeds.push_back(static_cast<std::uint64_t>(seed.as_number()));
    PT_REQUIRE(!prob.seeds.empty(), "problem without seeds");
    s.problems.push_back(std::move(prob));
  }
  const Json& tails = in.at("tail_percentile");
  s.cell_tail_pct = tails.at("cell").as_number();
  s.step_tail_pct = tails.at("step").as_number();
  s.open_tail_pct = tails.at("open").as_number();
  return s;
}

/// The persisted view of a trace: labels plus, per entry, configuration,
/// run time and draw index (what a v3 trace CSV stores besides the
/// wall-clock column), doubles printed exactly.
std::string persisted_view(const SearchTrace& t) {
  std::string out =
      t.algorithm() + "|" + t.problem() + "|" + t.machine() + "\n";
  char num[48];
  for (const auto& e : t.entries()) {
    for (int v : e.config) out += std::to_string(v) + ",";
    std::snprintf(num, sizeof num, "%a,%zu\n", e.seconds, e.draw_index);
    out += num;
  }
  return out;
}

/// One problem's evaluator stack. The timing layers exist only in the
/// traced run.
struct Stack {
  pt::tuner::EvaluatorPtr backend;
  std::unique_ptr<TimingEvaluator> timed_backend;
  std::unique_ptr<pt::tuner::ParallelEvaluator> parallel;
  std::unique_ptr<TimingEvaluator> timed_parallel;
  pt::tuner::Evaluator* top = nullptr;
};

struct Layers {
  LayerCounters kernels, apps, batches;
};

Stack build_stack(const Settings& s, const Problem& p, std::size_t workers,
                  Layers* layers) {
  Stack st;
  st.backend = pt::apps::make_simulated_evaluator(p.name, s.machine);
  pt::tuner::Evaluator* below = st.backend.get();
  if (layers != nullptr) {
    st.timed_backend = std::make_unique<TimingEvaluator>(
        *below, is_app(p.name) ? layers->apps : layers->kernels, true);
    below = st.timed_backend.get();
  }
  pt::tuner::ParallelOptions po;
  po.threads = workers;
  st.parallel = std::make_unique<pt::tuner::ParallelEvaluator>(*below, po);
  st.top = st.parallel.get();
  if (layers != nullptr) {
    st.timed_parallel =
        std::make_unique<TimingEvaluator>(*st.top, layers->batches, false);
    st.top = st.timed_parallel.get();
  }
  return st;
}

/// Timings of one problem's round trip.
struct Leg {
  std::int64_t search_ns = 0, save_ns = 0, load_ns = 0;
  std::int64_t search_self_ns = 0, eval_wall_ns = 0;
  std::size_t rows = 0, failures = 0;
  std::uintmax_t bytes = 0;
};

/// Collect T_a for `p`, save it, load it back; check the round trip.
Leg round_trip(const Problem& p, std::uint64_t seed, Stack& st,
               const std::string& path, bool traced, Report& report,
               std::string& view) {
  Leg leg;
  IntervalRecorder& rec = IntervalRecorder::instance();
  pt::tuner::RandomSearchOptions o;
  o.max_evals = p.nmax;
  o.seed = seed;
  const std::int64_t t0 = now_ns();
  const SearchTrace trace = pt::tuner::random_search(*st.top, o);
  const std::int64_t t1 = now_ns();
  pt::tuner::save_trace_csv(path, trace, st.top->space());
  const std::int64_t t2 = now_ns();
  const SearchTrace loaded = pt::tuner::load_trace_csv(path, st.top->space());
  const std::int64_t t3 = now_ns();
  leg.search_ns = t1 - t0;
  leg.save_ns = t2 - t1;
  leg.load_ns = t3 - t2;
  if (traced) {
    leg.eval_wall_ns = rec.covered(static_cast<int>(Kind::Eval), t0, t1);
    leg.search_self_ns = leg.search_ns - leg.eval_wall_ns;
    rec.clear();
  }
  leg.rows = loaded.size();
  leg.failures = trace.failure_stats().failures;
  leg.bytes = std::filesystem::file_size(path);
  view = persisted_view(trace);
  report.attempt(persisted_view(loaded) == view,
                 "reloaded T_a of " + p.name + " differs from the search");
  report.attempt(!trace.empty() && trace.stop_reason().empty(),
                 "RS on " + p.name + " stopped early: " + trace.stop_reason());
  return leg;
}

}  // namespace

int run_collect(const RunOptions& opt, Report& report) {
  const Settings s = parse_settings(opt.input);
  Layers layers;
  Layers* traced = opt.trace ? &layers : nullptr;

  // Set-up: build every problem's evaluator stack, repeated for the
  // set-up time of the input (median; the last build is kept).
  std::vector<Stack> stacks;
  std::vector<double> setup_s;
  const std::int64_t setup_start = now_ns();
  while (setup_s.empty() ||
         ns_to_s(now_ns() - setup_start) < s.setup_seconds) {
    stacks.clear();
    const std::int64_t t0 = now_ns();
    for (const Problem& p : s.problems)
      stacks.push_back(build_stack(s, p, s.workers, traced));
    setup_s.push_back(ns_to_s(now_ns() - t0));
  }

  // Timed rounds cycle through the seed sets, so one run averages over
  // several draws of the configuration stream; the traced run keeps to
  // the first set, so its per-round counts repeat exactly.
  const std::size_t sets = opt.trace ? 1 : s.problems.front().seeds.size();
  std::vector<std::vector<std::string>> first_view(
      sets, std::vector<std::string>(s.problems.size()));
  std::vector<std::size_t> set_failures(sets, SIZE_MAX), set_rows(sets, 0);
  std::vector<double> round_ms, untraced_round_ms;
  // Round trip, RS call and load times per unit of the cycle (seed set x
  // problem).
  const std::size_t units = sets * s.problems.size();
  std::vector<std::vector<double>> unit_cell_ms(units), unit_step_ms(units),
      unit_open_ms(units);
  std::size_t rounds = 0;
  // Traced-run accumulators.
  std::int64_t save_ns = 0, load_ns = 0, search_ns = 0, self_ns = 0,
               eval_wall_ns = 0;
  std::uintmax_t bytes = 0;

  // The traced run starts with two untraced rounds (the tracing-overhead
  // baseline) on untraced stacks.
  std::vector<Stack> plain;
  if (opt.trace)
    for (const Problem& p : s.problems)
      plain.push_back(build_stack(s, p, s.workers, nullptr));
  std::size_t baseline_rounds = opt.trace ? 2 : 0;

  SpeedProbe probe;
  const std::int64_t start = now_ns();
  while (baseline_rounds > 0 || rounds < sets ||
         ns_to_s(now_ns() - start) < opt.seconds) {
    const bool baseline = baseline_rounds > 0;
    const std::size_t set = rounds % sets;
    std::int64_t round_ns = 0;
    std::size_t round_failures = 0, round_rows = 0;
    for (std::size_t i = 0; i < s.problems.size(); ++i) {
      const Problem& p = s.problems[i];
      std::string view;
      const Leg leg = round_trip(p, p.seeds.at(set),
                                 baseline ? plain[i] : stacks[i],
                                 opt.work_dir + "/ta_" + p.name + ".csv",
                                 opt.trace && !baseline, report, view);
      std::string& first = first_view[set][i];
      if (first.empty()) first = view;
      report.attempt(view == first,
                     "RS on " + p.name + " is not reproducible across rounds");
      const std::int64_t leg_ns = leg.search_ns + leg.save_ns + leg.load_ns;
      round_ns += leg_ns;
      round_failures += leg.failures;
      round_rows += leg.rows;
      if (!opt.trace) probe.sample();
      if (baseline) continue;
      const std::size_t unit = set * s.problems.size() + i;
      unit_cell_ms[unit].push_back(ns_to_ms(leg_ns));
      unit_step_ms[unit].push_back(ns_to_ms(leg.search_ns));
      unit_open_ms[unit].push_back(ns_to_ms(leg.load_ns));
      save_ns += leg.save_ns;
      load_ns += leg.load_ns;
      search_ns += leg.search_ns;
      self_ns += leg.search_self_ns;
      eval_wall_ns += leg.eval_wall_ns;
      bytes += leg.bytes;
    }
    if (baseline) {
      untraced_round_ms.push_back(ns_to_ms(round_ns));
      --baseline_rounds;
      continue;
    }
    if (set_failures[set] == SIZE_MAX) set_failures[set] = round_failures;
    report.attempt(set_failures[set] == round_failures,
                   "infeasible-configuration count varies between rounds");
    set_rows[set] = round_rows;
    round_ms.push_back(ns_to_ms(round_ns));
    ++rounds;
  }

  // Serial parity: one worker must reproduce the parallel traces of the
  // first seed set exactly.
  for (std::size_t i = 0; i < s.problems.size(); ++i) {
    Stack serial = build_stack(s, s.problems[i], 1, nullptr);
    pt::tuner::RandomSearchOptions o;
    o.max_evals = s.problems[i].nmax;
    o.seed = s.problems[i].seeds.front();
    report.attempt(
        persisted_view(pt::tuner::random_search(*serial.top, o)) ==
            first_view[0][i],
        "RS on " + s.problems[i].name + " differs between 1 and " +
            std::to_string(s.workers) + " workers");
  }

  report.metric("setup_s", median(setup_s), "s", setup_s.size());
  report.context("workers", Json::make_number(static_cast<double>(s.workers)));
  std::vector<Json> rms;
  for (double v : round_ms) rms.push_back(Json::make_number(v));
  report.context("round_ms", Json::make_array(std::move(rms)));
  if (!opt.trace) {
    // Rates use a typical cycle through the seed sets: the sum over the
    // cycle's units of each one's median round-trip time.
    double cycle = 0;
    for (double ms : unit_medians(unit_cell_ms)) cycle += ms / 1e3;
    double cycle_rows = 0;
    for (std::size_t r : set_rows) cycle_rows += static_cast<double>(r);
    const std::size_t legs = rounds * s.problems.size();
    const char* rate = "per typical cycle: sum of per-unit medians";
    report.metric("cells_per_s", static_cast<double>(units) / cycle, "1/s",
                  legs, rate);
    unit_latency_metrics(report, "cell", unit_cell_ms, s.cell_tail_pct);
    report.metric("evals_per_s", cycle_rows / cycle, "1/s", legs,
                  "reloaded T_a rows per typical cycle");
    report.metric("ops_per_s", 3.0 * static_cast<double>(units) / cycle,
                  "1/s", 3 * legs,
                  "search, save and load per problem; per typical cycle");
    unit_latency_metrics(report, "step", unit_step_ms, s.step_tail_pct);
    unit_latency_metrics(report, "open", unit_open_ms, s.open_tail_pct);
    report.metric("peak_rss_mb", self_peak_rss_mb(), "MiB", 1);
    probe.report(report);
    return 0;
  }

  const double n = static_cast<double>(rounds);
  const char* per_round = "per round over all problems, mean of traced rounds";
  report.metric("kernels.eval_calls",
                static_cast<double>(layers.kernels.calls.load()) / n, "count",
                rounds, "per round (exact)");
  report.metric("kernels.eval_busy_ms", ns_to_ms(layers.kernels.busy_ns) / n,
                "ms", rounds, "summed over threads, per round");
  report.metric("apps.eval_calls",
                static_cast<double>(layers.apps.calls.load()) / n, "count",
                rounds, "per round (exact)");
  report.metric("apps.eval_busy_ms", ns_to_ms(layers.apps.busy_ns) / n, "ms",
                rounds, "summed over threads, per round");
  const double busy_ms = ns_to_ms(layers.kernels.busy_ns.load() +
                                  layers.apps.busy_ns.load());
  report.metric("tuner.parallel_efficiency",
                busy_ms /
                    (ns_to_ms(search_ns) * static_cast<double>(s.workers)),
                "ratio", rounds, "backend busy / (RS wall x workers)");
  report.metric("tuner.parallel_batches",
                static_cast<double>(layers.batches.batches.load()) / n,
                "count", rounds, "evaluate_batch windows per round (exact)");
  report.metric("tuner.search_self_ms", ns_to_ms(self_ns) / n, "ms", rounds,
                per_round);
  report.metric("tuner.persistence_save_ms", ns_to_ms(save_ns) / n, "ms",
                rounds, per_round);
  report.metric("tuner.persistence_load_ms", ns_to_ms(load_ns) / n, "ms",
                rounds, per_round);
  report.metric("tuner.persistence_bytes", static_cast<double>(bytes) / n,
                "bytes", rounds,
                "trace CSV bytes per round; the wall-clock column can change "
                "the length by a few bytes");
  report.metric("tuner.eval_failures",
                static_cast<double>(set_failures.at(0)), "count",
                rounds, "infeasible configurations per round (exact)");
  const double traced_total = ns_to_ms(search_ns + save_ns + load_ns);
  report.metric("unattributed_share",
                1.0 - (ns_to_ms(self_ns + eval_wall_ns + save_ns + load_ns)) /
                          traced_total,
                "ratio", rounds,
                "round trip minus tuner self, eval wall and persistence");
  report.metric("tracing_overhead_share",
                median(round_ms) / median(untraced_round_ms) - 1.0,
                "ratio", rounds, "traced round / untraced round - 1");
  return 0;
}

}  // namespace perfbench
