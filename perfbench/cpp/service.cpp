// Workload `service`: one script per client over a surrogate store seeded
// during set-up. Every script repeats open (mostly warm) -> steps, with a
// suggest/report round every few steps -> close.
//
// The timed run sends the scripts through ServiceProtocol::handle_line in
// this process, one session per client in turn: the service stack the
// daemon runs, without its socket and poll loop. Daemon-over-socket
// timings swung too far between runs on a shared host to carry a bound.
//
// The traced run drives the real daemon (`portatune_cli serve`) with one
// service::ResilientClient thread per script for half its time and reads
// the server-side split (exec vs queue, cache hit ratio) from `stats`
// snapshots. It then times handle_line per op in-process, and the parts
// of a warm open and of a close as direct calls (fingerprint, store
// lookup, surrogate refit, session ranking, store write).
//
// Checks: every reply is ok, and the clients' per-op counts equal the
// server.op.<op>.count deltas exactly (the cross-check portatune_loadgen
// makes); against the daemon, it also exits 0 on `shutdown` and leaves no
// socket behind.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <thread>

#include "apps/tuning_config.hpp"
#include "bench.hpp"
#include "service/eval_cache.hpp"
#include "service/protocol.hpp"
#include "service/resilient_client.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "service/surrogate_store.hpp"
#include "support/error.hpp"
#include "tuner/session.hpp"
#include "tuner/transfer.hpp"

extern char** environ;

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace svc = pt::service;

const char* const kOps[] = {"open", "step", "suggest", "report", "close"};
constexpr const char* kSocket = "pt.sock";  // relative to the work dir

struct SessionSpec {
  std::string problem, machine;
  std::size_t max_evals = 0, steps = 0, step_n = 0, suggest_every = 0;
  std::uint64_t seed = 0;
};

struct Settings {
  std::size_t clients = 1;
  std::vector<SessionSpec> seed_store;  ///< sessions run to seed the store
  std::vector<std::vector<SessionSpec>> scripts;  ///< one per client
  double setup_seconds = 0;
  double cell_tail_pct = 90, step_tail_pct = 99, open_tail_pct = 90;
};

SessionSpec parse_spec(const Json& j) {
  SessionSpec s;
  s.problem = j.at("problem").as_string();
  s.machine = j.at("machine").as_string();
  s.max_evals = static_cast<std::size_t>(j.at("max_evals").as_number());
  s.steps = static_cast<std::size_t>(j.at("steps").as_number());
  s.step_n = static_cast<std::size_t>(j.at("step_n").as_number());
  s.suggest_every =
      static_cast<std::size_t>(j.at("suggest_every").as_number());
  s.seed = static_cast<std::uint64_t>(j.at("seed").as_number());
  return s;
}

Settings parse_settings(const Json& in) {
  Settings s;
  s.clients = static_cast<std::size_t>(in.at("clients").as_number());
  s.setup_seconds = in.at("setup_seconds").as_number();
  for (const Json& j : in.at("seed_store").as_array())
    s.seed_store.push_back(parse_spec(j));
  for (const Json& script : in.at("scripts").as_array()) {
    s.scripts.emplace_back();
    for (const Json& j : script.as_array())
      s.scripts.back().push_back(parse_spec(j));
  }
  PT_REQUIRE(s.scripts.size() == s.clients, "one script per client");
  const Json& tails = in.at("tail_percentile");
  s.cell_tail_pct = tails.at("cell").as_number();
  s.step_tail_pct = tails.at("step").as_number();
  s.open_tail_pct = tails.at("open").as_number();
  return s;
}

std::string quoted(const std::string& s) {
  return Json::make_string(s).dump();
}

bool reply_ok(const Json& v) {
  const Json* ok = v.find("ok");
  return ok != nullptr && ok->is_bool() && ok->as_bool();
}

/// Per-op tally of one client (or of the in-process replay).
struct Tally {
  std::map<std::string, std::vector<double>> latency_ms;  ///< per op
  std::map<std::string, std::uint64_t> count, errors;
  std::vector<double> session_ms;
  /// Per session, in session_ms order: evaluations and ops it made.
  std::vector<std::uint64_t> session_evals, session_ops;
  std::uint64_t evaluations = 0;
  std::vector<std::string> failures;
};

using Transport = std::function<std::string(const std::string&)>;

/// One scripted session: open -> steps (every `suggest_every`-th also a
/// suggest + report round trip with a synthetic measurement) -> close.
void run_session(const SessionSpec& spec, const std::string& id,
                 const Transport& call, Tally& tally) {
  const auto timed = [&](const char* op, const std::string& line) {
    const std::int64_t t0 = now_ns();
    const std::string reply = call(line);
    tally.latency_ms[op].push_back(ns_to_ms(now_ns() - t0));
    tally.count[op]++;
    Json v = Json::parse(reply);
    if (!reply_ok(v)) {
      tally.errors[op]++;
      tally.failures.push_back(std::string(op) + " " + id + ": " + reply);
    }
    return v;
  };
  const std::uint64_t evals0 = tally.evaluations;
  std::uint64_t ops0 = 0;
  for (const auto& [op, n] : tally.count) ops0 += n;
  const std::int64_t s0 = now_ns();
  timed("open", "{\"op\":\"open\",\"id\":" + quoted(id) +
                    ",\"problem\":" + quoted(spec.problem) +
                    ",\"machine\":" + quoted(spec.machine) +
                    ",\"max_evals\":" + std::to_string(spec.max_evals) +
                    ",\"seed\":" + std::to_string(spec.seed) + "}");
  for (std::size_t k = 0; k < spec.steps; ++k) {
    const Json step =
        timed("step", "{\"op\":\"step\",\"id\":" + quoted(id) +
                          ",\"n\":" + std::to_string(spec.step_n) + "}");
    if (const Json* e = step.find("evaluated"); e != nullptr && e->is_number())
      tally.evaluations += static_cast<std::uint64_t>(e->as_number());
    if (spec.suggest_every == 0 ||
        k % spec.suggest_every != spec.suggest_every - 1)
      continue;
    const Json sug = timed("suggest", "{\"op\":\"suggest\",\"id\":" +
                                          quoted(id) + ",\"n\":1}");
    const Json* configs = sug.find("configs");
    if (configs == nullptr || !configs->is_array() ||
        configs->as_array().empty())
      continue;
    char secs[32];
    std::snprintf(secs, sizeof secs, "%.4f",
                  0.01 * static_cast<double>(k + 1));
    timed("report", "{\"op\":\"report\",\"id\":" + quoted(id) +
                        ",\"config\":" + configs->as_array().front().dump() +
                        ",\"seconds\":" + secs + "}");
    tally.evaluations++;
  }
  timed("close", "{\"op\":\"close\",\"id\":" + quoted(id) + "}");
  tally.session_ms.push_back(ns_to_ms(now_ns() - s0));
  std::uint64_t ops = 0;
  for (const auto& [op, n] : tally.count) ops += n;
  tally.session_evals.push_back(tally.evaluations - evals0);
  tally.session_ops.push_back(ops - ops0);
}

/// Seed the store in-process: run every seed session through a
/// TuningService on `dir`, so each close publishes its trace.
void seed_store(const Settings& s, const std::string& dir) {
  fs::remove_all(dir);
  svc::TuningServiceOptions so;
  so.data_dir = dir;
  svc::TuningService service(so);
  std::size_t n = 0;
  for (const SessionSpec& spec : s.seed_store) {
    pt::apps::TuningConfig cfg;
    cfg.problem(spec.problem).machine(spec.machine).observe(true);
    cfg.max_evals(spec.max_evals).seed(spec.seed);
    svc::SessionHandle& h = service.open("seed-" + std::to_string(n++), cfg);
    h.step(spec.max_evals);
    h.close();
  }
}

void copy_dir(const std::string& from, const std::string& to) {
  fs::remove_all(to);
  fs::copy(from, to, fs::copy_options::recursive);
}

/// The daemon process: spawned on a data dir, stdout/stderr to a log.
/// The destructor makes sure no daemon outlives the benchmark.
class Daemon {
 public:
  Daemon(const std::string& cli, const std::string& data_dir) {
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, "daemon.log",
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    // The lease sweep drops sessions idle for two seconds — every closed
    // one — so the daemon's memory tracks the sessions in flight rather
    // than every session the run ever opened.
    std::vector<std::string> args = {cli,      "serve",        "--socket",
                                     kSocket,  "--data-dir",   data_dir,
                                     "--lease-seconds", "2",   "--quiet"};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int rc =
        posix_spawn(&pid_, cli.c_str(), &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    PT_REQUIRE(rc == 0, "cannot spawn " + cli);
  }
  ~Daemon() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Block until the daemon answers `stats`; returns the reply.
  Json wait_ready() {
    for (int attempt = 0; attempt < 20000; ++attempt) {
      try {
        svc::ServiceClient c(kSocket);
        return Json::parse(c.call("{\"op\":\"stats\"}"));
      } catch (const std::exception&) {
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
          pid_ = -1;
          throw pt::Error("the daemon exited (see daemon.log)");
        }
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    }
    throw pt::Error("the daemon did not answer within 10 s");
  }

  /// Send `shutdown` and reap the process; returns its exit code (-1 when
  /// it did not exit normally within 30 s).
  int shutdown() {
    try {
      svc::ServiceClient c(kSocket);
      c.call("{\"op\":\"shutdown\"}");
    } catch (const std::exception&) {
      // Reaped below either way; a missing reply shows as the exit code.
    }
    for (int i = 0; i < 3000; ++i) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return -1;
  }

 private:
  pid_t pid_ = -1;
};

double counter(const Json& stats, const std::string& name) {
  const Json* c = stats.at("metrics").find("counters");
  const Json* v = c != nullptr ? c->find(name) : nullptr;
  return v != nullptr && v->is_number() ? v->as_number() : 0.0;
}

const Json* histogram(const Json& stats, const std::string& name) {
  const Json* h = stats.at("metrics").find("histograms");
  return h != nullptr ? h->find(name) : nullptr;
}

double cache_field(const Json& stats, const char* key) {
  return stats.at("server").at("cache").at(key).as_number();
}

/// Run every client's script in a closed loop for `seconds`. Sessions
/// in progress when time is up are finished, so every session closes.
std::vector<Tally> closed_loop(const Settings& s, double seconds,
                               const std::string& tag, double& wall_s) {
  std::vector<Tally> tallies(s.clients);
  std::vector<std::thread> threads;
  const std::int64_t start = now_ns();
  for (std::size_t c = 0; c < s.clients; ++c) {
    threads.emplace_back([&, c] {
      svc::ResilientClientOptions ro;
      ro.client_id = tag + "c" + std::to_string(c);
      ro.jitter_seed = c + 1;
      svc::ResilientClient client(kSocket, ro);
      const Transport call = [&](const std::string& line) {
        return client.call(line);
      };
      try {
        std::size_t k = 0;
        do {
          const SessionSpec& spec = s.scripts[c][k % s.scripts[c].size()];
          run_session(spec, tag + "-c" + std::to_string(c) + "-" +
                                std::to_string(k),
                      call, tallies[c]);
          ++k;
        } while (ns_to_s(now_ns() - start) < seconds);
      } catch (const std::exception& e) {
        tallies[c].failures.push_back("client " + std::to_string(c) + ": " +
                                      e.what());
      }
    });
  }
  for (auto& t : threads) t.join();
  wall_s = ns_to_s(now_ns() - start);
  return tallies;
}

Tally merge(const std::vector<Tally>& parts) {
  Tally all;
  for (const Tally& t : parts) {
    for (const auto& [op, v] : t.latency_ms)
      all.latency_ms[op].insert(all.latency_ms[op].end(), v.begin(), v.end());
    for (const auto& [op, n] : t.count) all.count[op] += n;
    for (const auto& [op, n] : t.errors) all.errors[op] += n;
    all.session_ms.insert(all.session_ms.end(), t.session_ms.begin(),
                          t.session_ms.end());
    all.session_evals.insert(all.session_evals.end(),
                             t.session_evals.begin(), t.session_evals.end());
    all.session_ops.insert(all.session_ops.end(), t.session_ops.begin(),
                           t.session_ops.end());
    all.evaluations += t.evaluations;
    all.failures.insert(all.failures.end(), t.failures.begin(),
                        t.failures.end());
  }
  return all;
}

/// The service stack in this process: TuningService + ServiceProtocol on
/// a data dir — what the daemon runs behind its socket and poll loop.
struct InProcess {
  std::string dir;  ///< the data dir
  std::unique_ptr<svc::TuningService> service;
  std::unique_ptr<svc::ServiceProtocol> protocol;  ///< uses *service
};

InProcess open_in_process(const std::string& dir) {
  InProcess ip;
  ip.dir = dir;
  svc::TuningServiceOptions so;
  so.data_dir = dir;
  ip.service = std::make_unique<svc::TuningService>(so);
  ip.protocol = std::make_unique<svc::ServiceProtocol>(*ip.service);
  return ip;
}

/// The clients' scripts through ServiceProtocol::handle_line on one
/// thread: round after round, every client runs its next session, until
/// `seconds` have passed and at least `min_rounds` rounds have run. After
/// each round the closed sessions are dropped, as the daemon's lease
/// sweep does, their directories (<data_dir>/sessions/<id>) are deleted,
/// and `probe` (if any) samples the host speed. Kept, the closed sessions'
/// files pile up by the thousand and their writeback to the shared disk
/// slowed every file creation four- to six-fold, so the figures followed
/// the disk and the run's age. Session i of the tally is unit
/// i % (clients x script length) of the cycle the rounds repeat.
Tally in_process_loop(const Settings& s, InProcess& ip, double seconds,
                      std::size_t min_rounds, const std::string& tag,
                      double& wall_s, SpeedProbe* probe = nullptr) {
  Tally tally;
  const Transport call = [&](const std::string& line) {
    return ip.protocol->handle_line(line).line;
  };
  const std::int64_t start = now_ns();
  std::size_t k = 0;
  do {
    std::vector<std::string> ids;
    for (std::size_t c = 0; c < s.clients; ++c) {
      ids.push_back(tag + "-c" + std::to_string(c) + "-" + std::to_string(k));
      run_session(s.scripts[c][k % s.scripts[c].size()], ids.back(), call,
                  tally);
    }
    ip.service->reclaim_idle(0.0);
    for (const std::string& id : ids)
      fs::remove_all(ip.dir + "/sessions/" + id);
    ++k;
    if (probe != nullptr) probe->sample();
  } while (k < min_rounds || ns_to_s(now_ns() - start) < seconds);
  wall_s = ns_to_s(now_ns() - start);
  return tally;
}

/// This process's metrics registry in the shape of a `stats` reply, for
/// the in-process counter cross-check.
Json registry_stats() {
  Members m;
  m.emplace_back("metrics",
                 pt::obs::MetricsRegistry::current().snapshot().to_value());
  return Json::make_object(std::move(m));
}

/// Every reply ok, and the clients' per-op counts equal the
/// server.op.<op>.count deltas between the two snapshots, with no errors.
/// Returns the number of ops the clients sent.
std::uint64_t check_replies(const Tally& t, const Json& before,
                            const Json& after, Report& report) {
  std::uint64_t ops = 0;
  for (const auto& [op, n] : t.count) ops += n;
  report.attempt_many(ops);
  for (const std::string& f : t.failures) report.attempt(false, f);
  for (const char* op : kOps) {
    const std::string name = std::string("server.op.") + op;
    const double sent =
        static_cast<double>(t.count.count(op) ? t.count.at(op) : 0);
    const double executed = counter(after, name + ".count") -
                            counter(before, name + ".count");
    const double errors = counter(after, name + ".errors") -
                          counter(before, name + ".errors");
    report.attempt(sent == executed && errors == 0,
                   std::string("cross-check ") + op + ": clients sent " +
                       std::to_string(sent) + ", server executed " +
                       std::to_string(executed) + " with " +
                       std::to_string(errors) + " errors");
  }
  return ops;
}

/// The in-process half of the traced run: the scripts through
/// handle_line, then the warm-open and close parts timed as direct calls.
/// Each gets `seconds`.
void traced_in_process(const Settings& s, const std::string& seeded,
                       double seconds, Report& report) {
  // 1. handle_line per op, over a copy of the seeded data dir.
  {
    copy_dir(seeded, "replay");
    InProcess ip = open_in_process("replay");
    double wall_s = 0;
    Tally tally = in_process_loop(s, ip, seconds, 1, "rp", wall_s);
    for (const std::string& f : tally.failures) report.attempt(false, f);
    for (const char* op : kOps) {
      const auto& v = tally.latency_ms[op];
      report.attempt_many(v.size());
      report.metric(std::string("protocol.handle_line_us.") + op,
                    mean(v) * 1e3, "us", v.size(), "mean per call");
    }
  }

  // 2. Direct calls over another copy: the parts of a warm open, then the
  // store write a close makes.
  copy_dir(seeded, "direct");
  svc::SurrogateStore store(svc::SurrogateStoreOptions{"direct/store", {}});
  svc::EvalCache cache;
  LayerCounters predict;
  std::vector<double> fp_ms, nearest_ms, load_ms, fit_ms, rank_ms, put_ms;
  const std::int64_t start = now_ns();
  for (std::size_t k = 0; k == 0 || ns_to_s(now_ns() - start) < seconds; ++k) {
    const SessionSpec& spec = s.scripts[k % s.clients][k / s.clients %
                                                       s.scripts[0].size()];
    pt::apps::TuningConfig cfg;
    cfg.problem(spec.problem).machine(spec.machine).observe(true);
    cfg.max_evals(spec.max_evals).seed(spec.seed);
    const auto stack = cfg.make_stack(pt::apps::StackRole::Single);
    svc::CachedEvaluator cached(*stack, cache);

    std::int64_t t0 = now_ns();
    const std::vector<double> fp = svc::measure_fingerprint(cached, 16);
    fp_ms.push_back(ns_to_ms(now_ns() - t0));
    t0 = now_ns();
    const auto match = store.nearest(spec.problem, fp);
    nearest_ms.push_back(ns_to_ms(now_ns() - t0));

    pt::ml::RegressorPtr model;
    std::unique_ptr<TimedRegressor> timed;
    if (match) {
      t0 = now_ns();
      model = store.load_surrogate(match->entry, cached.space());
      load_ms.push_back(ns_to_ms(now_ns() - t0));
      const pt::tuner::SearchTrace trace =
          store.load_trace(match->entry, cached.space());
      t0 = now_ns();
      const pt::ml::RegressorPtr refit =
          pt::tuner::fit_surrogate(trace, cached.space(), {});
      fit_ms.push_back(ns_to_ms(now_ns() - t0));
      timed = std::make_unique<TimedRegressor>(*model, predict);
    }
    pt::tuner::SessionOptions opts = cfg.session_options("direct-" +
                                                         std::to_string(k));
    opts.warm_model = timed.get();
    t0 = now_ns();
    pt::tuner::TuningSession session(cached, opts);
    if (match) rank_ms.push_back(ns_to_ms(now_ns() - t0));
    for (std::size_t i = 0; i < spec.steps; ++i) session.step(spec.step_n);
    session.close();
    if (session.trace().empty()) continue;
    t0 = now_ns();
    store.put(spec.problem, spec.machine, session.trace(), cached.space(), fp);
    put_ms.push_back(ns_to_ms(now_ns() - t0));
  }
  report.attempt_many(fp_ms.size());
  report.attempt(!rank_ms.empty(), "no direct-call open started warm");
  const char* m = "mean per call";
  report.metric("service.fingerprint_ms", mean(fp_ms), "ms", fp_ms.size(), m);
  report.metric("surrogate_store.nearest_ms", mean(nearest_ms), "ms",
                nearest_ms.size(), m);
  report.metric("surrogate_store.load_surrogate_ms", mean(load_ms), "ms",
                load_ms.size(), m);
  report.metric("tuner.session_rank_ms", mean(rank_ms), "ms", rank_ms.size(),
                "TuningSession construction with a warm model, mean");
  report.metric("surrogate_store.put_ms", mean(put_ms), "ms", put_ms.size(),
                m);
  report.metric("ml.fit_ms", mean(fit_ms), "ms", fit_ms.size(),
                "forest refit of a store trace, mean per warm open");
  const double opens =
      static_cast<double>(std::max<std::size_t>(1, rank_ms.size()));
  const double rows = static_cast<double>(predict.calls.load());
  report.metric("ml.predict_rows", rows / opens, "count", rank_ms.size(),
                "rows ranked per warm open");
  report.metric("ml.predict_busy_ms", ns_to_ms(predict.busy_ns) / opens, "ms",
                rank_ms.size(), "summed over threads, per warm open");
  report.metric("ml.predict_us_per_row",
                rows > 0 ? ns_to_ms(predict.busy_ns) * 1e3 / rows : 0.0, "us",
                rank_ms.size());
}

}  // namespace

int run_service(const RunOptions& opt, Report& report) {
  const Settings s = parse_settings(opt.input);
  const std::string cli =
      opt.cli_path.empty() ? "" : fs::absolute(opt.cli_path).string();
  fs::create_directories(opt.work_dir);
  fs::current_path(opt.work_dir);
  seed_store(s, "seeded");

  if (!opt.trace) {
    // Set-up: open the service on a fresh copy of the seeded data dir
    // (store index load and checksum verification), repeated for the set-up
    // time of the input; the last instance serves the run.
    std::vector<double> setup_s;
    InProcess ip;
    const std::int64_t setup_start = now_ns();
    while (setup_s.empty() ||
           ns_to_s(now_ns() - setup_start) < s.setup_seconds) {
      ip.protocol.reset();
      ip.service.reset();
      copy_dir("seeded", "data");
      const std::int64_t t0 = now_ns();
      ip = open_in_process("data");
      setup_s.push_back(ns_to_s(now_ns() - t0));
    }
    report.metric("setup_s", median(setup_s), "s", setup_s.size());

    // One untimed cycle first: it replaces the seeded store entries with
    // the scripts' own traces and brings X-Gene from cold to warm, so the
    // timed cycles all see the steady store.
    const std::size_t cycle_rounds = s.scripts.front().size();
    const Json before = registry_stats();
    double warmup_s = 0, wall_s = 0;
    const Tally warmup =
        in_process_loop(s, ip, 0.0, cycle_rounds, "wu", warmup_s);
    SpeedProbe probe;
    const Tally t = in_process_loop(s, ip, opt.seconds, cycle_rounds, "pb",
                                    wall_s, &probe);
    const std::uint64_t ops =
        check_replies(merge({warmup, t}), before, registry_stats(), report);

    // Rates use a typical cycle: the sum over the cycle's sessions of each
    // one's median time, evaluations and ops across cycles.
    const std::size_t units = s.clients * cycle_rounds;
    std::vector<std::vector<double>> unit_ms(units), unit_open_ms(units),
        unit_evals(units), unit_ops(units);
    const auto& open_ms = t.latency_ms.at("open");
    for (std::size_t i = 0; i < t.session_ms.size(); ++i) {
      unit_ms[i % units].push_back(t.session_ms[i]);
      unit_open_ms[i % units].push_back(open_ms[i]);
      unit_evals[i % units].push_back(static_cast<double>(t.session_evals[i]));
      unit_ops[i % units].push_back(static_cast<double>(t.session_ops[i]));
    }
    const auto sum = [](const std::vector<double>& v) {
      double total = 0;
      for (double x : v) total += x;
      return total;
    };
    const double cycle_s = sum(unit_medians(unit_ms)) / 1e3;
    const char* rate = "per typical cycle: sum of per-session medians";
    report.metric("cells_per_s", static_cast<double>(units) / cycle_s, "1/s",
                  t.session_ms.size(), rate);
    unit_latency_metrics(report, "cell", unit_ms, s.cell_tail_pct);
    report.metric("evals_per_s", sum(unit_medians(unit_evals)) / cycle_s,
                  "1/s", t.evaluations, rate);
    report.metric("ops_per_s", sum(unit_medians(unit_ops)) / cycle_s, "1/s",
                  ops, rate);
    latency_metrics(report, "step", t.latency_ms.at("step"), s.step_tail_pct);
    unit_latency_metrics(report, "open", unit_open_ms, s.open_tail_pct);
    report.metric("peak_rss_mb", self_peak_rss_mb(), "MiB", 1);
    report.context("cycles", Json::make_number(
                                 static_cast<double>(t.session_ms.size()) /
                                 static_cast<double>(units)));
    report.context("warmup_s", Json::make_number(warmup_s));
    Members op_ms;
    for (const char* op : kOps)
      op_ms.emplace_back(op, Json::make_number(median(t.latency_ms.at(op))));
    report.context("op_p50_ms", Json::make_object(std::move(op_ms)));
    probe.report(report);
    return 0;
  }

  // Traced run, first half: the real daemon with one client thread per
  // script over the socket.
  PT_REQUIRE(!cli.empty(), "the traced service run needs --cli");
  fs::remove("daemon.log");
  copy_dir("seeded", "data");
  auto daemon = std::make_unique<Daemon>(cli, "data");
  const Json before = daemon->wait_ready();
  double wall_s = 0;
  const Tally t = merge(closed_loop(s, opt.seconds / 2, "pb", wall_s));
  const Json after = daemon->wait_ready();
  const std::uint64_t ops = check_replies(t, before, after, report);
  report.attempt(daemon->shutdown() == 0, "daemon exit code on shutdown");
  daemon.reset();
  report.attempt(!fs::exists(kSocket), "the daemon left its socket behind");

  // Server-side split of the client latency.
  double client_ms_total = 0;
  for (const char* op : kOps) {
    const std::string name = std::string("server.op.") + op + ".latency";
    const Json* ha = histogram(after, name);
    const Json* hb = histogram(before, name);
    const double sum_s = (ha ? ha->at("sum").as_number() : 0) -
                         (hb ? hb->at("sum").as_number() : 0);
    const auto& lat = t.latency_ms.at(op);
    client_ms_total += mean(lat) * static_cast<double>(lat.size());
    if (std::string(op) != "open" && std::string(op) != "step") continue;
    const double count = (ha ? ha->at("count").as_number() : 0) -
                         (hb ? hb->at("count").as_number() : 0);
    report.metric(std::string("server.exec_p50_ms.") + op,
                  ha ? ha->at("p50").as_number() * 1e3 : 0.0, "ms",
                  static_cast<std::size_t>(count),
                  "daemon histogram p50 (bucketed)");
    report.metric(std::string("server.queue_ms.") + op,
                  mean(lat) - (count > 0 ? sum_s * 1e3 / count : 0.0), "ms",
                  lat.size(), "client mean latency - daemon mean latency");
  }
  const double hits = cache_field(after, "hits") - cache_field(before, "hits");
  const double misses =
      cache_field(after, "misses") - cache_field(before, "misses");
  report.metric("eval_cache.hit_ratio", hits / std::max(1.0, hits + misses),
                "ratio", static_cast<std::size_t>(hits + misses),
                "hits / lookups");
  const double thread_ms = wall_s * 1e3 * static_cast<double>(s.clients);
  report.metric("unattributed_share", 1.0 - client_ms_total / thread_ms,
                "ratio", ops,
                "client thread time outside calls; calls split into daemon "
                "exec + queue");
  report.metric("tracing_overhead_share", 0.0, "ratio", 1,
                "the daemon path carries no benchmark instrumentation");

  traced_in_process(s, "seeded", opt.seconds / 4, report);
  return 0;
}

}  // namespace perfbench
