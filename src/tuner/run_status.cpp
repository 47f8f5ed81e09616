#include "tuner/run_status.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "obs/event.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "support/atomic_file.hpp"
#include "support/error.hpp"

#ifndef _WIN32
#include <unistd.h>
#endif

namespace portatune::tuner {

namespace {

std::string render_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

/// Timestamps need fixed-point microseconds: %.9g collapses epoch
/// seconds (~1.7e9) to ~10-second granularity.
std::string render_stamp(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

std::int64_t current_pid() {
#ifndef _WIN32
  return static_cast<std::int64_t>(getpid());
#else
  return 0;
#endif
}

double find_gauge(const obs::MetricsSnapshot& m, std::string_view name,
                  double fallback) {
  for (const auto& [key, value] : m.gauges)
    if (key == name) return value;
  return fallback;
}

/// `null` for values that have no defined reading yet (no evals, no
/// throughput history) — readers must not mistake 0 or inf for data.
std::string number_or_null(double v) {
  if (!std::isfinite(v)) return "null";
  return render_double(v);
}

}  // namespace

RunStatusBoard::RunStatusBoard(std::vector<std::string> labels,
                               std::size_t evals_per_cell)
    : partial_(labels.size(), 0), evals_per_cell_(evals_per_cell) {
  cells_.reserve(labels.size());
  for (std::string& label : labels) {
    Cell cell;
    cell.label = std::move(label);
    cells_.push_back(std::move(cell));
  }
}

void RunStatusBoard::set_state(std::size_t cell, CellState state) {
  std::lock_guard lock(mutex_);
  cells_.at(cell).state = state;
}

void RunStatusBoard::phase_started(std::size_t cell,
                                   const std::string& phase) {
  std::lock_guard lock(mutex_);
  cells_.at(cell).phase = phase;
  partial_.at(cell) = 0;
}

void RunStatusBoard::phase_finished(std::size_t cell, std::size_t evals,
                                    double best_seconds) {
  std::lock_guard lock(mutex_);
  Cell& c = cells_.at(cell);
  ++c.phases_done;
  c.evals_done += evals;
  partial_.at(cell) = 0;
  if (best_seconds < c.best_seconds) c.best_seconds = best_seconds;
}

void RunStatusBoard::rs_progress(std::size_t cell, std::size_t evals,
                                 double best_seconds) {
  std::lock_guard lock(mutex_);
  Cell& c = cells_.at(cell);
  partial_.at(cell) = evals;
  if (best_seconds < c.best_seconds) c.best_seconds = best_seconds;
}

RunStatusBoard::Snapshot RunStatusBoard::snapshot() const {
  std::lock_guard lock(mutex_);
  Snapshot snap;
  snap.cells = cells_;
  snap.evals_per_cell = evals_per_cell_;
  snap.evals_total = evals_per_cell_ * cells_.size();
  for (std::size_t i = 0; i < snap.cells.size(); ++i) {
    Cell& c = snap.cells[i];
    c.evals_done += partial_[i];  // fold in the live phase's progress
    snap.evals_done += c.evals_done;
    if (c.best_seconds < snap.best_seconds)
      snap.best_seconds = c.best_seconds;
    switch (c.state) {
      case CellState::Done: ++snap.done; break;
      case CellState::Running: ++snap.running; break;
      case CellState::Pending: ++snap.pending; break;
    }
  }
  return snap;
}

std::string RunStatusWriter::status_path(const std::string& run_dir) {
  return run_dir + "/status.json";
}

RunStatusWriter::RunStatusWriter(const RunStatusBoard& board,
                                 std::string run_dir, double period_seconds)
    : board_(board),
      run_dir_(std::move(run_dir)),
      period_seconds_(std::max(0.05, period_seconds)),
      started_wall_(obs::wall_unix_now()) {
  write_now();  // the run announces itself before the first cell starts
  thread_ = std::thread([this] { run(); });
}

RunStatusWriter::~RunStatusWriter() {
  {
    std::lock_guard lock(stop_mutex_);
    stop_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  // Final beat: the on-disk status must record the finished board, not
  // whatever the last periodic tick happened to see.
  try {
    write_now();
  } catch (const std::exception&) {
    // Teardown must not throw for a status file.
  }
}

void RunStatusWriter::run() {
  std::unique_lock lock(stop_mutex_);
  while (!stop_) {
    const auto period = std::chrono::duration<double>(period_seconds_);
    if (stop_cv_.wait_for(lock, period, [this] { return stop_; })) break;
    lock.unlock();
    try {
      write_now();
    } catch (const std::exception&) {
      // A transient write failure skips one beat; the next tick retries.
    }
    lock.lock();
  }
}

void RunStatusWriter::write_now() {
  const RunStatusBoard::Snapshot snap = board_.snapshot();
  const obs::MetricsSnapshot metrics =
      obs::MetricsRegistry::current().snapshot();
  const double now = obs::wall_unix_now();

  double rate = 0.0;
  {
    std::lock_guard lock(beat_mutex_);
    const double evals = static_cast<double>(snap.evals_done);
    const double dt = now - last_beat_wall_;
    if (last_beat_wall_ >= 0.0 && dt > 0.0) {
      const double inst = std::max(0.0, evals - last_evals_) / dt;
      // Smooth across beats so one slow evaluation doesn't whipsaw the
      // ETA; seeded with the first observed rate rather than zero.
      rate_ema_ = rate_ema_ > 0.0 ? 0.7 * rate_ema_ + 0.3 * inst : inst;
    }
    last_beat_wall_ = now;
    last_evals_ = evals;
    rate = rate_ema_;
  }

  const std::size_t remaining =
      snap.evals_total > snap.evals_done
          ? snap.evals_total - snap.evals_done
          : 0;
  const double eta =
      remaining == 0
          ? 0.0
          : (rate > 1e-12 ? static_cast<double>(remaining) / rate
                          : std::numeric_limits<double>::infinity());

  std::string out = "{\"pid\":" + std::to_string(current_pid());
  out += ",\"started_wall\":" + render_stamp(started_wall_);
  out += ",\"heartbeat_wall\":" + render_stamp(now);
  out += ",\"uptime_seconds\":" + render_double(now - started_wall_);
  out += ",\"cells\":{\"total\":" + std::to_string(snap.cells.size());
  out += ",\"done\":" + std::to_string(snap.done);
  out += ",\"running\":" + std::to_string(snap.running);
  out += ",\"pending\":" + std::to_string(snap.pending) + "}";
  out += ",\"evals\":{\"done\":" + std::to_string(snap.evals_done);
  out += ",\"total\":" + std::to_string(snap.evals_total) + "}";
  out += ",\"best_seconds\":" + number_or_null(snap.best_seconds);
  out += ",\"throughput_evals_per_sec\":" + render_double(rate);
  out += ",\"eta_seconds\":" + number_or_null(eta);
  out += ",\"pool\":{\"workers_busy\":" +
         render_double(find_gauge(metrics, "pool.workers_busy", 0.0));
  out += ",\"queue_depth\":" +
         render_double(find_gauge(metrics, "pool.queue_depth", 0.0)) + "}";
  out += ",\"guard\":{\"trust\":" +
         render_double(find_gauge(metrics, "guard.trust", -1.0));
  out += ",\"state\":" +
         render_double(find_gauge(metrics, "guard.state", -1.0)) + "}";
  out += ",\"cells_detail\":[";
  for (std::size_t i = 0; i < snap.cells.size(); ++i) {
    const RunStatusBoard::Cell& c = snap.cells[i];
    if (i != 0) out += ",";
    out += "{\"label\":\"" + obs::json::escape(c.label) + "\"";
    out += ",\"state\":\"";
    out += to_string(c.state);
    out += "\",\"phase\":\"" + obs::json::escape(c.phase) + "\"";
    out += ",\"phases_done\":" + std::to_string(c.phases_done);
    out += ",\"evals_done\":" + std::to_string(c.evals_done);
    out += ",\"best_seconds\":" + number_or_null(c.best_seconds) + "}";
  }
  out += "]}";
  atomic_write_file(status_path(run_dir_), out);
}

namespace {

std::string format_seconds(double s) {
  char buf[64];
  if (!std::isfinite(s)) return "?";
  if (s >= 3600.0)
    std::snprintf(buf, sizeof buf, "%.1fh", s / 3600.0);
  else if (s >= 60.0)
    std::snprintf(buf, sizeof buf, "%.1fm", s / 60.0);
  else
    std::snprintf(buf, sizeof buf, "%.1fs", s);
  return buf;
}

/// Parse a file that a live writer may be atomically replacing. The
/// rename is atomic so a reader always sees a complete document — but a
/// pessimistic retry costs nothing and covers filesystems with weaker
/// rename semantics.
template <typename Fn>
auto with_one_retry(Fn&& fn) {
  try {
    return fn();
  } catch (const Error&) {
    return fn();
  }
}

}  // namespace

RunLiveness render_run_status(std::ostream& os, const std::string& run_dir,
                              double stale_after_seconds) {
  PT_REQUIRE(RunJournal::exists(run_dir),
             "'" + run_dir +
                 "' holds no run journal (journal.csv) — not a run "
                 "directory, or the run never started");
  const RunJournal::Peek peek =
      with_one_retry([&] { return RunJournal::peek(run_dir); });

  std::size_t done = 0, running = 0, pending = 0;
  for (const CellState s : peek.states) {
    switch (s) {
      case CellState::Done: ++done; break;
      case CellState::Running: ++running; break;
      case CellState::Pending: ++pending; break;
    }
  }
  const bool all_done = done == peek.states.size();

  obs::json::Value status;
  bool have_status = false;
  const std::string spath = RunStatusWriter::status_path(run_dir);
  if (file_exists(spath)) {
    try {
      status = with_one_retry(
          [&] { return obs::json::Value::parse(read_file(spath)); });
      have_status = true;
    } catch (const Error&) {
      // A malformed heartbeat is treated as no heartbeat at all.
    }
  }

  const double now = obs::wall_unix_now();
  double heartbeat_age = std::numeric_limits<double>::infinity();
  if (have_status)
    if (const auto* hb = status.find("heartbeat_wall"); hb != nullptr)
      heartbeat_age = now - hb->as_number();

  RunLiveness liveness = RunLiveness::Dead;
  if (all_done)
    liveness = RunLiveness::Complete;
  else if (have_status && heartbeat_age <= stale_after_seconds)
    liveness = RunLiveness::Running;

  os << "run:       " << run_dir << "\n";
  os << "journal:   " << peek.states.size() << " cells — " << done
     << " done, " << running << " running, " << pending << " pending\n";
  if (have_status) {
    os << "heartbeat: " << format_seconds(heartbeat_age) << " ago";
    if (const auto* pid = status.find("pid"); pid != nullptr)
      os << " (pid " << static_cast<std::int64_t>(pid->as_number());
    if (const auto* up = status.find("uptime_seconds"); up != nullptr)
      os << ", uptime " << format_seconds(up->as_number());
    os << ")\n";
    const auto* evals = status.find("evals");
    if (evals != nullptr) {
      const double edone = evals->at("done").as_number();
      const double etotal = evals->at("total").as_number();
      os << "progress:  evals " << static_cast<std::int64_t>(edone) << "/"
         << static_cast<std::int64_t>(etotal);
      if (etotal > 0.0) {
        char pct[16];
        std::snprintf(pct, sizeof pct, " (%.1f%%)",
                      100.0 * edone / etotal);
        os << pct;
      }
      if (const auto* best = status.find("best_seconds");
          best != nullptr && best->is_number())
        os << ", best " << render_double(best->as_number()) << " s";
      if (const auto* rate = status.find("throughput_evals_per_sec");
          rate != nullptr && rate->as_number() > 0.0) {
        os << ", " << render_double(rate->as_number()) << " evals/s";
        if (const auto* eta = status.find("eta_seconds");
            eta != nullptr && eta->is_number() &&
            liveness == RunLiveness::Running)
          os << ", ETA " << format_seconds(eta->as_number());
      }
      os << "\n";
    }
    if (const auto* pool = status.find("pool"); pool != nullptr)
      os << "pool:      " << pool->at("workers_busy").as_number()
         << " workers busy, queue depth "
         << pool->at("queue_depth").as_number() << "\n";
    if (const auto* guard = status.find("guard");
        guard != nullptr && guard->at("trust").as_number() >= 0.0)
      os << "guard:     trust "
         << render_double(guard->at("trust").as_number()) << ", state "
         << guard->at("state").as_number() << "\n";
  } else {
    os << "heartbeat: none found (status.json missing — run predates "
          "telemetry, was started with telemetry off, or died before the "
          "first beat)\n";
  }

  // Per-cell table: journal state is the ground truth; phase / eval
  // detail comes from the heartbeat when its shape matches the journal.
  const auto* detail =
      have_status ? status.find("cells_detail") : nullptr;
  const bool detail_ok = detail != nullptr && detail->is_array() &&
                         detail->as_array().size() == peek.states.size();
  os << "cells:\n";
  for (std::size_t i = 0; i < peek.states.size(); ++i) {
    char idx[32];
    std::snprintf(idx, sizeof idx, "  [%03zu] ", i);
    os << idx;
    char state[16];
    std::snprintf(state, sizeof state, "%-8s", to_string(peek.states[i]));
    os << state << peek.labels[i];
    if (detail_ok) {
      const obs::json::Value& d = detail->as_array()[i];
      if (const auto* phase = d.find("phase");
          phase != nullptr && !phase->as_string().empty() &&
          peek.states[i] != CellState::Done)
        os << "  phase=" << phase->as_string();
      if (const auto* phases = d.find("phases_done"); phases != nullptr)
        os << "  " << static_cast<std::int64_t>(phases->as_number())
           << "/" << kNumExperimentPhases << " phases";
      if (const auto* ev = d.find("evals_done"); ev != nullptr)
        os << "  " << static_cast<std::int64_t>(ev->as_number())
           << " evals";
      if (const auto* best = d.find("best_seconds");
          best != nullptr && best->is_number())
        os << "  best=" << render_double(best->as_number()) << " s";
    }
    os << "\n";
  }

  switch (liveness) {
    case RunLiveness::Complete:
      os << "status:    COMPLETE — all cells done\n";
      break;
    case RunLiveness::Running:
      os << "status:    RUNNING\n";
      break;
    case RunLiveness::Dead:
      if (have_status)
        os << "status:    DEAD — no heartbeat for "
           << format_seconds(heartbeat_age) << " (threshold "
           << format_seconds(stale_after_seconds)
           << ") with unfinished cells\n";
      else
        os << "status:    DEAD — unfinished cells and no heartbeat\n";
      os << "resume:    re-run the same experiment command with "
            "--run-dir '"
         << run_dir << "' --resume\n";
      break;
  }
  return liveness;
}

}  // namespace portatune::tuner
