#include "tuner/persistence.hpp"

#include <cmath>
#include <fstream>
#include <functional>
#include <sstream>

#include "support/atomic_file.hpp"
#include "support/checksum.hpp"
#include "support/error.hpp"

namespace portatune::tuner {

namespace {

/// The two flavours of the one file format.
struct Format {
  const char* name;  ///< magic-line kind and diagnostics name
  bool elapsed;      ///< rows carry the original elapsed timestamp
};
constexpr Format kTrace{"trace", false};
constexpr Format kCheckpoint{"checkpoint", true};

using MetaWriter = std::function<void(std::ostream&)>;
using MetaReader =
    std::function<void(const std::string& key, const std::string& rest)>;

std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : line) {
    if (c == ',') {
      out.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(std::move(cur));
  return out;
}

/// Map a parameter value back to its index in the space (exact match).
int value_to_index(const ParamSpace& space, std::size_t param,
                   double value, std::size_t row) {
  const auto& values = space.param(param).values;
  for (std::size_t i = 0; i < values.size(); ++i)
    if (values[i] == value) return static_cast<int>(i);
  throw Error("trace row " + std::to_string(row) + ": value " +
              std::to_string(value) + " not in the domain of parameter " +
              space.param(param).name);
}

/// The one writer: magic line, the `# key,...` rows `meta` writes, the
/// header, one row per entry, and the checksum footer over all of it.
std::string encode(const Format& format, const SearchTrace& trace,
                   const ParamSpace& space, const MetaWriter& meta) {
  std::ostringstream payload;
  payload.precision(17);
  payload << "# portatune-" << format.name << " v3," << trace.algorithm()
          << "," << trace.problem() << "," << trace.machine() << "\n";
  if (meta) meta(payload);
  for (const auto& n : space.names()) payload << n << ",";
  payload << (format.elapsed ? "seconds,elapsed,draw_index,wall_unix\n"
                             : "seconds,draw_index,wall_unix\n");
  for (const auto& e : trace.entries()) {
    for (double v : space.features(e.config)) payload << v << ",";
    payload << e.seconds << ",";
    if (format.elapsed) payload << e.elapsed << ",";
    payload << e.draw_index << "," << e.wall_unix << "\n";
  }
  return append_checksum_footer(payload.str());
}

/// The one reader. The footer is verified before any other byte is
/// trusted; then the v3 magic line and the header are checked, every
/// `# key,rest` row goes to `meta` (none are allowed without one), and
/// the rows are parsed into the returned trace.
SearchTrace decode(const Format& format, std::istream& is,
                   const ParamSpace& space, const MetaReader& meta) {
  const std::string what = format.name;
  std::ostringstream raw;
  raw << is.rdbuf();
  const std::string content = raw.str();
  PT_REQUIRE(!content.empty(), "empty " + what + " file");
  std::istringstream in(strip_verified_checksum_footer(content, format.name));

  std::string line;
  std::getline(in, line);
  PT_REQUIRE(line.rfind("# portatune-" + what + " v3,", 0) == 0,
             "not a portatune v3 " + what + " (bad magic line)");
  const auto magic = split_csv(line.substr(2));
  PT_REQUIRE(magic.size() == 4, "malformed " + what + " metadata");
  SearchTrace trace(magic[1], magic[2], magic[3]);

  // Metadata rows run until the first non-"# " line (the column header).
  while (std::getline(in, line) && line.rfind("# ", 0) == 0) {
    const std::string body = line.substr(2);
    const auto comma = body.find(',');
    const std::string key = body.substr(0, comma);
    PT_REQUIRE(meta, "unknown " + what + " metadata key: " + key);
    meta(key, comma == std::string::npos ? std::string()
                                         : body.substr(comma + 1));
  }

  PT_REQUIRE(!in.fail() && !line.empty(),
             "missing " + what + " header row");
  const std::size_t np = space.num_params();
  const std::size_t columns = np + (format.elapsed ? 4 : 3);
  const auto header = split_csv(line);
  PT_REQUIRE(header.size() == columns,
             what + " header arity does not match the parameter space");
  const auto names = space.names();
  for (std::size_t p = 0; p < np; ++p)
    PT_REQUIRE(header[p] == names[p],
               what + " parameter '" + header[p] +
                   "' does not match space parameter '" + names[p] + "'");

  std::size_t row = 0;
  while (std::getline(in, line)) {
    ++row;
    if (line.empty()) continue;
    const auto where = [&] { return what + " row " + std::to_string(row); };
    const auto cells = split_csv(line);
    PT_REQUIRE(cells.size() == columns, where() + " has wrong arity");
    ParamConfig config(np);
    for (std::size_t p = 0; p < np; ++p)
      config[p] = value_to_index(space, p, std::stod(cells[p]), row);
    const double seconds = std::stod(cells[np]);
    PT_REQUIRE(std::isfinite(seconds) && seconds >= 0.0,
               where() + " has a bad run time");
    const std::size_t tail = format.elapsed ? np + 2 : np + 1;
    const auto draw = static_cast<std::size_t>(std::stoull(cells[tail]));
    const double wall = std::stod(cells[tail + 1]);
    if (format.elapsed) {
      const double elapsed = std::stod(cells[np + 1]);
      PT_REQUIRE(std::isfinite(elapsed) && elapsed >= 0.0,
                 where() + " has a bad elapsed time");
      trace.restore_entry(std::move(config), seconds, elapsed, draw, wall);
    } else {
      trace.record(std::move(config), seconds, draw, wall);
    }
  }
  return trace;
}

std::string encode_checkpoint(const SearchCheckpoint& snapshot,
                              const ParamSpace& space) {
  const SearchTrace& trace = snapshot.trace;
  return encode(kCheckpoint, trace, space, [&](std::ostream& os) {
    os << "# draws," << snapshot.draws << "\n";
    os << "# clock," << trace.total_time() << "\n";
    os << "# stop," << trace.stop_reason() << "\n";
    const FailureStats& fs = trace.failure_stats();
    os << "# stats," << fs.attempts << "," << fs.failures << ","
       << fs.transient << "," << fs.deterministic << "," << fs.timeouts
       << "," << fs.overhead_seconds << "\n";
    // Both rows are absent when empty, so checkpoints of the
    // free-function searches (which never suggest) carry no `# pending`.
    if (!snapshot.quarantine.empty()) {
      os << "# quarantine";
      for (const auto h : snapshot.quarantine) os << "," << hex16(h);
      os << "\n";
    }
    if (!snapshot.pending.empty()) {
      os << "# pending";
      for (const auto& [hash, draw] : snapshot.pending)
        os << "," << hex16(hash) << ":" << draw;
      os << "\n";
    }
  });
}

std::ifstream open_for_read(const std::string& path, const char* what) {
  std::ifstream is(path);
  PT_REQUIRE(is.good(),
             std::string("cannot open ") + what + " file: " + path);
  return is;
}

}  // namespace

void save_trace_csv(std::ostream& os, const SearchTrace& trace,
                    const ParamSpace& space) {
  os << encode(kTrace, trace, space, nullptr);
}

void save_trace_csv(const std::string& path, const SearchTrace& trace,
                    const ParamSpace& space) {
  // Crash-safe replacement: a kill mid-save leaves the previous trace
  // file intact, never a torn one the checksum loader would (correctly
  // but uselessly) reject.
  atomic_write_file(path, encode(kTrace, trace, space, nullptr));
}

SearchTrace load_trace_csv(std::istream& is, const ParamSpace& space) {
  return decode(kTrace, is, space, nullptr);
}

SearchTrace load_trace_csv(const std::string& path,
                           const ParamSpace& space) {
  auto is = open_for_read(path, "trace");
  return load_trace_csv(is, space);
}

void save_checkpoint_csv(std::ostream& os, const SearchCheckpoint& snapshot,
                         const ParamSpace& space) {
  os << encode_checkpoint(snapshot, space);
}

void save_checkpoint_csv(const std::string& path,
                         const SearchCheckpoint& snapshot,
                         const ParamSpace& space) {
  // Crash-safe replacement (write-temp + fsync + rename + dir fsync):
  // a kill at any instant leaves the previous checkpoint whole.
  atomic_write_file(path, encode_checkpoint(snapshot, space));
}

SearchCheckpoint load_checkpoint_csv(std::istream& is,
                                     const ParamSpace& space) {
  SearchCheckpoint snapshot;
  double clock = 0.0;
  FailureStats fs;
  std::string stop;
  snapshot.trace = decode(kCheckpoint, is, space, [&](const std::string& key,
                                                      const std::string& rest) {
    if (key == "draws") {
      snapshot.draws = static_cast<std::size_t>(std::stoull(rest));
    } else if (key == "clock") {
      clock = std::stod(rest);
    } else if (key == "stop") {
      stop = rest;
    } else if (key == "stats") {
      const auto cells = split_csv(rest);
      PT_REQUIRE(cells.size() == 6, "malformed checkpoint stats row");
      fs.attempts = std::stoull(cells[0]);
      fs.failures = std::stoull(cells[1]);
      fs.transient = std::stoull(cells[2]);
      fs.deterministic = std::stoull(cells[3]);
      fs.timeouts = std::stoull(cells[4]);
      fs.overhead_seconds = std::stod(cells[5]);
    } else if (key == "quarantine") {
      for (const auto& cell : split_csv(rest))
        snapshot.quarantine.push_back(std::stoull(cell, nullptr, 16));
    } else if (key == "pending") {
      for (const auto& cell : split_csv(rest)) {
        const auto colon = cell.find(':');
        PT_REQUIRE(colon != std::string::npos,
                   "malformed checkpoint pending cell: " + cell);
        snapshot.pending.emplace_back(
            std::stoull(cell.substr(0, colon), nullptr, 16),
            static_cast<std::size_t>(std::stoull(cell.substr(colon + 1))));
      }
    } else {
      throw Error("unknown checkpoint metadata key: " + key);
    }
  });
  SearchTrace& trace = snapshot.trace;
  // restore_stop_reason, not set_stop_reason: loading a checkpoint of an
  // aborted search must not re-announce the abort (no event/flush).
  if (!stop.empty()) trace.restore_stop_reason(stop);
  trace.restore_failure_stats(fs);
  trace.restore_clock(clock);
  PT_REQUIRE(snapshot.draws >= trace.size(),
             "checkpoint draw count is smaller than its trace");
  return snapshot;
}

SearchCheckpoint load_checkpoint_csv(const std::string& path,
                                     const ParamSpace& space) {
  auto is = open_for_read(path, "checkpoint");
  return load_checkpoint_csv(is, space);
}

}  // namespace portatune::tuner
