#include "obs/event.hpp"

#include <cmath>
#include <cstdio>
#include <thread>

#include "obs/json.hpp"
#include "support/error.hpp"
#include "support/span_context.hpp"

namespace portatune::obs {

namespace {

/// Shortest round-trippable rendering of a double (JSON-safe: NaN and
/// infinities are not valid JSON numbers, so they render as null).
std::string render_double(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  // Prefer a shorter form when it round-trips exactly.
  char shorter[32];
  std::snprintf(shorter, sizeof shorter, "%.9g", v);
  double back = 0.0;
  std::sscanf(shorter, "%lf", &back);
  return back == v ? shorter : buf;
}

std::chrono::steady_clock::time_point process_epoch() noexcept {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

/// Touch the epoch at static-init time so mono timestamps approximate
/// "since process start" even when the first event is emitted late.
[[maybe_unused]] const auto g_epoch_init = process_epoch();

}  // namespace

const char* to_string(Severity s) noexcept {
  switch (s) {
    case Severity::Debug: return "debug";
    case Severity::Info: return "info";
    case Severity::Warn: return "warn";
    case Severity::Error: return "error";
  }
  return "unknown";
}

Severity severity_from_string(const std::string& name) {
  if (name == "debug") return Severity::Debug;
  if (name == "info") return Severity::Info;
  if (name == "warn") return Severity::Warn;
  if (name == "error") return Severity::Error;
  throw Error("unknown log level: " + name +
              " (expected debug|info|warn|error)");
}

Field::Field(std::string k, double v)
    : key(std::move(k)), value(render_double(v)), quoted(false) {}

double mono_now() noexcept {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       process_epoch())
      .count();
}

std::int64_t wall_micros_now() noexcept {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

double wall_unix_now() noexcept {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::uint64_t current_thread_id() noexcept {
  return static_cast<std::uint64_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
}

Event make_instant(Severity severity, std::string name, std::string category,
                   std::vector<Field> fields) {
  Event e;
  e.severity = severity;
  e.name = std::move(name);
  e.category = std::move(category);
  e.mono_seconds = mono_now();
  e.wall_micros = wall_micros_now();
  e.thread_id = current_thread_id();
  e.parent_span_id = current_span_context().span;
  e.fields = std::move(fields);
  return e;
}

Event make_span(Severity severity, std::string name, std::string category,
                double duration_seconds, std::vector<Field> fields) {
  Event e = make_instant(severity, std::move(name), std::move(category),
                         std::move(fields));
  e.duration_seconds = duration_seconds < 0.0 ? 0.0 : duration_seconds;
  e.mono_seconds -= e.duration_seconds;  // timestamp marks the span start
  if (e.mono_seconds < 0.0) e.mono_seconds = 0.0;
  return e;
}

std::string to_json(const Event& event) {
  std::string out;
  out.reserve(128 + event.fields.size() * 24);
  out += "{\"ts\":";
  {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9f", event.mono_seconds);
    out += buf;
  }
  out += ",\"wall_us\":" + std::to_string(event.wall_micros);
  out += ",\"level\":\"";
  out += to_string(event.severity);
  out += "\",\"name\":\"";
  json::escape_into(out, event.name);
  out += "\",\"cat\":\"";
  json::escape_into(out, event.category);
  out += "\"";
  if (event.duration_seconds >= 0.0) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9f", event.duration_seconds);
    out += ",\"dur_s\":";
    out += buf;
  }
  out += ",\"tid\":" + std::to_string(event.thread_id);
  if (event.span_id != 0)
    out += ",\"span\":" + std::to_string(event.span_id);
  if (event.parent_span_id != 0)
    out += ",\"parent\":" + std::to_string(event.parent_span_id);
  for (const auto& f : event.fields) {
    out += ",\"";
    json::escape_into(out, f.key);
    out += "\":";
    if (f.quoted) {
      out += "\"";
      json::escape_into(out, f.value);
      out += "\"";
    } else {
      out += f.value.empty() ? "null" : f.value;
    }
  }
  out += "}";
  return out;
}

}  // namespace portatune::obs
