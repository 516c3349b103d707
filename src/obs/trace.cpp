#include "obs/trace.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace sci::obs {
namespace {

/// Fixed microsecond timestamps with picosecond resolution. printf
/// output for a given double is stable within one libc, which is what
/// the byte-identical-trace guarantee needs. A non-finite time has no
/// JSON number, so it is written as null (which the reader rejects).
void append_us(std::string& out, double seconds) {
  const double us = seconds * 1e6;
  if (!std::isfinite(us)) {
    out += "null";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", us);
  out += buf;
}

}  // namespace

void TraceSink::complete(int tid, const char* name, const char* cat, double start_s,
                         double dur_s, std::initializer_list<TraceArg> args) {
  events_.push_back(Event{'X', tid, name, cat, start_s, dur_s, std::vector<TraceArg>(args)});
}

void TraceSink::complete(int tid, const char* name, const char* cat, double start_s,
                         double dur_s, std::vector<TraceArg> args) {
  events_.push_back(Event{'X', tid, name, cat, start_s, dur_s, std::move(args)});
}

void TraceSink::instant(int tid, const char* name, const char* cat, double t_s,
                        std::initializer_list<TraceArg> args) {
  events_.push_back(Event{'i', tid, name, cat, t_s, 0.0, std::vector<TraceArg>(args)});
}

void TraceSink::counter(int tid, const char* name, double t_s, double value) {
  events_.push_back(Event{'C', tid, name, "counter", t_s, 0.0, {TraceArg{"value", value}}});
}

void TraceSink::set_track_name(int tid, std::string name) {
  track_names_[tid] = std::move(name);
}

void TraceSink::merge(const TraceSink& other, int tid_offset) {
  events_.reserve(events_.size() + other.events_.size());
  for (Event e : other.events_) {
    e.tid += tid_offset;
    events_.push_back(std::move(e));
  }
  for (const auto& [tid, name] : other.track_names_) {
    track_names_[tid + tid_offset] = name;
  }
}

void TraceSink::clear() {
  events_.clear();
  track_names_.clear();
}

std::string TraceSink::to_json(const WriteOptions& options) const {
  std::string out =
      "{\n\"displayTimeUnit\": \"ms\",\n\"metadata\": {\"tool\": \"scibench\", "
      "\"format_version\": 1";
  if (options.wallclock_metadata) {
    const auto unix_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::system_clock::now().time_since_epoch())
                             .count();
    out += ", \"captured_unix_ms\": " + std::to_string(unix_ms);
  }
  out += "},\n\"traceEvents\": [\n";

  // The process_name record always comes first, so every later record
  // starts with the separator.
  out += R"({"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":)";
  json::append_quoted(out, process_name_);
  out += "}}";
  for (const auto& [tid, name] : track_names_) {
    out += ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
    out += std::to_string(tid);
    out += R"(,"args":{"name":)";
    json::append_quoted(out, name);
    out += "}}";
  }

  for (const Event& e : events_) {
    out += ",\n{\"name\":";
    json::append_quoted(out, e.name);
    out += ",\"cat\":";
    json::append_quoted(out, e.cat);
    out += ",\"ph\":\"";
    out += e.phase;
    out += "\",\"pid\":1,\"tid\":";
    out += std::to_string(e.tid);
    out += ",\"ts\":";
    append_us(out, e.ts_s);
    if (e.phase == 'X') {
      out += ",\"dur\":";
      append_us(out, e.dur_s);
    }
    if (e.phase == 'i') out += ",\"s\":\"t\"";
    if (!e.args.empty() || e.phase == 'C') {
      out += ",\"args\":{";
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        if (i) out += ',';
        json::append_quoted(out, e.args[i].key);
        out += ':';
        out += json::dump_number(e.args[i].value);
      }
      out += '}';
    }
    out += '}';
  }
  out += "\n]\n}\n";
  return out;
}

void TraceSink::save(const std::string& path, const WriteOptions& options) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("TraceSink::save: cannot open " + path);
  os << to_json(options);
}

double host_now_s() noexcept {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration<double>(clock::now() - epoch).count();
}

}  // namespace sci::obs
