#include "obs/trace_read.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace sci::obs {
namespace {

bool is_recv_like(const ParsedEvent& e) { return e.name == "recv" || e.name == "irecv"; }
bool is_send_like(const ParsedEvent& e) { return e.name == "send" || e.name == "isend"; }

/// Adds one trace event to `trace`. The json::Value accessors throw
/// std::runtime_error on a missing key or a wrong type; so does every
/// check here.
void read_event(const json::Value& ev, ParsedTrace& trace) {
  const std::string& ph = ev.at("ph").as_string();
  const std::string& name = ev.at("name").as_string();
  const std::optional<int> tid = json::exact_int(ev.at("tid").as_number());
  if (!tid) throw std::runtime_error("'tid' must be an integer in int range");
  const json::Value* args = ev.find("args");

  if (ph == "M") {
    const json::Value* label = args == nullptr ? nullptr : args->find("name");
    if (label == nullptr) return;
    const std::string& text = label->as_string();
    if (name == "thread_name") trace.track_names[*tid] = text;
    if (name == "process_name") trace.process_name = text;
    return;
  }

  ParsedEvent out;
  out.phase = ph.empty() ? '?' : ph[0];
  out.tid = *tid;
  out.name = name;
  if (const json::Value* cat = ev.find("cat")) out.cat = cat->as_string();
  // as_number reads null as NaN; parsed numbers are always finite.
  out.ts_s = ev.at("ts").as_number() * 1e-6;
  if (std::isnan(out.ts_s)) throw std::runtime_error("'ts' must be a number");
  if (out.phase == 'X') {
    out.dur_s = ev.at("dur").as_number() * 1e-6;
    if (!(out.dur_s >= 0.0)) {
      throw std::runtime_error("'dur' must be a non-negative number");
    }
  }
  if (args != nullptr) {
    // Non-numeric args (strings from other producers) are skipped; a
    // null arg is a non-finite value and reads back as NaN.
    for (const auto& [key, value] : args->object) {
      if (value.type == json::Value::Type::kNumber || value.is_null()) {
        out.args[key] = value.as_number();
      }
    }
  }
  if (is_recv_like(out) && out.has_arg("src") && !json::exact_int(out.arg("src"))) {
    throw std::runtime_error("a recv's 'src' must be an integer rank in int range");
  }
  trace.events.push_back(std::move(out));
}

}  // namespace

ParsedTrace parse_trace(std::string_view text) {
  const json::Value root = json::parse(text);
  const json::Value* events = root.find("traceEvents");
  if (events == nullptr || events->type != json::Value::Type::kArray) {
    throw std::runtime_error(
        "trace JSON: top level must be an object with a traceEvents array");
  }
  ParsedTrace trace;
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    try {
      read_event(events->array[i], trace);
    } catch (const std::runtime_error& e) {
      throw std::runtime_error("trace JSON: event " + std::to_string(i) + ": " + e.what());
    }
  }
  return trace;
}

ParsedTrace load_trace(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("load_trace: cannot open " + path);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return parse_trace(buffer.str());
}

std::vector<int> ParsedTrace::rank_tracks() const {
  std::vector<std::pair<int, int>> ranked;  // (rank, tid)
  for (const auto& [tid, name] : track_names) {
    if (name.rfind("rank ", 0) != 0) continue;
    const char* const last = name.data() + name.size();
    int rank = 0;
    const auto [ptr, ec] = std::from_chars(name.data() + 5, last, rank);
    if (ec == std::errc{} && ptr == last) ranked.emplace_back(rank, tid);
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<int> tids;
  tids.reserve(ranked.size());
  for (const auto& [rank, tid] : ranked) tids.push_back(tid);
  return tids;
}

std::vector<RankBreakdown> per_rank_breakdown(const ParsedTrace& trace) {
  std::map<int, std::vector<const ParsedEvent*>> spans_by_tid;
  for (const ParsedEvent& e : trace.events) {
    if (e.phase == 'X') spans_by_tid[e.tid].push_back(&e);
  }

  std::vector<RankBreakdown> out;
  for (auto& [tid, spans] : spans_by_tid) {
    RankBreakdown b;
    b.tid = tid;
    const auto it = trace.track_names.find(tid);
    b.track = it != trace.track_names.end() ? it->second : "tid " + std::to_string(tid);

    std::map<std::string, double> totals;
    std::vector<std::pair<double, double>> intervals;
    for (const ParsedEvent* s : spans) {
      b.makespan_s = std::max(b.makespan_s, s->end_s());
      totals[s->name] += s->dur_s;
      intervals.emplace_back(s->ts_s, s->end_s());
    }
    // Busy = union of (possibly nested) span intervals.
    std::sort(intervals.begin(), intervals.end());
    double cover_end = -1.0;
    for (const auto& [lo, hi] : intervals) {
      if (lo > cover_end) {
        b.busy_s += hi - lo;
        cover_end = hi;
      } else if (hi > cover_end) {
        b.busy_s += hi - cover_end;
        cover_end = hi;
      }
    }
    b.idle_s = std::max(0.0, b.makespan_s - b.busy_s);

    b.by_name.assign(totals.begin(), totals.end());
    std::sort(b.by_name.begin(), b.by_name.end(), [](const auto& a, const auto& c) {
      return a.second != c.second ? a.second > c.second : a.first < c.first;
    });
    out.push_back(std::move(b));
  }
  return out;
}

std::vector<PathSegment> critical_path(const ParsedTrace& trace) {
  const std::vector<int> ranks = trace.rank_tracks();
  const std::set<int> rank_set(ranks.begin(), ranks.end());

  // Leaf spans only: point-to-point and compute. Collective wrapper
  // spans ("coll") nest the leaves and would shadow them.
  std::vector<const ParsedEvent*> leaves;
  for (const ParsedEvent& e : trace.events) {
    if (e.phase != 'X' || rank_set.count(e.tid) == 0) continue;
    if (e.cat == "p2p" || e.cat == "compute") leaves.push_back(&e);
  }
  if (leaves.empty()) {
    for (const ParsedEvent& e : trace.events) {
      if (e.phase == 'X' && rank_set.count(e.tid) != 0) leaves.push_back(&e);
    }
  }
  if (leaves.empty()) return {};

  const ParsedEvent* cur = *std::max_element(
      leaves.begin(), leaves.end(), [](const ParsedEvent* a, const ParsedEvent* b) {
        if (a->end_s() != b->end_s()) return a->end_s() < b->end_s();
        return a->ts_s < b->ts_s;  // prefer the later-starting (innermost) span
      });

  constexpr double kEps = 1e-12;
  std::vector<PathSegment> path;
  std::set<const ParsedEvent*> visited;
  while (cur != nullptr && visited.insert(cur).second) {
    path.push_back(PathSegment{cur->tid, cur->name, cur->ts_s, cur->end_s()});

    const ParsedEvent* next = nullptr;
    if (is_recv_like(*cur) && cur->has_arg("mseq")) {
      // The recv was unblocked by a message: hop to the matching send.
      const double mseq = cur->arg("mseq");
      for (const ParsedEvent* s : leaves) {
        if (is_send_like(*s) && s->has_arg("mseq") && s->arg("mseq") == mseq) {
          next = s;
          break;
        }
      }
    }
    if (next == nullptr) {
      // Previous blocking operation on the same track.
      for (const ParsedEvent* s : leaves) {
        if (s->tid != cur->tid || s == cur || s->end_s() > cur->ts_s + kEps) continue;
        if (next == nullptr || s->end_s() > next->end_s() ||
            (s->end_s() == next->end_s() && s->ts_s > next->ts_s)) {
          next = s;
        }
      }
    }
    cur = next;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<LateSender> late_senders(const ParsedTrace& trace) {
  std::map<int, LateSender> by_src;
  for (const ParsedEvent& e : trace.events) {
    if (e.phase != 'X' || !is_recv_like(e) || !e.has_arg("src")) continue;
    const double wait = e.arg("wait_s");
    if (!(wait > 0.0)) continue;  // also skips NaN, which would break the sort
    const std::optional<int> src = json::exact_int(e.arg("src"));
    if (!src) continue;
    LateSender& entry = by_src[*src];
    entry.src_rank = *src;
    entry.blocked_s += wait;
    ++entry.waits;
  }
  std::vector<LateSender> out;
  out.reserve(by_src.size());
  for (const auto& [src, entry] : by_src) out.push_back(entry);
  std::sort(out.begin(), out.end(), [](const LateSender& a, const LateSender& b) {
    return a.blocked_s != b.blocked_s ? a.blocked_s > b.blocked_s : a.src_rank < b.src_rank;
  });
  return out;
}

}  // namespace sci::obs
