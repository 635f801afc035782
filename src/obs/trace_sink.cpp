#include "obs/trace_sink.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <ostream>

namespace sma::obs {

namespace {

constexpr struct {
  EventKind kind;
  const char* name;
} kKindNames[] = {
    {EventKind::kRequestArrive, "request_arrive"},
    {EventKind::kQueueEnter, "queue_enter"},
    {EventKind::kQueueLeave, "queue_leave"},
    {EventKind::kServiceStart, "service_start"},
    {EventKind::kServiceEnd, "service_end"},
    {EventKind::kRebuildIssue, "rebuild_issue"},
    {EventKind::kRebuildComplete, "rebuild_complete"},
    {EventKind::kFailure, "failure"},
    {EventKind::kHeal, "heal"},
    {EventKind::kRetry, "retry"},
    {EventKind::kThrottle, "throttle"},
    {EventKind::kStateChange, "state_change"},
    {EventKind::kCrash, "crash"},
    {EventKind::kResync, "resync"},
    {EventKind::kCorruption, "corruption"},
    {EventKind::kFailSlow, "fail_slow"},
    {EventKind::kHedge, "hedge"},
};

/// Shortest-exact double literal: %.17g round-trips every finite IEEE
/// double through strtod, so parse_jsonl reconstructs bit-identical
/// timestamps.
std::string exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

const char* to_string(EventKind kind) {
  for (const auto& e : kKindNames)
    if (e.kind == kind) return e.name;
  return "unknown";
}

Result<EventKind> event_kind_from(std::string_view name) {
  for (const auto& e : kKindNames)
    if (name == e.name) return e.kind;
  return invalid_argument("unknown event kind: " + std::string(name));
}

std::size_t TraceSink::count(EventKind kind) const {
  return static_cast<std::size_t>(
      std::count_if(events_.begin(), events_.end(),
                    [kind](const TraceEvent& e) { return e.kind == kind; }));
}

Status TraceSink::write_jsonl(std::ostream& out) const {
  for (const TraceEvent& e : events_) {
    out << "{\"ev\":\"" << to_string(e.kind) << "\",\"t\":" << exact(e.t_s);
    if (e.dur_s != 0.0) out << ",\"dur\":" << exact(e.dur_s);
    if (e.disk >= 0) out << ",\"disk\":" << e.disk;
    if (e.stripe >= 0) out << ",\"stripe\":" << e.stripe;
    if (e.request_id >= 0) out << ",\"req\":" << e.request_id;
    if (e.slot >= 0) out << ",\"slot\":" << e.slot;
    if (e.rebuild) out << ",\"rebuild\":true";
    if (e.write) out << ",\"write\":true";
    if (e.state_from >= 0) out << ",\"sfrom\":" << e.state_from;
    if (e.state_to >= 0) out << ",\"sto\":" << e.state_to;
    out << "}\n";
  }
  if (!out) return io_error("trace JSONL write failed");
  return Status::ok();
}

Status TraceSink::write_jsonl_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return io_error("cannot open " + path);
  return write_jsonl(out);
}

namespace {

/// Minimal scanner for the flat one-line objects write_jsonl emits:
/// finds "key": and parses the literal after it. Not a general JSON
/// parser — exactly the grammar this sink writes.
bool find_field(const std::string& line, const char* key, std::string& out) {
  const std::string needle = std::string("\"") + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return false;
  std::size_t i = pos + needle.size();
  std::size_t end = i;
  if (i < line.size() && line[i] == '"') {
    end = line.find('"', i + 1);
    if (end == std::string::npos) return false;
    out = line.substr(i + 1, end - i - 1);
  } else {
    while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
    out = line.substr(i, end - i);
  }
  return true;
}

}  // namespace

Result<TraceSink> TraceSink::parse_jsonl(std::istream& in) {
  TraceSink sink;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    TraceEvent e;
    std::string field;
    if (!find_field(line, "ev", field))
      return invalid_argument("trace line " + std::to_string(lineno) +
                              ": missing \"ev\"");
    auto kind = event_kind_from(field);
    if (!kind.is_ok())
      return invalid_argument("trace line " + std::to_string(lineno) + ": " +
                              kind.status().message());
    e.kind = kind.value();
    if (!find_field(line, "t", field))
      return invalid_argument("trace line " + std::to_string(lineno) +
                              ": missing \"t\"");
    e.t_s = std::strtod(field.c_str(), nullptr);
    if (find_field(line, "dur", field))
      e.dur_s = std::strtod(field.c_str(), nullptr);
    if (find_field(line, "disk", field)) e.disk = std::atoi(field.c_str());
    if (find_field(line, "stripe", field)) e.stripe = std::atoi(field.c_str());
    if (find_field(line, "req", field)) e.request_id = std::atoi(field.c_str());
    if (find_field(line, "slot", field)) e.slot = std::atoll(field.c_str());
    e.rebuild = find_field(line, "rebuild", field) && field == "true";
    e.write = find_field(line, "write", field) && field == "true";
    if (find_field(line, "sfrom", field))
      e.state_from = std::atoi(field.c_str());
    if (find_field(line, "sto", field)) e.state_to = std::atoi(field.c_str());
    sink.record(e);
  }
  return sink;
}

Status TraceSink::write_chrome_trace(std::ostream& out) const {
  // Perfetto tolerates unsorted events, but sorted output diffs cleanly
  // and keeps B/E-free ("X"-only) tracks trivially well-formed.
  std::vector<const TraceEvent*> ordered;
  ordered.reserve(events_.size());
  for (const TraceEvent& e : events_) ordered.push_back(&e);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const TraceEvent* a, const TraceEvent* b) {
                     return a->t_s < b->t_s;
                   });

  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent* e : ordered) {
    if (e->kind == EventKind::kServiceEnd) continue;  // end of an "X" slice
    if (!first) out << ",";
    first = false;
    const long long ts = static_cast<long long>(e->t_s * 1e6);
    const int tid = e->disk >= 0 ? e->disk + 1 : 0;
    out << "\n{\"pid\":0,\"tid\":" << tid << ",\"ts\":" << ts;
    if (e->kind == EventKind::kServiceStart) {
      const long long dur = static_cast<long long>(e->dur_s * 1e6);
      out << ",\"ph\":\"X\",\"dur\":" << dur << ",\"name\":\""
          << (e->rebuild ? "rebuild " : "user ")
          << (e->write ? "write" : "read") << "\"";
    } else {
      out << ",\"ph\":\"i\",\"s\":\"t\",\"name\":\"" << to_string(e->kind)
          << "\"";
    }
    out << ",\"args\":{";
    bool farg = true;
    auto arg = [&](const char* k, long long v) {
      if (!farg) out << ",";
      farg = false;
      out << "\"" << k << "\":" << v;
    };
    if (e->slot >= 0) arg("slot", e->slot);
    if (e->stripe >= 0) arg("stripe", e->stripe);
    if (e->request_id >= 0) arg("req", e->request_id);
    if (e->state_from >= 0) arg("sfrom", e->state_from);
    if (e->state_to >= 0) arg("sto", e->state_to);
    out << "}}";
  }
  out << "\n]}\n";
  if (!out) return io_error("chrome trace write failed");
  return Status::ok();
}

Status TraceSink::write_chrome_trace_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return io_error("cannot open " + path);
  return write_chrome_trace(out);
}

}  // namespace sma::obs
