#include "tracer.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace smabench {

namespace {

// Spans open on the calling thread, innermost last.
thread_local std::vector<int> t_open;

}  // namespace

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::begin_rep(int rep) {
  const std::lock_guard<std::mutex> lock(mu_);
  rep_ = rep;
}

int Tracer::thread_index() {
  const auto [it, inserted] = threads_.try_emplace(
      std::this_thread::get_id(), static_cast<int>(threads_.size()));
  return it->second;
}

int Tracer::open(const char* name, int parent) {
  if (parent == kInherit) parent = t_open.empty() ? -1 : t_open.back();
  const std::lock_guard<std::mutex> lock(mu_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, 0.0, 0.0, parent, rep_, thread_index()});
  t_open.push_back(id);
  spans_.back().start_s = now_s();
  return id;
}

void Tracer::close(int id) {
  const double t = now_s();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_s = t;
}

LayerTimes Tracer::layer_times(int rep) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::map<int, std::vector<int>> children;
  LayerTimes out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.rep != rep) continue;
    if (s.parent >= 0)
      children[s.parent].push_back(static_cast<int>(i));
    else
      out.wall_s += s.end_s - s.start_s;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.rep != rep) continue;
    // Children may run in parallel on other threads, so what they cover
    // is the union of their intervals, clipped to the parent's.
    std::vector<std::pair<double, double>> iv;
    if (const auto it = children.find(static_cast<int>(i));
        it != children.end()) {
      for (const int c : it->second) {
        const SpanRecord& k = spans_[static_cast<std::size_t>(c)];
        iv.emplace_back(std::max(k.start_s, s.start_s),
                        std::min(k.end_s, s.end_s));
      }
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double reach = s.start_s;
    for (const auto& [a, b] : iv) {
      const double from = std::max(a, reach);
      if (b > from) {
        covered += b - from;
        reach = b;
      }
    }
    const double dur = s.end_s - s.start_s;
    out.self_s[s.name] += dur - covered;
    out.total_s[s.name] += dur;
    ++out.spans[s.name];
  }
  return out;
}

std::string Tracer::chrome_json(const std::string& process_name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  double t0 = spans_.empty() ? 0.0 : spans_.front().start_s;
  for (const SpanRecord& s : spans_) t0 = std::min(t0, s.start_s);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[384];
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                "\"args\":{\"name\":\"%s\"}}",
                process_name.c_str());
  out += buf;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"rep\":%d}}",
                  s.name, s.tid, (s.start_s - t0) * 1e6,
                  (s.end_s - s.start_s) * 1e6, i, s.parent, s.rep);
    out += buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace smabench
