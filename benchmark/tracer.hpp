// Span recorder for the benchmark's traced mode.
//
// The benchmark attributes host time to the simulator's layers from the
// outside: a traced rep calls each layer's public functions itself and
// wraps every call in a span (name, start, end, parent span, rep id).
// Spans stay in memory; layer_times() turns one rep's spans into per-name
// self time (duration minus the part of it that child spans cover), and
// chrome_json() writes them as Chrome trace_event JSON for Perfetto.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace smabench {

/// Host seconds on the steady clock.
double now_s();

struct SpanRecord {
  const char* name = "";  // a string literal: spans never own their name
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;
  int rep = 0;
  int tid = 0;
};

/// Host time of one traced rep, by span name.
struct LayerTimes {
  double wall_s = 0.0;  // the rep's root span
  std::map<std::string, double> self_s;
  std::map<std::string, double> total_s;
  std::map<std::string, std::uint64_t> spans;
};

class Tracer {
 public:
  /// Parent argument meaning "the innermost span open on this thread".
  static constexpr int kInherit = -2;

  /// Start a rep: spans opened from now on carry this rep id.
  void begin_rep(int rep);
  /// Open a span and return its id. Threads other than the one that
  /// opened the enclosing span must name their parent explicitly.
  int open(const char* name, int parent = kInherit);
  void close(int id);

  LayerTimes layer_times(int rep) const;
  /// Every recorded span as one Chrome trace_event JSON document.
  std::string chrome_json(const std::string& process_name) const;

 private:
  int thread_index();

  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::map<std::thread::id, int> threads_;
  int rep_ = 0;
};

/// RAII span.
class Span {
 public:
  Span(Tracer& tracer, const char* name, int parent = Tracer::kInherit)
      : tracer_(tracer), id_(tracer.open(name, parent)) {}
  ~Span() { tracer_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace smabench
