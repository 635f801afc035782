#include "workload/arrival.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "obs/trace_sink.hpp"

namespace sma::workload {

namespace {

constexpr struct {
  ArrivalKind kind;
  const char* name;
} kKindNames[] = {
    {ArrivalKind::kPoisson, "poisson"},
    {ArrivalKind::kClosedLoop, "closed_loop"},
    {ArrivalKind::kBursty, "bursty"},
    {ArrivalKind::kTrace, "trace"},
};

class PoissonProcess final : public ArrivalProcess {
 public:
  explicit PoissonProcess(double rate_hz) : rate_hz_(rate_hz) {}
  // Exactly the pre-QoS draw (1.0 / rate passed to next_exponential),
  // so default configs replay the historical stream bit-identically.
  double next_delay(Rng& rng) override {
    return rng.next_exponential(1.0 / rate_hz_);
  }

 private:
  double rate_hz_;
};

class ClosedLoopProcess final : public ArrivalProcess {
 public:
  ClosedLoopProcess(int clients, double think_time_s)
      : clients_(clients), think_time_s_(think_time_s) {}
  double next_delay(Rng&) override { return -1.0; }
  bool closed_loop() const override { return true; }
  int clients() const override { return clients_; }
  double think_delay(Rng& rng) override {
    return think_time_s_ > 0.0 ? rng.next_exponential(think_time_s_) : 0.0;
  }

 private:
  int clients_;
  double think_time_s_;
};

/// 2-state MMPP: exponential holding time per state, Poisson arrivals
/// at the state's rate. The process keeps an absolute-time cursor —
/// valid because an open-loop process is only ever advanced by its own
/// returned delays.
class BurstyProcess final : public ArrivalProcess {
 public:
  BurstyProcess(double quiet_hz, double burst_hz, double mean_burst_s,
                double mean_idle_s)
      : quiet_hz_(quiet_hz),
        burst_hz_(burst_hz),
        mean_burst_s_(mean_burst_s),
        mean_idle_s_(mean_idle_s) {}

  double next_delay(Rng& rng) override {
    const double start = t_;
    for (;;) {
      if (!armed_) {
        state_end_ = t_ + rng.next_exponential(in_burst_ ? mean_burst_s_
                                                         : mean_idle_s_);
        armed_ = true;
      }
      const double dt =
          rng.next_exponential(1.0 / (in_burst_ ? burst_hz_ : quiet_hz_));
      if (t_ + dt <= state_end_) {
        t_ += dt;
        return t_ - start;
      }
      t_ = state_end_;  // no arrival before the state flips; keep going
      in_burst_ = !in_burst_;
      armed_ = false;
    }
  }

 private:
  double quiet_hz_;
  double burst_hz_;
  double mean_burst_s_;
  double mean_idle_s_;
  double t_ = 0.0;
  double state_end_ = 0.0;
  bool in_burst_ = false;
  bool armed_ = false;
};

class TraceProcess final : public ArrivalProcess {
 public:
  explicit TraceProcess(std::vector<TracePoint> trace)
      : trace_(std::move(trace)) {}
  double first_arrival_s() const override { return trace_.front().t_s; }
  double next_delay(Rng&) override {
    ++index_;
    if (index_ >= trace_.size()) return -1.0;
    return trace_[index_].t_s - trace_[index_ - 1].t_s;
  }
  int write_override() const override {
    return trace_[index_ < trace_.size() ? index_ : trace_.size() - 1].write
               ? 1
               : 0;
  }

 private:
  std::vector<TracePoint> trace_;
  std::size_t index_ = 0;
};

std::string exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

const char* to_string(ArrivalKind kind) {
  for (const auto& e : kKindNames)
    if (e.kind == kind) return e.name;
  return "unknown";
}

Result<ArrivalKind> arrival_kind_from(std::string_view name) {
  for (const auto& e : kKindNames)
    if (name == e.name) return e.kind;
  return invalid_argument("unknown arrival kind: " + std::string(name));
}

Result<std::unique_ptr<ArrivalProcess>> make_arrival_process(
    const ArrivalConfig& cfg) {
  // Every rate and mean feeds Rng::next_exponential, which asserts on a
  // mean that is not > 0: NaN passes a `<= 0` test and 1 / inf is 0.
  const auto positive = [](double v) { return std::isfinite(v) && v > 0; };
  if (cfg.max_requests < 0)
    return invalid_argument("arrival: max_requests must be >= 0");
  switch (cfg.kind) {
    case ArrivalKind::kPoisson:
      if (!positive(cfg.rate_hz))
        return invalid_argument(
            "arrival: poisson rate_hz must be finite and > 0");
      return std::unique_ptr<ArrivalProcess>(new PoissonProcess(cfg.rate_hz));
    case ArrivalKind::kClosedLoop:
      if (cfg.clients <= 0 ||
          !(std::isfinite(cfg.think_time_s) && cfg.think_time_s >= 0))
        return invalid_argument(
            "arrival: closed loop needs clients > 0 and a finite "
            "think_time_s >= 0");
      return std::unique_ptr<ArrivalProcess>(
          new ClosedLoopProcess(cfg.clients, cfg.think_time_s));
    case ArrivalKind::kBursty:
      if (!positive(cfg.rate_hz) || !positive(cfg.burst_rate_hz) ||
          !positive(cfg.mean_burst_s) || !positive(cfg.mean_idle_s))
        return invalid_argument(
            "arrival: bursty needs finite positive rates and holding times");
      return std::unique_ptr<ArrivalProcess>(new BurstyProcess(
          cfg.rate_hz, cfg.burst_rate_hz, cfg.mean_burst_s, cfg.mean_idle_s));
    case ArrivalKind::kTrace: {
      if (cfg.trace.empty())
        return invalid_argument("arrival: trace replay needs a trace");
      for (std::size_t i = 0; i < cfg.trace.size(); ++i) {
        const double t = cfg.trace[i].t_s;
        if (!(std::isfinite(t) && t >= 0) ||
            (i > 0 && t < cfg.trace[i - 1].t_s))
          return invalid_argument(
              "arrival: trace instants must be finite, non-negative and "
              "non-decreasing");
      }
      return std::unique_ptr<ArrivalProcess>(new TraceProcess(cfg.trace));
    }
  }
  return invalid_argument("arrival: unknown kind");
}

Status write_arrival_trace_csv(const std::string& path,
                               const std::vector<TracePoint>& points) {
  std::ofstream out(path);
  if (!out) return io_error("cannot open " + path);
  out << "t_s,write\n";
  for (const TracePoint& p : points)
    out << exact(p.t_s) << "," << (p.write ? 1 : 0) << "\n";
  if (!out) return io_error("arrival trace write failed: " + path);
  return Status::ok();
}

Result<std::vector<TracePoint>> load_arrival_trace_csv(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return io_error("cannot open " + path);
  std::vector<TracePoint> out;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    // A trace saved with CRLF line ends loads as one saved with LF.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (lineno == 1 && line.rfind("t_s", 0) == 0) continue;  // header
    const auto comma = line.find(',');
    if (comma == std::string::npos)
      return invalid_argument("arrival trace line " + std::to_string(lineno) +
                              ": expected \"t_s,write\"");
    TracePoint p;
    const std::string instant = line.substr(0, comma);
    char* end = nullptr;
    p.t_s = std::strtod(instant.c_str(), &end);
    if (instant.empty() || end != instant.c_str() + instant.size() ||
        !std::isfinite(p.t_s))
      return invalid_argument("arrival trace line " + std::to_string(lineno) +
                              ": instant \"" + instant +
                              "\" is not a finite number");
    const std::string flag = line.substr(comma + 1);
    if (flag != "0" && flag != "1")
      return invalid_argument("arrival trace line " + std::to_string(lineno) +
                              ": write flag \"" + flag + "\" is not 0 or 1");
    p.write = flag == "1";
    out.push_back(p);
  }
  if (out.empty())
    return invalid_argument("arrival trace " + path + " holds no points");
  return out;
}

std::vector<TracePoint> arrival_trace_from_events(
    const std::vector<obs::TraceEvent>& events) {
  std::vector<TracePoint> out;
  for (const obs::TraceEvent& e : events)
    if (e.kind == obs::EventKind::kRequestArrive)
      out.push_back({e.t_s, e.write});
  return out;
}

}  // namespace sma::workload
