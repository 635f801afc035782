// Arrival processes for the QoS-aware serving engine.
//
// Every online experiment drives user requests from a
// workload::ArrivalProcess built out of a workload::ArrivalConfig — the
// one shared description of "how requests arrive" that OnlineConfig,
// DegradedReadConfig and WriteWorkloadConfig all compose by value.
// Four kinds:
//
//  * kPoisson     — open-loop memoryless arrivals at rate_hz. The
//                   default, bit-identical to the pre-QoS hardwired
//                   Poisson stream (same RNG draws in the same order).
//  * kClosedLoop  — `clients` concurrent users, each issuing one
//                   request, waiting for its completion, thinking an
//                   exponential think_time_s, then issuing the next.
//                   Arrival rate self-regulates with latency.
//  * kBursty      — 2-state Markov-modulated Poisson process: quiet
//                   periods at rate_hz alternate with bursts at
//                   burst_rate_hz; exponential state holding times.
//  * kTrace       — replay recorded arrival instants (and read/write
//                   flags) from a TracePoint vector, typically loaded
//                   from CSV or lifted from a TraceSink event stream.
//
// Determinism: processes draw only from the caller-seeded Rng, so equal
// seeds give bit-identical request streams (covered by tests).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.hpp"
#include "util/status.hpp"

namespace sma::obs {
struct TraceEvent;
}  // namespace sma::obs

namespace sma::workload {

enum class ArrivalKind : std::uint8_t {
  kPoisson,
  kClosedLoop,
  kBursty,
  kTrace,
};

/// Stable lowercase name ("poisson", "closed_loop", "bursty", "trace").
const char* to_string(ArrivalKind kind);
/// Inverse of to_string; kInvalidArgument on unknown names.
Result<ArrivalKind> arrival_kind_from(std::string_view name);

/// One recorded arrival: absolute simulated instant plus the request's
/// read/write class. The replay currency of TraceSink exports and the
/// arrival-trace CSV schema (see docs/SERVING.md).
struct TracePoint {
  double t_s = 0.0;
  bool write = false;
};

/// The shared arrival surface composed by every workload config.
/// Batch workloads (degraded reads, write generation) use only
/// max_requests and seed; the online simulators honor all fields.
struct ArrivalConfig {
  ArrivalKind kind = ArrivalKind::kPoisson;
  /// Open-loop mean arrival rate (kPoisson; kBursty quiet-state rate).
  double rate_hz = 40.0;
  /// Stop injecting requests after this many (in-flight work drains).
  /// Injection cutoff only: see the requests_issued / requests_completed
  /// pair in the online reports for the accounting semantics.
  int max_requests = 500;
  std::uint64_t seed = 7;

  // --- kClosedLoop ----------------------------------------------------
  int clients = 4;
  double think_time_s = 0.05;  // exponential mean between completion/issue

  // --- kBursty (MMPP-2) -----------------------------------------------
  double burst_rate_hz = 200.0;
  double mean_burst_s = 0.5;
  double mean_idle_s = 2.0;

  // --- kTrace ---------------------------------------------------------
  /// Arrival instants, non-decreasing. max_requests still caps replay.
  std::vector<TracePoint> trace;

  /// Convenience maker for configs whose historical defaults differ
  /// from the shared ones (count + seed, everything else default).
  static ArrivalConfig with(int max_requests, std::uint64_t seed) {
    ArrivalConfig cfg;
    cfg.max_requests = max_requests;
    cfg.seed = seed;
    return cfg;
  }
};

/// Read/write composition of the injected stream. Trace replay points
/// carry their own flag and bypass the mix.
struct MixConfig {
  /// Fraction of requests that are writes, in [0, 1].
  double write_fraction = 0.0;
};

/// A stateful injection schedule, driven by the simulator:
///
///   sim.schedule_at(proc->first_arrival_s(), arrive)   // open loop
///   // ... inject, then:
///   double d = proc->next_delay(rng);                  // < 0: done
///
/// Closed-loop processes return closed_loop() == true; the simulator
/// schedules clients() initial arrivals at t = 0 and re-arms one
/// arrival per request completion after think_delay().
class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;

  /// Absolute simulated time of the first injection.
  virtual double first_arrival_s() const { return 0.0; }
  /// Open-loop: delay from the current injection to the next, or < 0
  /// when the process injects no further requests (exhausted trace,
  /// closed-loop processes always).
  virtual double next_delay(Rng& rng) = 0;

  virtual bool closed_loop() const { return false; }
  virtual int clients() const { return 0; }
  /// Closed-loop think time before the completing client re-issues.
  virtual double think_delay(Rng& /*rng*/) { return 0.0; }

  /// Tri-state read/write override for the request being injected:
  /// -1 = draw from MixConfig (default), 0 = forced read, 1 = forced
  /// write (trace replay knows what each request was).
  virtual int write_override() const { return -1; }
};

/// Build the process described by `cfg`; kInvalidArgument on bad
/// parameters (non-positive rates, empty or decreasing trace, ...).
Result<std::unique_ptr<ArrivalProcess>> make_arrival_process(
    const ArrivalConfig& cfg);

// --- arrival-trace exchange -------------------------------------------

/// CSV schema "t_s,write" with %.17g instants (lossless round-trip).
Status write_arrival_trace_csv(const std::string& path,
                               const std::vector<TracePoint>& points);
Result<std::vector<TracePoint>> load_arrival_trace_csv(
    const std::string& path);

/// Lift the arrival trace out of a recorded event stream: one
/// TracePoint per kRequestArrive event, in record order.
std::vector<TracePoint> arrival_trace_from_events(
    const std::vector<obs::TraceEvent>& events);

}  // namespace sma::workload
