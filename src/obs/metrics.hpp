// MetricsRegistry — named counters plus cadence-sampled timelines for
// the discrete-event experiments.
//
// Counters are created on first use and live for the registry's
// lifetime. Timelines are built from *probes*: closures registered per
// column (e.g. "d3.util") that the registry evaluates every
// `sample_interval_s()` of simulated time, producing one row per tick.
// The simulation kernel drives the cadence by calling advance_to() as
// its clock moves, so sampling never schedules events and cannot
// perturb the simulated system it observes.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace sma::obs {

class MetricsRegistry {
 public:
  // --- counters (created on first use) --------------------------------
  std::uint64_t& counter(const std::string& name) { return counters_[name]; }
  const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }

  // --- cadence-sampled timelines ---------------------------------------
  /// Probe: current value of one timeline column. `now` is the sample
  /// time, `dt` the simulated time since the previous sample (the full
  /// interval, or `now` for the first tick) — windowed rates divide a
  /// cumulative delta by it. Probes may carry mutable state.
  using Probe = std::function<double(double now, double dt)>;

  /// Register a column; sampled in registration order.
  void add_probe(std::string column, Probe probe);
  /// Drop all probes (the closures may capture references into an
  /// experiment's stack frame — the experiment must clear them before
  /// returning). The recorded timeline and its column names are kept:
  /// columns() keeps describing the collected rows after the probes
  /// that produced them are gone.
  void clear_probes();
  std::size_t probe_count() const { return probes_.size(); }

  /// Sampling cadence in simulated seconds; 0 (the default) disables
  /// sampling entirely. Setting it (re)arms the next tick at t = 0.
  void set_sample_interval(double seconds);
  double sample_interval_s() const { return interval_s_; }

  /// Advance the sampling clock to `now`, evaluating every probe at
  /// each elapsed cadence boundary. No-op without probes or interval.
  void advance_to(double now);
  /// Take one unconditional sample row at `now` (e.g. a final sample at
  /// the end of a run, off-cadence).
  void sample_now(double now);

  struct TimelineRow {
    double t_s = 0.0;
    std::vector<double> values;  // one per column, registration order
  };
  /// Column names of the recorded timeline: a snapshot taken at the
  /// first sample (surviving clear_probes), or the live registration
  /// list before any row exists.
  const std::vector<std::string>& columns() const {
    return timeline_.empty() ? columns_ : timeline_columns_;
  }
  const std::vector<TimelineRow>& timeline() const { return timeline_; }
  void clear_timeline() {
    timeline_.clear();
    timeline_columns_.clear();
  }

  /// CSV with header "t_s,<col>,<col>,..."; false on I/O error.
  bool write_timeline_csv(const std::string& path) const;

 private:
  std::map<std::string, std::uint64_t> counters_;

  std::vector<std::string> columns_;
  std::vector<std::string> timeline_columns_;  // snapshot at first sample
  std::vector<Probe> probes_;
  std::vector<TimelineRow> timeline_;
  double interval_s_ = 0.0;
  double next_sample_s_ = 0.0;
  double last_sample_s_ = 0.0;
  bool sampled_once_ = false;
};

}  // namespace sma::obs
