// Observer — the nullable handle instrumented code holds.
//
// An Observer bundles an optional TraceSink and an optional
// MetricsRegistry. Every instrumentation site in the stack is guarded
// by a null test on the Observer pointer (or on one of its members),
// so the disabled path — the default everywhere — costs one predictable
// branch and allocates nothing: all 35 committed bench CSVs are
// bit-identical with observation off, and the CI drift gate holds the
// simulators to that.
//
// Ownership: the experiment (bench binary, smactl, test) owns the sink
// and registry; layers only borrow the pointer for the duration of one
// run and must not retain it past the objects' lifetime. Experiments
// that register probes capturing their stack frame must clear_probes()
// before returning (recon::run_online_reconstruction does).
#pragma once

#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"

namespace sma::obs {

struct Observer {
  TraceSink* trace = nullptr;
  MetricsRegistry* metrics = nullptr;

  bool active() const { return trace != nullptr || metrics != nullptr; }

  /// Record one trace event (no-op without a sink).
  void emit(const TraceEvent& event) {
    if (trace != nullptr) trace->record(event);
  }
  /// Bump a named counter (no-op without a registry).
  void count(const char* name, std::uint64_t delta = 1) {
    if (metrics != nullptr) metrics->counter(name) += delta;
  }
  /// Drive the metrics sampling cadence (no-op without a registry).
  void advance_time(double now) {
    if (metrics != nullptr) metrics->advance_to(now);
  }
};

/// The one observability attachment point every run config exposes.
///
/// Semantics, identical across all configs that carry an Attach:
/// the observer is borrowed and caller-owned; the run instruments
/// itself only for the duration of the call and detaches on every
/// return path; probes registered by the run are cleared before
/// returning. Null (the default) is the zero-overhead path — one
/// predictable branch per site — and the run's report is bit-identical
/// either way. Assignable straight from an `Observer*`, so
/// `cfg.observer = &ob;` keeps working across the config surface.
struct Attach {
  Observer* observer = nullptr;

  Attach() = default;
  Attach(Observer* ob) : observer(ob) {}  // NOLINT(google-explicit-constructor)

  /// The observer iff set and active, else null — the single test every
  /// instrumented run uses to pick the enabled path.
  Observer* get() const {
    return observer != nullptr && observer->active() ? observer : nullptr;
  }
};

}  // namespace sma::obs
