// Rebuild scheduling policies for the QoS-aware serving engine.
//
// The online simulators serve two traffic classes on every disk queue:
// foreground user requests and background rebuild I/O. How aggressively
// the rebuild may use the array is the paper's real trade-off — rebuild
// completion time vs. user-perceived tail latency — and QosConfig makes
// it a pluggable policy:
//
//  * kStrictPriority — user requests first, rebuild whenever a disk
//    would otherwise idle, no cap. The historical behavior and the
//    inert default (bit-identical reports).
//  * kFixedBudget    — at most rebuild_budget rebuild I/Os in service
//    across the whole array at once (0 = unlimited). A fixed-rate cap:
//    with element service time s, the ceiling is budget / s IOPS.
//  * kAdaptive       — a feedback throttle. Every control_interval_s
//    the controller compares the window's foreground read p99 against
//    p99_target_s and adjusts the in-flight budget AIMD-style:
//    multiplicative decrease (halve) when the target is violated,
//    additive increase (+1) when p99 sits under raise_headroom × target
//    or no reads completed. The budget may reach 0 (rebuild fully
//    paused); arrivals eventually drain, windows come back under
//    target, and the budget climbs again — so the rebuild always
//    completes, just as late as the SLO demands.
//
// RebuildThrottle is the mechanism: recon::run_online_reconstruction
// gates rebuild dispatch through one instance, for every replica count.
#pragma once

#include <string_view>

#include "util/status.hpp"

namespace sma::workload {

enum class RebuildPolicy : std::uint8_t {
  kStrictPriority,
  kFixedBudget,
  kAdaptive,
};

/// Stable lowercase name ("strict", "fixed", "adaptive").
const char* to_string(RebuildPolicy policy);
/// Inverse of to_string; kInvalidArgument on unknown names.
Result<RebuildPolicy> rebuild_policy_from(std::string_view name);

struct QosConfig {
  RebuildPolicy policy = RebuildPolicy::kStrictPriority;
  /// kFixedBudget: the cap (0 = unlimited, i.e. strict behavior).
  /// kAdaptive: the starting budget (0 = start at the disk count).
  int rebuild_budget = 0;
  /// Foreground read latency target. Doubles as the SLO threshold for
  /// the reports' slo_violations accounting (0 = no SLO accounting)
  /// and as the kAdaptive controller setpoint.
  double p99_target_s = 0.0;
  /// kAdaptive: control-loop cadence in simulated seconds.
  double control_interval_s = 0.25;
  /// kAdaptive: raise the budget when the window p99 is below
  /// raise_headroom * p99_target_s; hold in between.
  double raise_headroom = 0.9;
  /// kAdaptive: floor for the budget (0 allows a full rebuild pause).
  int min_budget = 0;
};

/// In-flight rebuild I/O accounting plus the adaptive controller.
/// Deterministic: consumes no randomness.
class RebuildThrottle {
 public:
  /// `max_budget` is the structural ceiling — the array's disk count
  /// (more concurrent rebuild I/Os than disks cannot be in service).
  RebuildThrottle(const QosConfig& cfg, int max_budget);

  /// False only under kStrictPriority: no gating, no budget metric.
  bool enabled() const { return enabled_; }
  bool adaptive() const { return adaptive_; }

  /// May one more rebuild I/O enter service now?
  bool allow() const { return !enabled_ || inflight_ < budget_; }
  void on_issue() { ++inflight_; }
  /// A rebuild I/O left service (completed, abandoned, or requeued). A
  /// batched drain's run holds one slot, like a single I/O.
  void on_complete() {
    if (inflight_ > 0) --inflight_;
  }

  int budget() const { return budget_; }
  int inflight() const { return inflight_; }

  /// Adaptive tick. `window_p99` is the last window's foreground read
  /// p99, or < 0 when no reads completed. Returns budget delta
  /// (positive: raised — waiting rebuild work should be kicked).
  int control(double window_p99);

 private:
  bool enabled_ = false;
  bool adaptive_ = false;
  int budget_ = 0;
  int min_budget_ = 0;
  int max_budget_ = 0;
  int inflight_ = 0;
  double target_s_ = 0.0;
  double raise_below_s_ = 0.0;
};

}  // namespace sma::workload
