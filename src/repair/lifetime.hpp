// Monte-Carlo array-lifetime simulation: an MTTDL estimate that replays
// whole failure/repair histories.
//
// The closed forms of recon/reliability.hpp assume independent
// exponential failures and an always-available spare. This simulator
// replays lifetimes through the real repair machinery (the
// repair::Lifecycle state machine with the exact recoverability oracle)
// and so can also model what the closed forms cannot: spare-pool
// depletion and correlated failures within an enclosure.
#pragma once

#include <cstdint>
#include <vector>

#include "layout/architecture.hpp"
#include "repair/spare_pool.hpp"
#include "util/status.hpp"

namespace sma::repair {

struct MonteCarloParams {
  /// Per-disk exponential MTTF, hours.
  double disk_mttf_hours = 1.0e6;
  /// Exponential repair time, hours (measure with recon::reconstruct).
  double mttr_hours = 10.0;
  int trials = 1000;
  std::uint64_t seed = 1;
  /// Spare policy. The default (kNone) models an always-available
  /// immediate spare — exactly the closed forms' assumption, so MC and
  /// recon::estimate_mttdl() must agree in that limit.
  SpareConfig spare;
  /// Hours until a consumed spare unit is replaced. <= 0: consumed
  /// spares never return within a trial (pure depletion) — repairs
  /// stall once the pool empties.
  double spare_replenish_hours = 0.0;
  /// Per-physical-disk failure-domain id (enclosure / shelf); empty =
  /// fully independent failures.
  std::vector<int> enclosure_of;
  /// Failure-rate multiplier applied to a live disk while any disk of
  /// its enclosure is failed (shared fans / power / vibration). 1.0 is
  /// inert; it must be finite and >= 1.
  double enclosure_hazard_factor = 1.0;
};

struct MonteCarloReport {
  double mttdl_hours = 0.0;
  /// Standard error of the mean over trials.
  double stderr_hours = 0.0;
  int trials = 0;
  /// Failure events per trial until data loss, averaged.
  double mean_failures_to_loss = 0.0;
  /// Repairs that found the spare pool empty and had to wait.
  std::uint64_t spare_waits = 0;
  /// Lifecycle transitions recorded across all trials.
  std::uint64_t transitions = 0;

  double mttdl_years() const { return mttdl_hours / (24 * 365.25); }
};

/// Event-driven Monte-Carlo estimate of the MTTDL, the cross-check of
/// recon::estimate_mttdl.
Result<MonteCarloReport> simulate_mttdl(const layout::Architecture& arch,
                                        const MonteCarloParams& params);

}  // namespace sma::repair
