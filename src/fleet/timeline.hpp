// Fleet failure/repair timeline — concurrent-rebuild exposure over a
// long horizon.
//
// The serving simulation (fleet.hpp) measures what a rebuild does to
// request latency; this module measures how often rebuilds happen at
// all, and how often they overlap. Every array runs the lifetime
// machinery in miniature: failures arrive as a memoryless per-disk
// process, each failure drives a repair::Lifecycle (so transitions are
// policed and flow to obs as typed kStateChange events), and a failure
// landing mid-rebuild is fatal exactly when the lifecycle's
// recoverability oracle (recon::is_recoverable) says the array's
// actual failed set lost data — the paper's trade-off (the shifted
// arrangement has n times more fatal second disks but an n-times
// shorter window) carried to fleet scale.
//
// Each array holds one pending failure draw and one pending repair or
// restore completion, each stamped with a scheduling sequence number;
// a tournament tree over the arrays yields the earliest (time, seq), so
// same-instant events fire in the order they were scheduled and a
// redraw overwrites the pending draw instead of queueing a new event.
//
// Determinism: each array forks its RNG from (seed, array index), so
// the timeline is a pure function of the config regardless of event
// interleaving.
#pragma once

#include <cstdint>

#include "layout/architecture.hpp"
#include "obs/observer.hpp"
#include "util/status.hpp"

namespace sma::fleet {

struct TimelineConfig {
  /// Arrays in the fleet, all sharing one architecture.
  int arrays = 64;
  /// Simulated horizon, hours.
  double horizon_hours = 24.0 * 365.0;
  /// Per-disk exponential MTTF, hours.
  double disk_mttf_hours = 5.0e4;
  /// Rebuild duration after a failure (and restore duration after a
  /// data loss), hours. Measure it with the serving simulation and
  /// scale to production capacity.
  double repair_hours = 8.0;
  std::uint64_t seed = 2012;
  /// Correlated failure domains (enclosures / racks). Arrays
  /// k*domain_size .. (k+1)*domain_size-1 share a domain, and a
  /// member's per-disk failure hazard is multiplied by
  /// domain_hazard_factor while any *other* member of its domain holds
  /// an in-flight repair or restore — the
  /// repair::MonteCarloParams::enclosure_hazard_factor correlation
  /// carried from the MC estimator to the actual fleet timeline.
  /// Pending failure draws are redrawn (memorylessness makes that
  /// distribution-exact) whenever the domain's stress changes.
  /// domain_size 0 (or factor 1) = independent arrays, bit-identical
  /// to the pre-domain timeline. With domains on, the factor must be
  /// finite and >= 1.
  int domain_size = 0;
  double domain_hazard_factor = 1.0;
  /// Borrowed observer: per-array lifecycle transitions, fleet
  /// counters, and a "fleet.concurrent_rebuilds" timeline probe. The
  /// sampling clock advances to each event before it runs and ends at
  /// the latest instant ever drawn within the horizon, overwritten
  /// draws included.
  obs::Attach observer;
};

struct TimelineReport {
  int arrays = 0;
  double horizon_hours = 0.0;
  /// Disk failures that landed within the horizon.
  int failures = 0;
  /// Repairs that completed within the horizon.
  int repairs_completed = 0;
  /// Failures that left the array's failed set unrecoverable (the
  /// lifecycle's exact oracle); the array restores from backup
  /// afterwards.
  int data_loss_events = 0;
  /// Arrays simultaneously holding an in-flight repair/restore,
  /// integrated over the horizon.
  int max_concurrent_rebuilds = 0;
  double mean_concurrent_rebuilds = 0.0;
  /// Fraction of the horizon with >= 1 (resp. >= 2) rebuilds running.
  double frac_time_rebuilding = 0.0;
  double frac_time_ge2 = 0.0;
  /// Sum over arrays of hours spent with at least one disk down.
  double array_hours_degraded = 0.0;
  /// Lifecycle transitions recorded across all arrays.
  std::uint64_t transitions = 0;
  std::uint64_t digest = 0;
};

/// Run the failure/repair process for `cfg.arrays` copies of `arch`.
Result<TimelineReport> run_failure_timeline(const layout::Architecture& arch,
                                            const TimelineConfig& cfg);

}  // namespace sma::fleet
