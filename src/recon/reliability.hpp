// Reliability analysis: from rebuild speed to mean time to data loss.
//
// The paper's availability argument has a reliability consequence it
// never spells out: faster reconstruction shrinks the window of
// vulnerability, but the shifted arrangement also *changes which*
// second (third) failure is fatal. In the traditional mirror only the
// failed disk's single partner is fatal; under the shifted arrangement
// every disk of the other array holds one replica of the failed disk,
// so any of them is fatal — n times more fatal candidates, against an
// n-times shorter window. This module makes that trade-off computable:
//
//  * an exact element-level recoverability oracle for arbitrary failed
//    sets (beyond the planner's fault-tolerance cutoff),
//  * enumerated fatal-pair / fatal-triple counts,
//  * the standard Markov-chain MTTDL closed forms parameterized by
//    those counts and a measured MTTR.
#pragma once

#include <cstdint>
#include <vector>

#include "layout/architecture.hpp"
#include "repair/spare_pool.hpp"
#include "util/status.hpp"

namespace sma::recon {

/// Exact recoverability of a mirror-architecture stripe under an
/// arbitrary failed-disk set: fixpoint over "element is available via
/// surviving copy, or via parity with the rest of its row available".
/// Entries outside [0, total_disks()) and repeats are ignored for every
/// kind (RAID-5/6 compare the distinct failed disks with the fault
/// tolerance).
///
/// Cost of one call: one allocation of total_disks() + n × rows bytes,
/// O(|failed|) to mark the failed disks, and one replica lookup per row
/// of each *failed data disk* only — a set with no failed data disk
/// costs no lookup. The parity closure (O(n × rows) per sweep) runs only
/// when an element is missing and the parity disk survives.
bool is_recoverable(const layout::Architecture& arch,
                    const std::vector<int>& failed);

struct FatalCounts {
  /// Average over first failures a of |{b : {a,b} loses data}|.
  double avg_fatal_second = 0.0;
  /// Average over surviving ordered pairs (a, b) with {a,b} recoverable
  /// of |{c : {a,b,c} loses data}|. Zero for fault tolerance 1.
  double avg_fatal_third = 0.0;
};

/// Enumerate fatal sets exactly (O(N^3) oracle calls).
FatalCounts count_fatal_sets(const layout::Architecture& arch);

struct MttdlParams {
  /// Per-disk mean time to failure, hours (paper cites the classic
  /// 1e6-hour spec-sheet figure and the FAST'07 skepticism about it).
  double disk_mttf_hours = 1.0e6;
  /// Mean time to repair one failed disk, hours (measure it with
  /// recon::reconstruct on the volume of interest).
  double mttr_hours = 10.0;
};

struct MttdlReport {
  FatalCounts fatal;
  double mttdl_hours = 0.0;
  double mttdl_years() const { return mttdl_hours / (24 * 365.25); }
};

/// Markov-chain MTTDL with enumerated fatal transition counts:
///   tolerance 1:  MTTF^2 / (N * k2 * MTTR)
///   tolerance 2:  MTTF^3 / (N * (N-1) * k3' * MTTR^2)
///   tolerance t:  MTTF^(t+1) / (N * ... * (N-t+1) * k_{t+1} * MTTR^t)
/// where k2 = avg fatal second disks and the standard all-survivors
/// second transition is corrected by the enumerated fatal fractions;
/// k_{t+1} (t >= 3, R >= 3 replica arrays) is enumerated the same way.
MttdlReport estimate_mttdl(const layout::Architecture& arch,
                           const MttdlParams& params);

// --- Monte-Carlo lifetime simulation -----------------------------------
//
// The closed forms above assume independent exponential failures and an
// always-available spare. The Monte-Carlo simulator replays whole
// failure/repair lifetimes through the real repair machinery (the
// repair::Lifecycle state machine with the exact recoverability oracle)
// and so can also model what the closed forms cannot: spare-pool
// depletion and correlated failures within an enclosure.

struct MonteCarloParams {
  /// Per-disk exponential MTTF, hours.
  double disk_mttf_hours = 1.0e6;
  /// Exponential repair time, hours (measure with recon::reconstruct).
  double mttr_hours = 10.0;
  int trials = 1000;
  std::uint64_t seed = 1;
  /// Spare policy. The default (kNone) models an always-available
  /// immediate spare — exactly the closed forms' assumption, so MC and
  /// estimate_mttdl() must agree in that limit.
  repair::SpareConfig spare;
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

/// Event-driven Monte-Carlo estimate of the MTTDL. Declared here beside
/// the closed forms it cross-checks; defined in src/repair/lifetime.cpp
/// (library sma_repair) because it drives repair::Lifecycle — keeping
/// the sma_recon -> sma_repair link DAG acyclic.
Result<MonteCarloReport> simulate_mttdl(const layout::Architecture& arch,
                                        const MonteCarloParams& params);

}  // namespace sma::recon
