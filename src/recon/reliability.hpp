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
//
// The Monte-Carlo lifetime estimate that cross-checks the closed forms,
// repair::simulate_mttdl, drives the repair machinery and so lives in
// sma_repair (repair/lifetime.hpp).
#pragma once

#include <vector>

#include "layout/architecture.hpp"

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

}  // namespace sma::recon
