// Fail-slow detection + hedged-read failover for the serving engine.
//
// A fail-slow disk — one that still completes every I/O, just at a
// multiple of its peers' latency — is invisible to the fail-stop
// machinery but poisons the tail of every request that touches it. The
// mirrored-arrays survey's copy-aware scheduling is exactly the lever a
// mirror pair has against one: every element has a partner copy on
// another disk, so reads can simply go elsewhere.
//
// FailSlowDetector is the sensing half: a per-disk EWMA of observed
// service durations (the same signal the obs metrics cadence samples as
// "d<k>.util"), compared against the median EWMA of the disk's peers.
// A disk whose EWMA exceeds `flag_factor` x the peer median is flagged
// fail-slow; it recovers (hysteresis) once it drops back under
// `clear_factor` x the median. Purely deterministic: no randomness, no
// wall clock — two runs over the same durations flag identically.
//
// The serving engine (recon::run_online_reconstruction) consumes the
// flags two ways, both gated on HedgeConfig::enabled (default off —
// inert, bit-identical reports):
//
//  * copy-affinity routing — a read whose primary copy sits on a
//    flagged disk is issued to the partner copy instead;
//  * hedged reads — a read already queued to a flagged disk arms a
//    deadline (hedge_deadline_factor x the peer-median EWMA); if the
//    piece has not completed by then a duplicate is issued to the
//    partner copy and the first completion wins.
//
// With one replica array and affinity_routing on, no hedge fires: a
// read that still reaches a flagged disk does so because its only
// other copy is failed or flagged too, so there is no alternate to
// hedge to (both hedge cells of sma_chaos.csv report 0 hedged reads).
// With affinity_routing off, reads keep queueing to the flagged disk
// and hedges fire.
//
// Typed kFailSlow / kHedge trace events mark flag flips and hedge
// issues when an observer is attached. See docs/CHAOS.md.
#pragma once

#include <vector>

#include "util/status.hpp"

namespace sma::workload {

struct HedgeConfig {
  /// Master switch. Off (the default) is inert: the engine consults no
  /// flags, arms no deadlines, and reports stay bit-identical.
  bool enabled = false;

  // --- fail-slow detection -----------------------------------------------
  /// Observed service durations a disk must accumulate before it can be
  /// judged (and before it counts as a peer).
  int warmup_samples = 12;
  /// EWMA smoothing factor in (0, 1]: weight of the newest sample.
  double ewma_alpha = 0.2;
  /// Flag a disk when its EWMA exceeds flag_factor x the peer median.
  double flag_factor = 2.5;
  /// Clear the flag once the EWMA drops under clear_factor x the peer
  /// median (hysteresis; must be <= flag_factor).
  double clear_factor = 1.5;

  // --- hedging -------------------------------------------------------------
  /// Route reads away from flagged disks onto the partner copy.
  bool affinity_routing = true;
  /// Arm deadline-budgeted duplicate reads for pieces already queued to
  /// a flagged disk.
  bool hedge_reads = true;
  /// Hedge deadline as a multiple of the peer-median EWMA: the duplicate
  /// is issued only if the piece is still incomplete that long after it
  /// was queued.
  double hedge_deadline_factor = 4.0;
  /// Bound on concurrently armed hedges (budget against hedge storms).
  int max_outstanding_hedges = 4;
};

/// Field sanity for an enabled config; Ok for the inert default.
Status validate_hedge(const HedgeConfig& cfg);

/// Per-disk latency outlier tracker (see file comment). Deterministic.
class FailSlowDetector {
 public:
  FailSlowDetector(const HedgeConfig& cfg, int disks);

  /// Fold one observed service duration into `disk`'s EWMA and
  /// re-judge it. Returns +1 when the disk became flagged, -1 when it
  /// recovered, 0 otherwise.
  int observe(int disk, double service_s);

  bool slow(int disk) const {
    return flagged_[static_cast<std::size_t>(disk)] != 0;
  }
  double ewma(int disk) const {
    return ewma_[static_cast<std::size_t>(disk)];
  }
  /// Median EWMA over `disk`'s warmed-up peers; < 0 until at least two
  /// peers have warmed up (no judgement possible).
  double peer_median(int disk) const;
  /// Flag transitions to "slow" seen so far.
  int flag_events() const { return flag_events_; }

 private:
  HedgeConfig cfg_;
  std::vector<double> ewma_;
  std::vector<int> samples_;
  std::vector<char> flagged_;
  int flag_events_ = 0;
};

}  // namespace sma::workload
