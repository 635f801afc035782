// Repair orchestrator — drives the reconstruction executor through the
// full repair lifecycle of a DiskArray: lifecycle state tracking, spare
// allocation and placement, and checkpointed multi-round rebuilds.
//
// The executor rebuilds whatever is failed *now*, once; the
// orchestrator owns everything around that call:
//
//  * a Lifecycle fed from the array's failed set (admit_failures),
//  * a SparePool whose allocations become the SparePlacement the
//    executor redirects replacement writes through,
//  * a RebuildCheckpoint threaded across rounds, so a rebuild paused by
//    the stripe budget — or preempted by a second failure between
//    rounds — resumes from the watermark instead of restarting.
//
// Typical driver loop:
//   arr.fail_physical(d);
//   orch.admit_failures(t);            // lifecycle: healthy -> ...
//   while (!orch.done()) {
//     orch.run(t, 1);                  // one bounded rebuild round
//     ... inject more failures, admit_failures(t) ...
//   }
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "array/disk_array.hpp"
#include "integrity/resync.hpp"
#include "recon/executor.hpp"
#include "repair/checkpoint.hpp"
#include "repair/lifecycle.hpp"
#include "repair/spare_pool.hpp"
#include "util/status.hpp"

namespace sma::repair {

struct RepairConfig {
  SpareConfig spare;
  /// Thread a RebuildCheckpoint across rounds so interrupted rebuilds
  /// resume from the watermark. Off = every round restarts from scratch
  /// (the pre-orchestration behavior).
  bool checkpointing = false;
  /// Stripe budget per run() round; -1 = unbounded (a round finishes
  /// the rebuild). A bounded budget requires checkpointing.
  int stripes_per_round = -1;
  /// Base executor options (pipelined, verify, parity rebuild...); the
  /// orchestrator fills in checkpoint / max_stripes / spare_placement.
  recon::ReconOptions recon;
  /// Borrowed observer: lifecycle transitions, rebuild events, disk
  /// service spans.
  obs::Attach observer;
};

struct RepairReport {
  ArrayState final_state = ArrayState::kHealthy;
  /// Rebuild rounds executed (executor invocations that did work).
  int rounds = 0;
  std::uint64_t elements_read = 0;
  std::uint64_t elements_written = 0;
  /// Summed across rounds (each round times on fresh timelines).
  double read_makespan_s = 0.0;
  double total_makespan_s = 0.0;
  std::uint64_t unrecoverable_elements = 0;
  /// Spares consumed over the orchestrator's lifetime.
  int spares_used = 0;
  SparePolicy policy = SparePolicy::kNone;
  /// Full lifecycle history up to the report.
  std::vector<Transition> transitions;
};

class RepairOrchestrator {
 public:
  RepairOrchestrator(array::DiskArray& arr, RepairConfig cfg);

  /// Fold the array's current failed set into the lifecycle: every disk
  /// failed on the array but unknown to the lifecycle becomes an
  /// on_failure event at `t_s`. Call after every fail_physical() burst.
  Status admit_failures(double t_s);

  /// Fold a power-loss crash into the lifecycle (kInconsistent) and
  /// power the array back on. No-op when the array never crashed —
  /// symmetric with admit_failures. Call before resync()/run() after
  /// any workload that may have tripped the crash point.
  Status admit_crash(double t_s);

  /// Drive a post-crash resync through the lifecycle: on_resync_start,
  /// integrity::resync over the dirty regions (full when `full`), then
  /// on_resync_complete at the resync's end time. Requires an admitted
  /// crash (state kInconsistent / a crash-inconsistent degraded array).
  Result<integrity::ResyncReport> resync(double t_s, bool full = false);

  /// Run rebuild rounds until the array is healthy, data is lost, or
  /// `max_rounds` rounds have executed (-1 = until done). Each round
  /// allocates spares for newly admitted failures, invokes the executor
  /// (checkpoint-resumed when configured) and advances the lifecycle.
  /// A crash inside a round's writes stops the run with the array
  /// powered off and the disks still failed; resume with admit_crash(),
  /// resync() and run() again.
  /// The returned report accumulates over the orchestrator's lifetime.
  Result<RepairReport> run(double t_s = 0.0, int max_rounds = -1);

  /// Nothing left to do: array healthy or data lost.
  bool done() const {
    return lifecycle_.terminal() || arr_.failed_physical().empty();
  }

  const Lifecycle& lifecycle() const { return lifecycle_; }
  const RebuildCheckpoint& checkpoint() const { return ck_; }
  const SparePool& pool() const { return pool_; }
  const SparePlacement& placement() const { return placement_; }

 private:
  /// Allocate spares / recompute survivors for the current failed set.
  Status prepare_placement(double t_s, const std::vector<int>& failed);

  array::DiskArray& arr_;
  RepairConfig cfg_;
  Lifecycle lifecycle_;
  SparePool pool_;
  RebuildCheckpoint ck_;
  SparePlacement placement_;
  /// Failed disks that already consumed a spare unit this episode.
  std::set<int> allocated_;
  RepairReport report_;
};

}  // namespace sma::repair
