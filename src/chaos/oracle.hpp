// Fleet-wide invariant oracle: the checks the chaos engine runs after
// every scenario step.
//
// Each check is a pure predicate over observable state and returns a
// Status — never an assert, never silent. A violation is kInternal and
// its message embeds the scenario-replay pair (seed + canonical spec);
// the engine stamps its other errors with the same pair
// (replay_stamped), so any soak failure reproduces with
//   smactl chaos --seed=<seed> --scenario='<spec>'
//
// The invariants, stated once (see docs/CHAOS.md for discussion):
//  * durability — no acknowledged write is lost unless the exact
//    recoverability oracle (recon::is_recoverable) says the failed set
//    is unrecoverable: on a recoverable array, mirror/parity internal
//    consistency and the out-of-band checksum store must both verify
//    after resync / scrub / rebuild;
//  * crash hygiene — after a completed resync no dirty region remains
//    in the write-intent log;
//  * lifecycle legality — repair::Lifecycle history is contiguous
//    (each transition leaves the state the previous one entered),
//    time-ordered, and nothing follows the terminal kDataLoss;
//  * spare accounting — spares consumed equal repairs started, and the
//    pool's availability stays within its configured capacity.
#pragma once

#include <cstdint>
#include <string>

#include "array/disk_array.hpp"
#include "repair/lifecycle.hpp"
#include "repair/spare_pool.hpp"
#include "util/status.hpp"

namespace sma::chaos {

/// Replay coordinates threaded through every check so a violation can
/// name the exact run that produced it.
struct OracleContext {
  std::uint64_t seed = 0;
  std::string spec;
  const char* phase = "";
};

/// Build the canonical violation Status (kInternal, replay-stamped).
Status oracle_violation(const OracleContext& ctx, const std::string& what);

/// Stamp a failure that is not an oracle violation — an engine or phase
/// error, e.g. a step naming a disk beyond the array — with the phase
/// and the replay pair, keeping its code. Already-stamped Statuses (the
/// oracle's own) pass through unchanged, so every failing scenario
/// carries exactly one replay pair.
Status replay_stamped(const OracleContext& ctx, const Status& error);

/// Durability: when the current failed set is recoverable, the array
/// must be internally consistent (mirror cells match their data source,
/// parity rows re-encode) and — when the array keeps checksums — the
/// checksum store must match every live element's content. When the
/// failed set is unrecoverable the check passes trivially: loss is the
/// oracle-sanctioned outcome, and the lifecycle check enforces that it
/// was declared.
Status check_durability(const array::DiskArray& arr, const OracleContext& ctx);

/// Crash hygiene: the dirty-region log holds no dirty region (resync
/// completed and cleared every write-intent bit it reconciled).
Status check_resync_clean(const array::DiskArray& arr,
                          const OracleContext& ctx);

/// Lifecycle legality over the recorded history, plus: the current
/// state is kDataLoss if and only if the lifecycle's failed set is
/// unrecoverable per recon::is_recoverable.
Status check_lifecycle(const repair::Lifecycle& lc,
                       const layout::Architecture& arch,
                       const OracleContext& ctx);

/// Spare accounting: `repairs_started` units were consumed in total,
/// and availability lies in [0, capacity].
Status check_spares(const repair::SparePool& pool, int repairs_started,
                    const OracleContext& ctx);

}  // namespace sma::chaos
