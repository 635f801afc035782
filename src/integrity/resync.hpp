// Post-crash mirror resync driven by the dirty-region log.
//
// A power loss between the writes of an element's R + 1 copies (the
// data copy and one per replica array) leaves them silently divergent
// (the write hole). Resync closes the hole: re-read every copy of every
// element that *might* hold an interrupted write, arbitrate which copy
// survives, rewrite the others, and recompute the parity column of the
// affected rows. With a DirtyRegionLog only the
// regions whose write-intent bit survived the crash are suspect, so a
// partial-dirty workload resyncs a strict subset of what a full resync
// (or a whole-disk rebuild) would re-read — the cost bench_crash_resync
// quantifies for the shifted vs traditional arrangements.
//
// Arbitration order: the first copy (data copy, then replica arrays in
// order) whose out-of-band checksum matches its content wins; when none
// does, or the array keeps no checksums — the un-attributable
// write-hole case — the data copy wins, md's primary-copy rule. Parity
// is never used to arbitrate here: the crash may have interrupted the
// parity write of the same request, so post-crash parity is itself
// suspect and is recomputed from the reconciled data instead.
#pragma once

#include <cstdint>

#include "array/disk_array.hpp"
#include "obs/observer.hpp"
#include "util/status.hpp"

namespace sma::integrity {

struct ResyncOptions {
  /// Ignore the dirty-region log and resync every region — the cost a
  /// crash without a (trusted) write-intent log pays.
  bool full = false;
  /// Emits one kResync event per processed region and a kCorruption
  /// event per divergent element.
  obs::Attach observer;
};

struct ResyncReport {
  int regions_total = 0;
  /// Regions actually re-read (== regions_total for a full resync).
  int regions_scanned = 0;
  int stripes_scanned = 0;
  /// Timed element reads issued (every copy + parity).
  std::uint64_t elements_read = 0;
  /// Data elements whose copies were compared.
  std::uint64_t pairs_compared = 0;
  /// Elements whose copies disagreed (write holes found).
  std::uint64_t diverged = 0;
  /// Copies rewritten from the arbitration winner.
  std::uint64_t copies_rewritten = 0;
  /// Parity elements recomputed from reconciled data rows.
  std::uint64_t parity_rewritten = 0;
  /// Data elements skipped because a copy sits on a failed disk (the
  /// rebuild, not the resync, owns those elements).
  std::uint64_t pairs_skipped = 0;
  double makespan_s = 0.0;
  std::uint64_t logical_bytes_read = 0;
  std::uint64_t logical_bytes_written = 0;
};

/// Resync a mirror-architecture array (any replica count) after
/// power_cycle(). Processes dirty regions (all regions when `full` or
/// when the array has no DRL), clears each region's intent bit once
/// reconciled, and commits the surviving copy as authoritative —
/// checksums included, when the array keeps them. Elements with a copy
/// on a failed disk are skipped; rerun the rebuild for those.
/// kFailedPrecondition while the array is still powered off;
/// kInvalidArgument for non-mirror architectures.
Result<ResyncReport> resync(array::DiskArray& arr,
                            const ResyncOptions& opts = {});

}  // namespace sma::integrity
