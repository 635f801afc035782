// Per-stripe reconstruction read plans.
//
// A plan lists, for one stripe, the element reads required to recover
// every lost data/mirror element ("availability reads" — what Table I
// and Figs. 7/9 count), plus the extra reads needed to recompute a lost
// parity column (which the paper's availability metric excludes: a lost
// parity disk loses no user data).
//
// The number of read accesses of a plan is the maximum per-disk read
// count: under RAID parallel I/O every disk can deliver one element per
// synchronous access (paper Section III).
#pragma once

#include <vector>

#include "layout/architecture.hpp"
#include "util/status.hpp"

namespace sma::recon {

struct ElementRead {
  int logical_disk = 0;
  int row = 0;
  bool operator==(const ElementRead&) const = default;
  auto operator<=>(const ElementRead&) const = default;
};

/// The copy one lost cell is recovered from.
struct CellSource {
  int lost_disk = 0;
  int lost_row = 0;
  ElementRead from;
};

struct StripePlan {
  /// Deduplicated reads needed to recover lost data/mirror elements.
  std::vector<ElementRead> availability_reads;
  /// With R >= 2 replica arrays, the copy each lost cell is read from
  /// (failed-disk order, then row): the planner's least-loaded choice
  /// among its live copies. Empty at R = 1, where a lost cell has one
  /// live copy or the parity row.
  std::vector<CellSource> sources;
  /// Additional reads (beyond availability_reads) needed to recompute a
  /// lost parity column. Empty when no parity disk failed.
  std::vector<ElementRead> parity_rebuild_reads;

  /// Paper metric: max per-disk count over availability_reads.
  int read_accesses(const layout::Architecture& arch) const;
  /// Same metric with the parity-rebuild reads included.
  int total_read_accesses(const layout::Architecture& arch) const;
};

/// Build the reconstruction plan for a stripe of `arch` with the given
/// failed logical disks. Fails with kUnrecoverable when the failure set
/// exceeds the architecture's fault tolerance.
Result<StripePlan> plan_reconstruction(const layout::Architecture& arch,
                                       const std::vector<int>& failed);

}  // namespace sma::recon
