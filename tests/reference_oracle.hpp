// Reference copies kept for differential tests only.
//
// reference_is_recoverable: recon::is_recoverable as it stood before
// the flat-buffer rewrite (a nested vector<bool> grid and a replica
// lookup for every element), verbatim apart from its name and the
// replica-array argument of replica_of. recon_reliability_test.cpp and
// repair_test.cpp hold recon::is_recoverable, recon::count_fatal_sets
// and repair::classify to it over every registry layout.
//
// reference_plan: the greedy loop of the multi-mirror planner that
// served R replica arrays before recon::plan_reconstruction did,
// verbatim apart from its names and copy lookups going through
// layout::Architecture. three_mirror_test.cpp holds
// plan_reconstruction to it.
#pragma once

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "layout/architecture.hpp"
#include "layout/registry.hpp"
#include "util/status.hpp"

namespace sma::testref {

inline bool reference_is_recoverable(const layout::Architecture& arch,
                                     const std::vector<int>& failed) {
  if (failed.empty()) return true;
  if (!arch.is_mirror()) {
    // The RAID-5/6 comparators are MDS: recoverability is exactly the
    // erasure count.
    return static_cast<int>(failed.size()) <= arch.fault_tolerance();
  }

  auto is_failed = [&](int disk) {
    return std::find(failed.begin(), failed.end(), disk) != failed.end();
  };
  const int n = arch.n();
  const int rows = arch.rows();
  const bool parity_ok = arch.has_parity() && !is_failed(arch.parity_disk());

  // avail[i][j]: data element (i, j) is obtainable.
  std::vector<std::vector<bool>> avail(
      static_cast<std::size_t>(n),
      std::vector<bool>(static_cast<std::size_t>(rows), false));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < rows; ++j) {
      const bool data_ok = !is_failed(arch.data_disk(i));
      const bool mirror_ok = !is_failed(arch.replica_of(1, i, j).disk);
      avail[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          data_ok || mirror_ok;
    }
  }
  // Parity closure: a row with exactly one missing element recovers it.
  if (parity_ok) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (int j = 0; j < rows; ++j) {
        int missing = 0;
        int which = -1;
        for (int i = 0; i < n; ++i) {
          if (!avail[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]) {
            ++missing;
            which = i;
          }
        }
        if (missing == 1) {
          avail[static_cast<std::size_t>(which)][static_cast<std::size_t>(j)] =
              true;
          changed = true;
        }
      }
    }
  }
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < rows; ++j)
      if (!avail[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)])
        return false;
  return true;
}

/// One element read: (global disk, row) within a stripe.
struct ReferenceRead {
  int disk = 0;
  int row = 0;
  bool operator==(const ReferenceRead&) const = default;
  auto operator<=>(const ReferenceRead&) const = default;
};

/// Recovery source chosen for one lost element.
struct ReferenceRecovery {
  int lost_disk = 0;  // global index of the disk that lost the element
  int lost_row = 0;
  ReferenceRead from;  // where the surviving copy is read
};

struct ReferencePlan {
  std::vector<ReferenceRecovery> recoveries;
  /// Max per-disk read count (reads are deduplicated).
  int read_accesses = 0;
  std::vector<ReferenceRead> unique_reads;
};

/// Every location (data + all replicas) holding data element (i, j),
/// as global (disk, row) pairs; data copy first.
inline std::vector<layout::Pos> reference_copies_of(
    const layout::Architecture& arch, int i, int j) {
  std::vector<layout::Pos> out;
  out.push_back({arch.data_disk(i), j});
  for (int r = 1; r <= arch.replicas(); ++r)
    out.push_back(arch.replica_of(r, i, j));
  return out;
}

/// Greedy least-loaded reconstruction plan for a set of failed global
/// disks of a mirror architecture without parity. kUnrecoverable if any
/// element loses all R+1 copies.
inline Result<ReferencePlan> reference_plan(const layout::Architecture& arch,
                                            const std::vector<int>& failed) {
  for (std::size_t a = 0; a < failed.size(); ++a) {
    if (failed[a] < 0 || failed[a] >= arch.total_disks())
      return invalid_argument("failed disk out of range");
    for (std::size_t b = a + 1; b < failed.size(); ++b)
      if (failed[a] == failed[b])
        return invalid_argument("duplicate failed disk");
  }
  if (static_cast<int>(failed.size()) > arch.fault_tolerance())
    return unrecoverable(arch.name() + " cannot survive " +
                         std::to_string(failed.size()) + " failures");

  auto is_failed = [&](int disk) {
    return std::find(failed.begin(), failed.end(), disk) != failed.end();
  };

  // Enumerate lost elements (as data coordinates) per failed disk, then
  // pick, for each, the least-loaded surviving copy. Reads of the same
  // surviving cell are shared across the copies they feed.
  ReferencePlan out;
  std::vector<int> load(static_cast<std::size_t>(arch.total_disks()), 0);
  std::set<ReferenceRead> reads;

  for (const int disk : failed) {
    const int arr = arch.array_of(disk);
    for (int row = 0; row < arch.rows(); ++row) {
      // Which data element did this cell hold?
      layout::Pos src;  // (data disk, data row)
      if (arr == 0)
        src = {arch.role_index(disk), row};
      else
        src = arch.replicated_by(arr, arch.role_index(disk), row);

      // Candidate surviving copies.
      const auto copies = reference_copies_of(arch, src.disk, src.row);
      const layout::Pos* best = nullptr;
      for (const auto& copy : copies) {
        if (copy.disk == disk || is_failed(copy.disk)) continue;
        // Prefer a copy we already read (free), else least-loaded disk.
        const bool already = reads.count({copy.disk, copy.row}) > 0;
        if (already) {
          best = &copy;
          break;
        }
        if (best == nullptr ||
            load[static_cast<std::size_t>(copy.disk)] <
                load[static_cast<std::size_t>(best->disk)])
          best = &copy;
      }
      if (best == nullptr)
        return unrecoverable("element (" + std::to_string(src.disk) + "," +
                             std::to_string(src.row) +
                             ") lost every copy");
      const ReferenceRead read{best->disk, best->row};
      if (reads.insert(read).second)
        ++load[static_cast<std::size_t>(best->disk)];
      out.recoveries.push_back({disk, row, read});
    }
  }

  out.unique_reads.assign(reads.begin(), reads.end());
  out.read_accesses = *std::max_element(load.begin(), load.end());
  return out;
}

/// Every registry layout that builds for n = 2..6: the plain mirror,
/// and the mirror with parity where the layout supports a second
/// failure.
inline std::vector<layout::Architecture> differential_architectures() {
  std::vector<layout::Architecture> out;
  for (const std::string& name : layout::AlgorithmRegistry::global().names()) {
    for (int n = 2; n <= 6; ++n) {
      auto plain = layout::Architecture::mirror_named(n, name);
      if (plain.is_ok()) out.push_back(plain.value());
      auto parity = layout::Architecture::mirror_with_parity_named(n, name);
      if (parity.is_ok()) out.push_back(parity.value());
    }
  }
  return out;
}

/// Calls fn(failed) for every failed set the differential tests cover:
/// every subset of the disks when the array has at most 11, else every
/// subset of size <= 3; both in ascending disk order.
inline void for_each_failed_set(
    const layout::Architecture& arch,
    const std::function<void(const std::vector<int>&)>& fn) {
  const int total = arch.total_disks();
  std::vector<int> failed;
  if (total <= 11) {
    for (unsigned mask = 0; mask < (1u << total); ++mask) {
      failed.clear();
      for (int d = 0; d < total; ++d)
        if (mask & (1u << d)) failed.push_back(d);
      fn(failed);
    }
    return;
  }
  fn({});
  for (int a = 0; a < total; ++a) {
    fn({a});
    for (int b = a + 1; b < total; ++b) {
      fn({a, b});
      for (int c = b + 1; c < total; ++c) fn({a, b, c});
    }
  }
}

}  // namespace sma::testref
