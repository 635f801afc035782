// Reference copy of the recoverability oracle, kept for differential
// tests only: recon::is_recoverable as it stood before the flat-buffer
// rewrite (a nested vector<bool> grid and a replica lookup for every
// element), verbatim apart from its name. recon_reliability_test.cpp
// and repair_test.cpp hold recon::is_recoverable, recon::count_fatal_sets
// and repair::classify to it over every registry layout.
#pragma once

#include <algorithm>
#include <functional>
#include <vector>

#include "layout/architecture.hpp"
#include "layout/registry.hpp"

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
      const bool mirror_ok = !is_failed(arch.replica_of(i, j).disk);
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
