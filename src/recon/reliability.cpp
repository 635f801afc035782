#include "recon/reliability.hpp"

#include <cassert>
#include <cstring>
#include <limits>
#include <vector>

namespace sma::recon {

bool is_recoverable(const layout::Architecture& arch,
                    const std::vector<int>& failed) {
  if (failed.empty()) return true;
  if (!arch.is_mirror()) {
    // The RAID-5/6 comparators are MDS: recoverability is exactly the
    // erasure count.
    return static_cast<int>(failed.size()) <= arch.fault_tolerance();
  }

  const int total = arch.total_disks();
  const int n = arch.n();
  const int rows = arch.rows();
  const auto at = [rows](int i, int j) {
    return static_cast<std::size_t>(i) * static_cast<std::size_t>(rows) +
           static_cast<std::size_t>(j);
  };
  // One buffer: down[d] marks a failed disk (entries outside the array
  // and repeats mark nothing new), then avail[at(i, j)]: data element
  // (i, j) is obtainable.
  std::vector<char> buf(static_cast<std::size_t>(total + n * rows), 0);
  char* const down = buf.data();
  char* const avail = down + total;
  for (const int d : failed)
    if (d >= 0 && d < total) down[d] = 1;

  // Only a failed data disk's elements can be missing, and only those
  // need their replica looked up.
  int missing = 0;
  for (int i = 0; i < n; ++i) {
    if (!down[arch.data_disk(i)]) {
      std::memset(avail + at(i, 0), 1, static_cast<std::size_t>(rows));
      continue;
    }
    for (int j = 0; j < rows; ++j) {
      const bool ok = !down[arch.replica_of(i, j).disk];
      avail[at(i, j)] = ok;
      if (!ok) ++missing;
    }
  }
  if (missing == 0) return true;
  if (!arch.has_parity() || down[arch.parity_disk()]) return false;

  // Parity closure: a row with exactly one missing element recovers it.
  bool changed = true;
  while (changed) {
    changed = false;
    for (int j = 0; j < rows; ++j) {
      int row_missing = 0;
      int which = -1;
      for (int i = 0; i < n; ++i) {
        if (!avail[at(i, j)]) {
          ++row_missing;
          which = i;
        }
      }
      if (row_missing == 1) {
        avail[at(which, j)] = 1;
        changed = true;
      }
    }
  }
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < rows; ++j)
      if (!avail[at(i, j)]) return false;
  return true;
}

FatalCounts count_fatal_sets(const layout::Architecture& arch) {
  const int total = arch.total_disks();
  FatalCounts out;

  long fatal_pairs_ordered = 0;
  for (int a = 0; a < total; ++a)
    for (int b = 0; b < total; ++b)
      if (b != a && !is_recoverable(arch, {a, b})) ++fatal_pairs_ordered;
  out.avg_fatal_second =
      static_cast<double>(fatal_pairs_ordered) / static_cast<double>(total);

  if (arch.fault_tolerance() >= 2) {
    long fatal_triples = 0;
    long surviving_pairs = 0;
    for (int a = 0; a < total; ++a) {
      for (int b = a + 1; b < total; ++b) {
        if (!is_recoverable(arch, {a, b})) continue;
        ++surviving_pairs;
        for (int c = 0; c < total; ++c) {
          if (c == a || c == b) continue;
          if (!is_recoverable(arch, {a, b, c})) ++fatal_triples;
        }
      }
    }
    if (surviving_pairs > 0)
      out.avg_fatal_third = static_cast<double>(fatal_triples) /
                            static_cast<double>(surviving_pairs);
  }
  return out;
}

MttdlReport estimate_mttdl(const layout::Architecture& arch,
                           const MttdlParams& params) {
  assert(params.disk_mttf_hours > 0);
  assert(params.mttr_hours > 0);
  MttdlReport report;
  report.fatal = count_fatal_sets(arch);

  const double mttf = params.disk_mttf_hours;
  const double mttr = params.mttr_hours;
  const double total = arch.total_disks();

  if (arch.fault_tolerance() <= 1) {
    const double k2 = report.fatal.avg_fatal_second;
    report.mttdl_hours = k2 > 0
                             ? mttf * mttf / (total * k2 * mttr)
                             : std::numeric_limits<double>::infinity();
    return report;
  }

  // Tolerance 2 (all single and double failures survivable): first
  // failure at rate N/MTTF; second at (N-1)/MTTF during the repair
  // window; from the doubly-degraded state, fatal third failures occur
  // at k3/MTTF against a 1/MTTR repair exit.
  const double k3 = report.fatal.avg_fatal_third;
  report.mttdl_hours =
      k3 > 0 ? mttf * mttf * mttf / (total * (total - 1) * k3 * mttr * mttr)
             : std::numeric_limits<double>::infinity();
  return report;
}

}  // namespace sma::recon
