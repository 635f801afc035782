#include "recon/reliability.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <functional>
#include <limits>
#include <vector>

namespace sma::recon {

bool is_recoverable(const layout::Architecture& arch,
                    const std::vector<int>& failed) {
  if (failed.empty()) return true;

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
  int erasures = 0;
  for (const int d : failed)
    if (d >= 0 && d < total && !down[d]) {
      down[d] = 1;
      ++erasures;
    }
  // The RAID-5/6 comparators are MDS: recoverability is exactly the
  // erasure count.
  if (!arch.is_mirror()) return erasures <= arch.fault_tolerance();

  // Only a failed data disk's elements can be missing, and only those
  // need their replicas looked up.
  int missing = 0;
  for (int i = 0; i < n; ++i) {
    if (!down[arch.data_disk(i)]) {
      std::memset(avail + at(i, 0), 1, static_cast<std::size_t>(rows));
      continue;
    }
    for (int j = 0; j < rows; ++j) {
      bool ok = false;
      for (int r = 1; r <= arch.replicas() && !ok; ++r)
        ok = !down[arch.replica_of(r, i, j).disk];
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

namespace {

/// Over the recoverable `size`-sets of failed disks, the mean number of
/// disks whose failure next loses data (k_{size+1} of the Markov chain).
double avg_fatal_next(const layout::Architecture& arch, int size) {
  const int total = arch.total_disks();
  std::vector<int> set;
  long fatal = 0;
  long surviving = 0;
  std::function<void(int)> visit = [&](int from) {
    if (static_cast<int>(set.size()) < size) {
      for (int d = from; d < total; ++d) {
        set.push_back(d);
        visit(d + 1);
        set.pop_back();
      }
      return;
    }
    if (!is_recoverable(arch, set)) return;
    ++surviving;
    std::vector<int> next = set;
    next.push_back(-1);
    for (int c = 0; c < total; ++c) {
      if (std::find(set.begin(), set.end(), c) != set.end()) continue;
      next.back() = c;
      if (!is_recoverable(arch, next)) ++fatal;
    }
  };
  visit(0);
  return surviving > 0
             ? static_cast<double>(fatal) / static_cast<double>(surviving)
             : 0.0;
}

}  // namespace

FatalCounts count_fatal_sets(const layout::Architecture& arch) {
  FatalCounts out;
  out.avg_fatal_second = avg_fatal_next(arch, 1);
  if (arch.fault_tolerance() >= 2)
    out.avg_fatal_third = avg_fatal_next(arch, 2);
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
  if (arch.fault_tolerance() == 2) {
    const double k3 = report.fatal.avg_fatal_third;
    report.mttdl_hours =
        k3 > 0 ? mttf * mttf * mttf / (total * (total - 1) * k3 * mttr * mttr)
               : std::numeric_limits<double>::infinity();
    return report;
  }

  // Tolerance t >= 3 (R >= 3 replica arrays): the same chain one
  // degraded level deeper per extra tolerated failure,
  //   MTTF^(t+1) / (N (N-1) ... (N-t+1) * k_{t+1} * MTTR^t).
  const int t = arch.fault_tolerance();
  const double k = avg_fatal_next(arch, t);
  double num = mttf;
  double den = k;
  for (int level = 0; level < t; ++level) {
    num *= mttf;
    den *= (total - level) * mttr;
  }
  report.mttdl_hours =
      k > 0 ? num / den : std::numeric_limits<double>::infinity();
  return report;
}

}  // namespace sma::recon
