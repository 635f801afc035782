#include "workload/degraded_read.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/units.hpp"

namespace sma::workload {

double DegradedReadReport::throughput_mbps() const {
  return ::sma::throughput_mbps(static_cast<double>(logical_bytes_read),
                                makespan_s);
}

Result<DegradedReadReport> run_degraded_reads(array::DiskArray& arr,
                                              const DegradedReadConfig& cfg) {
  const auto& arch = arr.arch();
  if (!arch.is_mirror())
    return invalid_argument("degraded read workload models mirror kinds");
  const auto failed = arr.failed_physical();
  if (static_cast<int>(failed.size()) > arch.replicas())
    return invalid_argument(
        "degraded read workload expects at most " +
        std::to_string(arch.replicas()) + " failed disk(s), one per replica "
        "array");
  const ArrivalConfig& acfg = cfg.arrival;
  const int read_count = acfg.max_requests;
  if (read_count < 0) return invalid_argument("negative read count");

  obs::Observer* const ob = cfg.observer.get();

  Rng rng(acfg.seed);
  DegradedReadReport report;
  std::vector<array::Op> ops;
  ops.reserve(static_cast<std::size_t>(read_count));
  // Reads routed to each physical disk so far: a redirected read takes
  // the least-assigned live replica (ties to the earlier array).
  std::vector<int> per_disk(static_cast<std::size_t>(arr.total_disks()), 0);
  const auto load = [&](int d) {
    return per_disk[static_cast<std::size_t>(d)];
  };

  for (int k = 0; k < read_count; ++k) {
    const int data_disk =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(arch.n())));
    const int stripe = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(arr.stripes())));
    const int row = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(arch.rows())));

    int logical = arch.data_disk(data_disk);
    int target_row = row;
    int phys = arr.physical_disk(logical, stripe);
    if (arr.physical(phys).failed()) {
      int best_phys = -1;
      for (int r = 1; r <= arch.replicas(); ++r) {
        const layout::Pos replica = arch.replica_of(r, data_disk, row);
        const int rep_phys = arr.physical_disk(replica.disk, stripe);
        if (arr.physical(rep_phys).failed()) continue;
        if (best_phys < 0 || load(rep_phys) < load(best_phys)) {
          best_phys = rep_phys;
          logical = replica.disk;
          target_row = replica.row;
        }
      }
      if (best_phys < 0) return unrecoverable("element lost every copy");
      phys = best_phys;
      ++report.degraded_reads;
    }
    ++per_disk[static_cast<std::size_t>(phys)];
    ops.push_back({logical, stripe, target_row, disk::IoKind::kRead});
    if (ob != nullptr) {
      // The batch model has no arrival process: all reads are pending
      // at t=0; the event records the disk each one resolved to.
      obs::TraceEvent ev;
      ev.kind = obs::EventKind::kRequestArrive;
      ev.t_s = 0.0;
      ev.request_id = k;
      ev.disk = phys;
      ob->emit(ev);
    }
  }
  if (ob != nullptr) {
    ob->count("workload.degraded_reads", report.degraded_reads);
    arr.set_observer(ob);
  }

  arr.reset_timelines();
  const auto stats = arr.execute(ops, 0.0);
  if (ob != nullptr) arr.set_observer(nullptr);
  report.makespan_s = stats.elapsed_s();
  report.logical_bytes_read = stats.logical_bytes_read;

  // Load imbalance over surviving disks.
  int total_ops = 0;
  int survivors = 0;
  for (int d = 0; d < arr.total_disks(); ++d) {
    if (arr.physical(d).failed()) continue;
    ++survivors;
    total_ops += per_disk[static_cast<std::size_t>(d)];
    report.hottest_disk_ops = std::max(report.hottest_disk_ops,
                                       per_disk[static_cast<std::size_t>(d)]);
  }
  const double mean =
      survivors > 0 ? static_cast<double>(total_ops) / survivors : 0.0;
  report.load_imbalance = mean > 0 ? report.hottest_disk_ops / mean : 0.0;
  return report;
}

}  // namespace sma::workload
