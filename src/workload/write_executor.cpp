#include "workload/write_executor.hpp"

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "ec/update_penalty.hpp"
#include "util/units.hpp"

namespace sma::workload {

double WriteRunReport::write_throughput_mbps() const {
  return throughput_mbps(static_cast<double>(user_bytes), makespan_s);
}

namespace {

/// Detach the observer from the array on every exit path.
struct ObsGuard {
  array::DiskArray* arr = nullptr;
  ~ObsGuard() {
    if (arr != nullptr) arr->set_observer(nullptr);
  }
};

}  // namespace

Result<WriteRunReport> run_write_workload(
    array::DiskArray& arr, const std::vector<WriteRequest>& requests,
    obs::Attach observer) {
  const auto& arch = arr.arch();
  const int n = arch.n();
  const int rows = arch.rows();
  const std::int64_t volume = data_element_count(arr);
  const std::uint64_t eb = arr.config().logical_element_bytes;

  // RAID-5/6: the parity cells each data element's update changes.
  ec::UpdatePenalty update;
  if (!arch.is_mirror()) {
    auto measured = ec::measure_update_penalty(*arr.raid_codec());
    if (!measured.is_ok()) return measured.status();
    update = std::move(measured).take();
  }

  arr.reset_timelines();
  WriteRunReport report;
  double clock = 0.0;

  obs::Observer* const ob = observer.get();
  ObsGuard obs_guard;
  if (ob != nullptr) {
    arr.set_observer(ob);
    obs_guard.arr = &arr;
  }

  int request_id = 0;
  std::vector<array::Op> reads;
  std::vector<array::Op> writes;
  std::vector<std::tuple<int, int, int>> parity;  // (stripe, column, row)
  for (const WriteRequest& req : requests) {
    if (req.start < 0 || req.length < 0 || req.start + req.length > volume)
      return invalid_argument(
          "write request of " + std::to_string(req.length) +
          " element(s) at " + std::to_string(req.start) +
          " runs outside the volume of " + std::to_string(volume) +
          " elements");
    reads.clear();
    writes.clear();
    parity.clear();
    std::int64_t idx = req.start;
    int remaining = req.length;

    while (remaining > 0) {
      const int per_stripe = rows * n;
      const int stripe = static_cast<int>(idx / per_stripe);
      const int within = static_cast<int>(idx % per_stripe);
      const int row = within / n;
      const int first_disk = within % n;
      const int len = std::min(n - first_disk, remaining);

      if (arch.is_mirror()) {
        // Data elements and their copies in every replica array for
        // this row segment.
        for (int i = first_disk; i < first_disk + len; ++i) {
          writes.push_back(
              {arch.data_disk(i), stripe, row, disk::IoKind::kWrite});
          for (int r = 1; r <= arch.replicas(); ++r) {
            const layout::Pos replica = arch.replica_of(r, i, row);
            writes.push_back({replica.disk, stripe, replica.row,
                              disk::IoKind::kWrite});
          }
        }
        if (arch.has_parity()) {
          if (len < n) {
            // Partial-row parity update: pick the cheaper of
            // read-modify-write (old targets + old parity) and
            // reconstruct-write (the row's untouched elements).
            const int rmw_reads = len + 1;
            const int reconstruct_reads = n - len;
            if (rmw_reads <= reconstruct_reads) {
              for (int i = first_disk; i < first_disk + len; ++i)
                reads.push_back({arch.data_disk(i), stripe, row,
                                 disk::IoKind::kRead});
              reads.push_back({arch.parity_disk(), stripe, row,
                               disk::IoKind::kRead});
            } else {
              for (int i = 0; i < n; ++i) {
                if (i >= first_disk && i < first_disk + len) continue;
                reads.push_back({arch.data_disk(i), stripe, row,
                                 disk::IoKind::kRead});
              }
            }
          }
          writes.push_back({arch.parity_disk(), stripe, row,
                            disk::IoKind::kWrite});
        }
      } else {
        // Read-modify-write of each data element; its parity cells are
        // gathered for the whole request.
        for (int i = first_disk; i < first_disk + len; ++i) {
          reads.push_back({arch.data_disk(i), stripe, row,
                           disk::IoKind::kRead});
          writes.push_back({arch.data_disk(i), stripe, row,
                            disk::IoKind::kWrite});
          const auto& cells = update.cells[static_cast<std::size_t>(i)]
                                          [static_cast<std::size_t>(row)];
          for (const ec::Cell& cell : cells)
            parity.emplace_back(stripe, cell.col, cell.row);
        }
      }
      report.user_bytes += static_cast<std::uint64_t>(len) * eb;
      ++report.rows_written;
      idx += len;
      remaining -= len;
    }

    // Each RAID parity cell the request touches is read and written
    // once, in (stripe, column, row) order.
    std::sort(parity.begin(), parity.end());
    parity.erase(std::unique(parity.begin(), parity.end()), parity.end());
    for (const auto& [stripe, col, prow] : parity) {
      reads.push_back({col, stripe, prow, disk::IoKind::kRead});
      writes.push_back({col, stripe, prow, disk::IoKind::kWrite});
    }

    if (ob != nullptr) {
      // Closed-loop model: the request "arrives" when the previous one
      // finished and the tester issues it.
      obs::TraceEvent ev;
      ev.kind = obs::EventKind::kRequestArrive;
      ev.t_s = clock;
      ev.request_id = request_id++;
      ev.write = true;
      ob->emit(ev);
      ob->count("workload.write_requests");
    }
    const auto read_stats = arr.execute(reads, clock);
    const auto write_stats = arr.execute(writes, read_stats.end_s);
    clock = write_stats.end_s;
    report.bytes_read += read_stats.logical_bytes_read;
    report.bytes_written += write_stats.logical_bytes_written;
    report.write_accesses +=
        static_cast<std::uint64_t>(write_stats.max_ops_per_disk);
  }
  report.makespan_s = clock;
  return report;
}

}  // namespace sma::workload
