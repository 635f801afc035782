#include "workload/write_executor.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

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

WriteRunReport run_write_workload(array::DiskArray& arr,
                                  const std::vector<WriteRequest>& requests,
                                  obs::Attach observer) {
  const auto& arch = arr.arch();
  assert(arch.is_mirror() && "write executor models the mirror methods");
  const int n = arch.n();
  const int rows = arch.rows();
  const std::uint64_t eb = arr.config().logical_element_bytes;

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
  for (const WriteRequest& req : requests) {
    reads.clear();
    writes.clear();
    std::int64_t idx = req.start;
    int remaining = req.length;
    assert(idx >= 0 && idx + remaining <= data_element_count(arr));

    while (remaining > 0) {
      const int per_stripe = rows * n;
      const int stripe = static_cast<int>(idx / per_stripe);
      const int within = static_cast<int>(idx % per_stripe);
      const int row = within / n;
      const int first_disk = within % n;
      const int len = std::min(n - first_disk, remaining);

      // Data elements and their copies in every replica array for this
      // row segment.
      for (int i = first_disk; i < first_disk + len; ++i) {
        writes.push_back(
            {arch.data_disk(i), stripe, row, disk::IoKind::kWrite});
        for (int r = 1; r <= arch.replicas(); ++r) {
          const layout::Pos replica = arch.replica_of(r, i, row);
          writes.push_back({replica.disk, stripe, replica.row,
                            disk::IoKind::kWrite});
        }
      }
      report.user_bytes += static_cast<std::uint64_t>(len) * eb;

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

      ++report.rows_written;
      idx += len;
      remaining -= len;
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
