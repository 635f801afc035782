// Write-path executor: turns WriteRequests into timed disk operations
// under the architecture's write strategy, reproducing the paper's
// Fig. 10 measurement and its RAID-6 comparison.
//
// Strategy per affected row of a mirror kind (paper Sections VI-C and
// VII-B):
//  * data elements and their mirror replicas are written in parallel —
//    one write access per row thanks to Property 3;
//  * the parity element (if the architecture has one) is updated with
//    whichever of read-modify-write or reconstruct-write needs fewer
//    reads; a full-row write needs no reads at all.
//
// RAID-5/6 kinds read-modify-write every data element and, once per
// request, every parity cell that element's update changes. Those cells
// are the codec's update map, measured by ec::measure_update_penalty
// (the paper's Section II claim that horizontal RAID-6 "cannot attain
// the theoretically optimal construction and updating efficiency").
//
// Requests are issued closed-loop (each begins when the previous one
// completed), matching a single-threaded Jerasure-driven tester.
#pragma once

#include <cstdint>

#include "array/disk_array.hpp"
#include "workload/write_workload.hpp"

namespace sma::workload {

struct WriteRunReport {
  double makespan_s = 0.0;
  std::uint64_t user_bytes = 0;       // data elements written (payload)
  std::uint64_t bytes_written = 0;    // data + mirror + parity
  std::uint64_t bytes_read = 0;       // parity-update reads
  std::uint64_t write_accesses = 0;   // paper metric, summed over rows
  std::uint64_t rows_written = 0;

  /// User-visible write throughput, MB/s (payload over makespan).
  double write_throughput_mbps() const;
};

/// Execute the workload on `arr`, any architecture (timing only;
/// contents unchanged). kInvalidArgument when a request runs outside
/// the volume. With an observer attached (borrowed, caller-owned; see
/// obs::Attach for the uniform semantics) each request emits
/// kRequestArrive and the disks emit their service spans.
Result<WriteRunReport> run_write_workload(
    array::DiskArray& arr, const std::vector<WriteRequest>& requests,
    obs::Attach observer = {});

}  // namespace sma::workload
