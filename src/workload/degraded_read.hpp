// Degraded-mode read workload: user reads against an array with a
// failed disk, *before* (or without) any rebuild — the steady-state
// view of the paper's data-availability argument. Reads that target
// the failed disk are redirected to replicas; under the traditional
// arrangement they all pile onto the single partner disk, under the
// shifted arrangement they spread.
#pragma once

#include <cstdint>

#include "array/disk_array.hpp"
#include "util/status.hpp"
#include "workload/arrival.hpp"

namespace sma::workload {

struct DegradedReadConfig {
  /// Shared arrival surface. The batch model is closed-form — all reads
  /// are pending at t = 0 — so only arrival.max_requests (the read
  /// count) and arrival.seed are honored. Historical defaults: 1000
  /// reads, seed 13.
  ArrivalConfig arrival = ArrivalConfig::with(1000, 13);
  /// Optional observability hooks (borrowed, caller-owned; see
  /// obs::Attach for the uniform semantics): request arrivals +
  /// per-disk service spans.
  obs::Attach observer;
};

struct DegradedReadReport {
  double makespan_s = 0.0;
  std::uint64_t logical_bytes_read = 0;
  std::size_t degraded_reads = 0;  // reads redirected off the failed disk
  /// Ops on the busiest surviving disk / mean ops per surviving disk.
  double load_imbalance = 0.0;
  int hottest_disk_ops = 0;

  double throughput_mbps() const;
};

/// Run `cfg.arrival.max_requests` uniform random data-element reads against
/// `arr` (mirror architectures; at most R failed disks, R the replica
/// arrays). A read whose data disk failed goes to the least-assigned
/// live replica. Timing only.
Result<DegradedReadReport> run_degraded_reads(array::DiskArray& arr,
                                              const DegradedReadConfig& cfg);

}  // namespace sma::workload
