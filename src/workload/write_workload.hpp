// Write workloads for the Fig. 10 experiments.
//
// The paper's workload: "one thousand random large write operations of
// the size varying from one element to as large as a whole stripe",
// where "large write" means writing data elements row by row in the
// data disk array. A request is therefore a contiguous run of data
// elements in row-major order (stripe, row, disk).
#pragma once

#include <cstdint>
#include <vector>

#include "array/disk_array.hpp"

namespace sma::workload {

struct WriteRequest {
  /// Element index into the data array's row-major address space:
  /// index = (stripe * rows + row) * n + data_disk.
  std::int64_t start = 0;
  /// Length in elements, 1 .. n * rows (one stripe's worth).
  int length = 1;
};

struct WriteWorkloadConfig {
  /// Requests to generate (>= 0).
  int requests = 1000;
  std::uint64_t seed = 11;
};

/// Total data elements addressable in `arr`.
std::int64_t data_element_count(const array::DiskArray& arr);

/// Uniform random large writes per the paper's Section VII-B workload.
/// Lengths are uniform on [1, n * rows]; starts are uniform and clamped
/// so requests never run past the end of the volume.
std::vector<WriteRequest> generate_large_writes(const array::DiskArray& arr,
                                                const WriteWorkloadConfig& cfg);

}  // namespace sma::workload
