#include "workload/write_workload.hpp"

#include <algorithm>
#include <cassert>

#include "util/rng.hpp"

namespace sma::workload {

std::int64_t data_element_count(const array::DiskArray& arr) {
  return static_cast<std::int64_t>(arr.stripes()) * arr.arch().rows() *
         arr.arch().n();
}

std::vector<WriteRequest> generate_large_writes(
    const array::DiskArray& arr, const WriteWorkloadConfig& cfg) {
  assert(cfg.requests >= 0);
  const std::int64_t total = data_element_count(arr);
  const int stripe_elements = arr.arch().rows() * arr.arch().n();
  Rng rng(cfg.seed);

  std::vector<WriteRequest> out;
  out.reserve(static_cast<std::size_t>(cfg.requests));
  for (int r = 0; r < cfg.requests; ++r) {
    WriteRequest req;
    req.length = static_cast<int>(
        rng.next_int(1, std::min<std::int64_t>(stripe_elements, total)));
    req.start = rng.next_int(0, total - req.length);
    out.push_back(req);
  }
  return out;
}

}  // namespace sma::workload
