// The benchmark's workloads. Each one owns its inputs (built from the
// seed in setup()), an untraced rep that calls the simulator's public
// entry point the way a user would, and a traced rep that recomposes the
// same computation from the layers' public functions with a span around
// each call. The traced rep must reproduce the untraced one's outputs
// exactly; the benchmark compares their digests.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "array/disk_array.hpp"
#include "tracer.hpp"

namespace smabench {

struct Params {
  /// Replaces every arrival, routing and soak seed. Unset keeps the
  /// seeds of the benches each workload comes from, so their committed
  /// numbers reproduce.
  std::optional<std::uint64_t> seed;
  /// Reduced input sizes, for the smoke test.
  bool smoke = false;
  /// sim::MultiKernel workers for fleet_cell.
  std::size_t threads = 1;
};

using Values = std::map<std::string, double>;

struct RepResult {
  /// Fold of every deterministic output of the rep.
  std::uint64_t digest = 0;
  /// Work done, in Workload::work_unit() units.
  double work = 0.0;
  /// Operations attempted and failed (the workload defines which).
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Correctness checks that failed, one message each.
  std::vector<std::string> errors;
  /// Simulated-time and other model outputs.
  Values model;
  /// Traced reps only: per-layer model counts.
  Values counts;
  /// Traced reps only: span time spent on work the untraced rep does not
  /// do (e.g. array construction it reuses from setup).
  double extra_s = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* work_unit() const = 0;
  /// True when a rep runs on more than one thread.
  virtual bool parallel() const { return false; }
  /// Build (or rebuild) the inputs that reps reuse.
  virtual void setup() {}
  virtual RepResult rep() = 0;
  virtual RepResult traced_rep(Tracer& tracer) = 0;
  /// Untimed checks run once after the timed reps; `first` is the
  /// first rep's result.
  virtual std::vector<std::string> post_checks(const RepResult& first) {
    (void)first;
    return {};
  }
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(std::string_view name,
                                        const Params& params);

std::unique_ptr<Workload> make_rebuild_read(const Params& params);
std::unique_ptr<Workload> make_rebuild_write_qos(const Params& params);
std::unique_ptr<Workload> make_fleet_cell(const Params& params);
std::unique_ptr<Workload> make_chaos_soak(const Params& params);
std::unique_ptr<Workload> make_paper_sweeps(const Params& params);

/// Disk-model counters of one array, summed over its live disks.
struct DiskUse {
  std::uint64_t ops = 0;
  std::uint64_t sequential = 0;
  /// Busiest live disk's busy time and the live disks' mean.
  double busy_max_s = 0.0;
  double busy_mean_s = 0.0;
  /// Content bytes the array holds (all disks).
  double content_bytes = 0.0;
};

inline DiskUse disk_use(const sma::array::DiskArray& arr) {
  DiskUse u;
  int live = 0;
  double busy_sum = 0.0;
  for (int d = 0; d < arr.physical_count(); ++d) {
    const auto& disk = arr.physical(d);
    const auto& c = disk.counters();
    u.ops += c.reads + c.writes;
    u.sequential += c.sequential;
    u.content_bytes += static_cast<double>(disk.slot_count()) *
                       static_cast<double>(disk.content_bytes());
    if (disk.failed()) continue;
    ++live;
    busy_sum += c.busy_s;
    u.busy_max_s = std::max(u.busy_max_s, c.busy_s);
  }
  u.busy_mean_s = live > 0 ? busy_sum / live : 0.0;
  return u;
}

}  // namespace smabench
