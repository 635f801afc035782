// Shared helpers for the experiment harnesses in bench/.
//
// Each bench binary regenerates one table or figure of the paper: it
// prints the same rows/series the paper reports and mirrors them to a
// CSV file next to the binary (sma_<name>.csv) for replotting.
#pragma once

#include <cstdio>
#include <string>
#include <thread>

#include "array/disk_array.hpp"
#include "gf/region.hpp"
#include "layout/architecture.hpp"
#include "sim/simulation.hpp"
#include "util/table.hpp"

namespace sma::bench {

inline array::ArrayConfig experiment_config(layout::Architecture arch,
                                            int stacks = 1) {
  array::ArrayConfig cfg;
  cfg.arch = arch;
  cfg.stripes = stacks * arch.total_disks();
  cfg.rotate = true;
  cfg.spec = disk::DiskSpec::savvio_10k3();
  cfg.content_bytes = 256;  // contents only gate correctness checks
  cfg.logical_element_bytes = 4ull * 1000 * 1000;  // paper: 4 MB elements
  cfg.seed = 20120901;                             // ICPP 2012
  return cfg;
}

/// The build and run-time keys of a BENCH_*.json `host` block, named
/// as in the repository benchmark's results (benchmark/results/*.json).
/// `threads` is the widest sim::MultiKernel run the bench makes (0 when
/// it makes none). scripts/bench_host.py adds the CPU model, the commit
/// and the date.
inline std::string host_json(std::size_t threads) {
#if defined(__clang__)
  const std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = "gcc " __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  const char* backend = "calendar";
  if (sim::default_queue_backend() == sim::QueueBackend::kHeap)
    backend = "heap";
  else if (sim::default_queue_backend() == sim::QueueBackend::kLegacy)
    backend = "legacy";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\": %u, \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"gf_tier\": \"%s\", "
                "\"sim_queue_backend\": \"%s\", "
                "\"multikernel_threads\": %zu}",
                std::thread::hardware_concurrency(), compiler.c_str(),
                SMA_BUILD_TYPE,
                std::string(gf::to_string(gf::active_tier())).c_str(),
                backend, threads);
  return buf;
}

inline void emit(const Table& table, const std::string& csv_name) {
  std::fputs(table.render().c_str(), stdout);
  if (table.write_csv(csv_name))
    std::printf("[csv] %s\n\n", csv_name.c_str());
  else
    std::printf("[csv] failed to write %s\n\n", csv_name.c_str());
}

}  // namespace sma::bench
