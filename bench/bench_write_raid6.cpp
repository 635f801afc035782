// Write-path timing comparison across fault-tolerance-2 architectures
// (companion to Fig. 10 and to bench_update_penalty): the same random
// large-write workload against the shifted mirror method with parity,
// RAID-5 (tolerance-1 reference), and shortened RAID-6 (RDP geometry)
// with read-modify-write parity updates.
#include <cstdio>

#include "common.hpp"
#include "workload/write_executor.hpp"

int main() {
  using namespace sma;

  Table table("Write throughput under random large writes (MB/s)");
  table.set_header({"n", "mirror-parity-shifted", "raid5", "raid6-shortened",
                    "mirror/raid6"});

  for (int n = 3; n <= 7; ++n) {
    workload::WriteWorkloadConfig wcfg;
    wcfg.requests = 400;
    wcfg.seed = 20120901;

    const layout::Architecture archs[] = {
        layout::Architecture::mirror_with_parity(n, true),
        layout::Architecture::raid5(n), layout::Architecture::raid6(n)};
    double mbps[3] = {0, 0, 0};
    for (int k = 0; k < 3; ++k) {
      array::DiskArray arr(bench::experiment_config(archs[k], 2));
      arr.initialize();
      const auto reqs = workload::generate_large_writes(arr, wcfg);
      auto report = workload::run_write_workload(arr, reqs);
      if (!report.is_ok()) {
        std::fprintf(stderr, "%s: %s\n", archs[k].name().c_str(),
                     report.status().to_string().c_str());
        return 1;
      }
      mbps[k] = report.value().write_throughput_mbps();
    }
    table.add_row({Table::num(n), Table::num(mbps[0], 1),
                   Table::num(mbps[1], 1), Table::num(mbps[2], 1),
                   Table::num(mbps[0] / mbps[2], 2)});
  }
  bench::emit(table, "sma_write_raid6.csv");
  return 0;
}
