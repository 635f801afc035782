// Regenerates Fig. 10(a): write throughput of the traditional vs
// shifted mirror method under one thousand random large writes of
// 1 element .. 1 stripe (paper Section VII-B). The claim: throughputs
// are "about the same to a large extent" — the shifted arrangement
// keeps the theoretically optimal write access counts, paying only
// extra seeks on the mirror side.
#include "common.hpp"
#include "workload/write_executor.hpp"

int main() {
  using namespace sma;

  Table table("Fig. 10(a) — write throughput, mirror method (MB/s)");
  table.set_header({"n", "traditional", "shifted", "shifted/traditional"});

  for (int n = 3; n <= 7; ++n) {
    double mbps[2] = {0, 0};
    for (const bool shifted : {false, true}) {
      const auto arch = layout::Architecture::mirror(n, shifted);
      array::DiskArray arr(bench::experiment_config(arch, /*stacks=*/4));
      arr.initialize();
      workload::WriteWorkloadConfig wcfg;
      wcfg.requests = 1000;
      wcfg.seed = 777;  // identical workload for both arrangements
      const auto reqs = workload::generate_large_writes(arr, wcfg);
      mbps[shifted ? 1 : 0] = workload::run_write_workload(arr, reqs)
                                  .value()
                                  .write_throughput_mbps();
    }
    table.add_row({Table::num(n), Table::num(mbps[0], 1),
                   Table::num(mbps[1], 1), Table::num(mbps[1] / mbps[0], 3)});
  }
  bench::emit(table, "sma_fig10a.csv");
  return 0;
}
