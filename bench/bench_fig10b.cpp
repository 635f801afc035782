// Regenerates Fig. 10(b): write throughput of the traditional vs
// shifted mirror method *with parity* under the same thousand random
// large writes. Parity updates use the cheaper of read-modify-write
// and reconstruct-write per affected row, so throughput sits below the
// parity-less mirror method (Fig. 10a), as in the paper.
#include "common.hpp"
#include "workload/write_executor.hpp"

int main() {
  using namespace sma;

  Table table("Fig. 10(b) — write throughput, mirror method with parity "
              "(MB/s)");
  table.set_header({"n", "traditional", "shifted", "shifted/traditional"});

  for (int n = 3; n <= 7; ++n) {
    double mbps[2] = {0, 0};
    for (const bool shifted : {false, true}) {
      const auto arch = layout::Architecture::mirror_with_parity(n, shifted);
      array::DiskArray arr(bench::experiment_config(arch, /*stacks=*/4));
      arr.initialize();
      workload::WriteWorkloadConfig wcfg;
      wcfg.requests = 1000;
      wcfg.seed = 777;
      const auto reqs = workload::generate_large_writes(arr, wcfg);
      mbps[shifted ? 1 : 0] = workload::run_write_workload(arr, reqs)
                                  .value()
                                  .write_throughput_mbps();
    }
    table.add_row({Table::num(n), Table::num(mbps[0], 1),
                   Table::num(mbps[1], 1), Table::num(mbps[1] / mbps[0], 3)});
  }
  bench::emit(table, "sma_fig10b.csv");
  return 0;
}
