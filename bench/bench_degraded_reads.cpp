// Degraded-mode user-read experiment: random element reads against an
// array with one failed disk, no rebuild running. The availability
// story from the application's side: traditional mirroring doubles the
// load on the failed disk's partner (load imbalance ~2x), the shifted
// arrangement spreads the redirected reads evenly (~1x).
#include <cstdio>

#include "common.hpp"
#include "workload/degraded_read.hpp"

int main() {
  using namespace sma;

  Table table("Degraded reads — one failed data disk, 2000 random reads");
  table.set_header({"n", "arrangement", "throughput MB/s", "degraded reads",
                    "hottest disk ops", "load imbalance"});

  for (int n = 3; n <= 7; ++n) {
    for (const bool shifted : {false, true}) {
      const auto arch = layout::Architecture::mirror(n, shifted);
      array::DiskArray arr(bench::experiment_config(arch, /*stacks=*/2));
      arr.initialize();
      arr.fail_physical(0);
      workload::DegradedReadConfig cfg;
      cfg.arrival.max_requests = 2000;
      // Identical request stream for both arrangements.
      cfg.arrival.seed = 4242;
      auto report = workload::run_degraded_reads(arr, cfg);
      if (!report.is_ok()) {
        std::fprintf(stderr, "degraded reads failed: %s\n",
                     report.status().to_string().c_str());
        return 1;
      }
      const auto& r = report.value();
      table.add_row({Table::num(n),
                     std::string(shifted ? "shifted" : "traditional"),
                     Table::num(r.throughput_mbps(), 1),
                     Table::num(static_cast<std::uint64_t>(r.degraded_reads)),
                     Table::num(r.hottest_disk_ops),
                     Table::num(r.load_imbalance, 2)});
    }
  }
  bench::emit(table, "sma_degraded_reads.csv");
  return 0;
}
