// Verifies the paper's write-efficiency claims (Section VI-C) as an
// executable table:
//   small write  — 2 element writes (mirror) / 3 (mirror with parity),
//                  the theoretical optimum for tolerance 1 / 2;
//   large write  — one full data row lands in ONE parallel write access
//                  under both arrangements (Property 3).
#include "common.hpp"
#include "workload/write_executor.hpp"

int main() {
  using namespace sma;

  Table table("Write-access optimality (per request)");
  table.set_header({"architecture", "request", "elements written",
                    "parity reads", "write accesses"});

  struct Case {
    layout::Architecture arch;
    const char* label;
  };
  const Case cases[] = {
      {layout::Architecture::mirror(5, false), "mirror-traditional"},
      {layout::Architecture::mirror(5, true), "mirror-shifted"},
      {layout::Architecture::mirror_with_parity(5, false),
       "mirror-parity-traditional"},
      {layout::Architecture::mirror_with_parity(5, true),
       "mirror-parity-shifted"},
  };

  for (const auto& c : cases) {
    // Small write: one element.
    {
      array::DiskArray arr(bench::experiment_config(c.arch));
      arr.initialize();
      const auto report =
          workload::run_write_workload(arr, {workload::WriteRequest{0, 1}})
              .value();
      table.add_row({c.label, "small (1 element)",
                     Table::num(report.bytes_written / 4'000'000),
                     Table::num(report.bytes_read / 4'000'000),
                     Table::num(report.write_accesses)});
    }
    // Large write: one full row of n elements.
    {
      array::DiskArray arr(bench::experiment_config(c.arch));
      arr.initialize();
      const auto report =
          workload::run_write_workload(arr, {workload::WriteRequest{0, 5}})
              .value();
      table.add_row({c.label, "large (1 row)",
                     Table::num(report.bytes_written / 4'000'000),
                     Table::num(report.bytes_read / 4'000'000),
                     Table::num(report.write_accesses)});
    }
  }
  bench::emit(table, "sma_write_access.csv");
  return 0;
}
