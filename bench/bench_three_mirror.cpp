// Extension experiment (paper Section VIII future work): the shifted
// element arrangement applied to the three-mirror method (2 replica
// arrays, as in GFS/Ceph). Replica array r uses the affine arrangement
// a(i,j) -> (<i + c_r j>_n, i) with distinct multipliers c_r coprime to
// n, preserving the paper's three properties per array and pairwise
// one-element overlap across arrays (layout::Architecture, R = 2).
//
// Reported: average read accesses and rebuild read throughput over all
// single and double failures, traditional vs shifted, n = 3..7.
#include <algorithm>
#include <cstdio>
#include <map>

#include "array/disk_array.hpp"
#include "common.hpp"
#include "recon/executor.hpp"
#include "recon/online.hpp"
#include "recon/plan.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace sma;

layout::Architecture three_mirror(int n, bool shifted) {
  return layout::Architecture::mirror_named(
             n, shifted ? "shifted" : "traditional", /*replicas=*/2)
      .take();
}

array::ArrayConfig array_config(int n, bool shifted) {
  array::ArrayConfig cfg;
  cfg.arch = three_mirror(n, shifted);
  cfg.stripes = cfg.arch.total_disks();
  cfg.logical_element_bytes = 4'000'000;
  return cfg;
}

struct Cell {
  double accesses = 0;
  double mbps = 0;
};

Cell sweep(int n, bool shifted, int failures) {
  array::ArrayConfig proto = array_config(n, shifted);
  proto.content_bytes = 128;

  // Enumerate failure sets.
  std::vector<std::vector<int>> sets;
  const int total = proto.arch.total_disks();
  if (failures == 1) {
    for (int d = 0; d < total; ++d) sets.push_back({d});
  } else {
    for (int a = 0; a < total; ++a)
      for (int b = a + 1; b < total; ++b) sets.push_back({a, b});
  }

  std::vector<Cell> results(sets.size());
  parallel_for(sets.size(), [&](std::size_t i) {
    array::DiskArray arr(proto);
    arr.initialize();
    for (const int d : sets[i]) arr.fail_physical(d);
    auto report = recon::reconstruct(arr);
    if (!report.is_ok()) {
      std::fprintf(stderr, "three-mirror rebuild failed: %s\n",
                   report.status().to_string().c_str());
      return;
    }
    results[i].accesses = report.value().read_accesses_per_stripe;
    results[i].mbps = report.value().read_throughput_mbps();
  });

  RunningStat acc;
  RunningStat mbps;
  for (const auto& r : results) {
    acc.add(r.accesses);
    mbps.add(r.mbps);
  }
  return {acc.mean(), mbps.mean()};
}

// Table-I analogue: every double failure, grouped by which arrays the
// two failed disks belong to, with the read accesses of each class.
struct CaseRow {
  std::string label;
  long cases = 0;
  double avg_accesses = 0.0;
  int min_accesses = 0;
  int max_accesses = 0;
};

std::vector<CaseRow> double_failure_cases(const layout::Architecture& arch) {
  std::map<std::string, CaseRow> buckets;
  for (int a = 0; a < arch.total_disks(); ++a) {
    for (int b = a + 1; b < arch.total_disks(); ++b) {
      const int ra = arch.array_of(a);
      const int rb = arch.array_of(b);
      std::string label;
      if (ra == 0 && rb == 0) label = "both data";
      else if (ra == 0) label = "data + replica array";
      else if (ra == rb) label = "same replica array";
      else label = "two replica arrays";

      const int accesses =
          recon::plan_reconstruction(arch, {a, b}).value().read_accesses(arch);
      auto& row = buckets[label];
      row.label = label;
      if (row.cases == 0) {
        row.min_accesses = accesses;
        row.max_accesses = accesses;
      }
      row.avg_accesses =
          (row.avg_accesses * static_cast<double>(row.cases) + accesses) /
          static_cast<double>(row.cases + 1);
      ++row.cases;
      row.min_accesses = std::min(row.min_accesses, accesses);
      row.max_accesses = std::max(row.max_accesses, accesses);
    }
  }
  std::vector<CaseRow> out;
  out.reserve(buckets.size());
  for (auto& [label, row] : buckets) out.push_back(row);
  return out;
}

}  // namespace

int main() {
  using namespace sma;

  for (const int failures : {1, 2}) {
    Table table(std::string("Three-mirror method, all ") +
                (failures == 1 ? "single" : "double") + "-disk failures");
    table.set_header({"n", "trad accesses", "shift accesses", "trad MB/s",
                      "shift MB/s", "improvement factor"});
    for (int n = 3; n <= 7; ++n) {
      const Cell t = sweep(n, false, failures);
      const Cell s = sweep(n, true, failures);
      table.add_row({Table::num(n), Table::num(t.accesses, 2),
                     Table::num(s.accesses, 2), Table::num(t.mbps, 1),
                     Table::num(s.mbps, 1), Table::num(s.mbps / t.mbps, 2)});
    }
    bench::emit(table, failures == 1 ? "sma_three_mirror_single.csv"
                                     : "sma_three_mirror_double.csv");
  }

  // Table-I analogue for the three-mirror extension: double failures by
  // class (n = 5).
  for (const bool shifted : {false, true}) {
    const layout::Architecture arch = three_mirror(5, shifted);
    Table cases(std::string("Double-failure classes, ") +
                arch.arrangement()->name() + "-3-mirror(n=5)");
    cases.set_header({"class", "cases", "min", "avg", "max"});
    for (const auto& row : double_failure_cases(arch))
      cases.add_row({row.label,
                     Table::num(static_cast<std::uint64_t>(row.cases)),
                     Table::num(row.min_accesses),
                     Table::num(row.avg_accesses, 2),
                     Table::num(row.max_accesses)});
    std::fputs(cases.render().c_str(), stdout);
    std::printf("\n");
  }

  // On-line rebuild with user reads, three-mirror.
  Table online("Three-mirror on-line rebuild (n=5, one failed disk)");
  online.set_header({"arrangement", "rebuild done (s)", "read mean (ms)",
                     "read p99 (ms)", "degraded reads"});
  for (const bool shifted : {false, true}) {
    array::ArrayConfig cfg = array_config(5, shifted);
    cfg.stripes = 4 * 15;
    cfg.content_bytes = 64;
    array::DiskArray arr(cfg);
    arr.initialize();
    arr.fail_physical(0);
    recon::OnlineConfig ocfg;
    ocfg.arrival.rate_hz = 30;
    ocfg.arrival.max_requests = 500;
    ocfg.arrival.seed = 2012;
    auto report = recon::run_online_reconstruction(arr, ocfg);
    if (!report.is_ok()) {
      std::fprintf(stderr, "three-mirror online failed: %s\n",
                   report.status().to_string().c_str());
      return 1;
    }
    const auto& r = report.value();
    online.add_row({std::string(shifted ? "shifted" : "traditional"),
                    Table::num(r.rebuild_done_s, 2),
                    Table::num(r.mean_latency_s * 1e3, 1),
                    Table::num(r.p99_latency_s * 1e3, 1),
                    Table::num(static_cast<std::uint64_t>(r.degraded_reads))});
  }
  bench::emit(online, "sma_three_mirror_online.csv");
  return 0;
}
