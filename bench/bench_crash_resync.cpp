// Crash/resync experiment: the cost of recovering mirror consistency
// after a power-loss crash, with and without a dirty-region log.
//
// A seeded write workload runs against each arrangement until an
// injected crash point tears it mid-request (the write hole: one copy
// of a pair updated, the other not). Recovery then reconciles the
// copies three ways:
//
//   drl-g    resync only the regions the write-intent log (granularity
//            g stripes/region) left dirty — the md-bitmap strategy,
//   full     resync every stripe (no log, or the log was lost),
//   rebuild  the upper reference: a whole-disk reconstruction, what a
//            full mirror rebuild after an unclean shutdown would cost.
//
// The point of the table: DRL resync reads a small fraction of the
// elements a full resync scans (and the makespan shrinks with it),
// coarser regions trade log size for extra scan work, and the saving
// holds for the shifted arrangement exactly as for the traditional one
// — crash recovery is orthogonal to the shifting that speeds up
// *disk-failure* recovery. The bench enforces the claim: it exits
// nonzero unless DRL reads are strictly fewer than a full resync's for
// this partial-dirty workload, on both arrangements.
#include <cstdio>

#include "common.hpp"
#include "integrity/crash_workload.hpp"
#include "integrity/resync.hpp"
#include "recon/executor.hpp"

namespace {

using namespace sma;

struct CaseResult {
  integrity::CrashWorkloadReport wl;
  integrity::ResyncReport rs;
};

array::ArrayConfig crash_cfg(bool shifted, int region_stripes) {
  auto cfg = bench::experiment_config(
      layout::Architecture::mirror_with_parity(5, shifted), /*stacks=*/2);
  cfg.content_bytes = 64;
  cfg.drl_region_stripes = region_stripes;
  cfg.checksums = true;
  // Crash mid-request, a few requests past a quiesce point: the torn
  // request is the write hole, and the requests since the quiesce are
  // the dirty set a resync must re-examine.
  cfg.fault.crash_after_writes = 103;
  cfg.fault.seed = 20120901;
  return cfg;
}

Result<CaseResult> run_case(bool shifted, int region_stripes, bool full) {
  array::DiskArray arr(crash_cfg(shifted, region_stripes));
  arr.initialize();

  integrity::CrashWorkloadConfig wcfg;
  wcfg.requests = 40;
  wcfg.seed = 20120901;
  // Periodic quiesce points keep the dirty set partial: only the
  // regions written since the last quiesce are suspect at the crash.
  wcfg.quiesce_every = 10;
  auto wl = integrity::run_crash_workload(arr, wcfg);
  if (!wl.is_ok()) return wl.status();
  if (!wl.value().crashed)
    return internal_error("workload finished without reaching the crash");

  SMA_RETURN_IF_ERROR(arr.power_cycle());
  integrity::ResyncOptions opts;
  opts.full = full;
  auto rs = integrity::resync(arr, opts);
  if (!rs.is_ok()) return rs.status();

  // Either path must leave the array fully consistent, checksums
  // included — the experiment is void otherwise.
  SMA_RETURN_IF_ERROR(arr.verify_consistency(nullptr));
  SMA_RETURN_IF_ERROR(arr.verify_checksums());
  return CaseResult{wl.value(), rs.value()};
}

Result<recon::ReconReport> run_rebuild_reference(bool shifted) {
  auto cfg = crash_cfg(shifted, /*region_stripes=*/2);
  cfg.fault = disk::FaultProfile{};  // clean run: no crash
  array::DiskArray arr(cfg);
  arr.initialize();
  arr.fail_physical(0);
  return recon::reconstruct(arr);
}

}  // namespace

int main() {
  Table table("Crash recovery: DRL resync vs full resync vs rebuild");
  table.set_header({"arrangement", "mode", "region stripes", "dirty regions",
                    "stripes scanned", "elements read", "diverged",
                    "copies rewritten", "parity rewritten", "makespan s"});

  for (const bool shifted : {true, false}) {
    const char* name = shifted ? "shifted" : "traditional";
    std::uint64_t drl2_reads = 0;
    for (const int g : {1, 2, 4}) {
      auto res = run_case(shifted, g, /*full=*/false);
      if (!res.is_ok()) {
        std::fprintf(stderr, "crash_resync drl-%d (%s): %s\n", g, name,
                     res.status().to_string().c_str());
        return 1;
      }
      const auto& r = res.value();
      if (g == 2) drl2_reads = r.rs.elements_read;
      table.add_row({name, "drl-" + std::to_string(g), Table::num(g),
                     Table::num(static_cast<std::uint64_t>(r.wl.dirty_regions)),
                     Table::num(r.rs.stripes_scanned),
                     Table::num(r.rs.elements_read), Table::num(r.rs.diverged),
                     Table::num(r.rs.copies_rewritten),
                     Table::num(r.rs.parity_rewritten),
                     Table::num(r.rs.makespan_s, 4)});
    }
    auto full = run_case(shifted, /*region_stripes=*/2, /*full=*/true);
    if (!full.is_ok()) {
      std::fprintf(stderr, "crash_resync full (%s): %s\n", name,
                   full.status().to_string().c_str());
      return 1;
    }
    const auto& f = full.value();
    table.add_row({name, "full", Table::num(2),
                   Table::num(static_cast<std::uint64_t>(f.wl.dirty_regions)),
                   Table::num(f.rs.stripes_scanned),
                   Table::num(f.rs.elements_read), Table::num(f.rs.diverged),
                   Table::num(f.rs.copies_rewritten),
                   Table::num(f.rs.parity_rewritten),
                   Table::num(f.rs.makespan_s, 4)});

    auto rebuild = run_rebuild_reference(shifted);
    if (!rebuild.is_ok()) {
      std::fprintf(stderr, "crash_resync rebuild (%s): %s\n", name,
                   rebuild.status().to_string().c_str());
      return 1;
    }
    const auto& rb = rebuild.value();
    table.add_row({name, "rebuild", Table::num(0), Table::num(0),
                   Table::num(static_cast<std::uint64_t>(rb.stripes_processed)),
                   Table::num(rb.elements_read), Table::num(std::uint64_t{0}),
                   Table::num(rb.elements_written),
                   Table::num(std::uint64_t{0}),
                   Table::num(rb.total_makespan_s, 4)});

    // The headline claim, enforced: the log must have paid for itself.
    if (drl2_reads >= f.rs.elements_read) {
      std::fprintf(stderr,
                   "crash_resync (%s): DRL resync read %llu elements, not "
                   "fewer than the full resync's %llu\n",
                   name, static_cast<unsigned long long>(drl2_reads),
                   static_cast<unsigned long long>(f.rs.elements_read));
      return 1;
    }
  }

  bench::emit(table, "sma_crash_resync.csv");
  return 0;
}
