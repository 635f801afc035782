// Repair orchestration: what the machinery around the rebuild is worth.
//
// Three experiments share one table (the `scenario` column):
//
//  * rebuild — a single-disk repair driven by the orchestrator under
//    each sparing policy. The dedicated hot spare serializes every
//    replacement write on one disk; distributed sparing spreads them
//    across the survivors, the same way the shifted arrangement spreads
//    the rebuild reads (compare total makespans).
//  * second_failure — a second disk dies halfway through the rebuild.
//    Resuming from the checkpoint re-reads strictly fewer elements than
//    restarting from scratch (compare the `elems read` column).
//  * mc_mttdl — Monte-Carlo lifetimes through the real lifecycle state
//    machine, cross-checked against the closed-form MTTDL in the
//    independent-failure / always-available-spare limit, then pushed
//    where the closed forms cannot go: correlated enclosure failures
//    and spare-pool depletion.
#include <string>

#include "common.hpp"
#include "recon/executor.hpp"
#include "recon/reliability.hpp"
#include "repair/lifetime.hpp"
#include "repair/orchestrator.hpp"

namespace {

constexpr const char* kNa = "-";

// Short-lifetime reliability parameters (MTTF/MTTR = 400) keep the
// Monte-Carlo trials cheap while staying in the rare-second-failure
// regime the closed forms assume.
sma::repair::MonteCarloParams mc_params() {
  sma::repair::MonteCarloParams p;
  p.disk_mttf_hours = 400.0;
  p.mttr_hours = 1.0;
  p.trials = 1500;
  p.seed = 2012;
  return p;
}

}  // namespace

int main() {
  using namespace sma;

  Table table("Repair orchestration — sparing, checkpoint resume, MTTDL");
  table.set_header({"scenario", "n", "arrangement", "policy", "rounds",
                    "elems read", "elems written", "read makespan (s)",
                    "total makespan (s)", "closed MTTDL (h)", "MC MTTDL (h)",
                    "MC stderr (h)"});

  // --- rebuild: sparing policies under the orchestrator ------------------
  const int n = 5;
  for (const bool shifted : {false, true}) {
    const auto arch = layout::Architecture::mirror_with_parity(n, shifted);
    for (const repair::SparePolicy policy :
         {repair::SparePolicy::kNone, repair::SparePolicy::kDedicated,
          repair::SparePolicy::kDistributed}) {
      auto cfg = bench::experiment_config(arch);
      if (policy == repair::SparePolicy::kDedicated) cfg.spare_disks = 1;
      array::DiskArray arr(cfg);
      arr.initialize();
      arr.fail_physical(0);

      repair::RepairConfig rc;
      if (policy != repair::SparePolicy::kNone) rc.spare = {policy, 1};
      repair::RepairOrchestrator orch(arr, rc);
      auto report = orch.run();
      if (!report.is_ok()) {
        std::fprintf(stderr, "rebuild failed: %s\n",
                     report.status().to_string().c_str());
        return 1;
      }
      const auto& r = report.value();
      table.add_row({"rebuild", Table::num(n),
                     std::string(shifted ? "shifted" : "traditional"),
                     to_string(policy), Table::num(r.rounds),
                     Table::num(r.elements_read),
                     Table::num(r.elements_written),
                     Table::num(r.read_makespan_s, 3),
                     Table::num(r.total_makespan_s, 3), kNa, kNa, kNa});
    }
  }

  // --- second failure mid-rebuild: checkpoint resume vs restart ----------
  for (const bool shifted : {false, true}) {
    const auto arch = layout::Architecture::mirror_with_parity(n, shifted);
    const int budget = arch.total_disks() / 2;
    for (const bool resume : {true, false}) {
      array::DiskArray arr(bench::experiment_config(arch));
      arr.initialize();
      arr.fail_physical(0);

      repair::RebuildCheckpoint ck;
      recon::ReconOptions opts;
      opts.checkpoint = &ck;
      opts.max_stripes = budget;  // interrupted here; disk 1 dies
      auto first = recon::reconstruct(arr, opts);
      if (!first.is_ok()) return 1;
      arr.fail_physical(1);

      recon::ReconOptions rest;
      if (resume) rest.checkpoint = &ck;  // else: from scratch
      auto second = recon::reconstruct(arr, rest);
      if (!second.is_ok()) return 1;

      table.add_row(
          {std::string(resume ? "second_failure(resume)"
                              : "second_failure(restart)"),
           Table::num(n), std::string(shifted ? "shifted" : "traditional"),
           "none", Table::num(2),
           Table::num(first.value().elements_read +
                      second.value().elements_read),
           Table::num(first.value().elements_written +
                      second.value().elements_written),
           Table::num(first.value().read_makespan_s +
                          second.value().read_makespan_s,
                      3),
           Table::num(first.value().total_makespan_s +
                          second.value().total_makespan_s,
                      3),
           kNa, kNa, kNa});
    }
  }

  // --- Monte-Carlo MTTDL vs the closed form ------------------------------
  for (const bool shifted : {false, true}) {
    const auto arch = layout::Architecture::mirror(4, shifted);
    recon::MttdlParams cp;
    cp.disk_mttf_hours = 400.0;
    cp.mttr_hours = 1.0;
    const auto closed = recon::estimate_mttdl(arch, cp);
    auto mc = repair::simulate_mttdl(arch, mc_params());
    if (!mc.is_ok()) {
      std::fprintf(stderr, "mc failed: %s\n",
                   mc.status().to_string().c_str());
      return 1;
    }
    table.add_row({"mc_mttdl", Table::num(4),
                   std::string(shifted ? "shifted" : "traditional"), "none",
                   kNa, kNa, kNa, kNa, kNa, Table::num(closed.mttdl_hours, 1),
                   Table::num(mc.value().mttdl_hours, 1),
                   Table::num(mc.value().stderr_hours, 1)});
  }
  {
    // Beyond the closed forms: one shared enclosure multiplying every
    // survivor's hazard, and a one-unit spare pool that never refills.
    const auto arch = layout::Architecture::mirror(4, false);
    auto corr = mc_params();
    corr.enclosure_of.assign(static_cast<std::size_t>(arch.total_disks()), 0);
    corr.enclosure_hazard_factor = 10.0;
    auto mc_corr = repair::simulate_mttdl(arch, corr);

    auto depleted = mc_params();
    depleted.trials = 800;
    depleted.spare = {repair::SparePolicy::kDedicated, 1};
    auto mc_depl = repair::simulate_mttdl(arch, depleted);
    if (!mc_corr.is_ok() || !mc_depl.is_ok()) return 1;

    table.add_row({"mc_mttdl(correlated x10)", Table::num(4), "traditional",
                   "none", kNa, kNa, kNa, kNa, kNa, kNa,
                   Table::num(mc_corr.value().mttdl_hours, 1),
                   Table::num(mc_corr.value().stderr_hours, 1)});
    table.add_row({"mc_mttdl(1 spare, no refill)", Table::num(4),
                   "traditional", "dedicated", kNa, kNa, kNa, kNa, kNa, kNa,
                   Table::num(mc_depl.value().mttdl_hours, 1),
                   Table::num(mc_depl.value().stderr_hours, 1)});
  }

  bench::emit(table, "sma_repair_orchestration.csv");
  return 0;
}
