// Repair orchestration: the array lifecycle state machine, spare pools
// and placement, the checkpoint-driven orchestrator loop, and the
// Monte-Carlo lifetime simulator cross-checked against the closed-form
// MTTDL in the limit both model.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <set>
#include <vector>

#include "obs/observer.hpp"
#include "obs/trace_sink.hpp"
#include "recon/reliability.hpp"
#include "reference_oracle.hpp"
#include "repair/lifetime.hpp"
#include "repair/orchestrator.hpp"

namespace sma::repair {
namespace {

array::ArrayConfig cfg_for(layout::Architecture arch, int spares = 0) {
  array::ArrayConfig cfg;
  cfg.arch = arch;
  cfg.stripes = arch.total_disks();  // one full stack
  cfg.content_bytes = 64;
  cfg.logical_element_bytes = 4'000'000;
  cfg.seed = 31;
  cfg.spare_disks = spares;
  return cfg;
}

/// Some disk whose failure together with `failed` loses data.
int fatal_partner(const layout::Architecture& arch,
                  const std::vector<int>& failed) {
  for (int d = 0; d < arch.total_disks(); ++d) {
    if (std::find(failed.begin(), failed.end(), d) != failed.end()) continue;
    std::vector<int> next = failed;
    next.push_back(d);
    if (!recon::is_recoverable(arch, next)) return d;
  }
  return -1;
}

// --- lifecycle state machine ---------------------------------------------

TEST(Lifecycle, ToleranceTwoWalksTheFullCycle) {
  const auto arch = layout::Architecture::mirror_with_parity(4, true);
  Lifecycle lc(arch);
  EXPECT_EQ(lc.state(), ArrayState::kHealthy);

  ASSERT_TRUE(lc.on_failure(1.0, 0).is_ok());
  EXPECT_EQ(lc.state(), ArrayState::kDegraded);
  ASSERT_TRUE(lc.on_repair_start(1.5, 0).is_ok());
  EXPECT_EQ(lc.state(), ArrayState::kRebuilding);
  ASSERT_TRUE(lc.on_repair_complete(3.0, 0).is_ok());
  EXPECT_EQ(lc.state(), ArrayState::kHealthy);

  ASSERT_EQ(lc.history().size(), 3u);
  EXPECT_EQ(lc.history()[0].to, ArrayState::kDegraded);
  EXPECT_EQ(lc.history()[1].to, ArrayState::kRebuilding);
  EXPECT_EQ(lc.history()[2].to, ArrayState::kHealthy);
  EXPECT_EQ(lc.history()[2].t_s, 3.0);
}

TEST(Lifecycle, CriticalDoubleFailureRecoversThroughTheCycle) {
  // Find a surviving double failure with a fatal third disk — that pair
  // is "critical": one more failure loses data. (Not every pair
  // qualifies; the shifted parity mirror tolerates many triples.)
  const auto arch = layout::Architecture::mirror_with_parity(4, false);
  int a = -1;
  int b = -1;
  for (int i = 0; i < arch.total_disks() && a < 0; ++i) {
    for (int j = i + 1; j < arch.total_disks() && a < 0; ++j) {
      if (!recon::is_recoverable(arch, {i, j})) continue;
      if (fatal_partner(arch, {i, j}) >= 0) {
        a = i;
        b = j;
      }
    }
  }
  ASSERT_GE(a, 0) << "no critical pair in this architecture";

  Lifecycle lc(arch);
  ASSERT_TRUE(lc.on_failure(1.0, a).is_ok());
  ASSERT_TRUE(lc.on_failure(1.2, b).is_ok());
  EXPECT_EQ(lc.state(), ArrayState::kCritical);
  // Repairs still start and finish from critical; severity wins until
  // the fatal exposure is gone.
  ASSERT_TRUE(lc.on_repair_start(1.3, a).is_ok());
  ASSERT_TRUE(lc.on_repair_start(1.3, b).is_ok());
  EXPECT_EQ(lc.state(), ArrayState::kCritical);
  ASSERT_TRUE(lc.on_repair_complete(2.0, a).is_ok());
  EXPECT_EQ(lc.state(), ArrayState::kRebuilding);
  ASSERT_TRUE(lc.on_repair_complete(2.5, b).is_ok());
  EXPECT_EQ(lc.state(), ArrayState::kHealthy);
}

TEST(Lifecycle, PlainMirrorFirstFailureIsAlreadyCritical) {
  // The paper's point: in a plain mirror one more (partner) failure
  // loses data, so the very first failure lands in critical.
  Lifecycle lc(layout::Architecture::mirror(4, false));
  ASSERT_TRUE(lc.on_failure(1.0, 0).is_ok());
  EXPECT_EQ(lc.state(), ArrayState::kCritical);
}

TEST(Lifecycle, DataLossIsTerminalAndRejectsFurtherEvents) {
  const auto arch = layout::Architecture::mirror(4, false);
  Lifecycle lc(arch);
  ASSERT_TRUE(lc.on_failure(1.0, 0).is_ok());
  const int partner = fatal_partner(arch, {0});
  ASSERT_GE(partner, 0);
  ASSERT_TRUE(lc.on_failure(2.0, partner).is_ok());  // fatal, but valid
  EXPECT_EQ(lc.state(), ArrayState::kDataLoss);
  EXPECT_TRUE(lc.terminal());
  // Nothing happens after data loss.
  EXPECT_EQ(lc.on_failure(3.0, 1).code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(lc.on_repair_start(3.0, 0).code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(lc.on_spare_exhausted(3.0).code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(lc.state(), ArrayState::kDataLoss);
}

TEST(Lifecycle, MalformedEventSequencesReturnStatus) {
  const auto arch = layout::Architecture::mirror_with_parity(4, true);
  Lifecycle lc(arch);
  EXPECT_EQ(lc.on_failure(0.0, -1).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(lc.on_failure(0.0, arch.total_disks()).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(lc.on_repair_complete(0.0, 0).code(),
            ErrorCode::kFailedPrecondition);  // never started
  ASSERT_TRUE(lc.on_failure(1.0, 0).is_ok());
  EXPECT_EQ(lc.on_failure(1.1, 0).code(),
            ErrorCode::kFailedPrecondition);  // failed twice
  EXPECT_EQ(lc.on_repair_start(1.2, 1).code(),
            ErrorCode::kFailedPrecondition);  // repairing a live disk
  ASSERT_TRUE(lc.on_repair_start(1.3, 0).is_ok());
  EXPECT_EQ(lc.on_repair_start(1.4, 0).code(),
            ErrorCode::kFailedPrecondition);  // started twice
  EXPECT_EQ(lc.state(), ArrayState::kRebuilding);  // machine uncorrupted
}

TEST(Lifecycle, SpareExhaustionIsItsOwnState) {
  Lifecycle lc(layout::Architecture::mirror_with_parity(4, true));
  ASSERT_TRUE(lc.on_failure(1.0, 0).is_ok());
  ASSERT_TRUE(lc.on_spare_exhausted(1.1).is_ok());
  EXPECT_EQ(lc.state(), ArrayState::kSpareExhausted);
  ASSERT_TRUE(lc.on_spare_available(2.0).is_ok());
  EXPECT_EQ(lc.state(), ArrayState::kDegraded);
  // A repair start clears starvation by itself too.
  ASSERT_TRUE(lc.on_spare_exhausted(2.1).is_ok());
  ASSERT_TRUE(lc.on_repair_start(2.2, 0).is_ok());
  EXPECT_EQ(lc.state(), ArrayState::kRebuilding);
}

TEST(Lifecycle, TransitionsEmitTypedStateChangeEvents) {
  obs::TraceSink sink;
  obs::Observer ob;
  ob.trace = &sink;
  Lifecycle lc(layout::Architecture::mirror_with_parity(4, true), &ob);
  ASSERT_TRUE(lc.on_failure(1.0, 0).is_ok());
  ASSERT_TRUE(lc.on_repair_start(1.5, 0).is_ok());
  ASSERT_TRUE(lc.on_repair_complete(3.0, 0).is_ok());

  std::vector<obs::TraceEvent> changes;
  for (const auto& e : sink.events())
    if (e.kind == obs::EventKind::kStateChange) changes.push_back(e);
  ASSERT_EQ(changes.size(), lc.history().size());
  for (std::size_t i = 0; i < changes.size(); ++i) {
    EXPECT_EQ(changes[i].state_from,
              static_cast<int>(lc.history()[i].from));
    EXPECT_EQ(changes[i].state_to, static_cast<int>(lc.history()[i].to));
    EXPECT_EQ(changes[i].t_s, lc.history()[i].t_s);
  }
  EXPECT_EQ(changes.back().state_to, static_cast<int>(ArrayState::kHealthy));
}

TEST(Lifecycle, StateNamesAreStable) {
  EXPECT_STREQ(to_string(ArrayState::kHealthy), "healthy");
  EXPECT_STREQ(to_string(ArrayState::kDegraded), "degraded");
  EXPECT_STREQ(to_string(ArrayState::kRebuilding), "rebuilding");
  EXPECT_STREQ(to_string(ArrayState::kCritical), "critical");
  EXPECT_STREQ(to_string(ArrayState::kSpareExhausted), "spare_exhausted");
  EXPECT_STREQ(to_string(ArrayState::kDataLoss), "data_loss");
}

/// classify() built the simple way: the reference oracle, and a fresh
/// copy of the failed set for every candidate disk. Its oracle half
/// depends on the failed set alone (data loss, critical, or neither),
/// so the test evaluates it once per set and the flag half below for
/// every flag combination.
std::optional<ArrayState> reference_oracle_state(
    const layout::Architecture& arch, const std::vector<int>& failed) {
  if (failed.empty()) return std::nullopt;
  if (!testref::reference_is_recoverable(arch, failed))
    return ArrayState::kDataLoss;
  for (int d = 0; d < arch.total_disks(); ++d) {
    if (std::find(failed.begin(), failed.end(), d) != failed.end()) continue;
    std::vector<int> next = failed;
    next.push_back(d);
    if (!testref::reference_is_recoverable(arch, next))
      return ArrayState::kCritical;
  }
  return std::nullopt;
}

ArrayState reference_classify(std::optional<ArrayState> oracle_state,
                              bool any_failed, bool rebuilding,
                              bool spare_starved, bool inconsistent,
                              bool resyncing) {
  if (oracle_state) return *oracle_state;
  if (resyncing) return ArrayState::kResyncing;
  if (inconsistent) return ArrayState::kInconsistent;
  if (!any_failed) return ArrayState::kHealthy;
  if (spare_starved) return ArrayState::kSpareExhausted;
  return rebuilding ? ArrayState::kRebuilding : ArrayState::kDegraded;
}

TEST(Lifecycle, ClassifyMatchesTheReferenceInEveryFlagCombination) {
  // Every differential architecture (the registry layouts, R = 2 and 3
  // replica arrays, RAID-5 and RAID-6), every covered failed set, and
  // all sixteen combinations of rebuilding / spare_starved /
  // inconsistent / resyncing.
  long checked = 0;
  long mismatches = 0;
  for (const auto& arch : testref::differential_architectures()) {
    testref::for_each_failed_set(arch, [&](const std::vector<int>& failed) {
      const auto oracle_state = reference_oracle_state(arch, failed);
      for (int flags = 0; flags < 16; ++flags) {
        const bool rebuilding = (flags & 1) != 0;
        const bool starved = (flags & 2) != 0;
        const bool inconsistent = (flags & 4) != 0;
        const bool resyncing = (flags & 8) != 0;
        ++checked;
        const ArrayState want =
            reference_classify(oracle_state, !failed.empty(), rebuilding,
                               starved, inconsistent, resyncing);
        const ArrayState got = classify(arch, failed, rebuilding, starved,
                                        inconsistent, resyncing);
        if (got != want && ++mismatches <= 5)
          ADD_FAILURE() << arch.name() << " n=" << arch.n() << " |failed|="
                        << failed.size() << " flags=" << flags << ": "
                        << to_string(got) << " vs " << to_string(want);
      }
    });
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_GT(checked, 300'000);
}

// --- spare pool and placement --------------------------------------------

TEST(SparePool, DedicatedHandsOutHotSpareIdsUntilEmpty) {
  SparePool pool({SparePolicy::kDedicated, 2}, /*first_spare_phys=*/10);
  EXPECT_EQ(pool.available(), 2);
  auto a = pool.allocate();
  ASSERT_TRUE(a.is_ok());
  EXPECT_EQ(a.value(), 10);
  auto b = pool.allocate();
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(b.value(), 11);
  EXPECT_TRUE(pool.exhausted());
  EXPECT_EQ(pool.allocate().status().code(),
            ErrorCode::kFailedPrecondition);
  pool.replenish();
  EXPECT_FALSE(pool.exhausted());
  ASSERT_TRUE(pool.allocate().is_ok());
  EXPECT_EQ(pool.consumed_total(), 3);  // history never decrements
}

TEST(SparePool, NonePolicyHasNothingToAllocate) {
  SparePool pool;  // default: kNone
  EXPECT_FALSE(pool.exhausted());  // inert, not starved
  EXPECT_EQ(pool.allocate().status().code(),
            ErrorCode::kFailedPrecondition);
}

TEST(SparePool, DistributedAllocationsLiveOnTheSurvivors) {
  SparePool pool({SparePolicy::kDistributed, 1}, /*first_spare_phys=*/8);
  auto unit = pool.allocate();
  ASSERT_TRUE(unit.is_ok());
  EXPECT_EQ(unit.value(), -1);  // no single disk: capacity on survivors
  EXPECT_TRUE(pool.exhausted());
}

TEST(SparePlacement, DedicatedIsConstantDistributedSpreads) {
  SparePlacement dedicated;
  dedicated.policy = SparePolicy::kDedicated;
  dedicated.spare_of[0] = 8;
  for (int s = 0; s < 6; ++s) EXPECT_EQ(dedicated.target_for(0, s), 8);
  EXPECT_EQ(dedicated.target_for(1, 0), -1);  // uncovered disk

  SparePlacement distributed;
  distributed.policy = SparePolicy::kDistributed;
  distributed.survivors = {1, 2, 3};
  std::set<int> targets;
  for (int s = 0; s < 6; ++s) {
    const int t = distributed.target_for(0, s);
    EXPECT_NE(t, 0);  // never back onto the failed disk
    targets.insert(t);
  }
  EXPECT_EQ(targets, (std::set<int>{1, 2, 3}));  // every survivor absorbs

  SparePlacement none;
  EXPECT_FALSE(none.active());
  EXPECT_EQ(none.target_for(0, 0), -1);
}

// --- orchestrator ---------------------------------------------------------

TEST(Orchestrator, DedicatedSpareEndToEnd) {
  const auto arch = layout::Architecture::mirror_with_parity(5, true);
  array::DiskArray arr(cfg_for(arch, /*spares=*/1));
  arr.initialize();
  arr.fail_physical(0);

  RepairConfig rc;
  rc.spare = {SparePolicy::kDedicated, 1};
  RepairOrchestrator orch(arr, rc);
  ASSERT_TRUE(orch.admit_failures(0.0).is_ok());
  EXPECT_EQ(orch.lifecycle().state(), ArrayState::kDegraded);
  EXPECT_FALSE(orch.done());

  auto report = orch.run();
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(report.value().final_state, ArrayState::kHealthy);
  EXPECT_EQ(report.value().rounds, 1);
  EXPECT_EQ(report.value().spares_used, 1);
  EXPECT_EQ(report.value().policy, SparePolicy::kDedicated);
  EXPECT_GT(report.value().elements_read, 0u);
  EXPECT_GT(report.value().elements_written, 0u);
  EXPECT_GT(report.value().total_makespan_s, 0.0);
  EXPECT_TRUE(orch.done());
  EXPECT_TRUE(arr.verify_all().is_ok());
  EXPECT_TRUE(arr.failed_physical().empty());

  // degraded -> rebuilding -> healthy, in order.
  std::vector<ArrayState> states;
  for (const auto& t : report.value().transitions) states.push_back(t.to);
  EXPECT_EQ(states, (std::vector<ArrayState>{ArrayState::kDegraded,
                                             ArrayState::kRebuilding,
                                             ArrayState::kHealthy}));
}

TEST(Orchestrator, DistributedSparingBeatsTheDedicatedBottleneck) {
  // The hot spare serializes every replacement write; distributed
  // sparing spreads them across the survivors, the same way the shifted
  // arrangement spreads the rebuild reads.
  const auto arch = layout::Architecture::mirror_with_parity(5, true);
  auto run = [&](SparePolicy policy) {
    array::DiskArray arr(cfg_for(arch, policy == SparePolicy::kDedicated));
    arr.initialize();
    arr.fail_physical(0);
    RepairConfig rc;
    rc.spare = {policy, 1};
    RepairOrchestrator orch(arr, rc);
    auto report = orch.run();
    EXPECT_TRUE(report.is_ok()) << report.status().to_string();
    EXPECT_EQ(report.value().final_state, ArrayState::kHealthy);
    EXPECT_TRUE(arr.verify_all().is_ok());
    return report.value();
  };
  const auto dedicated = run(SparePolicy::kDedicated);
  const auto distributed = run(SparePolicy::kDistributed);
  // Same rebuild reads either way; the write phase is where they part.
  EXPECT_EQ(dedicated.elements_written, distributed.elements_written);
  EXPECT_LT(distributed.total_makespan_s, dedicated.total_makespan_s);
}

TEST(Orchestrator, BoundedRoundsResumeFromTheCheckpoint) {
  // Tolerance-2 architecture so a single failure sits in "rebuilding",
  // not "critical" (9 disks -> 9 stripes, three rounds of three).
  const auto arch = layout::Architecture::mirror_with_parity(4, true);
  array::DiskArray arr(cfg_for(arch));
  arr.initialize();
  arr.fail_physical(1);

  RepairConfig rc;
  rc.checkpointing = true;
  rc.stripes_per_round = 3;
  RepairOrchestrator orch(arr, rc);
  auto first = orch.run(0.0, /*max_rounds=*/1);
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  EXPECT_EQ(first.value().rounds, 1);
  EXPECT_EQ(first.value().final_state, ArrayState::kRebuilding);
  EXPECT_EQ(orch.checkpoint().stripes_done, 3);
  EXPECT_TRUE(orch.checkpoint().valid());
  EXPECT_FALSE(orch.done());
  EXPECT_FALSE(arr.failed_physical().empty());

  auto rest = orch.run();
  ASSERT_TRUE(rest.is_ok()) << rest.status().to_string();
  EXPECT_EQ(rest.value().rounds, 3);  // 3 + 3 + 3 stripes, cumulative
  EXPECT_EQ(rest.value().final_state, ArrayState::kHealthy);
  EXPECT_FALSE(orch.checkpoint().valid());  // reset on completion
  EXPECT_TRUE(orch.done());
  EXPECT_TRUE(arr.verify_all().is_ok());
}

TEST(Orchestrator, SpareExhaustionIsReportedAndRebuildsInPlace) {
  const auto arch = layout::Architecture::mirror_with_parity(4, true);
  array::DiskArray arr(cfg_for(arch, /*spares=*/1));
  arr.initialize();

  RepairConfig rc;
  rc.spare = {SparePolicy::kDedicated, 1};
  RepairOrchestrator orch(arr, rc);

  arr.fail_physical(0);  // consumes the only spare
  auto first = orch.run(0.0);
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  EXPECT_EQ(first.value().final_state, ArrayState::kHealthy);
  EXPECT_TRUE(orch.pool().exhausted());

  arr.fail_physical(2);  // pool is empty now
  auto second = orch.run(10.0);
  ASSERT_TRUE(second.is_ok()) << second.status().to_string();
  EXPECT_EQ(second.value().final_state, ArrayState::kHealthy);
  EXPECT_EQ(second.value().spares_used, 1);  // nothing left to consume
  EXPECT_TRUE(arr.verify_all().is_ok());
  bool visited_exhausted = false;
  for (const auto& t : second.value().transitions)
    visited_exhausted |= t.to == ArrayState::kSpareExhausted;
  EXPECT_TRUE(visited_exhausted);
}

TEST(Orchestrator, RejectsMisconfiguration) {
  const auto arch = layout::Architecture::mirror(3, true);
  array::DiskArray arr(cfg_for(arch));
  arr.initialize();
  arr.fail_physical(0);
  {
    RepairConfig rc;
    rc.stripes_per_round = 2;  // bounded budget without checkpointing
    RepairOrchestrator orch(arr, rc);
    EXPECT_EQ(orch.run().status().code(), ErrorCode::kFailedPrecondition);
  }
  {
    RepairConfig rc;
    rc.stripes_per_round = 0;
    RepairOrchestrator orch(arr, rc);
    EXPECT_EQ(orch.run().status().code(), ErrorCode::kInvalidArgument);
  }
  {
    RepairConfig rc;
    rc.spare = {SparePolicy::kDedicated, 1};  // no hot spare provisioned
    RepairOrchestrator orch(arr, rc);
    EXPECT_EQ(orch.run().status().code(), ErrorCode::kFailedPrecondition);
  }
}

// --- Monte-Carlo lifetime simulation --------------------------------------

// Short-lifetime parameters keep the trials cheap: MTTF/MTTR = 400, so
// a traditional mirror trial sees a few hundred failures before the
// fatal partner lands inside a repair window.
MonteCarloParams mc_params() {
  MonteCarloParams p;
  p.disk_mttf_hours = 400.0;
  p.mttr_hours = 1.0;
  p.trials = 1200;
  p.seed = 9;
  return p;
}

TEST(MonteCarlo, MatchesClosedFormInTheIndependentLimit) {
  // kNone sparing = always-available spare + independent exponential
  // failures: exactly the closed forms' world, so the two estimators
  // must agree within statistical error (stderr/mean ~ 3% here).
  const auto params = mc_params();
  recon::MttdlParams cp;
  cp.disk_mttf_hours = params.disk_mttf_hours;
  cp.mttr_hours = params.mttr_hours;
  for (const bool shifted : {false, true}) {
    const auto arch = layout::Architecture::mirror(4, shifted);
    const auto closed = recon::estimate_mttdl(arch, cp);
    auto mc = simulate_mttdl(arch, params);
    ASSERT_TRUE(mc.is_ok()) << mc.status().to_string();
    EXPECT_NEAR(mc.value().mttdl_hours, closed.mttdl_hours,
                0.15 * closed.mttdl_hours)
        << (shifted ? "shifted" : "traditional")
        << " stderr=" << mc.value().stderr_hours;
    EXPECT_GT(mc.value().stderr_hours, 0.0);
    EXPECT_GT(mc.value().mean_failures_to_loss, 1.0);
    EXPECT_GT(mc.value().transitions, 0u);
    EXPECT_EQ(mc.value().spare_waits, 0u);
  }
}

TEST(MonteCarlo, ShiftedTradesFatalCandidatesForWindowLength) {
  // With MTTR held fixed the shifted arrangement has n fatal partners
  // where the traditional mirror has one — the reliability cost the
  // paper's availability gain pays for (its repayment is the n-times
  // shorter window, which this comparison deliberately freezes).
  const auto params = mc_params();
  auto trad =
      simulate_mttdl(layout::Architecture::mirror(4, false), params);
  auto shifted =
      simulate_mttdl(layout::Architecture::mirror(4, true), params);
  ASSERT_TRUE(trad.is_ok());
  ASSERT_TRUE(shifted.is_ok());
  EXPECT_LT(shifted.value().mttdl_hours, trad.value().mttdl_hours);
}

TEST(MonteCarlo, CorrelatedEnclosureFailuresShortenTheLifetime) {
  auto params = mc_params();
  params.trials = 600;
  const auto arch = layout::Architecture::mirror(4, false);
  auto independent = simulate_mttdl(arch, params);
  ASSERT_TRUE(independent.is_ok());
  // One shared enclosure: any failure multiplies every survivor's
  // hazard — the correlation the closed forms cannot express.
  params.enclosure_of.assign(static_cast<std::size_t>(arch.total_disks()), 0);
  params.enclosure_hazard_factor = 20.0;
  auto correlated = simulate_mttdl(arch, params);
  ASSERT_TRUE(correlated.is_ok());
  EXPECT_LT(correlated.value().mttdl_hours,
            0.5 * independent.value().mttdl_hours);
}

TEST(MonteCarlo, SpareDepletionStallsRepairsAndCostsLifetime) {
  auto params = mc_params();
  params.trials = 400;
  const auto arch = layout::Architecture::mirror(4, false);
  auto unlimited = simulate_mttdl(arch, params);
  ASSERT_TRUE(unlimited.is_ok());
  // One spare, never replaced: after it is consumed every further
  // failure waits forever, and failures accumulate until a fatal set.
  params.spare = {SparePolicy::kDedicated, 1};
  params.spare_replenish_hours = 0.0;
  auto depleted = simulate_mttdl(arch, params);
  ASSERT_TRUE(depleted.is_ok());
  EXPECT_GT(depleted.value().spare_waits, 0u);
  EXPECT_LT(depleted.value().mttdl_hours,
            0.5 * unlimited.value().mttdl_hours);
  // Replenishment restores most of it.
  params.spare_replenish_hours = 0.5;
  auto replenished = simulate_mttdl(arch, params);
  ASSERT_TRUE(replenished.is_ok());
  EXPECT_GT(replenished.value().mttdl_hours,
            depleted.value().mttdl_hours);
}

TEST(MonteCarlo, RejectsMeaninglessParameters) {
  const auto arch = layout::Architecture::mirror(3, true);
  auto params = mc_params();
  params.trials = 0;
  EXPECT_EQ(simulate_mttdl(arch, params).status().code(),
            ErrorCode::kInvalidArgument);
  params = mc_params();
  params.disk_mttf_hours = -1.0;
  EXPECT_EQ(simulate_mttdl(arch, params).status().code(),
            ErrorCode::kInvalidArgument);
  params = mc_params();
  params.enclosure_hazard_factor = 0.5;
  EXPECT_EQ(simulate_mttdl(arch, params).status().code(),
            ErrorCode::kInvalidArgument);
  params = mc_params();
  params.enclosure_of = {0, 1};  // wrong length
  EXPECT_EQ(simulate_mttdl(arch, params).status().code(),
            ErrorCode::kInvalidArgument);
  // NaN fails every guard; an infinite enclosure factor is refused too.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double MonteCarloParams::*field :
       {&MonteCarloParams::disk_mttf_hours,
        &MonteCarloParams::mttr_hours}) {
    params = mc_params();
    params.*field = nan;
    EXPECT_EQ(simulate_mttdl(arch, params).status().code(),
              ErrorCode::kInvalidArgument);
  }
  params = mc_params();
  params.enclosure_of.assign(static_cast<std::size_t>(arch.total_disks()), 0);
  for (const double factor : {nan, inf}) {
    params.enclosure_hazard_factor = factor;
    EXPECT_EQ(simulate_mttdl(arch, params).status().code(),
              ErrorCode::kInvalidArgument)
        << factor;
  }
}

TEST(MonteCarlo, DeterministicUnderFixedSeed) {
  auto params = mc_params();
  params.trials = 50;
  const auto arch = layout::Architecture::mirror(3, false);
  auto a = simulate_mttdl(arch, params);
  auto b = simulate_mttdl(arch, params);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(a.value().mttdl_hours, b.value().mttdl_hours);
  EXPECT_EQ(a.value().mean_failures_to_loss,
            b.value().mean_failures_to_loss);
  EXPECT_EQ(a.value().transitions, b.value().transitions);
}

}  // namespace
}  // namespace sma::repair
