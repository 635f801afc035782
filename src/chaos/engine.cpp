#include "chaos/engine.hpp"

#include <algorithm>

#include "chaos/oracle.hpp"
#include "fleet/digest.hpp"
#include "integrity/crash_workload.hpp"
#include "repair/spare_pool.hpp"
#include "sim/multi_kernel.hpp"
#include "util/rng.hpp"

namespace sma::chaos {

namespace {

using fleet::kDigestSeed;
using fleet::mix;

/// Monotone event clock for the lifecycle record: real phase times where
/// available, strictly advancing everywhere (the oracle checks order).
struct Clock {
  double t = 0.0;
  double advance(double to = -1.0) {
    t = std::max(t + 1.0, to);
    return t;
  }
};

std::uint64_t fold_report(const ChaosReport& r) {
  std::uint64_t d = kDigestSeed;
  d = mix(d, r.serving.rebuild_done_s);
  d = mix(d, static_cast<std::uint64_t>(r.serving.requests_completed));
  d = mix(d, static_cast<std::uint64_t>(r.serving.degraded_reads));
  d = mix(d, r.serving.p99_latency_s);
  d = mix(d, static_cast<std::uint64_t>(r.serving.fail_slow_flagged));
  d = mix(d, static_cast<std::uint64_t>(r.serving.hedged_reads));
  d = mix(d, static_cast<std::uint64_t>(r.serving.hedge_wins));
  d = mix(d, static_cast<std::uint64_t>(r.serving.affinity_reroutes));
  d = mix(d, static_cast<std::uint64_t>(r.crashed ? 1 : 0));
  d = mix(d, r.resync.diverged);
  d = mix(d, r.resync.copies_rewritten);
  d = mix(d, static_cast<std::uint64_t>(r.resync.regions_scanned));
  d = mix(d, r.crash_scrub.checksum_mismatches);
  d = mix(d, r.crash_scrub.repaired_by_checksum);
  d = mix(d, static_cast<std::uint64_t>(r.corruptions_injected));
  d = mix(d, r.scrub.checksum_mismatches);
  d = mix(d, r.scrub.repaired_by_checksum);
  d = mix(d, static_cast<std::uint64_t>(r.rebuilt ? 1 : 0));
  d = mix(d, r.rebuild.logical_bytes_recovered);
  d = mix(d, r.rebuild.total_makespan_s);
  d = mix(d, static_cast<std::uint64_t>(r.repairs_started));
  d = mix(d, static_cast<std::uint64_t>(r.final_state));
  d = mix(d, static_cast<std::uint64_t>(r.oracle_checks));
  return d;
}

/// run_scenario's phases; `ctx` names the phase running when one fails.
Result<ChaosReport> run_phases(const ChaosConfig& cfg, OracleContext& ctx) {
  if (cfg.n < 2) return invalid_argument("chaos: n must be >= 2");
  if (cfg.stacks <= 0) return invalid_argument("chaos: stacks must be > 0");
  if (cfg.requests <= 0 || cfg.arrival_rate_hz <= 0.0)
    return invalid_argument("chaos: serving load must be positive");
  if (cfg.spare_disks < 0)
    return invalid_argument("chaos: spare_disks must be >= 0");
  const layout::Architecture arch =
      cfg.parity ? layout::Architecture::mirror_with_parity(cfg.n, cfg.shifted)
                 : layout::Architecture::mirror(cfg.n, cfg.shifted);
  const int disks = arch.total_disks();
  for (const ChaosStep& s : cfg.scenario.steps)
    if (s.disk >= disks)
      return invalid_argument("chaos: step targets disk " +
                              std::to_string(s.disk) + " of " +
                              std::to_string(disks));

  ChaosReport report;
  ctx.phase = "serving";
  const ChaosStep* primary = cfg.scenario.find(ChaosAction::kFailStop);
  const ChaosStep* second = cfg.scenario.find(ChaosAction::kSecond);

  // --- phase 1: serving under load (timing-only array) -----------------
  {
    array::ArrayConfig acfg;
    acfg.arch = arch;
    acfg.stripes = cfg.stacks * disks;
    acfg.content_bytes = 64;
    acfg.seed = cfg.scenario.seed;
    for (const ChaosStep& s : cfg.scenario.steps) {
      switch (s.action) {
        case ChaosAction::kFailSlow:
          acfg.fault_overrides[s.disk].slow_factor = s.magnitude;
          break;
        case ChaosAction::kTransient: {
          disk::FaultProfile& p = acfg.fault_overrides[s.disk];
          p.transient_read_error_p = s.magnitude;
          p.transient_write_error_p = s.magnitude;
          p.transient_from_s = s.at_s;
          p.transient_until_s = s.until_s;
          p.seed = cfg.scenario.seed;
          break;
        }
        case ChaosAction::kLatent: {
          disk::FaultProfile& p = acfg.fault_overrides[s.disk];
          p.latent_error_rate = s.magnitude;
          p.seed = cfg.scenario.seed;
          break;
        }
        case ChaosAction::kFailStop:
          if (s.at_s > 0.0) acfg.fault_overrides[s.disk].fail_at_s = s.at_s;
          break;
        default: break;  // crash/corrupt/second belong to later phases
      }
    }
    array::DiskArray arr(acfg);
    if (primary != nullptr && primary->at_s <= 0.0)
      arr.fail_physical(primary->disk);

    recon::OnlineConfig ocfg;
    ocfg.arrival.rate_hz = cfg.arrival_rate_hz;
    ocfg.arrival.max_requests = cfg.requests;
    ocfg.arrival.seed = cfg.scenario.seed;
    ocfg.hedge = cfg.hedge;
    ocfg.observer = cfg.observer;
    if (second != nullptr && cfg.parity && primary != nullptr &&
        second->disk != primary->disk) {
      ocfg.second_failure_at_s = second->at_s;
      ocfg.second_failure_disk = second->disk;
    }
    auto r = recon::run_online_reconstruction(arr, ocfg);
    if (!r.is_ok()) return r.status();
    report.serving = std::move(r).take();
    report.degraded_p99_s = report.serving.p99_latency_s;

    ++report.oracle_checks;
    if (report.serving.requests_completed != report.serving.requests_issued)
      return oracle_violation(
          ctx, "serving completed " +
                   std::to_string(report.serving.requests_completed) +
                   " of " + std::to_string(report.serving.requests_issued) +
                   " issued requests");
    ++report.oracle_checks;
    if (report.serving.requests_completed > 0 &&
        !(report.serving.p50_latency_s <= report.serving.p95_latency_s &&
          report.serving.p95_latency_s <= report.serving.p99_latency_s &&
          report.serving.p99_latency_s <= report.serving.max_latency_s))
      return oracle_violation(ctx, "latency percentiles are not monotone");
    ++report.oracle_checks;
    if (!cfg.hedge.enabled &&
        (report.serving.fail_slow_flagged != 0 ||
         report.serving.hedged_reads != 0 || report.serving.hedge_wins != 0 ||
         report.serving.affinity_reroutes != 0))
      return oracle_violation(ctx, "hedging counters moved while disabled");
    ++report.oracle_checks;
    if (report.serving.hedge_wins > report.serving.hedged_reads)
      return oracle_violation(ctx, "more hedge wins than hedges issued");
  }

  // --- phases 2-4 share one content-ful array ---------------------------
  array::ArrayConfig ccfg;
  ccfg.arch = arch;
  ccfg.stripes = 2 * disks;
  ccfg.content_bytes = 256;
  ccfg.checksums = true;
  ccfg.drl_region_stripes = 2;
  ccfg.spare_disks = cfg.spare_disks;
  ccfg.seed = cfg.scenario.seed;
  const ChaosStep* crash = cfg.scenario.find(ChaosAction::kCrash);
  if (crash != nullptr) {
    if (crash->count >= 0)
      ccfg.fault.crash_after_writes = crash->count;
    else
      ccfg.fault.crash_at_s = crash->at_s;
    ccfg.fault.seed = cfg.scenario.seed;
  }
  array::DiskArray carr(ccfg);
  carr.initialize();
  repair::Lifecycle lc(arch);
  Clock clock;

  // --- phase 2: crash + resync -----------------------------------------
  if (crash != nullptr) {
    ctx.phase = "crash/resync";
    integrity::CrashWorkloadConfig wcfg;
    wcfg.requests = 120;
    wcfg.quiesce_every = 8;
    wcfg.seed = cfg.scenario.seed;
    auto cw = integrity::run_crash_workload(carr, wcfg);
    if (!cw.is_ok()) return cw.status();
    report.crashed = cw.value().crashed;
    if (report.crashed) {
      Status ev = lc.on_crash(clock.advance(cw.value().crash_t_s));
      if (!ev.is_ok()) return ev;
      const Status powered = carr.power_cycle();
      if (!powered.is_ok()) return powered;
      if (cfg.sabotage != ChaosConfig::Sabotage::kSkipResync) {
        ev = lc.on_resync_start(clock.advance());
        if (!ev.is_ok()) return ev;
        auto rs = integrity::resync(carr);
        if (!rs.is_ok()) return rs.status();
        report.resync = std::move(rs).take();
        ev = lc.on_resync_complete(
            clock.advance(clock.t + report.resync.makespan_s));
        if (!ev.is_ok()) return ev;
        // Second half of the recovery: a misdirected power-loss write
        // clobbers a slot outside the logged regions, which only the
        // checksum pass can find and repair.
        auto sc = recon::scrub(carr);
        if (!sc.is_ok()) return sc.status();
        report.crash_scrub = std::move(sc).take();
      }
      ++report.oracle_checks;
      const Status clean = check_resync_clean(carr, ctx);
      if (!clean.is_ok()) return clean;
      ++report.oracle_checks;
      const Status durable = check_durability(carr, ctx);
      if (!durable.is_ok()) return durable;
      ++report.oracle_checks;
      const Status legal = check_lifecycle(lc, arch, ctx);
      if (!legal.is_ok()) return legal;
    }
  }

  // --- phase 3: silent corruption + verifying scrub ---------------------
  if (const ChaosStep* corrupt = cfg.scenario.find(ChaosAction::kCorrupt)) {
    ctx.phase = "corrupt/scrub";
    std::uint64_t corrupt_state = cfg.scenario.seed ^ 0xc0ffee5ee5ee5eedULL;
    Rng crng(splitmix64(corrupt_state));
    auto injected = integrity::inject_silent_corruption(
        carr, crng, corrupt->count,
        static_cast<integrity::SilentCorruption>(corrupt->corruption_kind));
    if (!injected.is_ok()) return injected.status();
    report.corruptions_injected = static_cast<int>(injected.value().size());
    if (cfg.sabotage != ChaosConfig::Sabotage::kLeakCorruption) {
      auto sc = recon::scrub(carr);
      if (!sc.is_ok()) return sc.status();
      report.scrub = std::move(sc).take();
      report.scrubbed = true;
      ++report.oracle_checks;
      if (report.scrub.checksum_mismatches <
          static_cast<std::uint64_t>(report.corruptions_injected))
        return oracle_violation(
            ctx, "scrub found " +
                     std::to_string(report.scrub.checksum_mismatches) +
                     " checksum mismatches of " +
                     std::to_string(report.corruptions_injected) +
                     " injected");
    }
    ++report.oracle_checks;
    const Status durable = check_durability(carr, ctx);
    if (!durable.is_ok()) return durable;
  }

  // --- phase 4: fail-stop set + rebuild ---------------------------------
  std::vector<int> to_fail;
  if (primary != nullptr) to_fail.push_back(primary->disk);
  if (second != nullptr &&
      (primary == nullptr || second->disk != primary->disk))
    to_fail.push_back(second->disk);
  if (!to_fail.empty()) {
    ctx.phase = "fail/rebuild";
    for (const int d : to_fail) {
      carr.fail_physical(d);
      const Status ev = lc.on_failure(clock.advance(), d);
      if (!ev.is_ok()) return ev;
    }
    if (recon::is_recoverable(arch, carr.failed_physical())) {
      repair::SparePool pool(
          repair::SpareConfig{repair::SparePolicy::kDedicated,
                              cfg.spare_disks},
          disks);
      for (const int d : to_fail) {
        if (cfg.spare_disks > 0) {
          auto unit = pool.allocate();
          if (!unit.is_ok()) return unit.status();
        }
        ++report.repairs_started;
        const Status ev = lc.on_repair_start(clock.advance(), d);
        if (!ev.is_ok()) return ev;
      }
      auto rb = recon::reconstruct(carr);
      if (!rb.is_ok()) return rb.status();
      report.rebuild = std::move(rb).take();
      report.rebuilt = true;
      for (const int d : to_fail) {
        const Status ev = lc.on_repair_complete(
            clock.advance(clock.t + report.rebuild.total_makespan_s), d);
        if (!ev.is_ok()) return ev;
      }
      if (cfg.spare_disks > 0) pool.replenish(report.repairs_started);
      ++report.oracle_checks;
      if (report.rebuild.unrecoverable_elements != 0)
        return oracle_violation(
            ctx, "rebuild of a recoverable set left " +
                     std::to_string(report.rebuild.unrecoverable_elements) +
                     " unrecoverable element(s)");
      ++report.oracle_checks;
      const Status spares = check_spares(pool, report.repairs_started, ctx);
      if (!spares.is_ok()) return spares;
      ++report.oracle_checks;
      const Status durable = check_durability(carr, ctx);
      if (!durable.is_ok()) return durable;
    }
    ++report.oracle_checks;
    const Status legal = check_lifecycle(lc, arch, ctx);
    if (!legal.is_ok()) return legal;
  }

  report.final_state = lc.state();
  report.digest = fold_report(report);
  return report;
}

}  // namespace

Result<ChaosReport> run_scenario(const ChaosConfig& cfg) {
  OracleContext ctx{cfg.scenario.seed, cfg.scenario.spec(), "setup"};
  Result<ChaosReport> r = run_phases(cfg, ctx);
  if (!r.is_ok()) return replay_stamped(ctx, r.status());
  return r;
}

Result<SoakReport> run_soak(const SoakConfig& cfg) {
  if (cfg.scenarios <= 0)
    return invalid_argument("chaos soak: scenarios must be > 0");
  if (cfg.n < 2) return invalid_argument("chaos soak: n must be >= 2");

  const int disks =
      layout::Architecture::mirror_with_parity(cfg.n, true).total_disks();
  std::uint64_t state = cfg.base_seed;
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(cfg.scenarios));
  for (auto& s : seeds) s = splitmix64(state);

  struct Outcome {
    bool ok = true;
    std::string message;
    std::uint64_t digest = 0;
  };

  sim::MultiKernel kernel(sim::MultiKernelOptions{cfg.threads});
  const std::vector<Outcome> outcomes = kernel.map(
      seeds.size(), [&](std::size_t i) -> Outcome {
        Outcome out;
        if (cfg.fleet_every > 0 &&
            (static_cast<int>(i) % cfg.fleet_every) == cfg.fleet_every - 1) {
          FleetScenarioConfig fc;
          fc.n = cfg.n;
          fc.seed = seeds[i];
          auto r = run_fleet_scenario(fc);
          if (!r.is_ok()) {
            out.ok = false;
            out.message = r.status().to_string();
            return out;
          }
          out.digest = r.value().digest;
          return out;
        }
        ChaosConfig cc;
        cc.shifted = cfg.shifted;
        cc.n = cfg.n;
        cc.scenario = compose_scenario(seeds[i], disks);
        cc.hedge.enabled = (seeds[i] & 1) != 0;
        auto r = run_scenario(cc);
        if (!r.is_ok()) {
          out.ok = false;
          out.message = r.status().to_string();
          return out;
        }
        out.digest = r.value().digest;
        return out;
      });

  SoakReport report;
  report.digest = kDigestSeed;
  for (const Outcome& out : outcomes) {
    ++report.scenarios_run;
    if (!out.ok) {
      ++report.violations;
      report.violation_messages.push_back(out.message);
      report.digest =
          mix(report.digest, static_cast<std::uint64_t>(0xdead));
      continue;
    }
    report.digest = mix(report.digest, out.digest);
  }
  return report;
}

namespace {

/// run_fleet_scenario's two timelines and their oracle checks.
Result<fleet::TimelineReport> run_fleet_timelines(
    const FleetScenarioConfig& cfg, const OracleContext& ctx) {
  fleet::TimelineConfig tc;
  tc.arrays = cfg.arrays;
  tc.horizon_hours = cfg.horizon_hours;
  tc.disk_mttf_hours = cfg.disk_mttf_hours;
  tc.repair_hours = cfg.repair_hours;
  tc.domain_size = cfg.domain_size;
  tc.domain_hazard_factor = cfg.domain_hazard_factor;
  tc.seed = cfg.seed;
  const layout::Architecture arch =
      layout::Architecture::mirror_with_parity(cfg.n, true);
  auto first = fleet::run_failure_timeline(arch, tc);
  if (!first.is_ok()) return first.status();
  auto replay = fleet::run_failure_timeline(arch, tc);
  if (!replay.is_ok()) return replay.status();
  const fleet::TimelineReport& r = first.value();
  if (replay.value().digest != r.digest)
    return oracle_violation(ctx, "fleet timeline replay diverged");
  if (r.repairs_completed + r.data_loss_events > r.failures)
    return oracle_violation(ctx,
                            "more repairs + losses than failures occurred");
  if (r.frac_time_rebuilding < r.frac_time_ge2 ||
      r.frac_time_rebuilding > 1.0 || r.frac_time_ge2 < 0.0)
    return oracle_violation(ctx, "rebuild-time fractions are inconsistent");
  if (r.mean_concurrent_rebuilds >
      static_cast<double>(r.max_concurrent_rebuilds))
    return oracle_violation(ctx, "mean concurrency exceeds the maximum");
  return first;
}

}  // namespace

Result<fleet::TimelineReport> run_fleet_scenario(
    const FleetScenarioConfig& cfg) {
  const OracleContext ctx{
      cfg.seed,
      "fleet@domain:n" + std::to_string(cfg.domain_size) + ":x" +
          std::to_string(cfg.domain_hazard_factor),
      "fleet"};
  auto r = run_fleet_timelines(cfg, ctx);
  if (!r.is_ok()) return replay_stamped(ctx, r.status());
  return r;
}

}  // namespace sma::chaos
