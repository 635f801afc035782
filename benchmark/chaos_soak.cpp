// chaos_soak: chaos::run_soak over 200 seeded scenarios on one thread,
// plus the reference compound (fail-stop, fail-slow peer, crash
// mid-rebuild, second failure; shifted, hedging on) through
// run_scenario. The only workload on the content-ful byte paths:
// initialize, crash workload, dirty-region resync, verifying scrub,
// byte-exact rebuild, oracle and hedged reads.
#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "chaos/engine.hpp"
#include "chaos/oracle.hpp"
#include "chaos/scenario.hpp"
#include "fleet/digest.hpp"
#include "integrity/crash_workload.hpp"
#include "recon/reliability.hpp"
#include "repair/spare_pool.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace smabench {

namespace {

using namespace sma;
using fleet::kDigestSeed;
using fleet::mix;

/// chaos::run_scenario's report digest (engine.cpp keeps it private).
std::uint64_t fold_report(const chaos::ChaosReport& r) {
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

/// The lifecycle event clock of chaos::run_scenario.
struct Clock {
  double t = 0.0;
  double advance(double to = -1.0) {
    t = std::max(t + 1.0, to);
    return t;
  }
};

class ChaosSoak : public Workload {
 public:
  explicit ChaosSoak(const Params& params) {
    soak_.scenarios = params.smoke ? 16 : 200;
    soak_.base_seed = params.seed.value_or(20120901);
    soak_.threads = 1;
    ref_.shifted = true;
    ref_.stacks = params.smoke ? 4 : 8;
    ref_.requests = params.smoke ? 300 : 3000;
    ref_.arrival_rate_hz = 20.0;
    ref_.hedge.enabled = true;
    ref_.scenario = chaos::reference_scenario(
        layout::Architecture::mirror_with_parity(ref_.n, true).total_disks());
    if (params.seed) ref_.scenario.seed = *params.seed;
  }

  const char* work_unit() const override { return "scenarios"; }

  RepResult rep() override {
    RepResult r;
    auto soak = chaos::run_soak(soak_);
    auto ref = chaos::run_scenario(ref_);
    if (!soak.is_ok()) {
      r.errors.push_back("soak failed: " + soak.status().to_string());
      r.failed = 1;
      return r;
    }
    r.digest = mix(kDigestSeed, soak.value().digest);
    r.attempted = static_cast<std::uint64_t>(soak.value().scenarios_run);
    r.failed = static_cast<std::uint64_t>(soak.value().violations);
    for (const std::string& m : soak.value().violation_messages)
      r.errors.push_back("soak violation: " + m);
    account_reference(r, ref);
    return r;
  }

  RepResult traced_rep(Tracer& tr) override {
    RepResult r;
    const int disks =
        layout::Architecture::mirror_with_parity(soak_.n, true).total_disks();
    std::uint64_t state = soak_.base_seed;
    std::vector<std::uint64_t> seeds(static_cast<std::size_t>(soak_.scenarios));
    for (auto& s : seeds) s = splitmix64(state);
    std::uint64_t soak_digest = kDigestSeed;
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      Status st = Status::ok();
      std::uint64_t digest = 0;
      if (soak_.fleet_every > 0 &&
          static_cast<int>(i) % soak_.fleet_every == soak_.fleet_every - 1) {
        Span s(tr, "chaos.fleet_scenario");
        chaos::FleetScenarioConfig fc;
        fc.n = soak_.n;
        fc.seed = seeds[i];
        auto res = chaos::run_fleet_scenario(fc);
        if (res.is_ok()) digest = res.value().digest;
        else st = res.status();
      } else {
        Span s(tr, "chaos.scenario");
        chaos::ChaosConfig cc;
        cc.n = soak_.n;
        cc.scenario = chaos::compose_scenario(seeds[i], disks);
        cc.hedge.enabled = (seeds[i] & 1) != 0;
        auto res = chaos::run_scenario(cc);
        if (res.is_ok()) digest = res.value().digest;
        else st = res.status();
      }
      ++r.attempted;
      if (st.is_ok()) {
        soak_digest = mix(soak_digest, digest);
      } else {
        ++r.failed;
        r.errors.push_back("soak violation: " + st.to_string());
        soak_digest = mix(soak_digest, static_cast<std::uint64_t>(0xdead));
      }
    }
    r.digest = mix(kDigestSeed, soak_digest);
    account_reference(r, traced_reference(tr, r.counts));
    return r;
  }

 private:
  void account_reference(RepResult& r,
                         const Result<chaos::ChaosReport>& ref) const {
    ++r.attempted;
    r.work = static_cast<double>(r.attempted);
    if (!ref.is_ok()) {
      ++r.failed;
      r.errors.push_back("reference compound failed: " +
                         ref.status().to_string());
      return;
    }
    r.digest = mix(r.digest, ref.value().digest);
    r.model["sim_read_p99_s"] = ref.value().degraded_p99_s;
    r.model["sim_rebuild_s"] = ref.value().serving.rebuild_done_s;
  }

  /// chaos::run_scenario for the reference config, phase call by phase
  /// call, each call in a span.
  Result<chaos::ChaosReport> traced_reference(Tracer& tr, Values& counts) {
    const chaos::ChaosConfig& cfg = ref_;
    Span top(tr, "chaos.reference");
    const layout::Architecture arch =
        layout::Architecture::mirror_with_parity(cfg.n, cfg.shifted);
    const int disks = arch.total_disks();
    chaos::ChaosReport report;
    chaos::OracleContext ctx{cfg.scenario.seed, cfg.scenario.spec(), "serving"};
    const chaos::ChaosStep* primary =
        cfg.scenario.find(chaos::ChaosAction::kFailStop);
    const chaos::ChaosStep* second =
        cfg.scenario.find(chaos::ChaosAction::kSecond);

    // --- phase 1: serving under load ------------------------------------
    {
      array::ArrayConfig acfg;
      acfg.arch = arch;
      acfg.stripes = cfg.stacks * disks;
      acfg.content_bytes = 64;
      acfg.seed = cfg.scenario.seed;
      for (const chaos::ChaosStep& s : cfg.scenario.steps) {
        switch (s.action) {
          case chaos::ChaosAction::kFailSlow:
            acfg.fault_overrides[s.disk].slow_factor = s.magnitude;
            break;
          case chaos::ChaosAction::kTransient: {
            disk::FaultProfile& p = acfg.fault_overrides[s.disk];
            p.transient_read_error_p = s.magnitude;
            p.transient_write_error_p = s.magnitude;
            p.transient_from_s = s.at_s;
            p.transient_until_s = s.until_s;
            p.seed = cfg.scenario.seed;
            break;
          }
          case chaos::ChaosAction::kLatent: {
            disk::FaultProfile& p = acfg.fault_overrides[s.disk];
            p.latent_error_rate = s.magnitude;
            p.seed = cfg.scenario.seed;
            break;
          }
          case chaos::ChaosAction::kFailStop:
            if (s.at_s > 0.0) acfg.fault_overrides[s.disk].fail_at_s = s.at_s;
            break;
          default:
            break;
        }
      }
      std::optional<array::DiskArray> arr;
      {
        Span s(tr, "array.construct");
        arr.emplace(acfg);
        if (primary != nullptr && primary->at_s <= 0.0)
          arr->fail_physical(primary->disk);
      }
      recon::OnlineConfig ocfg;
      ocfg.arrival.rate_hz = cfg.arrival_rate_hz;
      ocfg.arrival.max_requests = cfg.requests;
      ocfg.arrival.seed = cfg.scenario.seed;
      ocfg.hedge = cfg.hedge;
      if (second != nullptr && cfg.parity && primary != nullptr &&
          second->disk != primary->disk) {
        ocfg.second_failure_at_s = second->at_s;
        ocfg.second_failure_disk = second->disk;
      }
      auto run = [&] {
        Span s(tr, "recon.online");
        return recon::run_online_reconstruction(*arr, ocfg);
      }();
      if (!run.is_ok()) return run.status();
      report.serving = std::move(run).take();
      report.degraded_p99_s = report.serving.p99_latency_s;
      serving_counts(counts, report.serving, disk_use(*arr));

      Span s(tr, "chaos.oracle");
      const recon::OnlineReport& sv = report.serving;
      ++report.oracle_checks;
      if (sv.requests_completed > sv.requests_issued)
        return chaos::oracle_violation(ctx, "more requests completed than issued");
      ++report.oracle_checks;
      if (sv.requests_completed > 0 &&
          !(sv.p50_latency_s <= sv.p95_latency_s &&
            sv.p95_latency_s <= sv.p99_latency_s &&
            sv.p99_latency_s <= sv.max_latency_s))
        return chaos::oracle_violation(ctx, "latency percentiles are not monotone");
      ++report.oracle_checks;
      if (!cfg.hedge.enabled &&
          (sv.fail_slow_flagged != 0 || sv.hedged_reads != 0 ||
           sv.hedge_wins != 0 || sv.affinity_reroutes != 0))
        return chaos::oracle_violation(ctx, "hedging counters moved while disabled");
      ++report.oracle_checks;
      if (sv.hedge_wins > sv.hedged_reads)
        return chaos::oracle_violation(ctx, "more hedge wins than hedges issued");
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
    const chaos::ChaosStep* crash = cfg.scenario.find(chaos::ChaosAction::kCrash);
    if (crash != nullptr) {
      if (crash->count >= 0)
        ccfg.fault.crash_after_writes = crash->count;
      else
        ccfg.fault.crash_at_s = crash->at_s;
      ccfg.fault.seed = cfg.scenario.seed;
    }
    std::optional<array::DiskArray> carr;
    {
      Span s(tr, "array.construct");
      carr.emplace(ccfg);
    }
    {
      Span s(tr, "array.initialize");
      carr->initialize();
    }
    repair::Lifecycle lc(arch);
    Clock clock;

    // --- phase 2: crash + resync ------------------------------------------
    if (crash != nullptr) {
      ctx.phase = "crash/resync";
      integrity::CrashWorkloadConfig wcfg;
      wcfg.requests = 120;
      wcfg.quiesce_every = 8;
      wcfg.seed = cfg.scenario.seed;
      auto cw = [&] {
        Span s(tr, "integrity.crash_workload");
        return integrity::run_crash_workload(*carr, wcfg);
      }();
      if (!cw.is_ok()) return cw.status();
      report.crashed = cw.value().crashed;
      if (report.crashed) {
        Status ev = lc.on_crash(clock.advance(cw.value().crash_t_s));
        if (!ev.is_ok()) return ev;
        const Status powered = [&] {
          Span s(tr, "array.power_cycle");
          return carr->power_cycle();
        }();
        if (!powered.is_ok()) return powered;
        ev = lc.on_resync_start(clock.advance());
        if (!ev.is_ok()) return ev;
        auto rs = [&] {
          Span s(tr, "integrity.resync");
          return integrity::resync(*carr);
        }();
        if (!rs.is_ok()) return rs.status();
        report.resync = std::move(rs).take();
        ev = lc.on_resync_complete(
            clock.advance(clock.t + report.resync.makespan_s));
        if (!ev.is_ok()) return ev;
        auto sc = [&] {
          Span s(tr, "recon.scrub");
          return recon::scrub(*carr);
        }();
        if (!sc.is_ok()) return sc.status();
        report.crash_scrub = std::move(sc).take();
        Span s(tr, "chaos.oracle");
        ++report.oracle_checks;
        if (Status st = chaos::check_resync_clean(*carr, ctx); !st.is_ok())
          return st;
        ++report.oracle_checks;
        if (Status st = chaos::check_durability(*carr, ctx); !st.is_ok())
          return st;
        ++report.oracle_checks;
        if (Status st = chaos::check_lifecycle(lc, arch, ctx); !st.is_ok())
          return st;
      }
    }

    // --- phase 3: silent corruption + verifying scrub ----------------------
    if (const chaos::ChaosStep* corrupt =
            cfg.scenario.find(chaos::ChaosAction::kCorrupt)) {
      ctx.phase = "corrupt/scrub";
      std::uint64_t corrupt_state = cfg.scenario.seed ^ 0xc0ffee5ee5ee5eedULL;
      Rng crng(splitmix64(corrupt_state));
      auto injected = integrity::inject_silent_corruption(
          *carr, crng, corrupt->count,
          static_cast<integrity::SilentCorruption>(corrupt->corruption_kind));
      if (!injected.is_ok()) return injected.status();
      report.corruptions_injected = static_cast<int>(injected.value().size());
      auto sc = [&] {
        Span s(tr, "recon.scrub");
        return recon::scrub(*carr);
      }();
      if (!sc.is_ok()) return sc.status();
      report.scrub = std::move(sc).take();
      report.scrubbed = true;
      Span s(tr, "chaos.oracle");
      ++report.oracle_checks;
      if (report.scrub.checksum_mismatches <
          static_cast<std::uint64_t>(report.corruptions_injected))
        return chaos::oracle_violation(ctx, "scrub missed injected corruption");
      ++report.oracle_checks;
      if (Status st = chaos::check_durability(*carr, ctx); !st.is_ok())
        return st;
    }

    // --- phase 4: fail-stop set + rebuild -----------------------------------
    std::vector<int> to_fail;
    if (primary != nullptr) to_fail.push_back(primary->disk);
    if (second != nullptr &&
        (primary == nullptr || second->disk != primary->disk))
      to_fail.push_back(second->disk);
    if (!to_fail.empty()) {
      ctx.phase = "fail/rebuild";
      for (const int d : to_fail) {
        carr->fail_physical(d);
        const Status ev = lc.on_failure(clock.advance(), d);
        if (!ev.is_ok()) return ev;
      }
      if (recon::is_recoverable(arch, carr->failed_physical())) {
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
        auto rb = [&] {
          Span s(tr, "recon.reconstruct");
          return recon::reconstruct(*carr);
        }();
        if (!rb.is_ok()) return rb.status();
        report.rebuild = std::move(rb).take();
        report.rebuilt = true;
        for (const int d : to_fail) {
          const Status ev = lc.on_repair_complete(
              clock.advance(clock.t + report.rebuild.total_makespan_s), d);
          if (!ev.is_ok()) return ev;
        }
        if (cfg.spare_disks > 0) pool.replenish(report.repairs_started);
        Span s(tr, "chaos.oracle");
        ++report.oracle_checks;
        if (report.rebuild.unrecoverable_elements != 0)
          return chaos::oracle_violation(
              ctx, "rebuild of a recoverable set left unrecoverable elements");
        ++report.oracle_checks;
        if (Status st = chaos::check_spares(pool, report.repairs_started, ctx);
            !st.is_ok())
          return st;
        ++report.oracle_checks;
        if (Status st = chaos::check_durability(*carr, ctx); !st.is_ok())
          return st;
      }
      Span s(tr, "chaos.oracle");
      ++report.oracle_checks;
      if (Status st = chaos::check_lifecycle(lc, arch, ctx); !st.is_ok())
        return st;
    }

    report.final_state = lc.state();
    report.digest = fold_report(report);

    const auto frac = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    counts["integrity.resync.regions_scanned_frac"] =
        frac(report.resync.regions_scanned, report.resync.regions_total);
    counts["recon.scrub.repaired"] =
        static_cast<double>(report.crash_scrub.repaired_by_checksum +
                            report.scrub.repaired_by_checksum);
    counts["recon.reconstruct.elements_read"] =
        static_cast<double>(report.rebuild.elements_read);
    return report;
  }

  static void serving_counts(Values& counts, const recon::OnlineReport& sv,
                             const DiskUse& use) {
    const auto frac = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    counts["array.content_mb"] = use.content_bytes / 1e6;
    counts["disk.ops"] = static_cast<double>(use.ops);
    counts["disk.sequential_frac"] = frac(static_cast<double>(use.sequential),
                                          static_cast<double>(use.ops));
    counts["disk.util_max"] = frac(use.busy_max_s, sv.rebuild_done_s);
    counts["disk.util_imbalance"] = frac(use.busy_max_s, use.busy_mean_s);
    counts["recon.online.degraded_reads"] =
        static_cast<double>(sv.degraded_reads);
    counts["recon.online.completed_frac"] =
        frac(static_cast<double>(sv.requests_completed),
             static_cast<double>(sv.requests_issued));
    counts["recon.online.io_retries"] = static_cast<double>(sv.io_retries);
    counts["recon.online.hedged_reads"] = static_cast<double>(sv.hedged_reads);
    counts["recon.online.hedge_waste_frac"] =
        frac(static_cast<double>(sv.hedge_wasted),
             static_cast<double>(sv.hedged_reads));
  }

  chaos::SoakConfig soak_;
  chaos::ChaosConfig ref_;
};

}  // namespace

std::unique_ptr<Workload> make_chaos_soak(const Params& params) {
  return std::make_unique<ChaosSoak>(params);
}

}  // namespace smabench
