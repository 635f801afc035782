#include "fleet/fleet.hpp"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "array/disk_array.hpp"
#include "fleet/digest.hpp"
#include "recon/online.hpp"
#include "recon/reliability.hpp"
#include "sim/multi_kernel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace sma::fleet {

namespace {

/// Outcome of one array's serving simulation (one MultiKernel case).
struct ArrayOutcome {
  recon::OnlineReport report;
  Status status = Status::ok();
};

/// The per-array architecture cycle: the `layout` spec list when given,
/// else the enum mix as one ("shifted", "traditional", or
/// "shifted,traditional" — array a uses entry a % size, so the
/// alternating mix keeps its even-arrays-shifted meaning).
Result<std::vector<layout::Architecture>> resolve_layout_cycle(
    const FleetConfig& cfg) {
  std::string layouts = cfg.layout;
  if (layouts.empty()) {
    switch (cfg.arrangement) {
      case ArrangementMix::kShifted: layouts = "shifted"; break;
      case ArrangementMix::kTraditional: layouts = "traditional"; break;
      case ArrangementMix::kAlternating: layouts = "shifted,traditional"; break;
    }
  }
  std::vector<layout::Architecture> archs;
  std::string_view rest = layouts;
  while (true) {
    const std::size_t comma = rest.find(',');
    const std::string spec(rest.substr(0, comma));
    if (spec.empty())
      return invalid_argument("fleet layout list has an empty entry: '" +
                              layouts + "'");
    auto arch =
        cfg.parity ? layout::Architecture::mirror_with_parity_named(cfg.n, spec)
                   : layout::Architecture::mirror_named(cfg.n, spec);
    if (!arch.is_ok()) return arch.status();
    archs.push_back(std::move(arch).take());
    if (comma == std::string_view::npos) break;
    rest = rest.substr(comma + 1);
  }
  return archs;
}

}  // namespace

Result<FleetReport> run_fleet(const FleetConfig& cfg) {
  if (cfg.arrays <= 0) return invalid_argument("fleet needs arrays > 0");
  if (cfg.n < 2) return invalid_argument("fleet arrays need n >= 2");
  if (cfg.stacks <= 0) return invalid_argument("fleet needs stacks > 0");
  if (cfg.failed_arrays < 0 || cfg.failed_arrays > cfg.arrays)
    return invalid_argument("failed_arrays must lie in [0, arrays]");
  if (cfg.arrival.kind == workload::ArrivalKind::kClosedLoop)
    return invalid_argument(
        "fleet aggregate arrival must be open-loop (closed-loop feedback "
        "belongs to per-array runs)");
  if (cfg.repair_capacity_scale <= 0.0)
    return invalid_argument("repair_capacity_scale must be > 0");
  // The closed-form fleet MTTDL reads both even with the timeline off,
  // and recon::estimate_mttdl asserts on a non-positive one; !(x > 0)
  // also rejects NaN.
  if (!(cfg.timeline.disk_mttf_hours > 0.0) ||
      !(cfg.timeline.repair_hours > 0.0))
    return invalid_argument(
        "timeline disk MTTF and repair time must be positive");

  auto cycle = resolve_layout_cycle(cfg);
  if (!cycle.is_ok()) return cycle.status();
  const std::vector<layout::Architecture> archs = std::move(cycle).take();
  auto arch_of = [&](int array) -> const layout::Architecture& {
    return archs[static_cast<std::size_t>(array) % archs.size()];
  };

  PlacementConfig pc = cfg.placement;
  pc.arrays = cfg.arrays;
  auto placed = build_placement(pc);
  if (!placed.is_ok()) return placed.status();
  const Placement placement = std::move(placed).take();

  auto proc_r = workload::make_arrival_process(cfg.arrival);
  if (!proc_r.is_ok()) return proc_r.status();
  const auto proc = std::move(proc_r).take();

  // Derived RNG streams: one splitmix chain off the fleet seed, so the
  // routing draws, the failure draws and every per-array arrival seed
  // are independent yet all pure functions of cfg.seed.
  std::uint64_t seed_state = cfg.seed;
  Rng route_rng(splitmix64(seed_state));
  Rng fail_rng(splitmix64(seed_state));
  const std::size_t arrays = static_cast<std::size_t>(cfg.arrays);
  std::vector<std::uint64_t> case_seeds(arrays);
  for (auto& s : case_seeds) s = splitmix64(seed_state);

  // --- route the aggregate stream (serial, the determinism anchor) ----
  Rng arrival_rng(cfg.arrival.seed);
  std::vector<std::vector<workload::TracePoint>> traces(arrays);
  std::vector<std::vector<int>> trace_volume(arrays);
  FleetReport report;
  report.arrays = cfg.arrays;
  report.volumes = pc.volumes;
  double t = proc->first_arrival_s();
  for (int i = 0; i < cfg.arrival.max_requests; ++i) {
    const int v = static_cast<int>(
        route_rng.next_below(static_cast<std::uint64_t>(pc.volumes)));
    const int s = static_cast<int>(route_rng.next_below(
        static_cast<std::uint64_t>(pc.segments_per_volume)));
    const int forced = proc->write_override();
    const bool write = forced >= 0
                           ? forced == 1
                           : route_rng.next_bool(cfg.rw_mix.write_fraction);
    const std::size_t a = static_cast<std::size_t>(placement.array_of(v, s));
    traces[a].push_back({t, write});
    trace_volume[a].push_back(v);
    ++report.requests_routed;
    const double d = proc->next_delay(arrival_rng);
    if (d < 0.0) break;
    t += d;
  }

  // --- pick the rebuilding arrays (deterministic partial shuffle) -----
  std::vector<int> order(arrays);
  std::iota(order.begin(), order.end(), 0);
  for (int i = 0; i < cfg.failed_arrays; ++i) {
    const std::size_t j =
        static_cast<std::size_t>(i) +
        static_cast<std::size_t>(fail_rng.next_below(
            static_cast<std::uint64_t>(cfg.arrays - i)));
    std::swap(order[static_cast<std::size_t>(i)], order[j]);
  }
  std::vector<int> failed_disk_of(arrays, -1);
  for (int i = 0; i < cfg.failed_arrays; ++i) {
    const std::size_t a =
        static_cast<std::size_t>(order[static_cast<std::size_t>(i)]);
    const int disks = arch_of(static_cast<int>(a)).total_disks();
    failed_disk_of[a] = static_cast<int>(
        fail_rng.next_below(static_cast<std::uint64_t>(disks)));
  }
  report.failed_arrays = cfg.failed_arrays;

  // --- fan the per-array simulations out on the kernel ----------------
  // Each case is a pure function of (index, its trace, its seed): it
  // builds its own array, serves its own requests, and returns its own
  // report. That is the MultiKernel contract, and it is what makes
  // threads=1 and threads=N digest-identical.
  sim::MultiKernel kernel(sim::MultiKernelOptions{cfg.threads});
  std::vector<ArrayOutcome> outcomes =
      kernel.map(arrays, [&](std::size_t a) -> ArrayOutcome {
        ArrayOutcome out;
        array::ArrayConfig acfg;
        acfg.arch = arch_of(static_cast<int>(a));
        acfg.stripes = cfg.stacks * acfg.arch.total_disks();
        acfg.content_bytes = 64;  // timing-only run; contents never read
        array::DiskArray arr(acfg);
        if (failed_disk_of[a] >= 0) arr.fail_physical(failed_disk_of[a]);

        recon::OnlineConfig ocfg;
        if (traces[a].empty()) {
          // No routed requests: an empty trace is rejected by the
          // arrival layer, so inject nothing through the Poisson kind.
          ocfg.arrival.kind = workload::ArrivalKind::kPoisson;
          ocfg.arrival.max_requests = 0;
        } else {
          ocfg.arrival.kind = workload::ArrivalKind::kTrace;
          ocfg.arrival.trace = traces[a];
          ocfg.arrival.max_requests = static_cast<int>(traces[a].size());
        }
        ocfg.arrival.seed = case_seeds[a];
        ocfg.record_latencies = true;
        auto r = recon::run_online_reconstruction(arr, ocfg);
        if (!r.is_ok()) {
          out.status = r.status();
          return out;
        }
        out.report = std::move(r).take();
        return out;
      });

  for (std::size_t a = 0; a < arrays; ++a)
    if (!outcomes[a].status.is_ok()) return outcomes[a].status;

  // --- aggregate (serial, array order — deterministic) ----------------
  // Gather every completed latency, fleet-wide and per volume, then
  // sort each set once (SampleSet's vector constructor).
  std::vector<double> all_samples;
  all_samples.reserve(static_cast<std::size_t>(report.requests_routed));
  std::vector<std::vector<double>> volume_samples(
      static_cast<std::size_t>(pc.volumes));
  RunningStat rebuilds;
  std::uint64_t digest = kDigestSeed;
  for (std::size_t a = 0; a < arrays; ++a) {
    const recon::OnlineReport& rep = outcomes[a].report;
    if (rep.latencies.size() != traces[a].size())
      return internal_error(
          "fleet: per-array latency record does not match its trace (" +
          std::to_string(rep.latencies.size()) + " vs " +
          std::to_string(traces[a].size()) + ")");
    for (std::size_t i = 0; i < rep.latencies.size(); ++i) {
      const double lat = rep.latencies[i];
      if (lat < 0.0) continue;  // the request died without completing
      all_samples.push_back(lat);
      volume_samples[static_cast<std::size_t>(trace_volume[a][i])].push_back(
          lat);
    }
    report.requests_completed += rep.requests_completed;
    report.degraded_reads += rep.degraded_reads;
    if (failed_disk_of[a] >= 0) rebuilds.add(rep.rebuild_done_s);
    double sim_end = traces[a].empty() ? 0.0 : traces[a].back().t_s;
    if (rep.rebuild_done_s > sim_end) sim_end = rep.rebuild_done_s;
    if (rep.max_latency_s > 0.0 && !traces[a].empty())
      sim_end = std::max(sim_end, traces[a].back().t_s + rep.max_latency_s);
    report.sim_array_seconds += sim_end;
    digest = mix(digest, rep.rebuild_done_s);
    digest = mix(digest, static_cast<std::uint64_t>(rep.requests_completed));
    digest = mix(digest, static_cast<std::uint64_t>(rep.degraded_reads));
    digest = mix(digest, rep.mean_latency_s);
    digest = mix(digest, rep.p99_latency_s);
  }

  const SampleSet all_latencies(std::move(all_samples));
  if (!all_latencies.empty()) {
    report.mean_latency_s = all_latencies.mean();
    report.p99_latency_s = all_latencies.percentile(99.0);
    report.p999_latency_s = all_latencies.percentile(99.9);
    report.max_latency_s = all_latencies.max();
  }
  report.mean_rebuild_s = rebuilds.mean();
  report.max_rebuild_s = rebuilds.max();

  // --- volume-level exposure ------------------------------------------
  int degraded_volumes = 0;
  report.volume_summaries.reserve(static_cast<std::size_t>(pc.volumes));
  for (int v = 0; v < pc.volumes; ++v) {
    VolumeSummary vs;
    vs.volume = v;
    for (const int a : placement.arrays_of(v)) {
      if (failed_disk_of[static_cast<std::size_t>(a)] >= 0) {
        vs.degraded = true;
        break;
      }
    }
    const SampleSet lat(
        std::move(volume_samples[static_cast<std::size_t>(v)]));
    vs.requests = lat.count();
    if (!lat.empty()) {
      vs.mean_latency_s = lat.mean();
      vs.p99_latency_s = lat.percentile(99.0);
    }
    if (vs.degraded) ++degraded_volumes;
    if (!lat.empty() && vs.p99_latency_s > report.worst_volume_p99_s) {
      report.worst_volume_p99_s = vs.p99_latency_s;
      report.worst_volume = v;
    }
    if (vs.degraded && !lat.empty() &&
        vs.p99_latency_s > report.worst_degraded_volume_p99_s) {
      report.worst_degraded_volume_p99_s = vs.p99_latency_s;
      report.worst_degraded_volume = v;
    }
    report.volume_summaries.push_back(vs);
  }
  report.degraded_volume_fraction =
      static_cast<double>(degraded_volumes) / static_cast<double>(pc.volumes);

  // --- reliability: timeline + closed-form fleet MTTDL ----------------
  TimelineConfig tc = cfg.timeline;
  tc.arrays = cfg.arrays;
  tc.seed = splitmix64(seed_state);
  tc.observer = cfg.observer;
  if (cfg.derive_repair_hours && report.mean_rebuild_s > 0.0)
    tc.repair_hours =
        report.mean_rebuild_s * cfg.repair_capacity_scale / 3600.0;
  recon::MttdlParams mp;
  mp.disk_mttf_hours = tc.disk_mttf_hours;
  mp.mttr_hours = tc.repair_hours;
  // Mixed fleets: independent arrays' data-loss rates add, so the fleet
  // MTTDL is the harmonic composition of the per-layout MTTDLs
  // (estimated once per cycle entry, not once per array).
  double loss_rate = 0.0;
  for (std::size_t l = 0; l < archs.size(); ++l) {
    const int count = cfg.arrays / static_cast<int>(archs.size()) +
                      (static_cast<int>(l) <
                               cfg.arrays % static_cast<int>(archs.size())
                           ? 1
                           : 0);
    if (count == 0) continue;
    const double mttdl = recon::estimate_mttdl(archs[l], mp).mttdl_hours;
    if (mttdl > 0.0) loss_rate += static_cast<double>(count) / mttdl;
  }
  report.fleet_mttdl_hours = loss_rate > 0.0 ? 1.0 / loss_rate : 0.0;

  if (cfg.run_timeline) {
    // The timeline models one shared architecture; a mixed fleet uses
    // the first cycle entry (its repair_hours already reflect the mixed
    // mean).
    auto tl = run_failure_timeline(archs[0], tc);
    if (!tl.is_ok()) return tl.status();
    report.timeline = std::move(tl).take();
  }

  obs::Observer* const ob = cfg.observer.get();
  if (ob != nullptr) {
    ob->count("fleet.requests_routed", report.requests_routed);
    ob->count("fleet.requests_completed", report.requests_completed);
    ob->count("fleet.degraded_volumes",
              static_cast<std::uint64_t>(degraded_volumes));
  }

  digest = mix(digest, static_cast<std::uint64_t>(report.requests_routed));
  digest = mix(digest, static_cast<std::uint64_t>(report.requests_completed));
  digest = mix(digest, static_cast<std::uint64_t>(report.degraded_reads));
  digest = mix(digest, report.mean_latency_s);
  digest = mix(digest, report.p99_latency_s);
  digest = mix(digest, report.p999_latency_s);
  digest = mix(digest, report.worst_volume_p99_s);
  digest = mix(digest, report.worst_degraded_volume_p99_s);
  digest = mix(digest, report.degraded_volume_fraction);
  digest = mix(digest, report.mean_rebuild_s);
  digest = mix(digest, report.max_rebuild_s);
  digest = mix(digest, report.fleet_mttdl_hours);
  digest = mix(digest, report.timeline.digest);
  report.digest = digest;
  return report;
}

}  // namespace sma::fleet
