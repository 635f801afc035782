// fleet_cell: the bench_fleet shifted+declustered cell. 256 mirror(4)
// arrays of 64 stacks behind declustered placement serve 250,000 routed
// Poisson requests while 8 arrays rebuild, followed by the failure
// timeline. It is the only workload on fleet routing, MultiKernel
// parallel serving and the serial latency aggregation.
#include <algorithm>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fleet/digest.hpp"
#include "fleet/fleet.hpp"
#include "recon/online.hpp"
#include "recon/reliability.hpp"
#include "sim/multi_kernel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace smabench {

namespace {

using namespace sma;

class FleetCell : public Workload {
 public:
  explicit FleetCell(const Params& params) {
    const int arrays = params.smoke ? 32 : 256;
    cfg_.arrays = arrays;
    cfg_.n = 4;
    cfg_.arrangement = fleet::ArrangementMix::kShifted;
    cfg_.stacks = params.smoke ? 8 : 64;
    cfg_.placement.policy = fleet::PlacementPolicy::kDeclustered;
    cfg_.placement.volumes = 4 * arrays;
    cfg_.placement.segments_per_volume = 8;
    cfg_.placement.spread = 4;
    cfg_.arrival.rate_hz = 19.5 * arrays;
    cfg_.arrival.max_requests = params.smoke ? 20000 : 250000;
    cfg_.arrival.seed = params.seed.value_or(2012);
    cfg_.failed_arrays = std::max(1, arrays / 32);
    cfg_.seed = params.seed.value_or(20120901);
    cfg_.threads = params.threads;
  }

  const char* work_unit() const override { return "requests"; }
  bool parallel() const override { return cfg_.threads != 1; }

  RepResult rep() override { return summarize(fleet::run_fleet(cfg_)); }

  std::vector<std::string> post_checks(const RepResult& first) override {
    fleet::FleetConfig serial = cfg_;
    serial.threads = 1;
    const RepResult r = summarize(fleet::run_fleet(serial));
    if (r.digest != first.digest)
      return {"fleet serial run (threads=1) diverged from the parallel one"};
    return r.errors;
  }

  /// run_fleet() recomposed call by call: the same routing, fan-out,
  /// aggregation and timeline, with the per-array serving cases as
  /// spans on the MultiKernel worker threads.
  RepResult traced_rep(Tracer& tr) override {
    const fleet::FleetConfig& cfg = cfg_;
    RepResult r;
    const auto fail = [&](const std::string& what, const Status& st) {
      r.errors.push_back(what + ": " + st.to_string());
      ++r.failed;
      return r;
    };

    const layout::Architecture arch = [&] {
      Span s(tr, "layout.architecture");
      return layout::Architecture::mirror(cfg.n, true);
    }();
    fleet::PlacementConfig pc = cfg.placement;
    pc.arrays = cfg.arrays;
    auto placed = [&] {
      Span s(tr, "fleet.placement");
      return fleet::build_placement(pc);
    }();
    if (!placed.is_ok()) return fail("placement", placed.status());
    const fleet::Placement& placement = placed.value();

    std::uint64_t seed_state = cfg.seed;
    Rng route_rng(splitmix64(seed_state));
    Rng fail_rng(splitmix64(seed_state));
    const std::size_t arrays = static_cast<std::size_t>(cfg.arrays);
    std::vector<std::uint64_t> case_seeds(arrays);
    for (auto& s : case_seeds) s = splitmix64(seed_state);

    std::vector<std::vector<workload::TracePoint>> traces(arrays);
    std::vector<std::vector<int>> trace_volume(arrays);
    std::vector<int> failed_disk_of(arrays, -1);
    fleet::FleetReport report;
    report.arrays = cfg.arrays;
    report.volumes = pc.volumes;
    {
      Span s(tr, "fleet.route");
      auto proc_r = workload::make_arrival_process(cfg.arrival);
      if (!proc_r.is_ok()) return fail("arrival process", proc_r.status());
      const auto proc = std::move(proc_r).take();
      Rng arrival_rng(cfg.arrival.seed);
      double t = proc->first_arrival_s();
      for (int i = 0; i < cfg.arrival.max_requests; ++i) {
        const int v = static_cast<int>(
            route_rng.next_below(static_cast<std::uint64_t>(pc.volumes)));
        const int sg = static_cast<int>(route_rng.next_below(
            static_cast<std::uint64_t>(pc.segments_per_volume)));
        const int forced = proc->write_override();
        const bool write = forced >= 0
                               ? forced == 1
                               : route_rng.next_bool(cfg.rw_mix.write_fraction);
        const std::size_t a =
            static_cast<std::size_t>(placement.array_of(v, sg));
        traces[a].push_back({t, write});
        trace_volume[a].push_back(v);
        ++report.requests_routed;
        const double d = proc->next_delay(arrival_rng);
        if (d < 0.0) break;
        t += d;
      }
      std::vector<int> order(arrays);
      std::iota(order.begin(), order.end(), 0);
      for (int i = 0; i < cfg.failed_arrays; ++i) {
        const std::size_t j =
            static_cast<std::size_t>(i) +
            static_cast<std::size_t>(fail_rng.next_below(
                static_cast<std::uint64_t>(cfg.arrays - i)));
        std::swap(order[static_cast<std::size_t>(i)], order[j]);
      }
      for (int i = 0; i < cfg.failed_arrays; ++i) {
        const std::size_t a =
            static_cast<std::size_t>(order[static_cast<std::size_t>(i)]);
        failed_disk_of[a] = static_cast<int>(fail_rng.next_below(
            static_cast<std::uint64_t>(arch.total_disks())));
      }
    }
    report.failed_arrays = cfg.failed_arrays;

    struct Outcome {
      recon::OnlineReport report;
      Status status = Status::ok();
      DiskUse use;
      double case_s = 0.0;
    };
    std::vector<Outcome> outcomes;
    const double mk_t0 = now_s();
    {
      Span mk(tr, "sim.multikernel");
      const int parent = mk.id();
      sim::MultiKernel kernel(sim::MultiKernelOptions{cfg.threads});
      outcomes = kernel.map(arrays, [&](std::size_t a) -> Outcome {
        Outcome out;
        const double t0 = now_s();
        std::optional<array::DiskArray> arr;
        {
          Span s(tr, "array.construct", parent);
          array::ArrayConfig acfg;
          acfg.arch = arch;
          acfg.stripes = cfg.stacks * acfg.arch.total_disks();
          acfg.content_bytes = 64;
          arr.emplace(acfg);
          if (failed_disk_of[a] >= 0) arr->fail_physical(failed_disk_of[a]);
        }
        recon::OnlineConfig ocfg;
        if (traces[a].empty()) {
          ocfg.arrival.kind = workload::ArrivalKind::kPoisson;
          ocfg.arrival.max_requests = 0;
        } else {
          ocfg.arrival.kind = workload::ArrivalKind::kTrace;
          ocfg.arrival.trace = traces[a];
          ocfg.arrival.max_requests = static_cast<int>(traces[a].size());
        }
        ocfg.arrival.seed = case_seeds[a];
        ocfg.record_latencies = true;
        auto run = [&] {
          Span s(tr, "recon.online", parent);
          return recon::run_online_reconstruction(*arr, ocfg);
        }();
        if (run.is_ok())
          out.report = std::move(run).take();
        else
          out.status = run.status();
        out.use = disk_use(*arr);
        out.case_s = now_s() - t0;
        return out;
      });
    }
    const double mk_wall = now_s() - mk_t0;
    for (const Outcome& o : outcomes)
      if (!o.status.is_ok()) return fail("array serving case", o.status);

    std::uint64_t digest = fleet::kDigestSeed;
    std::size_t samples = 0;
    int degraded_volumes = 0;
    {
      Span s(tr, "util.stats");
      SampleSet all_latencies;
      all_latencies.reserve(static_cast<std::size_t>(report.requests_routed));
      std::vector<SampleSet> volume_latencies(
          static_cast<std::size_t>(pc.volumes));
      RunningStat rebuilds;
      for (std::size_t a = 0; a < arrays; ++a) {
        const recon::OnlineReport& rep = outcomes[a].report;
        if (rep.latencies.size() != traces[a].size()) {
          r.errors.push_back("per-array latency record does not match its trace");
          return r;
        }
        for (std::size_t i = 0; i < rep.latencies.size(); ++i) {
          const double lat = rep.latencies[i];
          if (lat < 0.0) continue;
          all_latencies.add(lat);
          volume_latencies[static_cast<std::size_t>(trace_volume[a][i])].add(
              lat);
          samples += 2;
        }
        report.requests_completed += rep.requests_completed;
        report.degraded_reads += rep.degraded_reads;
        if (failed_disk_of[a] >= 0) rebuilds.add(rep.rebuild_done_s);
        double sim_end = traces[a].empty() ? 0.0 : traces[a].back().t_s;
        if (rep.rebuild_done_s > sim_end) sim_end = rep.rebuild_done_s;
        if (rep.max_latency_s > 0.0 && !traces[a].empty())
          sim_end = std::max(sim_end, traces[a].back().t_s + rep.max_latency_s);
        report.sim_array_seconds += sim_end;
        digest = fleet::mix(digest, rep.rebuild_done_s);
        digest = fleet::mix(digest,
                            static_cast<std::uint64_t>(rep.requests_completed));
        digest =
            fleet::mix(digest, static_cast<std::uint64_t>(rep.degraded_reads));
        digest = fleet::mix(digest, rep.mean_latency_s);
        digest = fleet::mix(digest, rep.p99_latency_s);
      }
      if (!all_latencies.empty()) {
        report.mean_latency_s = all_latencies.mean();
        report.p99_latency_s = all_latencies.percentile(99.0);
        report.p999_latency_s = all_latencies.percentile(99.9);
        report.max_latency_s = all_latencies.max();
      }
      report.mean_rebuild_s = rebuilds.mean();
      report.max_rebuild_s = rebuilds.max();
      for (int v = 0; v < pc.volumes; ++v) {
        bool degraded = false;
        for (const int a : placement.arrays_of(v))
          if (failed_disk_of[static_cast<std::size_t>(a)] >= 0) {
            degraded = true;
            break;
          }
        const SampleSet& lat = volume_latencies[static_cast<std::size_t>(v)];
        const double p99 = lat.empty() ? 0.0 : lat.percentile(99.0);
        if (degraded) ++degraded_volumes;
        if (!lat.empty() && p99 > report.worst_volume_p99_s)
          report.worst_volume_p99_s = p99;
        if (degraded && !lat.empty() &&
            p99 > report.worst_degraded_volume_p99_s)
          report.worst_degraded_volume_p99_s = p99;
      }
      report.degraded_volume_fraction = static_cast<double>(degraded_volumes) /
                                        static_cast<double>(pc.volumes);
    }

    fleet::TimelineConfig tc = cfg.timeline;
    tc.arrays = cfg.arrays;
    tc.seed = splitmix64(seed_state);
    if (cfg.derive_repair_hours && report.mean_rebuild_s > 0.0)
      tc.repair_hours =
          report.mean_rebuild_s * cfg.repair_capacity_scale / 3600.0;
    {
      Span s(tr, "recon.reliability");
      recon::MttdlParams mp;
      mp.disk_mttf_hours = tc.disk_mttf_hours;
      mp.mttr_hours = tc.repair_hours;
      const double mttdl = recon::estimate_mttdl(arch, mp).mttdl_hours;
      const double loss_rate =
          mttdl > 0.0 ? static_cast<double>(cfg.arrays) / mttdl : 0.0;
      report.fleet_mttdl_hours = loss_rate > 0.0 ? 1.0 / loss_rate : 0.0;
    }
    auto tl = [&] {
      Span s(tr, "fleet.timeline");
      return fleet::run_failure_timeline(
          layout::Architecture::mirror(cfg.n, true), tc);
    }();
    if (!tl.is_ok()) return fail("failure timeline", tl.status());
    report.timeline = std::move(tl).take();

    digest = fleet::mix(digest, static_cast<std::uint64_t>(report.requests_routed));
    digest =
        fleet::mix(digest, static_cast<std::uint64_t>(report.requests_completed));
    digest = fleet::mix(digest, static_cast<std::uint64_t>(report.degraded_reads));
    digest = fleet::mix(digest, report.mean_latency_s);
    digest = fleet::mix(digest, report.p99_latency_s);
    digest = fleet::mix(digest, report.p999_latency_s);
    digest = fleet::mix(digest, report.worst_volume_p99_s);
    digest = fleet::mix(digest, report.worst_degraded_volume_p99_s);
    digest = fleet::mix(digest, report.degraded_volume_fraction);
    digest = fleet::mix(digest, report.mean_rebuild_s);
    digest = fleet::mix(digest, report.max_rebuild_s);
    digest = fleet::mix(digest, report.fleet_mttdl_hours);
    digest = fleet::mix(digest, report.timeline.digest);
    report.digest = digest;

    const double transitions = static_cast<double>(report.timeline.transitions);
    const double degraded_reads = static_cast<double>(report.degraded_reads);
    r = summarize(std::move(report));

    double ops = 0.0, sequential = 0.0, content = 0.0, case_s = 0.0;
    double util_max = 0.0, imbalance_sum = 0.0, retries = 0.0;
    int rebuilding = 0;
    for (std::size_t a = 0; a < arrays; ++a) {
      const Outcome& o = outcomes[a];
      ops += static_cast<double>(o.use.ops);
      sequential += static_cast<double>(o.use.sequential);
      content += o.use.content_bytes;
      case_s += o.case_s;
      retries += static_cast<double>(o.report.io_retries);
      if (failed_disk_of[a] < 0 || o.report.rebuild_done_s <= 0.0) continue;
      ++rebuilding;
      util_max = std::max(util_max, o.use.busy_max_s / o.report.rebuild_done_s);
      if (o.use.busy_mean_s > 0.0)
        imbalance_sum += o.use.busy_max_s / o.use.busy_mean_s;
    }
    const double threads = static_cast<double>(
        cfg.threads == 0 ? std::max(1u, std::thread::hardware_concurrency())
                         : cfg.threads);
    r.counts["array.content_mb"] = content / 1e6;
    r.counts["disk.ops"] = ops;
    r.counts["disk.sequential_frac"] = ops > 0.0 ? sequential / ops : 0.0;
    r.counts["disk.util_max"] = util_max;
    r.counts["disk.util_imbalance"] =
        rebuilding > 0 ? imbalance_sum / rebuilding : 0.0;
    r.counts["fleet.timeline.transitions"] = transitions;
    r.counts["recon.online.degraded_reads"] = degraded_reads;
    r.counts["recon.online.completed_frac"] =
        r.attempted > 0 ? static_cast<double>(r.attempted - r.failed) /
                              static_cast<double>(r.attempted)
                        : 0.0;
    r.counts["recon.online.io_retries"] = retries;
    r.counts["sim.multikernel.cases"] = static_cast<double>(arrays);
    r.counts["sim.multikernel.case_s_sum"] = case_s;
    r.counts["sim.multikernel.parallel_eff"] =
        mk_wall > 0.0 ? case_s / (threads * mk_wall) : 0.0;
    r.counts["util.stats.samples"] = static_cast<double>(samples);
    return r;
  }

 private:
  static RepResult summarize(Result<fleet::FleetReport> res) {
    RepResult r;
    if (!res.is_ok()) {
      r.errors.push_back("run_fleet failed: " + res.status().to_string());
      r.failed = 1;
      return r;
    }
    const fleet::FleetReport& rep = res.value();
    r.digest = rep.digest;
    r.work = static_cast<double>(rep.requests_routed);
    r.attempted = rep.requests_routed;
    r.failed = rep.requests_routed - rep.requests_completed;
    r.model["sim_read_p99_s"] = rep.p99_latency_s;
    r.model["sim_worst_volume_p99_s"] = rep.worst_degraded_volume_p99_s;
    r.model["sim_rebuild_s"] = rep.mean_rebuild_s;
    r.model["sim_concurrent_rebuilds"] = rep.timeline.mean_concurrent_rebuilds;
    return r;
  }

  fleet::FleetConfig cfg_;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_cell(const Params& params) {
  return std::make_unique<FleetCell>(params);
}

}  // namespace smabench
