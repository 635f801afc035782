// rebuild_read and rebuild_write_qos: one online rebuild of mirror(5),
// shifted and traditional, 2048 stacks, disk 0 failed.
//
// rebuild_read is the bench_sim_kernel end-to-end case: 600 reads at
// 30 Hz while ~103k rebuild reads drain, so the event kernel, batched
// drains, disk model and stripe planner do nearly all the work.
// rebuild_write_qos drives the same arrays with 50,000 requests, 30 %
// writes and the adaptive throttle, which turns batched drains off: one
// event per element, write fan-out, QoS admission and 50k-sample
// statistics.
#include <optional>
#include <string>
#include <utility>

#include "fleet/digest.hpp"
#include "recon/online.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace smabench {

namespace {

using namespace sma;

struct Shape {
  int stacks = 2048;
  int requests = 600;
  double write_fraction = 0.0;
  bool adaptive_qos = false;
};

array::ArrayConfig array_config(bool shifted, int stacks) {
  array::ArrayConfig cfg;
  cfg.arch = layout::Architecture::mirror(5, shifted);
  cfg.stripes = stacks * cfg.arch.total_disks();
  cfg.rotate = true;
  cfg.spec = disk::DiskSpec::savvio_10k3();
  cfg.content_bytes = 256;
  cfg.logical_element_bytes = 4ull * 1000 * 1000;
  cfg.seed = 20120901;
  return cfg;
}

class Rebuild : public Workload {
 public:
  Rebuild(const Params& params, Shape shape) : shape_(shape) {
    cfg_.arrival.rate_hz = 30.0;
    cfg_.arrival.max_requests = shape.requests;
    cfg_.arrival.seed = params.seed.value_or(2012);
    cfg_.mix.write_fraction = shape.write_fraction;
    if (shape.adaptive_qos) {
      cfg_.qos.policy = workload::RebuildPolicy::kAdaptive;
      cfg_.qos.p99_target_s = 0.12;
    }
  }

  const char* work_unit() const override { return "disk_ops"; }

  void setup() override {
    // Timing-only runs never read contents, so the arrays skip
    // initialize(), as bench_sim_kernel does.
    for (int i = 0; i < 2; ++i) {
      arrays_[i].emplace(array_config(i == 0, shape_.stacks));
      arrays_[i]->fail_physical(0);
    }
  }

  RepResult rep() override {
    RepResult r;
    r.digest = fleet::kDigestSeed;
    double done[2] = {0.0, 0.0};
    for (int i = 0; i < 2; ++i) {
      array::DiskArray& arr = *arrays_[i];
      arr.reset_timelines();
      arr.reset_counters();
      auto run = recon::run_online_reconstruction(arr, cfg_);
      done[i] = account(r, run, disk_use(arr), i == 0);
    }
    check_order(r, done);
    return r;
  }

  RepResult traced_rep(Tracer& tracer) override {
    RepResult r;
    r.digest = fleet::kDigestSeed;
    double done[2] = {0.0, 0.0};
    DiskUse use[2];
    double content_bytes = 0.0;
    std::size_t samples = 0;
    recon::OnlineConfig cfg = cfg_;
    // Bookkeeping only: the report is bit-identical either way (held by
    // the simulator's tests); the latencies feed the statistics replay.
    cfg.record_latencies = true;
    for (int i = 0; i < 2; ++i) {
      double t0 = now_s();
      std::optional<array::DiskArray> arr;
      {
        Span s(tracer, "array.construct");
        arr.emplace(array_config(i == 0, shape_.stacks));
        arr->fail_physical(0);
      }
      r.extra_s += now_s() - t0;
      auto run = [&] {
        Span s(tracer, "recon.online");
        return recon::run_online_reconstruction(*arr, cfg);
      }();
      use[i] = disk_use(*arr);
      content_bytes += use[i].content_bytes;
      done[i] = account(r, run, use[i], i == 0);
      if (!run.is_ok()) continue;
      const recon::OnlineReport& rep = run.value();
      if (i == 0) record_counts(r, rep, use[0]);

      // The engine's own SampleSet work runs inside recon.online; this
      // replays the rep's latencies through SampleSet to price it. The
      // untraced rep neither replays nor frees its arrays.
      t0 = now_s();
      {
        Span s(tracer, "util.stats");
        SampleSet replay;
        for (const double lat : rep.latencies)
          if (lat >= 0.0) replay.add(lat);
        samples += replay.count();
        if (!replay.empty() && !(replay.percentile(99.0) > 0.0))
          r.errors.push_back("statistics replay produced no p99");
      }
      {
        Span s(tracer, "array.destroy");
        arr.reset();
      }
      r.extra_s += now_s() - t0;
    }
    check_order(r, done);
    r.counts["array.content_mb"] = content_bytes / 1e6;
    r.counts["disk.ops"] = r.work;
    r.counts["disk.util_imbalance_traditional"] =
        imbalance(use[1]);
    r.counts["util.stats.samples"] = static_cast<double>(samples);
    return r;
  }

 private:
  static double imbalance(const DiskUse& u) {
    return u.busy_mean_s > 0.0 ? u.busy_max_s / u.busy_mean_s : 0.0;
  }

  /// Fold one array's run into `r`; returns its rebuild time.
  static double account(RepResult& r,
                        const Result<recon::OnlineReport>& run,
                        const DiskUse& use, bool shifted) {
    const char* side = shifted ? "shifted" : "traditional";
    if (!run.is_ok()) {
      r.errors.push_back(std::string(side) + " online rebuild failed: " +
                         run.status().to_string());
      ++r.failed;
      return 0.0;
    }
    const recon::OnlineReport& rep = run.value();
    r.digest = fleet::mix(r.digest, rep.rebuild_done_s);
    r.digest = fleet::mix(r.digest, rep.mean_latency_s);
    r.digest = fleet::mix(r.digest, rep.p99_latency_s);
    r.digest = fleet::mix(r.digest, rep.p99_write_latency_s);
    r.digest = fleet::mix(r.digest, static_cast<std::uint64_t>(rep.degraded_reads));
    r.digest =
        fleet::mix(r.digest, static_cast<std::uint64_t>(rep.requests_completed));
    r.digest = fleet::mix(r.digest, use.ops);
    r.work += static_cast<double>(use.ops);
    r.attempted += rep.requests_issued;
    r.failed += rep.requests_issued - rep.requests_completed + rep.io_failures;
    if (shifted) {
      r.model["sim_read_p99_s"] = rep.p99_latency_s;
      r.model["sim_write_p99_s"] = rep.p99_write_latency_s;
      r.model["sim_rebuild_s"] = rep.rebuild_done_s;
    }
    return rep.rebuild_done_s;
  }

  static void record_counts(RepResult& r, const recon::OnlineReport& rep,
                            const DiskUse& use) {
    const auto frac = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    r.counts["disk.sequential_frac"] = frac(
        static_cast<double>(use.sequential), static_cast<double>(use.ops));
    r.counts["disk.util_max"] = frac(use.busy_max_s, rep.rebuild_done_s);
    r.counts["disk.util_imbalance"] = imbalance(use);
    r.counts["recon.online.degraded_reads"] =
        static_cast<double>(rep.degraded_reads);
    r.counts["recon.online.completed_frac"] =
        frac(static_cast<double>(rep.requests_completed),
             static_cast<double>(rep.requests_issued));
    r.counts["recon.online.io_retries"] = static_cast<double>(rep.io_retries);
    r.counts["recon.online.hedged_reads"] =
        static_cast<double>(rep.hedged_reads);
    r.counts["recon.online.hedge_waste_frac"] =
        frac(static_cast<double>(rep.hedge_wasted),
             static_cast<double>(rep.hedged_reads));
    r.counts["workload.qos.throttle_adjustments"] = rep.throttle_adjustments;
    r.counts["workload.qos.slo_violation_pct"] = rep.slo_violation_pct;
  }

  /// The paper's claim on this workload: the shifted arrangement
  /// finishes its rebuild first.
  static void check_order(RepResult& r, const double done[2]) {
    if (!(done[0] > 0.0 && done[0] < done[1]))
      r.errors.push_back("shifted rebuild (" + std::to_string(done[0]) +
                         " s) did not finish before traditional (" +
                         std::to_string(done[1]) + " s)");
  }

  Shape shape_;
  recon::OnlineConfig cfg_;
  std::optional<array::DiskArray> arrays_[2];  // shifted, traditional
};

}  // namespace

std::unique_ptr<Workload> make_rebuild_read(const Params& params) {
  Shape shape;
  if (params.smoke) {
    shape.stacks = 64;
    shape.requests = 200;
  }
  return std::make_unique<Rebuild>(params, shape);
}

std::unique_ptr<Workload> make_rebuild_write_qos(const Params& params) {
  Shape shape;
  shape.requests = params.smoke ? 2000 : 50000;
  if (params.smoke) shape.stacks = 64;
  shape.write_fraction = 0.3;
  shape.adaptive_qos = true;
  return std::make_unique<Rebuild>(params, shape);
}

}  // namespace smabench
