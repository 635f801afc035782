// smactl — command-line driver for the shifted-mirror-arrangement
// library: inspect layouts, plan and execute reconstructions, run the
// on-line rebuild and scrub simulations, and regenerate the analytic
// tables, all without writing code.
//
// Every subcommand consumes one shared option table (common_from /
// arch_from / array_cfg_from below) instead of re-parsing flags ad
// hoc, so the layout spelling, seed, and observer flags mean the same
// thing everywhere:
//
//   --n=<disks>            array order
//   --parity               add the dedicated parity disk
//   --arrangement=<spec>   layout registry spec: "shifted",
//                          "traditional", "iterated:3", "lrc:groups=2",
//                          "pyramid:groups=2", "zigzag", ... — see
//                          `smactl layouts`.
//   --seed=<s>             RNG seed (per-command default)
//   --stacks=<k>           stripes = stacks * total disks
//   --jsonl=<f> --chrome=<f> --timeline-csv=<f> --interval=<s>
//                          observer sinks (online / qos / trace)
//
// A flag the subcommand never reads is a usage error (exit 2).
//
//   smactl layouts
//   smactl layout    --n=3 [--arrangement=shifted] [--iterations=K]
//   smactl plan      --n=3 [--parity] --fail=0,6
//   smactl rebuild   --n=5 [--parity] --fail=2 [--stacks=2]
//   smactl online    --n=5 [--rate=30] [--reads=500]
//   smactl qos       --n=5 [--policy=adaptive] [--p99-ms=120]
//                    [--arrival=poisson|closed_loop|bursty|trace]
//                    [--budget=B] [--trace-file=F] [--export-trace=F]
//   smactl trace     --n=5 [--jsonl=F] [--chrome=F]
//                    [--timeline-csv=F] [--interval=0.5]
//   smactl scrub     --n=5 [--parity] [--errors=10] [--seed=1]
//   smactl crash     --n=5 [--parity] [--requests=40]
//                    [--crash-after=K] [--region-stripes=2] [--quiesce=10]
//                    [--full-resync] [--fail=d] [--soak=N] [--seed=1]
//   smactl write     --n=5 [--parity] [--requests=1000]
//   smactl table1    [--n-min=3] [--n-max=7]
//   smactl fig7      [--n-max=50]
//   smactl three-mirror --n=5 [--replicas=2] --fail=0,8
//   smactl degraded  --n=5 [--reads=2000] [--fail=0]
//   smactl reliability --n=5 [--parity] [--mttr-h=1]
//   smactl repair    --n=5 [--parity] [--fail=0] [--policy=dedicated]
//                    [--spares=1] [--interrupt-after=K] [--second-fail=1]
//                    | --mc-trials=T [--mttf-h=400] [--mttr-h=1]
//                    [--enclosure-size=E] [--replenish-h=H]
//   smactl update-penalty [--n=5]
//   smactl chaos     [--scenario=<spec>] [--seed=<u64>] [--hedge]
//                    [--arrangement=shifted|traditional]
//                    [--sabotage=none|skip-resync|leak-corruption]
//   smactl chaos     --soak=N [--threads=K] [--seed=<u64>] [--n=4]
//                    [--arrangement=shifted|traditional]
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>

#include "chaos/engine.hpp"
#include "chaos/scenario.hpp"
#include "core/trace.hpp"
#include "core/volume.hpp"
#include "fleet/fleet.hpp"
#include "integrity/crash_workload.hpp"
#include "integrity/resync.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "obs/trace_sink.hpp"
#include "layout/properties.hpp"
#include "layout/registry.hpp"
#include "recon/analytic.hpp"
#include "ec/evenodd.hpp"
#include "ec/rdp.hpp"
#include "ec/update_penalty.hpp"
#include "recon/online.hpp"
#include "recon/plan.hpp"
#include "recon/reliability.hpp"
#include "recon/scrub.hpp"
#include "repair/orchestrator.hpp"
#include "sim/multi_kernel.hpp"
#include "sim/simulation.hpp"
#include "workload/arrival.hpp"
#include "workload/degraded_read.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "workload/write_executor.hpp"

namespace {

using namespace sma;

int usage_stream(std::FILE* out, const char* error) {
  if (error) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(out, "%s",
               "usage: smactl <command> [flags]\n"
               "  layouts       list the registered layout algorithms\n"
               "  layout        render an arrangement and its properties\n"
               "  plan          reconstruction read plan for failed disks\n"
               "  rebuild       execute + verify a rebuild, report throughput\n"
               "  online        on-line rebuild with user reads\n"
               "  qos           online rebuild under a QoS policy: arrival\n"
               "                processes (--arrival=poisson|closed_loop|\n"
               "                bursty|trace --trace-file=<f>), rebuild\n"
               "                throttling (--policy=strict|fixed|adaptive\n"
               "                --budget=<B> --p99-ms=<t> --interval=<s>),\n"
               "                arrival-trace export (--export-trace=<f>)\n"
               "  trace         online rebuild with tracing: event stream\n"
               "                (--jsonl=<f>), Perfetto (--chrome=<f>),\n"
               "                per-disk timelines (--timeline-csv=<f>,\n"
               "                --interval=<s>)\n"
               "  scrub         inject latent errors, scrub, report repairs\n"
               "  crash         power-loss injection: crash a write\n"
               "                workload, power-cycle, dirty-region resync,\n"
               "                rebuild + verifying scrub (--crash-after=<w>\n"
               "                --region-stripes=<g> --full-resync --fail=<d>\n"
               "                --soak=<runs>)\n"
               "  write         run the Fig. 10 write workload\n"
               "  table1        regenerate Table I\n"
               "  fig7          regenerate Fig. 7 ratios\n"
               "  three-mirror  rebuild with --replicas=R arrays (default 2)\n"
               "  degraded      user reads against a degraded array\n"
               "  faults        rebuild under injected disk faults\n"
               "                (--latent=<rate> --transient=<p> --slow=<x>\n"
               "                 --retries=<k> --fault-seed=<s>)\n"
               "  reliability   fatal failure sets + MTTDL estimate\n"
               "  repair        orchestrated rebuild through the lifecycle\n"
               "                state machine (--policy=none|dedicated|\n"
               "                distributed --spares=<k>\n"
               "                --interrupt-after=<s>\n"
               "                --second-fail=<d>), or Monte-Carlo lifetimes\n"
               "                (--mc-trials=<t> --mttf-h --mttr-h\n"
               "                 --enclosure-size=<e> --enclosure-factor=<x>\n"
               "                 --spares=<k> --replenish-h=<h>)\n"
               "  update-penalty  parity updates per data write, by code\n"
               "  simbench      simulation-kernel throughput: timed online\n"
               "                rebuild under a queue backend\n"
               "                (--kernel=calendar|heap|legacy, default from\n"
               "                 SMA_SIM_QUEUE; --batch=0|1 --threads=<k>\n"
               "                 --cases=<c> --reps=<r> --stacks --rate\n"
               "                 --requests --json)\n"
               "  fleet         many arrays behind a volume placement tier\n"
               "                serving one aggregate stream (--arrays=<a>\n"
               "                 --layout=<spec[,spec]> cycled per array\n"
               "                 --placement=round_robin|random|declustered\n"
               "                 --volumes --segments --spread --failed=<f>\n"
               "                 --requests --rate --threads --horizon-h\n"
               "                 --mttf-h)\n"
               "  chaos         compound fault scenario through the chaos\n"
               "                engine + invariant oracle: --scenario=<spec>\n"
               "                replays a spec (pair with the --seed=<u64> a\n"
               "                violation names), --seed alone composes one,\n"
               "                neither runs the reference compound\n"
               "                (--hedge --soak=<N> --threads=<k>\n"
               "                 --sabotage=none|skip-resync|leak-corruption;\n"
               "                 --soak takes --arrangement, not --hedge,\n"
               "                 --parity=false or --sabotage)\n"
               "common flags: --n=<disks> --parity --arrangement=<spec>\n"
               "              (see 'smactl layouts') --seed=<s> --stacks=<k>\n"
               "unknown flags are usage errors\n"
               "observer flags (online/qos/trace): --jsonl=<f> --chrome=<f>\n"
               "              --timeline-csv=<f> --interval=<s>\n"
               "exit codes: 0 success, 1 runtime failure, 2 usage error;\n"
               "`smactl <command> --help` prints this text\n");
  return 2;
}

int usage(const char* error = nullptr) { return usage_stream(stderr, error); }

// A request rate must be finite and > 0: its inverse is an exponential
// mean, and NaN would pass a `<= 0` test.
bool finite_positive(double v) { return std::isfinite(v) && v > 0; }

// ---------------------------------------------------------------------------
// Shared option table. One parse for the flags every subcommand keeps
// re-reading: the array shape, the layout spelling, and the seed.
// ---------------------------------------------------------------------------

struct CommonDefaults {
  int n = 3;
  int seed = 1;
  int stacks = 1;
};

struct CommonOptions {
  int n = 3;
  bool parity = false;
  /// Layout registry spec, resolved through AlgorithmRegistry::global().
  std::string arrangement = "shifted";
  std::uint64_t seed = 1;
  int stacks = 1;
};

CommonOptions common_from(const Flags& flags, const CommonDefaults& d = {}) {
  CommonOptions c;
  c.n = flags.get_int("n", d.n);
  c.parity = flags.get_bool("parity", false);
  c.arrangement = flags.get("arrangement", c.arrangement);
  c.seed = static_cast<std::uint64_t>(flags.get_int("seed", d.seed));
  c.stacks = flags.get_int("stacks", d.stacks);
  return c;
}

// `replicas` is the replica-array count R; only three-mirror sets it
// (--replicas). The parity wrapper keeps one replica array.
Result<layout::Architecture> arch_from(const CommonOptions& c,
                                       int replicas = 1) {
  if (c.parity && replicas != 1)
    return invalid_argument("--parity takes one replica array");
  return c.parity
             ? layout::Architecture::mirror_with_parity_named(c.n,
                                                              c.arrangement)
             : layout::Architecture::mirror_named(c.n, c.arrangement,
                                                  replicas);
}

Result<array::ArrayConfig> array_cfg_from(const Flags& flags,
                                          const CommonDefaults& d = {},
                                          int replicas = 1) {
  const CommonOptions c = common_from(flags, d);
  auto arch = arch_from(c, replicas);
  if (!arch.is_ok()) return arch.status();
  // Sizes the array and its disks would otherwise assert on (or, for a
  // negative or NaN --element-mb, convert to an integer undefinedly).
  const int content_bytes = flags.get_int("content-bytes", 256);
  const double element_bytes = flags.get_double("element-mb", 4.0) * 1e6;
  if (c.stacks < 1) return invalid_argument("--stacks must be >= 1");
  if (content_bytes < 1)
    return invalid_argument("--content-bytes must be >= 1");
  if (!(element_bytes >= 1.0 && element_bytes < 1e18))
    return invalid_argument(
        "--element-mb must be finite and at least one byte (1e-6)");
  array::ArrayConfig cfg;
  cfg.arch = std::move(arch).take();
  cfg.stripes = c.stacks * cfg.arch.total_disks();
  cfg.content_bytes = static_cast<std::size_t>(content_bytes);
  cfg.logical_element_bytes = static_cast<std::uint64_t>(element_bytes);
  cfg.seed = c.seed;
  return cfg;
}

// --fail=<d> (default 0) for the single-failure online commands. An
// out-of-range disk is a usage error (false), never an assert abort.
bool fail_one_disk(const Flags& flags, array::DiskArray& arr) {
  const int d = flags.get_int("fail", 0);
  if (d < 0 || d >= arr.total_disks()) return false;
  arr.fail_physical(d);
  return true;
}

// Shared observer option table: --jsonl=<f> --chrome=<f>
// --timeline-csv=<f> [--interval=<s>] attach trace/metrics sinks to
// any simulating subcommand the same way; finish() writes the files.
class ObserverScope {
 public:
  /// A negative (or NaN) --interval is a usage error: check it before
  /// building a scope, whose metrics registry asserts on it.
  static bool interval_ok(const Flags& flags) {
    return flags.get_double("interval", 0.0) >= 0.0;
  }

  ObserverScope(const Flags& flags, bool force_trace, bool force_metrics,
                double default_interval)
      : jsonl_(flags.get("jsonl", "")),
        chrome_(flags.get("chrome", "")),
        timeline_csv_(flags.get("timeline-csv", "")) {
    metrics_.set_sample_interval(
        flags.get_double("interval", default_interval));
    if (force_trace || !jsonl_.empty() || !chrome_.empty())
      ob_.trace = &trace_;
    if (force_metrics || !timeline_csv_.empty()) ob_.metrics = &metrics_;
  }

  obs::Observer* attach() {
    return (ob_.trace || ob_.metrics) ? &ob_ : nullptr;
  }
  obs::TraceSink& trace() { return trace_; }
  obs::MetricsRegistry& metrics() { return metrics_; }

  /// Write whichever sink files were requested; 0 on success, 1 (with
  /// the failure on stderr) otherwise.
  int finish(const char* cmd) {
    for (const auto& [path, chrome] :
         {std::pair<std::string, bool>{jsonl_, false}, {chrome_, true}}) {
      if (path.empty()) continue;
      const Status st = chrome ? trace_.write_chrome_trace_file(path)
                               : trace_.write_jsonl_file(path);
      if (!st.is_ok()) {
        std::fprintf(stderr, "%s: %s\n", cmd, st.to_string().c_str());
        return 1;
      }
      std::printf("wrote %s\n", path.c_str());
    }
    if (!timeline_csv_.empty()) {
      if (!metrics_.write_timeline_csv(timeline_csv_)) {
        std::fprintf(stderr, "%s: failed to write %s\n", cmd,
                     timeline_csv_.c_str());
        return 1;
      }
      std::printf("wrote %s\n", timeline_csv_.c_str());
    }
    return 0;
  }

 private:
  std::string jsonl_;
  std::string chrome_;
  std::string timeline_csv_;
  obs::TraceSink trace_;
  obs::MetricsRegistry metrics_;
  obs::Observer ob_;
};

int cmd_layouts(const Flags&) {
  const auto& reg = layout::AlgorithmRegistry::global();
  std::printf("%-12s %-12s %s\n", "name", "2nd-failure", "summary");
  for (const auto& name : reg.names()) {
    auto desc = reg.find(name);
    if (!desc.is_ok()) continue;
    std::printf("%-12s %-12s %s\n", name.c_str(),
                desc.value()->supports_second_failure ? "yes" : "no",
                desc.value()->summary.c_str());
  }
  return 0;
}

int cmd_layout(const Flags& flags) {
  const CommonOptions c = common_from(flags);
  if (c.n < 1 || c.n > 12) return usage("--n must be in 1..12 for layout");
  std::string spec = c.arrangement;
  // --iterations=K without an explicit layout spelling means the
  // iterated family (the historical spelling of --arrangement=iterated:K).
  if (flags.has("iterations") && !flags.has("arrangement"))
    spec = "iterated:" + std::to_string(flags.get_int("iterations", 1));
  auto made = layout::make_arrangement(spec, c.n);
  if (!made.is_ok()) return usage(made.status().to_string().c_str());
  const layout::Arrangement& arr = made.value();
  std::printf("%s\n", layout::render_arrays(arr).c_str());
  std::printf("properties: %s\n",
              layout::evaluate_properties(arr).to_string().c_str());
  return 0;
}

int cmd_plan(const Flags& flags) {
  auto archr = arch_from(common_from(flags));
  if (!archr.is_ok()) return usage(archr.status().to_string().c_str());
  const auto arch = std::move(archr).take();
  const auto failed = flags.get_int_list("fail");
  if (failed.empty()) return usage("plan needs --fail=<disk,[disk]>");
  auto plan = recon::plan_reconstruction(arch, failed);
  if (!plan.is_ok()) {
    std::fprintf(stderr, "plan: %s\n", plan.status().to_string().c_str());
    return 1;
  }
  std::printf("%s, failed {", arch.name().c_str());
  for (const int d : failed) std::printf(" %d", d);
  std::printf(" }\n");
  std::printf("read accesses (availability metric): %d\n",
              plan.value().read_accesses(arch));
  std::printf("availability reads (%zu):",
              plan.value().availability_reads.size());
  for (const auto& read : plan.value().availability_reads)
    std::printf(" d%d/r%d", read.logical_disk, read.row);
  std::printf("\nparity-rebuild reads: %zu\n",
              plan.value().parity_rebuild_reads.size());
  return 0;
}

int cmd_rebuild(const Flags& flags) {
  auto cfgr = array_cfg_from(flags);
  if (!cfgr.is_ok()) return usage(cfgr.status().to_string().c_str());
  auto cfg = std::move(cfgr).take();
  const auto failed = flags.get_int_list("fail");
  if (failed.empty()) return usage("rebuild needs --fail=<disk,[disk]>");
  array::DiskArray arr(cfg);
  arr.initialize();
  for (const int d : failed) {
    if (d < 0 || d >= arr.total_disks()) return usage("--fail out of range");
    arr.fail_physical(d);
  }
  auto report = recon::reconstruct(arr);
  if (!report.is_ok()) {
    std::fprintf(stderr, "rebuild: %s\n", report.status().to_string().c_str());
    return 1;
  }
  const auto& r = report.value();
  std::printf("%s: rebuilt %.0f MB, read %.0f MB in %.2f s "
              "(%.1f MB/s read throughput, %d access(es)/stripe); "
              "verification OK\n",
              cfg.arch.name().c_str(), r.logical_bytes_recovered / 1e6,
              r.logical_bytes_read / 1e6, r.read_makespan_s,
              r.read_throughput_mbps(), r.read_accesses_per_stripe);
  return 0;
}

int cmd_faults(const Flags& flags) {
  auto cfgr = array_cfg_from(flags);
  if (!cfgr.is_ok()) return usage(cfgr.status().to_string().c_str());
  auto cfg = std::move(cfgr).take();
  cfg.fault.latent_error_rate = flags.get_double("latent", 0.01);
  cfg.fault.transient_read_error_p = flags.get_double("transient", 0.0);
  cfg.fault.transient_write_error_p = cfg.fault.transient_read_error_p;
  cfg.fault.slow_factor = flags.get_double("slow", 1.0);
  cfg.fault.seed = static_cast<std::uint64_t>(flags.get_int("fault-seed", 1));
  cfg.io_max_retries = flags.get_int("retries", 2);
  // The chaos grammar's ranges, with the inert values allowed: a NaN
  // fails every comparison, so each check is written to reject it.
  const auto in_unit = [](double p) { return p >= 0.0 && p <= 1.0; };
  const double slow = cfg.fault.slow_factor;
  if (!in_unit(cfg.fault.latent_error_rate))
    return usage("--latent must lie in [0, 1]");
  if (!in_unit(cfg.fault.transient_read_error_p))
    return usage("--transient must lie in [0, 1]");
  if (!(slow >= 1.0 && std::isfinite(slow)))
    return usage("--slow must be finite and >= 1");
  if (cfg.io_max_retries < 0) return usage("--retries must be >= 0");
  array::DiskArray arr(cfg);
  arr.initialize();
  auto failed = flags.get_int_list("fail");
  if (failed.empty()) failed.push_back(0);
  for (const int d : failed) {
    if (d < 0 || d >= arr.total_disks()) return usage("--fail out of range");
    arr.fail_physical(d);
  }
  auto report = recon::reconstruct(arr);
  if (!report.is_ok()) {
    std::fprintf(stderr, "faults: %s\n", report.status().to_string().c_str());
    return 1;
  }
  const auto& r = report.value();
  std::printf(
      "%s: rebuilt under faults in %.2f s (%.1f MB/s read); latent hits "
      "%llu; fallbacks mirror/parity/codec = %llu/%llu/%llu; retries %llu; "
      "hard errors %llu; unrecoverable elements %llu%s\n",
      cfg.arch.name().c_str(), r.total_makespan_s, r.read_throughput_mbps(),
      static_cast<unsigned long long>(r.latent_sectors_hit),
      static_cast<unsigned long long>(r.fallback_to_mirror),
      static_cast<unsigned long long>(r.fallback_to_parity),
      static_cast<unsigned long long>(r.fallback_to_codec),
      static_cast<unsigned long long>(r.retried_ops),
      static_cast<unsigned long long>(r.hard_errors),
      static_cast<unsigned long long>(r.unrecoverable_elements),
      r.degraded() ? " [DEGRADED]" : "; verification OK");
  return 0;
}

int cmd_online(const Flags& flags) {
  auto cfgr = array_cfg_from(flags, {/*n=*/3, /*seed=*/7, /*stacks=*/4});
  if (!cfgr.is_ok()) return usage(cfgr.status().to_string().c_str());
  auto cfg = std::move(cfgr).take();
  array::DiskArray arr(cfg);
  if (!fail_one_disk(flags, arr)) return usage("--fail out of range");
  if (!ObserverScope::interval_ok(flags))
    return usage("--interval must be >= 0");
  ObserverScope scope(flags, /*force_trace=*/false, /*force_metrics=*/false,
                      /*default_interval=*/0.5);
  recon::OnlineConfig ocfg;
  ocfg.arrival.rate_hz = flags.get_double("rate", 30.0);
  if (!finite_positive(ocfg.arrival.rate_hz))
    return usage("--rate must be finite and > 0");
  ocfg.arrival.max_requests = flags.get_int("reads", 500);
  ocfg.arrival.seed = cfg.seed;
  ocfg.observer = scope.attach();
  auto report = recon::run_online_reconstruction(arr, ocfg);
  if (!report.is_ok()) {
    std::fprintf(stderr, "online: %s\n", report.status().to_string().c_str());
    return 1;
  }
  const auto& r = report.value();
  std::printf("%s: rebuild done at %.2f s; %zu user reads "
              "(%zu degraded); latency mean/p50/p95/p99 = "
              "%.1f/%.1f/%.1f/%.1f ms\n",
              cfg.arch.name().c_str(), r.rebuild_done_s, r.user_reads,
              r.degraded_reads, r.mean_latency_s * 1e3, r.p50_latency_s * 1e3,
              r.p95_latency_s * 1e3, r.p99_latency_s * 1e3);
  return scope.finish("online");
}

int cmd_qos(const Flags& flags) {
  auto cfgr = array_cfg_from(flags, {/*n=*/3, /*seed=*/7, /*stacks=*/4});
  if (!cfgr.is_ok()) return usage(cfgr.status().to_string().c_str());
  auto cfg = std::move(cfgr).take();
  array::DiskArray arr(cfg);
  if (!fail_one_disk(flags, arr)) return usage("--fail out of range");

  recon::OnlineConfig ocfg;
  auto kind = workload::arrival_kind_from(flags.get("arrival", "poisson"));
  if (!kind.is_ok()) return usage(kind.status().to_string().c_str());
  ocfg.arrival.kind = kind.value();
  ocfg.arrival.rate_hz = flags.get_double("rate", 40.0);
  if (!finite_positive(ocfg.arrival.rate_hz))
    return usage("--rate must be finite and > 0");
  ocfg.arrival.max_requests = flags.get_int("reads", 500);
  ocfg.arrival.seed = cfg.seed;
  ocfg.arrival.clients = flags.get_int("clients", 4);
  ocfg.arrival.burst_rate_hz = flags.get_double("burst-rate", 200.0);
  if (!finite_positive(ocfg.arrival.burst_rate_hz))
    return usage("--burst-rate must be finite and > 0");
  if (kind.value() == workload::ArrivalKind::kTrace) {
    const std::string path = flags.get("trace-file", "");
    if (path.empty()) return usage("--arrival=trace needs --trace-file=<csv>");
    auto points = workload::load_arrival_trace_csv(path);
    if (!points.is_ok()) {
      std::fprintf(stderr, "qos: %s\n", points.status().to_string().c_str());
      return 1;
    }
    ocfg.arrival.trace = std::move(points).take();
  }
  ocfg.mix.write_fraction = flags.get_double("writes", 0.0);
  if (!(ocfg.mix.write_fraction >= 0.0 && ocfg.mix.write_fraction <= 1.0))
    return usage("--writes must lie in [0, 1]");
  auto policy = workload::rebuild_policy_from(flags.get("policy", "adaptive"));
  if (!policy.is_ok()) return usage(policy.status().to_string().c_str());
  ocfg.qos.policy = policy.value();
  ocfg.qos.rebuild_budget = flags.get_int("budget", 0);
  ocfg.qos.p99_target_s = flags.get_double("p99-ms", 120.0) / 1e3;
  if (!(ocfg.qos.p99_target_s >= 0.0)) return usage("--p99-ms must be >= 0");
  ocfg.qos.control_interval_s = flags.get_double("interval", 0.25);
  if (!ObserverScope::interval_ok(flags))
    return usage("--interval must be >= 0");

  ObserverScope scope(flags, /*force_trace=*/true, /*force_metrics=*/false,
                      /*default_interval=*/0.25);
  ocfg.observer = scope.attach();
  auto report = recon::run_online_reconstruction(arr, ocfg);
  if (!report.is_ok()) {
    std::fprintf(stderr, "qos: %s\n", report.status().to_string().c_str());
    return 1;
  }
  const auto& r = report.value();
  std::printf(
      "%s [%s/%s]: rebuild done at %.2f s; %zu/%zu requests completed "
      "(%zu degraded); read latency p50/p95/p99/p99.9 = "
      "%.1f/%.1f/%.1f/%.1f ms\n",
      cfg.arch.name().c_str(), workload::to_string(ocfg.arrival.kind),
      workload::to_string(ocfg.qos.policy), r.rebuild_done_s,
      r.requests_completed, r.requests_issued, r.degraded_reads,
      r.p50_latency_s * 1e3, r.p95_latency_s * 1e3, r.p99_latency_s * 1e3,
      r.p999_latency_s * 1e3);
  if (ocfg.qos.p99_target_s > 0)
    std::printf("SLO %.1f ms: %zu violations (%.2f%%); final budget %d, "
                "%d throttle adjustments, %zu control decisions\n",
                ocfg.qos.p99_target_s * 1e3, r.slo_violations,
                r.slo_violation_pct, r.final_rebuild_budget,
                r.throttle_adjustments,
                scope.trace().count(obs::EventKind::kThrottle));
  const std::string out = flags.get("export-trace", "");
  if (!out.empty()) {
    const auto points =
        workload::arrival_trace_from_events(scope.trace().events());
    const Status st = workload::write_arrival_trace_csv(out, points);
    if (!st.is_ok()) {
      std::fprintf(stderr, "qos: %s\n", st.to_string().c_str());
      return 1;
    }
    std::printf("wrote %zu arrival points to %s\n", points.size(),
                out.c_str());
  }
  return scope.finish("qos");
}

int cmd_trace(const Flags& flags) {
  auto cfgr = array_cfg_from(flags, {/*n=*/3, /*seed=*/7, /*stacks=*/4});
  if (!cfgr.is_ok()) return usage(cfgr.status().to_string().c_str());
  auto cfg = std::move(cfgr).take();
  array::DiskArray arr(cfg);
  if (!fail_one_disk(flags, arr)) return usage("--fail out of range");
  if (!ObserverScope::interval_ok(flags))
    return usage("--interval must be >= 0");

  ObserverScope scope(flags, /*force_trace=*/true, /*force_metrics=*/true,
                      /*default_interval=*/0.5);
  recon::OnlineConfig ocfg;
  ocfg.arrival.rate_hz = flags.get_double("rate", 30.0);
  if (!finite_positive(ocfg.arrival.rate_hz))
    return usage("--rate must be finite and > 0");
  ocfg.arrival.max_requests = flags.get_int("reads", 500);
  ocfg.arrival.seed = cfg.seed;
  ocfg.observer = scope.attach();
  auto report = recon::run_online_reconstruction(arr, ocfg);
  if (!report.is_ok()) {
    std::fprintf(stderr, "trace: %s\n", report.status().to_string().c_str());
    return 1;
  }

  std::printf("%s: rebuild done at %.2f s; %zu events "
              "(%zu service spans, %zu queue enters, %zu rebuild I/Os), "
              "%zu timeline samples x %zu columns\n",
              cfg.arch.name().c_str(), report.value().rebuild_done_s,
              scope.trace().size(),
              scope.trace().count(obs::EventKind::kServiceStart),
              scope.trace().count(obs::EventKind::kQueueEnter),
              scope.trace().count(obs::EventKind::kRebuildIssue),
              scope.metrics().timeline().size(),
              scope.metrics().columns().size());
  return scope.finish("trace");
}

int cmd_scrub(const Flags& flags) {
  auto cfgr = array_cfg_from(flags);
  if (!cfgr.is_ok()) return usage(cfgr.status().to_string().c_str());
  auto cfg = std::move(cfgr).take();
  array::DiskArray arr(cfg);
  arr.initialize();
  Rng rng(cfg.seed);
  const int errors = flags.get_int("errors", 10);
  const auto injected = recon::inject_latent_errors(arr, rng, errors);
  if (!injected.is_ok()) {
    std::string msg = "--errors: ";
    msg += injected.status().message();
    return usage(msg.c_str());
  }
  auto report = recon::scrub(arr);
  if (!report.is_ok()) {
    std::fprintf(stderr, "scrub: %s\n", report.status().to_string().c_str());
    return 1;
  }
  const auto& r = report.value();
  std::printf("%s: injected %d; scanned %llu elements in %.2f s; "
              "%llu mismatches, repaired %llu data / %llu mirror / "
              "%llu parity, %llu undecidable\n",
              cfg.arch.name().c_str(), errors,
              static_cast<unsigned long long>(r.elements_scanned),
              r.makespan_s,
              static_cast<unsigned long long>(r.mismatches),
              static_cast<unsigned long long>(r.repaired_data),
              static_cast<unsigned long long>(r.repaired_mirror),
              static_cast<unsigned long long>(r.repaired_parity),
              static_cast<unsigned long long>(r.undecidable));
  return 0;
}

// One crash/recover cycle: seeded write workload into the armed crash
// point, power-cycle, dirty-region (or full) resync through the repair
// lifecycle, rebuild if a disk was also failed, then a verifying scrub
// and a full consistency + checksum audit. Returns 0 when the array
// ends healthy (verified) or in data-loss; 1 when it wedges anywhere
// in between.
int crash_cycle(const Flags& flags, std::uint64_t seed,
                std::int64_t crash_after, int fail_disk, bool full_resync,
                bool verbose) {
  auto cfgr = array_cfg_from(flags, {/*n=*/3, /*seed=*/1, /*stacks=*/2});
  if (!cfgr.is_ok()) return usage(cfgr.status().to_string().c_str());
  auto cfg = std::move(cfgr).take();
  cfg.content_bytes = 64;
  cfg.seed = seed;
  cfg.drl_region_stripes = flags.get_int("region-stripes", 2);
  cfg.checksums = true;
  cfg.fault.crash_after_writes = crash_after;
  cfg.fault.seed = seed;
  array::DiskArray arr(cfg);
  arr.initialize();
  repair::RepairConfig rc;
  // A crash on a degraded array can tear a write whose replica died:
  // the rebuild then propagates the surviving (torn) copy, which is
  // pair-consistent but fails the parity check. The executor's inline
  // verify would wedge there, so the audit is deferred to the
  // verifying scrub + explicit checks at the end of the cycle.
  rc.recon.verify = false;
  repair::RepairOrchestrator orch(arr, rc);

  auto fail_run = [&](const char* stage, const Status& st) {
    std::fprintf(stderr, "crash[seed=%llu]: %s: %s\n",
                 static_cast<unsigned long long>(seed), stage,
                 st.to_string().c_str());
    return 1;
  };

  if (fail_disk >= 0) {
    if (fail_disk >= arr.total_disks())
      return usage("--fail disk out of range");
    arr.fail_physical(fail_disk);
    if (Status st = orch.admit_failures(0.0); !st.is_ok())
      return fail_run("admit_failures", st);
  }

  integrity::CrashWorkloadConfig wcfg;
  wcfg.requests = flags.get_int("requests", 40);
  wcfg.seed = seed;
  wcfg.quiesce_every = flags.get_int("quiesce", 10);
  auto wl = integrity::run_crash_workload(arr, wcfg);
  if (!wl.is_ok()) return fail_run("workload", wl.status());
  double t = wl.value().makespan_s;

  // Power the array back on and resync it after the crash point fired,
  // wherever it fired.
  integrity::ResyncReport rs;
  auto resync_after_crash = [&]() -> Status {
    SMA_RETURN_IF_ERROR(orch.admit_crash(t));
    auto r = orch.resync(t, full_resync);
    if (!r.is_ok()) return r.status();
    rs = r.value();
    t += rs.makespan_s;
    return Status::ok();
  };
  const bool crashed = arr.crashed();
  if (crashed) {
    if (Status st = resync_after_crash(); !st.is_ok())
      return fail_run("crash recovery", st);
  }
  bool rebuild_crashed = false;
  if (!arr.failed_physical().empty()) {
    auto rep = orch.run(t);
    if (!rep.is_ok()) return fail_run("rebuild", rep.status());
    t += rep.value().total_makespan_s;
    // A crash point the workload never reached can fire inside the
    // rebuild's own writes. The orchestrator then stops with the disks
    // still failed: power-cycle, resync and resume the rebuild.
    rebuild_crashed = arr.crashed();
    if (rebuild_crashed) {
      if (Status st = resync_after_crash(); !st.is_ok())
        return fail_run("crash recovery", st);
      auto resumed = orch.run(t);
      if (!resumed.is_ok()) return fail_run("rebuild", resumed.status());
    }
  }

  const repair::ArrayState state = orch.lifecycle().state();
  std::uint64_t scrub_repairs = 0;
  if (state == repair::ArrayState::kHealthy) {
    // A crash on a degraded array can tear a write whose partner died:
    // the resync cannot arbitrate those, so a verifying scrub absorbs
    // whatever survived before the final audit.
    auto sc = recon::scrub(arr);
    if (!sc.is_ok()) return fail_run("scrub", sc.status());
    scrub_repairs = sc.value().repaired_by_checksum +
                    sc.value().repaired_data + sc.value().repaired_mirror +
                    sc.value().repaired_parity;
    if (Status st = arr.verify_consistency(nullptr); !st.is_ok())
      return fail_run("post-recovery consistency", st);
    if (Status st = arr.verify_checksums(); !st.is_ok())
      return fail_run("post-recovery checksums", st);
  } else if (state != repair::ArrayState::kDataLoss) {
    std::fprintf(stderr, "crash[seed=%llu]: wedged in state %s\n",
                 static_cast<unsigned long long>(seed),
                 repair::to_string(state));
    return 1;
  }

  if (verbose) {
    std::printf("%s: ", cfg.arch.name().c_str());
    if (crashed)
      std::printf("crashed at write %lld (t=%.3f s); %d dirty region(s); ",
                  static_cast<long long>(crash_after), wl.value().crash_t_s,
                  wl.value().dirty_regions);
    else if (rebuild_crashed)
      std::printf("workload completed; crashed at write %lld inside the "
                  "rebuild; ",
                  static_cast<long long>(crash_after));
    else
      std::printf("workload completed without crashing; ");
    if (crashed || rebuild_crashed)
      std::printf("resync[%s] scanned %llu stripes, read %llu elements, "
                  "repaired %llu copies + %llu parity; ",
                  full_resync ? "full" : "drl",
                  static_cast<unsigned long long>(rs.stripes_scanned),
                  static_cast<unsigned long long>(rs.elements_read),
                  static_cast<unsigned long long>(rs.copies_rewritten),
                  static_cast<unsigned long long>(rs.parity_rewritten));
    std::printf("final state: %s; scrub repairs: %llu; verification OK\n",
                repair::to_string(state),
                static_cast<unsigned long long>(scrub_repairs));
  } else {
    std::printf("seed %llu: crash@%lld, %d dirty, resync read %llu, "
                "state %s, scrub repairs %llu\n",
                static_cast<unsigned long long>(seed),
                static_cast<long long>(crash_after), wl.value().dirty_regions,
                static_cast<unsigned long long>(rs.elements_read),
                repair::to_string(state),
                static_cast<unsigned long long>(scrub_repairs));
  }
  return 0;
}

int cmd_crash(const Flags& flags) {
  auto archr = arch_from(common_from(flags));
  if (!archr.is_ok()) return usage(archr.status().to_string().c_str());
  const auto arch = std::move(archr).take();
  const int requests = flags.get_int("requests", 40);
  if (requests <= 0) return usage("--requests must be positive");
  const int writes_per_request = arch.has_parity() ? 3 : 2;
  const std::int64_t max_writes =
      static_cast<std::int64_t>(requests) * writes_per_request;
  const std::uint64_t seed0 =
      static_cast<std::uint64_t>(flags.get_int("seed", 1));

  const int soak = flags.get_int("soak", 0);
  if (soak < 0) return usage("--soak must be >= 0");
  if (soak == 0) {
    const std::int64_t crash_after =
        flags.get_int("crash-after", static_cast<int>(max_writes * 2 / 3));
    if (crash_after < 0) return usage("--crash-after must be >= 0");
    const int fail_disk = flags.has("fail") ? flags.get_int("fail", 0) : -1;
    return crash_cycle(flags, seed0, crash_after, fail_disk,
                       flags.get_bool("full-resync", false),
                       /*verbose=*/true);
  }

  // Soak: randomized crash points over a fixed seed range. Every run
  // must come out the far end healthy (verified) or in data-loss —
  // a wedge anywhere is a bug.
  int failures = 0;
  for (int i = 0; i < soak; ++i) {
    const std::uint64_t seed = seed0 + static_cast<std::uint64_t>(i);
    std::uint64_t h = seed;
    const std::int64_t crash_after = 1 + static_cast<std::int64_t>(
        splitmix64(h) % static_cast<std::uint64_t>(max_writes));
    const int fail_disk =
        i % 3 == 0 ? static_cast<int>(
                         seed % static_cast<std::uint64_t>(arch.total_disks()))
                   : -1;
    failures += crash_cycle(flags, seed, crash_after, fail_disk,
                            /*full_resync=*/i % 5 == 0, /*verbose=*/false);
  }
  std::printf("soak: %d run(s), %d failure(s)\n", soak, failures);
  return failures == 0 ? 0 : 1;
}

int cmd_write(const Flags& flags) {
  auto cfgr = array_cfg_from(flags, {/*n=*/3, /*seed=*/777, /*stacks=*/4});
  if (!cfgr.is_ok()) return usage(cfgr.status().to_string().c_str());
  auto cfg = std::move(cfgr).take();
  array::DiskArray arr(cfg);
  workload::WriteWorkloadConfig wcfg;
  wcfg.arrival.max_requests = flags.get_int("requests", 1000);
  if (wcfg.arrival.max_requests < 0) return usage("--requests must be >= 0");
  wcfg.arrival.seed = cfg.seed;
  const auto reqs = workload::generate_large_writes(arr, wcfg);
  const auto report = workload::run_write_workload(arr, reqs);
  std::printf("%s: %d requests, %.0f MB payload in %.2f s -> %.1f MB/s "
              "(%llu rows, %llu write accesses, %.0f MB parity reads)\n",
              cfg.arch.name().c_str(), wcfg.arrival.max_requests,
              report.user_bytes / 1e6, report.makespan_s,
              report.write_throughput_mbps(),
              static_cast<unsigned long long>(report.rows_written),
              static_cast<unsigned long long>(report.write_accesses),
              report.bytes_read / 1e6);
  return 0;
}

int cmd_table1(const Flags& flags) {
  const int lo = flags.get_int("n-min", 3);
  const int hi = flags.get_int("n-max", 7);
  if (lo < 1) return usage("--n-min must be >= 1");
  if (lo > hi) return usage("--n-min must not exceed --n-max");
  Table table("Table I");
  table.set_header(
      {"n", "class", "cases", "read accesses", "avg", "4n/(2n+1)"});
  for (int n = lo; n <= hi; ++n) {
    const auto cases = recon::enumerate_double_failure_cases(
        layout::Architecture::mirror_with_parity(n, true));
    for (const auto& row : cases.rows)
      table.add_row({Table::num(n), std::string(recon::to_string(row.cls)),
                     Table::num(static_cast<std::uint64_t>(row.num_cases)),
                     Table::num(row.num_read_accesses),
                     Table::num(cases.average_read_accesses, 4),
                     Table::num(recon::paper_avg_read_shifted_mirror_parity(n),
                                4)});
  }
  std::fputs(table.render().c_str(), stdout);
  return 0;
}

int cmd_fig7(const Flags& flags) {
  const int hi = flags.get_int("n-max", 50);
  Table table("Fig. 7 ratios (%)");
  table.set_header({"n", "vs traditional", "vs raid6"});
  for (int n = 2; n <= hi; ++n) {
    const auto p = recon::fig7_point(n);
    table.add_row({Table::num(n), Table::num(p.ratio_vs_traditional_pct, 2),
                   Table::num(p.ratio_vs_raid6_pct, 2)});
  }
  std::fputs(table.render().c_str(), stdout);
  return 0;
}

int cmd_three_mirror(const Flags& flags) {
  const auto failed = flags.get_int_list("fail");
  auto cfgr = array_cfg_from(flags, {/*n=*/5, /*seed=*/1, /*stacks=*/1},
                             flags.get_int("replicas", 2));
  if (!cfgr.is_ok()) return usage(cfgr.status().to_string().c_str());
  if (failed.empty()) return usage("three-mirror needs --fail=<disk,[disk]>");
  const auto cfg = std::move(cfgr).take();
  array::DiskArray arr(cfg);
  arr.initialize();
  for (const int d : failed) {
    if (d < 0 || d >= arr.total_disks()) return usage("--fail out of range");
    arr.fail_physical(d);
  }
  auto report = recon::reconstruct(arr);
  if (!report.is_ok()) {
    std::fprintf(stderr, "three-mirror: %s\n",
                 report.status().to_string().c_str());
    return 1;
  }
  const auto& arch = cfg.arch;
  std::printf("%s-%d-mirror(n=%d): rebuilt %.0f MB at %.1f MB/s, "
              "%d access(es)/stripe; verification OK\n",
              arch.arrangement()->name().c_str(), arch.replicas() + 1,
              arch.n(), report.value().logical_bytes_recovered / 1e6,
              report.value().read_throughput_mbps(),
              report.value().read_accesses_per_stripe);
  return 0;
}

int cmd_simbench(const Flags& flags) {
  // Backend: --kernel wins; otherwise whatever SMA_SIM_QUEUE resolved
  // to (default_queue_backend() reads the env on first use).
  sim::QueueBackend backend = sim::default_queue_backend();
  const std::string kernel = flags.get("kernel", "");
  if (kernel == "calendar") backend = sim::QueueBackend::kCalendar;
  else if (kernel == "heap") backend = sim::QueueBackend::kHeap;
  else if (kernel == "legacy") backend = sim::QueueBackend::kLegacy;
  else if (!kernel.empty())
    return usage("--kernel must be calendar|heap|legacy");
  sim::set_default_queue_backend(backend);
  const char* backend_name = "legacy";
  if (backend == sim::QueueBackend::kCalendar) backend_name = "calendar";
  if (backend == sim::QueueBackend::kHeap) backend_name = "heap";

  const bool batch = flags.get_bool("batch", true);
  const int reps = flags.get_int("reps", 3);
  const int threads = flags.get_int("threads", 1);
  const int cases = flags.get_int("cases", 1);
  const bool json = flags.get_bool("json", false);
  if (reps < 1 || threads < 0 || cases < 1)
    return usage("--reps/--cases must be >= 1, --threads >= 0");

  auto cfgr = array_cfg_from(flags, {/*n=*/3, /*seed=*/2012, /*stacks=*/64});
  if (!cfgr.is_ok()) return usage(cfgr.status().to_string().c_str());
  const auto base_cfg = std::move(cfgr).take();
  const int fail = flags.get_int("fail", 0);
  if (fail < 0 || fail >= base_cfg.arch.total_disks())
    return usage("--fail out of range");
  const double rate_hz = flags.get_double("rate", 30.0);
  if (!finite_positive(rate_hz)) return usage("--rate must be finite and > 0");
  const int requests = flags.get_int("requests", 600);
  const std::uint64_t seed = base_cfg.seed;

  struct CaseResult {
    bool ok = false;
    double rebuild_done_s = 0.0;
    double p99_s = 0.0;
    std::uint64_t ops = 0;       // disk reads + writes
    std::uint64_t events = 0;    // seed-kernel event count for this case
    std::uint64_t digest = 0;
    std::string error;
  };
  // Each case is a pure function of its index (own array, own seeds) —
  // the MultiKernel contract — so digests must agree across reps and
  // thread counts. Arrays are built uninitialized: simbench times the
  // kernel, not content generation.
  auto run_case = [&](std::size_t i) {
    array::ArrayConfig cfg = base_cfg;
    cfg.seed = base_cfg.seed + i;
    array::DiskArray arr(cfg);
    arr.fail_physical(fail);
    recon::OnlineConfig ocfg;
    ocfg.arrival.rate_hz = rate_hz;
    ocfg.arrival.max_requests = requests;
    ocfg.arrival.seed = seed + i;
    ocfg.batch_drains = batch;
    CaseResult r;
    auto report = recon::run_online_reconstruction(arr, ocfg);
    if (!report.is_ok()) {
      r.error = report.status().to_string();
      return r;
    }
    const auto& rep = report.value();
    for (int d = 0; d < arr.total_disks(); ++d) {
      const auto& c = arr.physical(d).counters();
      r.ops += c.reads + c.writes;
    }
    // One event per disk op + per arrival + rebuild kickoff + per-disk
    // dispatch kicks: what the seed kernel schedules for this workload,
    // so events/sec is comparable across backends and batch modes.
    r.events = r.ops + rep.requests_issued + 1 +
               static_cast<std::uint64_t>(arr.total_disks() - 1);
    r.rebuild_done_s = rep.rebuild_done_s;
    r.p99_s = rep.p99_latency_s;
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](const void* p, std::size_t len) {
      const auto* b = static_cast<const unsigned char*>(p);
      for (std::size_t j = 0; j < len; ++j)
        h = (h ^ b[j]) * 1099511628211ull;
    };
    mix(&rep.rebuild_done_s, sizeof rep.rebuild_done_s);
    mix(&rep.mean_latency_s, sizeof rep.mean_latency_s);
    mix(&rep.p99_latency_s, sizeof rep.p99_latency_s);
    mix(&rep.degraded_reads, sizeof rep.degraded_reads);
    mix(&r.ops, sizeof r.ops);
    r.digest = h;
    r.ok = true;
    return r;
  };

  std::vector<CaseResult> best;
  double best_wall = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    sim::MultiKernel mk({static_cast<std::size_t>(threads)});
    const auto start = std::chrono::steady_clock::now();
    auto results = mk.map(static_cast<std::size_t>(cases), run_case);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (!results[i].ok) {
        std::fprintf(stderr, "simbench: case %zu: %s\n", i,
                     results[i].error.c_str());
        return 1;
      }
      if (rep > 0 && results[i].digest != best[i].digest) {
        std::fprintf(stderr,
                     "simbench: case %zu diverged across reps "
                     "(%016llx vs %016llx)\n",
                     i, static_cast<unsigned long long>(results[i].digest),
                     static_cast<unsigned long long>(best[i].digest));
        return 1;
      }
    }
    if (rep == 0 || wall < best_wall) best_wall = wall;
    if (rep == 0) best = std::move(results);
  }

  std::uint64_t events = 0;
  double sim_s = 0.0;
  std::uint64_t digest = 1469598103934665603ull;
  for (const auto& r : best) {
    events += r.events;
    sim_s += r.rebuild_done_s;
    digest = (digest ^ r.digest) * 1099511628211ull;
  }
  const double events_per_s = static_cast<double>(events) / best_wall;
  const double sim_hours_per_s = sim_s / 3600.0 / best_wall;

  if (json) {
    std::printf(
        "{\"kernel\": \"%s\", \"batch_drains\": %s, \"threads\": %d, "
        "\"cases\": %d, \"reps\": %d, \"events\": %llu, \"wall_s\": %.6f, "
        "\"events_per_s\": %.0f, \"sim_hours_per_s\": %.3f, "
        "\"rebuild_done_s\": %.6f, \"p99_ms\": %.3f, "
        "\"digest\": \"%016llx\", \"deterministic\": true}\n",
        backend_name, batch ? "true" : "false", threads, cases, reps,
        static_cast<unsigned long long>(events), best_wall, events_per_s,
        sim_hours_per_s, best[0].rebuild_done_s, best[0].p99_s * 1e3,
        static_cast<unsigned long long>(digest));
  } else {
    std::printf(
        "simbench[%s%s]: %d case(s) x %d rep(s), threads=%d\n"
        "  %llu events in %.2f ms best wall: %.2fM events/s, "
        "%.1f sim-hours/s\n"
        "  case 0: rebuild done at %.2f s, p99 %.1f ms; "
        "digest %016llx; deterministic across reps\n",
        backend_name, batch ? "+batch" : "", cases, reps, threads,
        static_cast<unsigned long long>(events), best_wall * 1e3,
        events_per_s / 1e6, sim_hours_per_s, best[0].rebuild_done_s,
        best[0].p99_s * 1e3, static_cast<unsigned long long>(digest));
  }
  return 0;
}

int cmd_replay(const Flags& flags) {
  const std::string path = flags.get("file", "");
  if (path.empty()) return usage("replay needs --file=<trace>");
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "replay: cannot open %s\n", path.c_str());
    return 1;
  }
  auto ops = core::parse_trace(in);
  if (!ops.is_ok()) {
    std::fprintf(stderr, "replay: %s\n", ops.status().to_string().c_str());
    return 1;
  }
  const CommonOptions c = common_from(flags);
  core::VolumeConfig vcfg;
  vcfg.n = c.n;
  vcfg.with_parity = c.parity;
  vcfg.arrangement = c.arrangement;
  vcfg.stacks = c.stacks;
  vcfg.content_bytes =
      static_cast<std::size_t>(flags.get_int("content-bytes", 4096));
  auto volume = core::MirroredVolume::create(vcfg);
  if (!volume.is_ok()) {
    std::fprintf(stderr, "replay: %s\n",
                 volume.status().to_string().c_str());
    return 1;
  }
  auto vol = std::move(volume).take();
  auto report = core::replay_trace(vol, ops.value());
  if (!report.is_ok()) {
    std::fprintf(stderr, "replay: %s\n", report.status().to_string().c_str());
    return 1;
  }
  std::printf("%s: replayed %zu ops (%zu reads, %zu writes; %.1f MB in, "
              "%.1f MB out); consistency %s\n",
              vol.arch().name().c_str(),
              report.value().reads + report.value().writes,
              report.value().reads, report.value().writes,
              report.value().bytes_read / 1e6,
              report.value().bytes_written / 1e6,
              vol.verify().to_string().c_str());
  return vol.verify().is_ok() ? 0 : 1;
}

int cmd_degraded(const Flags& flags) {
  auto cfgr = array_cfg_from(flags, {/*n=*/3, /*seed=*/13, /*stacks=*/2});
  if (!cfgr.is_ok()) return usage(cfgr.status().to_string().c_str());
  auto cfg = std::move(cfgr).take();
  array::DiskArray arr(cfg);
  if (!fail_one_disk(flags, arr)) return usage("--fail out of range");
  workload::DegradedReadConfig dcfg;
  dcfg.arrival.max_requests = flags.get_int("reads", 2000);
  dcfg.arrival.seed = cfg.seed;
  auto report = workload::run_degraded_reads(arr, dcfg);
  if (!report.is_ok()) {
    std::fprintf(stderr, "degraded: %s\n",
                 report.status().to_string().c_str());
    return 1;
  }
  const auto& r = report.value();
  std::printf("%s: %d reads at %.1f MB/s; %zu degraded; hottest disk %d "
              "ops (imbalance %.2f)\n",
              cfg.arch.name().c_str(), dcfg.arrival.max_requests,
              r.throughput_mbps(),
              r.degraded_reads, r.hottest_disk_ops, r.load_imbalance);
  return 0;
}

int cmd_reliability(const Flags& flags) {
  auto archr = arch_from(common_from(flags));
  if (!archr.is_ok()) return usage(archr.status().to_string().c_str());
  const auto arch = std::move(archr).take();
  recon::MttdlParams params;
  params.disk_mttf_hours = flags.get_double("mttf-h", 1.0e6);
  params.mttr_hours = flags.get_double("mttr-h", 1.0);
  // estimate_mttdl asserts on these; !(x > 0) also rejects NaN.
  if (!(params.disk_mttf_hours > 0.0)) return usage("--mttf-h must be > 0");
  if (!(params.mttr_hours > 0.0)) return usage("--mttr-h must be > 0");
  const auto report = recon::estimate_mttdl(arch, params);
  std::printf("%s: avg fatal 2nd = %.2f, avg fatal 3rd = %.2f, "
              "MTTR %.3f h -> MTTDL %.3e years\n",
              arch.name().c_str(), report.fatal.avg_fatal_second,
              report.fatal.avg_fatal_third, params.mttr_hours,
              report.mttdl_years());
  return 0;
}

int cmd_repair(const Flags& flags) {
  const CommonOptions c = common_from(flags);
  auto archr = arch_from(c);
  if (!archr.is_ok()) return usage(archr.status().to_string().c_str());
  const auto arch = std::move(archr).take();

  // Monte-Carlo lifetime mode: replay whole failure/repair lifetimes
  // through the lifecycle state machine and print the estimate beside
  // the closed form it cross-checks.
  const int mc_trials = flags.get_int("mc-trials", 0);
  if (mc_trials > 0) {
    recon::MonteCarloParams params;
    params.disk_mttf_hours = flags.get_double("mttf-h", 1.0e6);
    params.mttr_hours = flags.get_double("mttr-h", 10.0);
    if (!(params.disk_mttf_hours > 0.0)) return usage("--mttf-h must be > 0");
    if (!(params.mttr_hours > 0.0)) return usage("--mttr-h must be > 0");
    params.trials = mc_trials;
    params.seed = c.seed;
    params.spare_replenish_hours = flags.get_double("replenish-h", 0.0);
    const int spares = flags.get_int("spares", 0);
    if (spares > 0) {
      const std::string policy = flags.get("policy", "dedicated");
      if (policy == "dedicated") {
        params.spare = {repair::SparePolicy::kDedicated, spares};
      } else if (policy == "distributed") {
        params.spare = {repair::SparePolicy::kDistributed, spares};
      } else {
        return usage("--policy must be dedicated|distributed with --spares");
      }
    }
    const int enclosure = flags.get_int("enclosure-size", 0);
    if (enclosure > 0) {
      params.enclosure_of.resize(static_cast<std::size_t>(arch.total_disks()));
      for (int d = 0; d < arch.total_disks(); ++d)
        params.enclosure_of[static_cast<std::size_t>(d)] = d / enclosure;
      params.enclosure_hazard_factor =
          flags.get_double("enclosure-factor", 10.0);
      if (!(std::isfinite(params.enclosure_hazard_factor) &&
            params.enclosure_hazard_factor >= 1.0))
        return usage("--enclosure-factor must be finite and >= 1");
    }

    auto mc = recon::simulate_mttdl(arch, params);
    if (!mc.is_ok()) {
      std::fprintf(stderr, "repair: %s\n", mc.status().to_string().c_str());
      return 1;
    }
    recon::MttdlParams cp;
    cp.disk_mttf_hours = params.disk_mttf_hours;
    cp.mttr_hours = params.mttr_hours;
    const auto closed = recon::estimate_mttdl(arch, cp);
    const auto& r = mc.value();
    std::printf("%s: MC MTTDL %.1f h (stderr %.1f, %d trials), "
                "closed form %.1f h\n",
                arch.name().c_str(), r.mttdl_hours, r.stderr_hours, r.trials,
                closed.mttdl_hours);
    std::printf("mean failures to loss %.2f, spare waits %llu, "
                "lifecycle transitions %llu\n",
                r.mean_failures_to_loss,
                static_cast<unsigned long long>(r.spare_waits),
                static_cast<unsigned long long>(r.transitions));
    return 0;
  }

  // Orchestrated-rebuild mode: fail disks, drive the orchestrator to a
  // terminal state, print the lifecycle the array walked through.
  auto cfgr = array_cfg_from(flags);
  if (!cfgr.is_ok()) return usage(cfgr.status().to_string().c_str());
  auto cfg = std::move(cfgr).take();
  repair::RepairConfig rc;
  const std::string policy = flags.get("policy", "none");
  const int spares = flags.get_int("spares", 1);
  if (policy == "dedicated") {
    rc.spare = {repair::SparePolicy::kDedicated, spares};
    cfg.spare_disks = spares;
  } else if (policy == "distributed") {
    rc.spare = {repair::SparePolicy::kDistributed, spares};
  } else if (policy != "none") {
    return usage("--policy must be none|dedicated|distributed");
  }
  const int budget = flags.get_int("interrupt-after", -1);
  if (budget == 0) return usage("--interrupt-after must be positive");
  if (budget > 0) {
    rc.checkpointing = true;
    rc.stripes_per_round = budget;
  }

  array::DiskArray arr(cfg);
  arr.initialize();
  auto fails = flags.get_int_list("fail");
  if (fails.empty()) fails = {0};
  for (const int f : fails) {
    if (f < 0 || f >= arr.total_disks())
      return usage("--fail disk out of range");
    arr.fail_physical(f);
  }

  repair::RepairOrchestrator orch(arr, rc);
  const int second = flags.get_int("second-fail", -1);
  if (second >= 0) {
    if (second >= arr.total_disks())
      return usage("--second-fail disk out of range");
    if (budget <= 0)
      return usage("--second-fail needs --interrupt-after=<stripes>");
    auto first = orch.run(0.0, 1);  // one bounded round, then the blow
    if (!first.is_ok()) {
      std::fprintf(stderr, "repair: %s\n",
                   first.status().to_string().c_str());
      return 1;
    }
    arr.fail_physical(second);
  }
  auto report = orch.run();
  if (!report.is_ok()) {
    std::fprintf(stderr, "repair: %s\n", report.status().to_string().c_str());
    return 1;
  }
  const auto& r = report.value();
  std::printf("%s: %d round(s), %llu elements read, %llu written, "
              "read makespan %.3f s, total %.3f s, %d spare(s) used (%s)\n",
              arch.name().c_str(), r.rounds,
              static_cast<unsigned long long>(r.elements_read),
              static_cast<unsigned long long>(r.elements_written),
              r.read_makespan_s, r.total_makespan_s, r.spares_used,
              to_string(r.policy));
  for (const auto& t : r.transitions)
    std::printf("  t=%9.3f  %-15s -> %-15s (%s)\n", t.t_s, to_string(t.from),
                to_string(t.to), t.reason.c_str());
  std::printf("final state: %s\n", to_string(r.final_state));
  return r.final_state == repair::ArrayState::kHealthy ? 0 : 1;
}

int cmd_update_penalty(const Flags& flags) {
  const int n = flags.get_int("n", 5);
  if (n < 1) return usage("--n must be >= 1");
  const ec::EvenOddCodec evenodd(n);
  const ec::RdpCodec rdp(n);
  const ec::Codec* codecs[] = {&evenodd, &rdp};
  for (const auto* codec : codecs) {
    auto penalty = ec::measure_update_penalty(*codec);
    if (!penalty.is_ok()) {
      std::fprintf(stderr, "update-penalty: %s\n",
                   penalty.status().to_string().c_str());
      return 1;
    }
    std::printf("%-20s parity updates per data write: min %d avg %.2f "
                "max %d (optimal %d)\n",
                codec->name().c_str(), penalty.value().min,
                penalty.value().average, penalty.value().max,
                ec::optimal_parity_updates(codec->fault_tolerance()));
  }
  std::printf("mirror methods: 1 replica write (+1 parity element with the "
              "parity disk) — optimal by construction\n");
  return 0;
}

int cmd_fleet(const Flags& flags) {
  const CommonOptions c =
      common_from(flags, {/*n=*/4, /*seed=*/2012, /*stacks=*/16});
  fleet::FleetConfig cfg;
  cfg.arrays = flags.get_int("arrays", 64);
  if (cfg.arrays < 1) return usage("--arrays must be >= 1");
  cfg.n = c.n;
  cfg.parity = c.parity;
  cfg.stacks = c.stacks;
  // --layout=<spec[,spec]> cycles registry specs across arrays;
  // otherwise --arrangement=<spec> applies fleet-wide.
  cfg.layout = flags.get("layout", c.arrangement);
  auto policy =
      fleet::placement_policy_from(flags.get("placement", "declustered"));
  if (!policy.is_ok())
    return usage("--placement must be round_robin|random|declustered");
  cfg.placement.policy = policy.value();
  cfg.placement.volumes = flags.get_int("volumes", 4 * cfg.arrays);
  cfg.placement.segments_per_volume = flags.get_int("segments", 8);
  cfg.placement.spread = flags.get_int("spread", 4);
  cfg.arrival.rate_hz = flags.get_double("rate", 20.0 * cfg.arrays);
  if (!finite_positive(cfg.arrival.rate_hz))
    return usage("--rate must be finite and > 0");
  cfg.arrival.max_requests = flags.get_int("requests", 50000);
  cfg.failed_arrays = flags.get_int("failed", cfg.arrays / 16 + 1);
  cfg.seed = c.seed;
  cfg.threads = static_cast<std::size_t>(flags.get_int("threads", 4));
  cfg.timeline.horizon_hours = flags.get_double("horizon-h", 24.0 * 365.0);
  if (!(cfg.timeline.horizon_hours > 0.0))
    return usage("--horizon-h must be > 0");
  cfg.timeline.disk_mttf_hours = flags.get_double("mttf-h", 5.0e4);
  const auto res = fleet::run_fleet(cfg);
  if (!res.is_ok()) return usage(res.status().to_string().c_str());
  const fleet::FleetReport& r = res.value();
  std::printf("fleet: %d arrays of %s, %s placement (%d volumes x %d "
              "segments, spread %d)\n",
              r.arrays, cfg.layout.c_str(),
              fleet::to_string(cfg.placement.policy), cfg.placement.volumes,
              cfg.placement.segments_per_volume, cfg.placement.spread);
  std::printf("serving: %llu requests routed, %llu completed, %llu degraded "
              "reads across %d rebuilding arrays\n",
              static_cast<unsigned long long>(r.requests_routed),
              static_cast<unsigned long long>(r.requests_completed),
              static_cast<unsigned long long>(r.degraded_reads),
              r.failed_arrays);
  std::printf("latency: mean %.4f s  p99 %.4f s  p99.9 %.4f s  max %.4f s\n",
              r.mean_latency_s, r.p99_latency_s, r.p999_latency_s,
              r.max_latency_s);
  std::printf("volumes: %.1f%% degraded; worst volume p99 %.4f s (vol %d); "
              "worst degraded p99 %.4f s (vol %d)\n",
              100.0 * r.degraded_volume_fraction, r.worst_volume_p99_s,
              r.worst_volume, r.worst_degraded_volume_p99_s,
              r.worst_degraded_volume);
  std::printf("rebuild: mean %.2f s  max %.2f s -> timeline repair %.2f h\n",
              r.mean_rebuild_s, r.max_rebuild_s,
              r.mean_rebuild_s * cfg.repair_capacity_scale / 3600.0);
  std::printf("timeline (%.0f h): %d failures, %d repairs, %d data losses; "
              "mean %.3f concurrent rebuilds (max %d), >=2 rebuilding "
              "%.2f%% of the time\n",
              r.timeline.horizon_hours, r.timeline.failures,
              r.timeline.repairs_completed, r.timeline.data_loss_events,
              r.timeline.mean_concurrent_rebuilds,
              r.timeline.max_concurrent_rebuilds,
              100.0 * r.timeline.frac_time_ge2);
  std::printf("fleet MTTDL %.0f h (%.2f years); digest %016llx\n",
              r.fleet_mttdl_hours, r.fleet_mttdl_hours / (24 * 365.25),
              static_cast<unsigned long long>(r.digest));
  return 0;
}

int cmd_chaos(const Flags& flags) {
  CommonOptions c = common_from(flags, {/*n=*/4, /*seed=*/1});
  c.parity = flags.get_bool("parity", true);
  // Replay seeds come from oracle violation messages and use the full
  // 64-bit range; the shared int-typed --seed would truncate them.
  std::uint64_t seed = 20120901;
  bool seeded = false;
  if (flags.has("seed")) {
    const std::string raw = flags.get("seed", "");
    char* end = nullptr;
    seed = std::strtoull(raw.c_str(), &end, 10);
    if (end == raw.c_str() || *end != '\0')
      return usage("--seed must be an unsigned integer");
    seeded = true;
  }

  // The chaos engine builds the paper's two arrangements only.
  auto archr = arch_from(c);
  if (!archr.is_ok()) return usage(archr.status().to_string().c_str());
  const layout::Architecture arch = std::move(archr).take();
  const std::string arrangement = arch.arrangement()->name();
  if (arrangement != "shifted" && arrangement != "traditional")
    return usage("chaos needs --arrangement=shifted|traditional");

  chaos::ChaosConfig cfg;
  cfg.n = c.n;
  cfg.parity = c.parity;
  cfg.shifted = arrangement == "shifted";
  cfg.hedge.enabled = flags.get_bool("hedge", false);
  const std::string sabotage = flags.get("sabotage", "none");
  if (sabotage == "skip-resync")
    cfg.sabotage = chaos::ChaosConfig::Sabotage::kSkipResync;
  else if (sabotage == "leak-corruption")
    cfg.sabotage = chaos::ChaosConfig::Sabotage::kLeakCorruption;
  else if (sabotage != "none")
    return usage("--sabotage must be none|skip-resync|leak-corruption");

  // Soak mode: a seeded batch of composed scenarios, every violation
  // printed with its replay pair. The soak composes parity scenarios,
  // hedges odd scenario seeds and runs the real injectors, so the flags
  // that would override those are usage errors rather than ignored.
  const int soak_runs = flags.get_int("soak", 0);
  if (soak_runs < 0) return usage("--soak must be >= 0");
  if (soak_runs > 0) {
    if (!cfg.parity)
      return usage("--soak runs parity scenarios; drop --parity=false");
    if (flags.has("hedge"))
      return usage("--soak hedges odd scenario seeds itself; drop --hedge");
    if (cfg.sabotage != chaos::ChaosConfig::Sabotage::kNone)
      return usage("--soak takes no --sabotage; sabotage one scenario");
    chaos::SoakConfig scfg;
    scfg.scenarios = soak_runs;
    scfg.base_seed = seed;
    scfg.shifted = cfg.shifted;
    scfg.n = c.n;
    scfg.threads = static_cast<std::size_t>(flags.get_int("threads", 1));
    const auto r = chaos::run_soak(scfg);
    if (!r.is_ok()) {
      std::fprintf(stderr, "chaos: %s\n", r.status().to_string().c_str());
      return 1;
    }
    std::printf("soak: %d scenario(s), %d violation(s), digest %016llx\n",
                r.value().scenarios_run, r.value().violations,
                static_cast<unsigned long long>(r.value().digest));
    for (const std::string& m : r.value().violation_messages)
      std::fprintf(stderr, "chaos: %s\n", m.c_str());
    return r.value().violations == 0 ? 0 : 1;
  }

  // Single scenario: --scenario replays a spec verbatim (pair it with
  // the --seed a violation names), --seed alone composes one, neither
  // runs the drift-gated reference compound.
  const int disks = arch.total_disks();
  if (flags.has("scenario")) {
    auto parsed = chaos::parse_scenario(flags.get("scenario", ""), seed);
    if (!parsed.is_ok()) return usage(parsed.status().to_string().c_str());
    cfg.scenario = std::move(parsed).take();
  } else if (seeded) {
    cfg.scenario = chaos::compose_scenario(seed, disks);
  } else {
    cfg.scenario = chaos::reference_scenario(disks);
  }

  std::printf("scenario: %s (seed %llu, %s, n=%d%s%s)\n",
              cfg.scenario.spec().c_str(),
              static_cast<unsigned long long>(cfg.scenario.seed),
              arrangement.c_str(), cfg.n,
              cfg.parity ? ", parity" : "",
              cfg.hedge.enabled ? ", hedged" : "");
  const auto r = chaos::run_scenario(cfg);
  if (!r.is_ok()) {
    std::fprintf(stderr, "chaos: %s\n", r.status().to_string().c_str());
    return 1;
  }
  const chaos::ChaosReport& rep = r.value();
  std::printf("serving: %llu/%llu requests, degraded p99 %.4f s, "
              "%d fail-slow flag(s), %llu reroute(s), %llu hedge(s)\n",
              static_cast<unsigned long long>(rep.serving.requests_completed),
              static_cast<unsigned long long>(rep.serving.requests_issued),
              rep.degraded_p99_s, rep.serving.fail_slow_flagged,
              static_cast<unsigned long long>(rep.serving.affinity_reroutes),
              static_cast<unsigned long long>(rep.serving.hedged_reads));
  if (rep.crashed)
    std::printf("crash: resync scanned %d region(s), scrub repaired %llu\n",
                rep.resync.regions_scanned,
                static_cast<unsigned long long>(
                    rep.crash_scrub.repaired_by_checksum));
  if (rep.corruptions_injected > 0)
    std::printf("corruption: %d injected, scrub found %llu, repaired %llu\n",
                rep.corruptions_injected,
                static_cast<unsigned long long>(rep.scrub.checksum_mismatches),
                static_cast<unsigned long long>(
                    rep.scrub.repaired_by_checksum));
  if (rep.rebuilt)
    std::printf("rebuild: %d repair(s), %llu bytes recovered\n",
                rep.repairs_started,
                static_cast<unsigned long long>(
                    rep.rebuild.logical_bytes_recovered));
  std::printf("oracle: %d check(s) passed; final state: %s; digest %016llx\n",
              rep.oracle_checks, repair::to_string(rep.final_state),
              static_cast<unsigned long long>(rep.digest));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  // Uniform help: `smactl help`, `smactl --help`, and
  // `smactl <command> --help` all print the usage text and exit 0.
  if (flags.get_bool("help", false) ||
      (!flags.positional().empty() && flags.positional()[0] == "help")) {
    usage_stream(stdout, nullptr);
    return 0;
  }
  if (flags.positional().empty()) return usage();
  const std::string& cmd = flags.positional()[0];

  int rc;
  if (cmd == "layouts") rc = cmd_layouts(flags);
  else if (cmd == "layout") rc = cmd_layout(flags);
  else if (cmd == "plan") rc = cmd_plan(flags);
  else if (cmd == "rebuild") rc = cmd_rebuild(flags);
  else if (cmd == "online") rc = cmd_online(flags);
  else if (cmd == "qos") rc = cmd_qos(flags);
  else if (cmd == "trace") rc = cmd_trace(flags);
  else if (cmd == "scrub") rc = cmd_scrub(flags);
  else if (cmd == "crash") rc = cmd_crash(flags);
  else if (cmd == "write") rc = cmd_write(flags);
  else if (cmd == "table1") rc = cmd_table1(flags);
  else if (cmd == "fig7") rc = cmd_fig7(flags);
  else if (cmd == "three-mirror") rc = cmd_three_mirror(flags);
  else if (cmd == "degraded") rc = cmd_degraded(flags);
  else if (cmd == "faults") rc = cmd_faults(flags);
  else if (cmd == "reliability") rc = cmd_reliability(flags);
  else if (cmd == "repair") rc = cmd_repair(flags);
  else if (cmd == "update-penalty") rc = cmd_update_penalty(flags);
  else if (cmd == "replay") rc = cmd_replay(flags);
  else if (cmd == "simbench") rc = cmd_simbench(flags);
  else if (cmd == "fleet") rc = cmd_fleet(flags);
  else if (cmd == "chaos") rc = cmd_chaos(flags);
  else return usage(("unknown command: " + cmd).c_str());

  // Typed getters record malformed values as they are consumed; a typo
  // silently falling back to a default ran the wrong experiment, so it
  // is fatal, not advisory.
  if (!flags.errors().empty()) {
    for (const auto& e : flags.errors())
      std::fprintf(stderr, "error: %s\n", e.c_str());
    return 2;
  }
  // A flag no getter read would otherwise be silently ignored (a typo,
  // or a spelling this command does not take). A command that already
  // stopped on a usage error may not have reached its flags.
  if (rc != 2 && !flags.unread().empty()) {
    for (const auto& name : flags.unread())
      std::fprintf(stderr, "error: unknown flag --%s for '%s'\n",
                   name.c_str(), cmd.c_str());
    return 2;
  }
  return rc;
}
