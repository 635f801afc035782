// Per-disk utilization timelines during the on-line rebuild, sampled on
// a fixed simulated-time cadence through the observability layer. The
// traditional arrangement shows one saturated partner disk carrying the
// whole rebuild while the rest idle; the shifted arrangement spreads
// the same work evenly, which is exactly the paper's availability
// argument made visible as a time series.
#include <cassert>
#include <cstdio>

#include "common.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "obs/trace_sink.hpp"
#include "recon/online.hpp"

int main() {
  using namespace sma;

  constexpr int kN = 5;
  constexpr double kSampleS = 0.5;

  Table summary("On-line rebuild, per-disk utilization (n = 5, mirror)");
  summary.set_header({"arrangement", "rebuild done (s)", "trace events",
                      "service spans", "hottest util", "mean util",
                      "imbalance (max/mean)"});

  Table timeline("Per-disk timeline samples (long format)");
  timeline.set_header({"arrangement", "t (s)", "disk", "util", "qdepth",
                       "rebuild MB/s", "user MB/s", "retries"});

  for (const bool shifted : {false, true}) {
    const auto arch = layout::Architecture::mirror(kN, shifted);
    array::DiskArray arr(bench::experiment_config(arch, /*stacks=*/4));
    arr.initialize();
    arr.fail_physical(0);

    obs::TraceSink trace;
    obs::MetricsRegistry metrics;
    metrics.set_sample_interval(kSampleS);
    obs::Observer ob;
    ob.trace = &trace;
    ob.metrics = &metrics;

    recon::OnlineConfig cfg;
    cfg.arrival.rate_hz = 30.0;
    cfg.arrival.max_requests = 600;
    cfg.arrival.seed = 2012;
    cfg.observer = &ob;
    auto report = recon::run_online_reconstruction(arr, cfg);
    if (!report.is_ok()) {
      std::fprintf(stderr, "online recon failed: %s\n",
                   report.status().to_string().c_str());
      return 1;
    }
    const double rebuild_done = report.value().rebuild_done_s;
    const char* name = shifted ? "shifted" : "traditional";

    // Probes register per disk in a fixed order: util, qdepth,
    // rebuild_mbps, user_mbps, retries.
    constexpr int kPerDisk = 5;
    const int disks = arr.total_disks();
    assert(static_cast<int>(metrics.columns().size()) == disks * kPerDisk);

    // Mean utilization per disk over the rebuild window, surviving
    // disks only (disk 0 is the dead one).
    std::vector<double> util_sum(static_cast<std::size_t>(disks), 0.0);
    std::size_t rebuild_samples = 0;
    for (const auto& row : metrics.timeline()) {
      const bool in_rebuild = row.t_s <= rebuild_done;
      if (in_rebuild) ++rebuild_samples;
      for (int d = 0; d < disks; ++d) {
        const std::size_t base = static_cast<std::size_t>(d * kPerDisk);
        if (in_rebuild)
          util_sum[static_cast<std::size_t>(d)] += row.values[base];
        timeline.add_row({std::string(name), Table::num(row.t_s, 2),
                          Table::num(d), Table::num(row.values[base], 4),
                          Table::num(row.values[base + 1], 2),
                          Table::num(row.values[base + 2], 2),
                          Table::num(row.values[base + 3], 2),
                          Table::num(row.values[base + 4], 0)});
      }
    }
    double hottest = 0.0;
    double total = 0.0;
    int survivors = 0;
    for (int d = 1; d < disks; ++d) {
      const double mean_util =
          rebuild_samples > 0
              ? util_sum[static_cast<std::size_t>(d)] /
                    static_cast<double>(rebuild_samples)
              : 0.0;
      hottest = std::max(hottest, mean_util);
      total += mean_util;
      ++survivors;
    }
    const double mean = survivors > 0 ? total / survivors : 0.0;
    summary.add_row(
        {std::string(name), Table::num(rebuild_done, 2),
         Table::num(static_cast<std::uint64_t>(trace.size())),
         Table::num(trace.count(obs::EventKind::kServiceStart)),
         Table::num(hottest, 3), Table::num(mean, 3),
         Table::num(mean > 0 ? hottest / mean : 0.0, 2)});
  }

  std::fputs(summary.render().c_str(), stdout);
  if (timeline.write_csv("sma_disk_timeline.csv"))
    std::printf("[csv] sma_disk_timeline.csv (%zu samples)\n\n",
                timeline.row_count());
  else
    std::printf("[csv] failed to write sma_disk_timeline.csv\n\n");
  return 0;
}
