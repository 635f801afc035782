// Fleet-scale experiment: element arrangement (inside each array) and
// volume placement (across arrays) attack the same availability
// question at two scales, and this bench shows they compound.
//
// Four cells — {shifted, traditional} x {declustered, round_robin} —
// each a fleet of independent mirror arrays serving one aggregate
// request stream while a fixed subset of arrays rebuilds a failed
// disk. Per cell the bench reports the serving-side exposure (worst
// degraded volume p99, fraction of volumes degraded) and the
// fleet-hours exposure (concurrent-rebuild statistics from the failure
// timeline, whose repair time is the rebuild duration this same cell
// measured). Two claims are enforced in-bench, not just printed:
//
//  * shifted+declustered beats traditional+round_robin on worst
//    degraded-volume p99 — the paper's arrangement spreads rebuild
//    load inside the array while declustering bounds each volume's
//    blast radius to 1/spread of its segments;
//  * shifted+declustered beats traditional+round_robin on
//    concurrent-rebuild exposure — shorter rebuilds shrink the window,
//    so fewer rebuilds overlap over the same fleet-hours.
//
// Determinism: the per-array fan-out runs on sim::MultiKernel; the
// first cell is re-run serially (threads=1) and its digest must match
// the parallel run bit for bit, or the bench exits non-zero. The
// emitted sma_fleet.csv holds only deterministic values (counts,
// simulated times, digests), so the CI drift gate can require it
// bit-identical; wall-clock numbers go to stdout, or to JSON with
// --json (consumed by scripts/bench_fleet.py, which completes the JSON
// `host` block with the CPU model, commit and date).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "fleet/fleet.hpp"
#include "util/flags.hpp"

namespace {

using namespace sma;

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

double now_wall() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Cell {
  const char* name;
  fleet::ArrangementMix arrangement;
  fleet::PlacementPolicy placement;
};

constexpr Cell kCells[] = {
    {"shifted+declustered", fleet::ArrangementMix::kShifted,
     fleet::PlacementPolicy::kDeclustered},
    {"shifted+round_robin", fleet::ArrangementMix::kShifted,
     fleet::PlacementPolicy::kRoundRobin},
    {"traditional+declustered", fleet::ArrangementMix::kTraditional,
     fleet::PlacementPolicy::kDeclustered},
    {"traditional+round_robin", fleet::ArrangementMix::kTraditional,
     fleet::PlacementPolicy::kRoundRobin},
};

struct CellResult {
  fleet::FleetReport report;
  double wall_s = 0.0;
};

fleet::FleetConfig cell_config(const Cell& cell, int arrays, int requests,
                               std::size_t threads) {
  fleet::FleetConfig cfg;
  cfg.arrays = arrays;
  cfg.n = 4;
  cfg.arrangement = cell.arrangement;
  cfg.stacks = 64;  // deep arrays: the rebuild spans the serving window
  cfg.placement.policy = cell.placement;
  cfg.placement.volumes = 4 * arrays;
  cfg.placement.segments_per_volume = 8;
  cfg.placement.spread = 4;
  // Aggregate open-loop stream: ~20 req/s per array, well inside array
  // capacity, so queueing is rebuild-induced rather than saturation.
  cfg.arrival.rate_hz = 19.5 * arrays;
  cfg.arrival.max_requests = requests;
  cfg.arrival.seed = 2012;
  cfg.failed_arrays = arrays / 32 > 0 ? arrays / 32 : 1;
  cfg.seed = 20120901;
  cfg.threads = threads;
  return cfg;
}

CellResult run_cell(const Cell& cell, int arrays, int requests,
                    std::size_t threads) {
  CellResult r;
  const double t0 = now_wall();
  auto res = fleet::run_fleet(cell_config(cell, arrays, requests, threads));
  r.wall_s = now_wall() - t0;
  if (!res.is_ok()) {
    std::fprintf(stderr, "fleet cell %s failed: %s\n", cell.name,
                 res.status().to_string().c_str());
    std::exit(1);
  }
  r.report = std::move(res).take();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool json = flags.get_bool("json", false);
  const int arrays = flags.get_int("arrays", 256);         // per cell
  const int requests = flags.get_int("requests", 250000);  // per cell
  const std::size_t threads =
      static_cast<std::size_t>(flags.get_int("threads", 4));
  const std::string csv = flags.get("out", "sma_fleet.csv");
  for (const auto& e : flags.errors())
    std::fprintf(stderr, "bench_fleet: bad flag value: %s\n", e.c_str());

  CellResult cells[4];
  for (int c = 0; c < 4; ++c)
    cells[c] = run_cell(kCells[c], arrays, requests, threads);

  // --- determinism: the parallel fan-out must equal a serial run ------
  const CellResult serial = run_cell(kCells[0], arrays, requests, 1);
  if (serial.report.digest != cells[0].report.digest) {
    std::fprintf(stderr,
                 "bench_fleet: serial run diverged from parallel "
                 "(threads=%zu): %s vs %s\n",
                 threads, hex(serial.report.digest).c_str(),
                 hex(cells[0].report.digest).c_str());
    return 1;
  }

  // --- the two enforced claims ----------------------------------------
  const fleet::FleetReport& sd = cells[0].report;  // shifted+declustered
  const fleet::FleetReport& tn = cells[3].report;  // traditional+round_robin
  if (!(sd.worst_degraded_volume_p99_s < tn.worst_degraded_volume_p99_s)) {
    std::fprintf(stderr,
                 "bench_fleet: shifted+declustered did not beat "
                 "traditional+round_robin on worst degraded-volume p99 "
                 "(%.6f vs %.6f s)\n",
                 sd.worst_degraded_volume_p99_s,
                 tn.worst_degraded_volume_p99_s);
    return 1;
  }
  if (!(sd.timeline.mean_concurrent_rebuilds <
        tn.timeline.mean_concurrent_rebuilds)) {
    std::fprintf(stderr,
                 "bench_fleet: shifted+declustered did not beat "
                 "traditional+round_robin on concurrent-rebuild exposure "
                 "(%.6f vs %.6f mean concurrent)\n",
                 sd.timeline.mean_concurrent_rebuilds,
                 tn.timeline.mean_concurrent_rebuilds);
    return 1;
  }

  // Deterministic table -> sma_fleet.csv (drift-gated at defaults).
  Table table("Fleet — arrangement x placement (" + std::to_string(arrays) +
              " arrays/cell, " + std::to_string(requests) + " requests/cell)");
  table.set_header({"cell", "arrays", "requests", "degraded reads",
                    "p99 (s)", "worst degr vol p99 (s)", "degr vol frac",
                    "mean rebuild (s)", "mean conc rebuilds", "frac >=2",
                    "fleet MTTDL (h)", "digest"});
  for (int c = 0; c < 4; ++c) {
    const fleet::FleetReport& r = cells[c].report;
    table.add_row({kCells[c].name, Table::num(r.arrays),
                   Table::num(static_cast<std::uint64_t>(r.requests_routed)),
                   Table::num(static_cast<std::uint64_t>(r.degraded_reads)),
                   Table::num(r.p99_latency_s, 6),
                   Table::num(r.worst_degraded_volume_p99_s, 6),
                   Table::num(r.degraded_volume_fraction, 4),
                   Table::num(r.mean_rebuild_s, 3),
                   Table::num(r.timeline.mean_concurrent_rebuilds, 4),
                   Table::num(r.timeline.frac_time_ge2, 4),
                   Table::num(r.fleet_mttdl_hours, 0), hex(r.digest)});
  }

  double wall = serial.wall_s;
  double serving_array_s = serial.report.sim_array_seconds;
  double timeline_array_h = static_cast<double>(serial.report.timeline.arrays) *
                            serial.report.timeline.horizon_hours;
  for (int c = 0; c < 4; ++c) {
    wall += cells[c].wall_s;
    serving_array_s += cells[c].report.sim_array_seconds;
    timeline_array_h += static_cast<double>(cells[c].report.timeline.arrays) *
                        cells[c].report.timeline.horizon_hours;
  }
  const double total_arrays = static_cast<double>(arrays) * 5.0;
  const double array_hours = serving_array_s / 3600.0 + timeline_array_h;

  if (json) {
    table.write_csv(csv);
    std::printf("{\n  \"arrays_per_cell\": %d,\n  \"requests_per_cell\": %d,\n",
                arrays, requests);
    std::printf("  \"threads\": %zu,\n  \"host\": %s,\n  \"cells\": {\n",
                threads, bench::host_json(threads).c_str());
    for (int c = 0; c < 4; ++c) {
      const fleet::FleetReport& r = cells[c].report;
      std::printf("    \"%s\": {\"wall_s\": %.6f, \"p99_s\": %.6f, "
                  "\"worst_degraded_volume_p99_s\": %.6f, "
                  "\"degraded_volume_fraction\": %.4f, "
                  "\"mean_rebuild_s\": %.3f, "
                  "\"mean_concurrent_rebuilds\": %.4f, "
                  "\"digest\": \"%s\"}%s\n",
                  kCells[c].name, cells[c].wall_s, r.p99_latency_s,
                  r.worst_degraded_volume_p99_s, r.degraded_volume_fraction,
                  r.mean_rebuild_s, r.timeline.mean_concurrent_rebuilds,
                  hex(r.digest).c_str(), c + 1 < 4 ? "," : "");
    }
    std::printf("  },\n  \"serial_check\": {\"wall_s\": %.6f, "
                "\"bit_identical\": true},\n",
                serial.wall_s);
    std::printf("  \"total\": {\"wall_s\": %.6f, \"arrays\": %.0f, "
                "\"arrays_per_s\": %.2f, \"sim_array_hours\": %.0f, "
                "\"sim_array_hours_per_s\": %.0f}\n}\n",
                wall, total_arrays, total_arrays / wall, array_hours,
                array_hours / wall);
    return 0;
  }

  bench::emit(table, csv);

  Table timing("Fleet — wall clock");
  timing.set_header({"cell", "wall (s)", "arrays/s", "sim array-hours/s"});
  for (int c = 0; c < 4; ++c) {
    const fleet::FleetReport& r = cells[c].report;
    const double cell_hours =
        r.sim_array_seconds / 3600.0 +
        static_cast<double>(r.timeline.arrays) * r.timeline.horizon_hours;
    timing.add_row(
        {kCells[c].name, Table::num(cells[c].wall_s, 3),
         Table::num(static_cast<double>(arrays) / cells[c].wall_s, 1),
         Table::num(cell_hours / cells[c].wall_s, 0)});
  }
  timing.add_row({"serial check (threads=1)", Table::num(serial.wall_s, 3),
                  Table::num(static_cast<double>(arrays) / serial.wall_s, 1),
                  "-"});
  std::fputs(timing.render().c_str(), stdout);
  std::printf("total: %.3f s wall, %.1f arrays/s, %.0f sim array-hours/s\n",
              wall, total_arrays / wall, array_hours / wall);
  return 0;
}
