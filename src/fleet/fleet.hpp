// Fleet — thousands of independent mirror arrays behind a placement
// tier, serving one aggregate workload.
//
// The paper's P1/P2 properties spread one disk's rebuild load across
// the surviving disks of a single array; the fleet layer is the
// datacenter-scale analogue. Logical volumes are split into segments
// and mapped onto arrays by a PlacementPolicy (placement.hpp); an
// aggregate arrival stream (workload::ArrivalProcess) is routed
// request-by-request through that map into per-array traces; every
// array then replays its trace through the existing online simulator
// (recon::run_online_reconstruction — rebuilding arrays serve degraded,
// healthy arrays just serve), fanned out on sim::MultiKernel with the
// established per-case seeding discipline. Serial and parallel runs are
// digest-identical: the routing pass is serial and each array's
// simulation is a pure function of its trace and seed.
//
// Two exposure questions fall out, and the two layers answer them
// jointly:
//  * What does a rebuild do to the volumes that touch it? Per-volume
//    latency attribution (worst-volume degraded p99) — where the
//    declustered placement's 1/k blast radius and the shifted
//    arrangement's spread rebuild compound.
//  * How often do rebuilds overlap fleet-wide? The failure/repair
//    timeline (timeline.hpp), parameterized by the rebuild durations
//    this serving simulation measures.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/placement.hpp"
#include "fleet/timeline.hpp"
#include "obs/observer.hpp"
#include "util/status.hpp"
#include "workload/arrival.hpp"

namespace sma::fleet {

/// Which element arrangement the fleet's arrays use: shorthand for the
/// `layout` spec lists "shifted", "traditional" and
/// "shifted,traditional" (kAlternating: even arrays shifted, odd
/// traditional). FleetConfig::layout accepts any registry spec list
/// and supersedes this enum.
enum class ArrangementMix : std::uint8_t {
  kShifted,
  kTraditional,
  kAlternating,
};

struct FleetConfig {
  /// Arrays in the pool.
  int arrays = 16;
  /// Data disks per array (the paper's n); rows per stripe.
  int n = 4;
  /// Parity-protected mirrors (fault tolerance 2).
  bool parity = false;
  ArrangementMix arrangement = ArrangementMix::kShifted;
  /// Comma-separated layout-registry specs cycled across arrays (array
  /// a uses entry a % count): "zigzag", "shifted,traditional" (the old
  /// alternating mix), "lrc:groups=2,shifted,zigzag", ... When
  /// non-empty this supersedes `arrangement`.
  std::string layout;
  /// Stripe stacks per array (each stack holds total_disks stripes).
  int stacks = 1;
  /// Volume-to-array map; `placement.arrays` is overwritten with
  /// `arrays` (one source of truth).
  PlacementConfig placement;
  /// The aggregate arrival stream routed across the fleet. Open-loop
  /// kinds only: closed-loop feedback belongs to per-array runs.
  workload::ArrivalConfig arrival;
  workload::MixConfig rw_mix;
  /// Arrays carrying one failed disk (rebuilding while serving); which
  /// arrays — and which disk — derive deterministically from `seed`.
  int failed_arrays = 1;
  std::uint64_t seed = 2012;
  /// MultiKernel worker threads (0 = hardware concurrency, 1 = serial).
  std::size_t threads = 1;
  /// Run the fleet-hours failure/repair timeline after the serving
  /// phase (timeline.hpp).
  bool run_timeline = true;
  /// Timeline parameters; `arrays` and `seed` are overwritten from the
  /// fleet's, and `repair_hours` is derived from the measured mean
  /// rebuild duration when `derive_repair_hours` is set.
  TimelineConfig timeline;
  bool derive_repair_hours = true;
  /// Seconds-to-production scale for the derived repair time: the toy
  /// arrays rebuild in simulated seconds; production-capacity disks
  /// take that many times longer. repair_hours = mean_rebuild_s *
  /// scale / 3600.
  double repair_capacity_scale = 3600.0;
  /// Borrowed observer: fleet counters/gauges plus everything the
  /// timeline emits. Per-array simulations run unobserved (they fan
  /// out across threads).
  obs::Attach observer;
};

/// Per-volume serving outcome (requests across all of its segments'
/// arrays merged back together).
struct VolumeSummary {
  int volume = -1;
  /// At least one of its arrays was rebuilding during the run.
  bool degraded = false;
  std::uint64_t requests = 0;
  double mean_latency_s = 0.0;
  double p99_latency_s = 0.0;
};

struct FleetReport {
  int arrays = 0;
  int volumes = 0;
  int failed_arrays = 0;
  std::uint64_t requests_routed = 0;
  std::uint64_t requests_completed = 0;
  std::uint64_t degraded_reads = 0;

  // --- cross-array latency (over every completed request) -------------
  double mean_latency_s = 0.0;
  double p99_latency_s = 0.0;
  double p999_latency_s = 0.0;
  double max_latency_s = 0.0;

  // --- volume-level exposure ------------------------------------------
  /// Fraction of volumes with >= 1 segment on a rebuilding array.
  double degraded_volume_fraction = 0.0;
  double worst_volume_p99_s = 0.0;
  int worst_volume = -1;
  /// Worst p99 among degraded volumes — the number a placement policy
  /// is judged by.
  double worst_degraded_volume_p99_s = 0.0;
  int worst_degraded_volume = -1;
  std::vector<VolumeSummary> volume_summaries;

  // --- rebuild + reliability ------------------------------------------
  double mean_rebuild_s = 0.0;
  double max_rebuild_s = 0.0;
  /// Closed-form aggregate MTTDL: per-array Markov MTTDL (enumerated
  /// fatal counts, the timeline's repair time) divided across the
  /// fleet's independent arrays; 1/MTTDL rates add for mixed fleets.
  double fleet_mttdl_hours = 0.0;
  TimelineReport timeline;

  /// Simulated array-seconds served (for throughput reporting).
  double sim_array_seconds = 0.0;
  /// Folds every deterministic field above plus each per-array report;
  /// the serial-vs-parallel contract compares this.
  std::uint64_t digest = 0;
};

/// Route, serve, aggregate. kInvalidArgument on bad shapes or a
/// closed-loop aggregate arrival.
Result<FleetReport> run_fleet(const FleetConfig& cfg);

}  // namespace sma::fleet
