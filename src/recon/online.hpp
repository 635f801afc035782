// On-line reconstruction: the array serves user requests while the
// rebuild drains in the background (paper Section III / Holland [10]).
//
// The serving side is QoS-aware: user requests arrive through a
// pluggable workload::ArrivalProcess (open-loop Poisson, closed-loop
// with think time, bursty MMPP, trace replay), and how hard the rebuild
// may push against them is a workload::QosConfig scheduling policy —
// strict user priority (the default), a fixed in-flight rebuild budget,
// or an adaptive feedback throttle that trades rebuild completion time
// for a foreground p99 target. A read that targets a failed disk is
// served "degraded": redirected to the element's replica (mirror
// kinds). The experiment contrasts the traditional arrangement — where
// rebuild traffic saturates the single partner disk, queueing user
// reads behind it — with the shifted arrangement, where rebuild load
// spreads across all disks. See docs/SERVING.md for the engine design.
//
// Fault injection: disks carrying a FaultProfile may return transient
// errors (retried in place, bounded), unreadable sectors (the op is
// abandoned and counted), or fail-stop mid-run — a scheduled fail-stop
// is absorbed exactly like a configured second failure: queues dropped,
// every stripe replanned against the new failure set, orphaned user
// jobs rerouted to surviving copies.
#pragma once

#include <cstdint>

#include "array/disk_array.hpp"
#include "repair/lifecycle.hpp"
#include "util/stats.hpp"
#include "workload/arrival.hpp"
#include "workload/hedge.hpp"
#include "workload/qos.hpp"

namespace sma::recon {

struct OnlineConfig {
  /// How user requests arrive — the shared serving surface (see
  /// workload::ArrivalConfig). Defaults: open-loop Poisson at 40 req/s,
  /// injection stops after 500 requests (the rebuild drains on), seed 7.
  workload::ArrivalConfig arrival;
  /// Read/write composition of the request stream (a write must land on
  /// every live copy of the element — and the parity element if the
  /// architecture has one — so its latency is the max across disks).
  workload::MixConfig mix;
  /// Rebuild scheduling policy and foreground SLO target. The default
  /// (strict priority, no target) reproduces the pre-QoS engine
  /// bit-identically.
  workload::QosConfig qos;
  /// Inject a second disk failure mid-rebuild: at this simulated time
  /// (< 0 disables) the given disk dies too. Requires fault tolerance
  /// 2 or more (mirror with parity, or R >= 2 replica arrays). All
  /// pending rebuild I/O is replanned for the double failure; queued
  /// requests on the dead disk are rerouted or dropped onto surviving
  /// copies.
  double second_failure_at_s = -1.0;
  int second_failure_disk = -1;
  /// Copy every request's completion latency into
  /// OnlineReport::latencies, indexed by issue order. The engine stamps
  /// the latency on every completion either way and builds the read,
  /// degraded and write sets from those stamps after the run, so this
  /// is a copy only: it draws no randomness and schedules no events,
  /// and the rest of the report is bit-identical either way (held by
  /// test). The fleet layer uses it to attribute latencies to logical
  /// volumes.
  bool record_latencies = false;
  /// Batch idle-disk rebuild drains into one kernel event per run
  /// instead of one per element (SimDisk::submit_run_while). Applies
  /// only when nothing can interact with a run mid-flight — open-loop
  /// arrivals, strict-priority rebuild, no observer, no second-failure
  /// injection, no armed fault machinery — and is bit-identical to the
  /// per-element path there (enforced by test and by the drift gate).
  /// Off reproduces the seed kernel's one-event-per-element schedule;
  /// bench_sim_kernel measures the gap.
  bool batch_drains = true;
  /// Fail-slow detection + hedged-read failover (workload::HedgeConfig).
  /// The default (disabled) is inert: no flags are consulted, no
  /// deadlines armed, and every report is bit-identical to the
  /// pre-hedging engine. Enabled, per-disk latency EWMAs feed a
  /// fail-slow detector; reads route away from flagged disks onto the
  /// partner copy (copy affinity) and pieces already queued to one arm
  /// a deadline-budgeted duplicate to the partner, first completion
  /// wins. Typed kFailSlow/kHedge events mark flips and hedge issues.
  workload::HedgeConfig hedge;
  /// Optional observability hooks (borrowed, caller-owned; see
  /// obs::Attach for the uniform semantics). With a TraceSink attached
  /// the run emits the full event stream — request arrivals, queue
  /// enter/leave, per-disk service spans, rebuild issue/complete,
  /// failures, retries, throttle decisions. With a MetricsRegistry
  /// attached (and a sample interval set) per-disk timelines are
  /// sampled on the simulated-time cadence: "d<k>.util", "d<k>.qdepth",
  /// "d<k>.rebuild_mbps", "d<k>.user_mbps", "d<k>.retries", plus
  /// "d<k>.rebuild_budget" when a throttling policy is active.
  obs::Attach observer;
};

struct OnlineReport {
  double rebuild_done_s = 0.0;
  /// Requests *issued* before the arrival cutoff, by class. Injection
  /// stops at arrival.max_requests; already-issued requests still run
  /// to completion (the simulation drains), so normally
  /// requests_completed == requests_issued — they differ only when a
  /// request dies without completing (e.g. its element became
  /// unreadable beyond the architecture's tolerance).
  std::size_t user_reads = 0;
  std::size_t user_writes = 0;
  std::size_t requests_issued = 0;
  /// Requests that completed; every latency/SLO statistic below is
  /// computed over completed requests only.
  std::size_t requests_completed = 0;
  std::size_t degraded_reads = 0;  // reads that hit the failed disk
  double mean_latency_s = 0.0;     // completed reads
  double p50_latency_s = 0.0;
  double p95_latency_s = 0.0;
  double p99_latency_s = 0.0;
  double p999_latency_s = 0.0;
  double max_latency_s = 0.0;
  double mean_degraded_latency_s = 0.0;
  double mean_write_latency_s = 0.0;
  double p99_write_latency_s = 0.0;
  /// Set when a second failure was injected and absorbed.
  bool second_failure_injected = false;

  // --- QoS accounting (zero unless qos sets a target / policy) ---------
  /// Completed foreground reads whose latency exceeded qos.p99_target_s.
  std::size_t slo_violations = 0;
  /// slo_violations as a percentage of completed foreground reads.
  double slo_violation_pct = 0.0;
  /// Final in-flight rebuild budget (-1 when no throttling policy ran).
  int final_rebuild_budget = -1;
  /// Adaptive control ticks that changed the budget.
  int throttle_adjustments = 0;

  // --- fault accounting (all zero with inert profiles) -----------------
  /// Re-submissions after transient I/O errors (bounded per op by
  /// ArrayConfig::io_max_retries).
  std::uint64_t io_retries = 0;
  /// Ops abandoned after exhausting retries or hitting an unreadable
  /// sector; their requests complete degraded rather than hanging.
  std::uint64_t io_failures = 0;
  /// FaultProfile-scheduled fail-stops that manifested mid-run and were
  /// absorbed through the second-failure replanning machinery.
  int fail_stops_absorbed = 0;

  // --- fail-slow / hedging (all zero unless hedge.enabled) --------------
  /// Flag transitions to "fail-slow" the detector reported.
  int fail_slow_flagged = 0;
  /// Reads issued to the partner copy because the primary's disk was
  /// flagged fail-slow (copy-affinity routing; not counted degraded).
  std::size_t affinity_reroutes = 0;
  /// Deadline-expired duplicate reads issued to the partner copy.
  std::size_t hedged_reads = 0;
  /// Hedged duplicates that completed before the original piece.
  std::size_t hedge_wins = 0;
  /// Completions of the losing half of a hedged pair (wasted service).
  std::size_t hedge_wasted = 0;

  // --- lifecycle (derived via repair::classify) ------------------------
  /// Array state when the run drained: kHealthy after a completed
  /// rebuild, kRebuilding/kCritical if requests outlived the rebuild
  /// accounting, kDataLoss if an absorbed failure was fatal.
  repair::ArrayState final_state = repair::ArrayState::kHealthy;
  /// Lifecycle transitions observed (each also emitted as a typed
  /// kStateChange trace event when an observer is attached).
  int state_changes = 0;

  /// Per-request completion latencies in issue order, copied here only
  /// when OnlineConfig::record_latencies is set (empty otherwise).
  /// A request that died without completing holds -1.
  std::vector<double> latencies;
};

/// Run the on-line rebuild of `arr`'s failed physical disks (mirror
/// architectures, up to arch.fault_tolerance() failed disks) — or,
/// with no failed disk, serve the workload against a healthy array (no
/// rebuild work; rebuild_done_s stays 0 and final_state kHealthy). The
/// healthy mode is what the fleet layer runs on every array that is not
/// currently rebuilding.
/// Timing-only: contents are not modified; pair with
/// recon::reconstruct for the byte-level rebuild.
Result<OnlineReport> run_online_reconstruction(array::DiskArray& arr,
                                               const OnlineConfig& cfg = {});

}  // namespace sma::recon
