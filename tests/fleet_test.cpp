#include "fleet/fleet.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "array/disk_array.hpp"
#include "fleet/timeline.hpp"
#include "recon/online.hpp"

namespace sma::fleet {
namespace {

/// A small fleet that still exercises every moving part: mixed load
/// across 8 arrays, one rebuilding, declustered placement.
FleetConfig small_fleet() {
  FleetConfig cfg;
  cfg.arrays = 8;
  cfg.n = 3;
  cfg.stacks = 4;
  cfg.placement.policy = PlacementPolicy::kDeclustered;
  cfg.placement.volumes = 32;
  cfg.placement.segments_per_volume = 8;
  cfg.placement.spread = 4;
  cfg.arrival.rate_hz = 120.0;
  cfg.arrival.max_requests = 2000;
  cfg.failed_arrays = 1;
  cfg.timeline.horizon_hours = 24.0 * 90.0;
  return cfg;
}

TEST(FleetDeterminism, SerialMatchesParallel) {
  FleetConfig cfg = small_fleet();
  cfg.threads = 1;
  const auto serial = run_fleet(cfg);
  ASSERT_TRUE(serial.is_ok()) << serial.status().to_string();
  cfg.threads = 4;
  const auto parallel = run_fleet(cfg);
  ASSERT_TRUE(parallel.is_ok()) << parallel.status().to_string();

  // The digest folds every deterministic report field plus each
  // per-array report, so one comparison is the whole contract...
  EXPECT_EQ(serial.value().digest, parallel.value().digest);
  // ... but compare headline fields directly too, for diagnosability.
  EXPECT_EQ(serial.value().requests_completed,
            parallel.value().requests_completed);
  EXPECT_EQ(serial.value().degraded_reads, parallel.value().degraded_reads);
  EXPECT_EQ(serial.value().p99_latency_s, parallel.value().p99_latency_s);
  EXPECT_EQ(serial.value().worst_degraded_volume_p99_s,
            parallel.value().worst_degraded_volume_p99_s);
  EXPECT_EQ(serial.value().mean_rebuild_s, parallel.value().mean_rebuild_s);
  EXPECT_EQ(serial.value().timeline.digest, parallel.value().timeline.digest);
}

TEST(FleetDeterminism, RepeatRunsAreBitIdentical) {
  const auto a = run_fleet(small_fleet());
  const auto b = run_fleet(small_fleet());
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(a.value().digest, b.value().digest);
}

TEST(FleetReport, PinsMetricSemantics) {
  const auto r = run_fleet(small_fleet());
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  const FleetReport& rep = r.value();

  EXPECT_EQ(rep.arrays, 8);
  EXPECT_EQ(rep.volumes, 32);
  EXPECT_EQ(rep.failed_arrays, 1);
  // Open-loop injection runs to the cutoff; nothing dies in a
  // single-failure mirror fleet, so routed == completed.
  EXPECT_EQ(rep.requests_routed, 2000u);
  EXPECT_EQ(rep.requests_completed, 2000u);

  // Volume summaries partition the completed requests.
  std::uint64_t summed = 0;
  int degraded = 0;
  for (const auto& vs : rep.volume_summaries) {
    summed += vs.requests;
    if (vs.degraded) ++degraded;
    EXPECT_LE(vs.p99_latency_s, rep.max_latency_s);
  }
  ASSERT_EQ(rep.volume_summaries.size(), 32u);
  EXPECT_EQ(summed, rep.requests_completed);

  // Declustered spread=4 over 8 arrays: one rebuilding array touches
  // exactly spread * volumes / arrays = 16 of the 32 volumes.
  EXPECT_EQ(degraded, 16);
  EXPECT_DOUBLE_EQ(rep.degraded_volume_fraction, 0.5);
  EXPECT_GE(rep.worst_volume_p99_s, rep.worst_degraded_volume_p99_s);
  EXPECT_GT(rep.worst_degraded_volume_p99_s, 0.0);

  // One rebuilding array -> rebuild stats are that one rebuild.
  EXPECT_GT(rep.mean_rebuild_s, 0.0);
  EXPECT_DOUBLE_EQ(rep.mean_rebuild_s, rep.max_rebuild_s);
  EXPECT_GT(rep.degraded_reads, 0u);
  EXPECT_GT(rep.fleet_mttdl_hours, 0.0);
  EXPECT_GT(rep.timeline.failures, 0);
}

TEST(FleetReport, HealthyFleetHasNoDegradedExposure) {
  FleetConfig cfg = small_fleet();
  cfg.failed_arrays = 0;
  cfg.run_timeline = false;
  const auto r = run_fleet(cfg);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value().degraded_reads, 0u);
  EXPECT_DOUBLE_EQ(r.value().degraded_volume_fraction, 0.0);
  EXPECT_DOUBLE_EQ(r.value().mean_rebuild_s, 0.0);
  EXPECT_EQ(r.value().worst_degraded_volume_p99_s, 0.0);
  EXPECT_EQ(r.value().requests_completed, 2000u);
  EXPECT_EQ(r.value().timeline.arrays, 0);  // timeline skipped
}

TEST(FleetReport, RejectsBadConfigs) {
  FleetConfig cfg = small_fleet();
  cfg.arrival.kind = workload::ArrivalKind::kClosedLoop;
  EXPECT_EQ(run_fleet(cfg).status().code(), ErrorCode::kInvalidArgument);
  cfg = small_fleet();
  cfg.failed_arrays = 9;
  EXPECT_EQ(run_fleet(cfg).status().code(), ErrorCode::kInvalidArgument);
  cfg = small_fleet();
  cfg.n = 1;
  EXPECT_EQ(run_fleet(cfg).status().code(), ErrorCode::kInvalidArgument);
  cfg = small_fleet();
  cfg.arrays = 0;
  EXPECT_EQ(run_fleet(cfg).status().code(), ErrorCode::kInvalidArgument);
}

// The closed-form fleet MTTDL runs before the timeline (and without
// it), and recon::estimate_mttdl asserts on a non-positive rate: the
// fleet must refuse such a rate itself, never abort.
TEST(FleetReport, RejectsNonPositiveMttfBeforeTheMttdlEstimate) {
  for (const bool timeline : {true, false}) {
    SCOPED_TRACE(timeline ? "timeline on" : "timeline off");
    FleetConfig cfg = small_fleet();
    cfg.run_timeline = timeline;
    cfg.timeline.disk_mttf_hours = 0.0;
    EXPECT_EQ(run_fleet(cfg).status().code(), ErrorCode::kInvalidArgument);
    cfg.timeline.disk_mttf_hours = std::nan("");
    EXPECT_EQ(run_fleet(cfg).status().code(), ErrorCode::kInvalidArgument);
    cfg = small_fleet();
    cfg.run_timeline = timeline;
    cfg.failed_arrays = 0;  // nothing rebuilds, so nothing derives it
    cfg.timeline.repair_hours = 0.0;
    EXPECT_EQ(run_fleet(cfg).status().code(), ErrorCode::kInvalidArgument);
  }
}

TEST(FleetReport, ArrangementMixMatchesItsLayoutSpecs) {
  // The enum mix is shorthand for a layout spec list: both spellings
  // build the same architectures — parity included, down to the
  // failure timeline — so every report digest agrees.
  const struct {
    ArrangementMix mix;
    const char* layout;
  } cases[] = {{ArrangementMix::kShifted, "shifted"},
               {ArrangementMix::kTraditional, "traditional"},
               {ArrangementMix::kAlternating, "shifted,traditional"}};
  for (const bool parity : {false, true}) {
    for (const auto& c : cases) {
      FleetConfig by_enum = small_fleet();
      by_enum.parity = parity;
      by_enum.arrangement = c.mix;
      FleetConfig by_spec = small_fleet();
      by_spec.parity = parity;
      by_spec.layout = c.layout;
      const auto a = run_fleet(by_enum);
      const auto b = run_fleet(by_spec);
      ASSERT_TRUE(a.is_ok() && b.is_ok()) << c.layout;
      EXPECT_EQ(a.value().digest, b.value().digest)
          << c.layout << " parity=" << parity;
      EXPECT_EQ(a.value().timeline.digest, b.value().timeline.digest)
          << c.layout << " parity=" << parity;
    }
  }
}

// Golden pins: a 16-array fleet (8 stacks, 5,000 routed requests, 2
// rebuilding arrays), digests recorded with the one-add-at-a-time
// aggregation that the vector-built SampleSets replaced. Any change in
// a latency statistic, per array or fleet-wide, moves the digest.
TEST(FleetGolden, SmallFleetDigestsArePinned) {
  const struct {
    bool parity;
    std::uint64_t digest;
    double p99;
    double worst_degraded_p99;
  } cases[] = {{false, 0xe7bf0540b0fbb052ull, 0.22927687235316596,
                0.29285985392017749},
               {true, 0xc8cf0dde90acf85cull, 0.2140285961830084,
                0.25783870715997192}};
  for (const auto& c : cases) {
    for (const std::size_t threads : {1u, 4u}) {
      FleetConfig cfg;
      cfg.arrays = 16;
      cfg.stacks = 8;
      cfg.parity = c.parity;
      cfg.arrival.rate_hz = 400.0;
      cfg.arrival.max_requests = 5000;
      cfg.failed_arrays = 2;
      cfg.threads = threads;
      const auto r = run_fleet(cfg);
      ASSERT_TRUE(r.is_ok()) << r.status().to_string();
      EXPECT_EQ(r.value().requests_completed, 5000u);
      EXPECT_EQ(r.value().digest, c.digest)
          << "parity=" << c.parity << " threads=" << threads;
      EXPECT_EQ(r.value().p99_latency_s, c.p99);
      EXPECT_EQ(r.value().worst_degraded_volume_p99_s, c.worst_degraded_p99);
    }
  }
}

// The fleet layer leans on two online-simulator behaviors added for it:
// healthy (zero-failure) runs, and per-request latency recording that
// leaves the rest of the report bit-identical.

TEST(FleetOnline, HealthyArrayServesWithoutRebuild) {
  array::ArrayConfig acfg;
  acfg.arch = layout::Architecture::mirror(3, true);
  acfg.stripes = acfg.arch.total_disks();
  recon::OnlineConfig ocfg;
  ocfg.arrival.max_requests = 200;
  array::DiskArray arr(acfg);
  const auto r = recon::run_online_reconstruction(arr, ocfg);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_DOUBLE_EQ(r.value().rebuild_done_s, 0.0);
  EXPECT_EQ(r.value().requests_completed, 200u);
  EXPECT_EQ(r.value().degraded_reads, 0u);
  EXPECT_EQ(r.value().final_state, repair::ArrayState::kHealthy);
}

TEST(FleetOnline, RecordLatenciesIsPureBookkeeping) {
  const auto run = [](bool record) {
    array::ArrayConfig acfg;
    acfg.arch = layout::Architecture::mirror(3, true);
    acfg.stripes = 4 * acfg.arch.total_disks();
    array::DiskArray arr(acfg);
    arr.fail_physical(0);
    recon::OnlineConfig ocfg;
    ocfg.arrival.max_requests = 300;
    ocfg.record_latencies = record;
    const auto r = recon::run_online_reconstruction(arr, ocfg);
    EXPECT_TRUE(r.is_ok());
    return r.value();
  };
  const auto with = run(true);
  const auto without = run(false);
  EXPECT_EQ(without.latencies.size(), 0u);
  ASSERT_EQ(with.latencies.size(), with.requests_issued);
  // Same simulation either way.
  EXPECT_EQ(with.rebuild_done_s, without.rebuild_done_s);
  EXPECT_EQ(with.mean_latency_s, without.mean_latency_s);
  EXPECT_EQ(with.p99_latency_s, without.p99_latency_s);
  EXPECT_EQ(with.requests_completed, without.requests_completed);
  // Every request completed, so every recorded latency is real, and
  // the max matches the report's.
  double max_lat = 0.0;
  for (const double lat : with.latencies) {
    EXPECT_GE(lat, 0.0);
    if (lat > max_lat) max_lat = lat;
  }
  EXPECT_DOUBLE_EQ(max_lat, with.max_latency_s);
}

TEST(FleetTimeline, DeterministicAndInternallyConsistent) {
  TimelineConfig cfg;
  cfg.arrays = 64;
  cfg.horizon_hours = 24.0 * 365.0;
  cfg.disk_mttf_hours = 5.0e4;
  cfg.repair_hours = 48.0;
  const auto arch = layout::Architecture::mirror(3, true);
  const auto a = run_failure_timeline(arch, cfg);
  const auto b = run_failure_timeline(arch, cfg);
  ASSERT_TRUE(a.is_ok()) << a.status().to_string();
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(a.value().digest, b.value().digest);

  const TimelineReport& r = a.value();
  EXPECT_GT(r.failures, 0);
  EXPECT_LE(r.repairs_completed + r.data_loss_events, r.failures);
  EXPECT_GE(r.frac_time_rebuilding, r.frac_time_ge2);
  EXPECT_LE(r.frac_time_rebuilding, 1.0);
  EXPECT_GE(r.mean_concurrent_rebuilds, 0.0);
  EXPECT_LE(r.mean_concurrent_rebuilds,
            static_cast<double>(r.max_concurrent_rebuilds));
  EXPECT_GT(r.transitions, 0u);
}

TEST(FleetTimeline, RejectsBadConfigs) {
  TimelineConfig cfg;
  cfg.arrays = 0;
  const auto arch = layout::Architecture::mirror(3, true);
  EXPECT_EQ(run_failure_timeline(arch, cfg).status().code(),
            ErrorCode::kInvalidArgument);
  cfg.arrays = 4;
  cfg.repair_hours = 0.0;
  EXPECT_EQ(run_failure_timeline(arch, cfg).status().code(),
            ErrorCode::kInvalidArgument);
  cfg.repair_hours = 8.0;
  cfg.domain_size = -1;
  EXPECT_EQ(run_failure_timeline(arch, cfg).status().code(),
            ErrorCode::kInvalidArgument);
  cfg.domain_size = 2;
  cfg.domain_hazard_factor = 0.5;
  EXPECT_EQ(run_failure_timeline(arch, cfg).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST(FleetTimeline, InertDomainConfigsMatchIndependentArrays) {
  TimelineConfig base;
  base.arrays = 32;
  base.horizon_hours = 24.0 * 180.0;
  base.repair_hours = 48.0;
  const auto arch = layout::Architecture::mirror(3, true);
  const auto independent = run_failure_timeline(arch, base);
  ASSERT_TRUE(independent.is_ok());

  // domain_size without a hazard boost, and a boost without domains,
  // are both the independent process bit-identically.
  TimelineConfig sized = base;
  sized.domain_size = 8;
  sized.domain_hazard_factor = 1.0;
  const auto a = run_failure_timeline(arch, sized);
  ASSERT_TRUE(a.is_ok());
  EXPECT_EQ(a.value().digest, independent.value().digest);

  TimelineConfig boosted = base;
  boosted.domain_hazard_factor = 8.0;  // domain_size stays 0
  const auto b = run_failure_timeline(arch, boosted);
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(b.value().digest, independent.value().digest);
}

TEST(FleetTimeline, CorrelatedDomainsRaiseConcurrentExposure) {
  TimelineConfig base;
  base.arrays = 32;
  base.horizon_hours = 24.0 * 365.0 * 2.0;
  base.disk_mttf_hours = 2.0e4;
  base.repair_hours = 96.0;
  const auto arch = layout::Architecture::mirror(3, true);
  const auto independent = run_failure_timeline(arch, base);
  ASSERT_TRUE(independent.is_ok());

  TimelineConfig corr = base;
  corr.domain_size = 8;
  corr.domain_hazard_factor = 16.0;
  const auto correlated = run_failure_timeline(arch, corr);
  ASSERT_TRUE(correlated.is_ok()) << correlated.status().to_string();

  // A strong hazard boost inside each enclosure makes failures cluster:
  // more failures land overall and more repairs overlap in time.
  EXPECT_GT(correlated.value().failures, independent.value().failures);
  EXPECT_GE(correlated.value().frac_time_ge2,
            independent.value().frac_time_ge2);
  // Determinism holds with the redraw machinery active.
  const auto replay = run_failure_timeline(arch, corr);
  ASSERT_TRUE(replay.is_ok());
  EXPECT_EQ(replay.value().digest, correlated.value().digest);
}

TEST(FleetEdge, SpreadWiderThanTheFleetIsRejected) {
  FleetConfig cfg = small_fleet();
  cfg.placement.spread = cfg.arrays + 1;
  EXPECT_EQ(run_fleet(cfg).status().code(), ErrorCode::kInvalidArgument);
}

TEST(FleetEdge, AllArraysFailedAtTimeZero) {
  FleetConfig cfg = small_fleet();
  cfg.failed_arrays = cfg.arrays;
  const auto r = run_fleet(cfg);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value().failed_arrays, cfg.arrays);
  EXPECT_GT(r.value().mean_rebuild_s, 0.0);
  // Every volume touches a rebuilding array, so the exposure is total.
  EXPECT_DOUBLE_EQ(r.value().degraded_volume_fraction, 1.0);
}

TEST(FleetEdge, ZeroRoutedRequestsStillRebuilds) {
  FleetConfig cfg = small_fleet();
  cfg.arrival.max_requests = 0;
  const auto r = run_fleet(cfg);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value().requests_routed, 0u);
  EXPECT_EQ(r.value().requests_completed, 0u);
  EXPECT_DOUBLE_EQ(r.value().mean_latency_s, 0.0);
  EXPECT_GT(r.value().mean_rebuild_s, 0.0);  // the rebuild still drains
}

}  // namespace
}  // namespace sma::fleet
