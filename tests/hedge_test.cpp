#include "workload/hedge.hpp"

#include <gtest/gtest.h>

#include "array/disk_array.hpp"
#include "recon/online.hpp"

namespace sma::workload {
namespace {

HedgeConfig enabled_cfg() {
  HedgeConfig cfg;
  cfg.enabled = true;
  cfg.warmup_samples = 4;
  return cfg;
}

TEST(HedgeDetector, StaysQuietDuringWarmupAndWithTooFewPeers) {
  FailSlowDetector det(enabled_cfg(), 3);
  // Disk 0 is wildly slow, but no peer has warmed up yet.
  for (int i = 0; i < 10; ++i) EXPECT_EQ(det.observe(0, 1.0), 0);
  EXPECT_FALSE(det.slow(0));
  // One warmed-up peer is not enough for a median (needs >= 2).
  for (int i = 0; i < 10; ++i) det.observe(1, 0.01);
  EXPECT_EQ(det.observe(0, 1.0), 0);
  EXPECT_FALSE(det.slow(0));
}

TEST(HedgeDetector, FlagsOutlierAndClearsWithHysteresis) {
  HedgeConfig cfg = enabled_cfg();
  cfg.flag_factor = 2.5;
  cfg.clear_factor = 1.5;
  FailSlowDetector det(cfg, 4);
  for (int i = 0; i < 8; ++i) {
    det.observe(1, 0.010);
    det.observe(2, 0.010);
    det.observe(3, 0.011);
  }
  // Disk 0 at ~10x the peer median: flagged exactly once.
  int flips = 0;
  for (int i = 0; i < 8; ++i) flips += det.observe(0, 0.100) > 0 ? 1 : 0;
  EXPECT_EQ(flips, 1);
  EXPECT_TRUE(det.slow(0));
  EXPECT_EQ(det.flag_events(), 1);
  // Recovery: EWMA decays below clear_factor x median; exactly one -1.
  int clears = 0;
  for (int i = 0; i < 64; ++i) clears += det.observe(0, 0.010) < 0 ? 1 : 0;
  EXPECT_EQ(clears, 1);
  EXPECT_FALSE(det.slow(0));
}

TEST(HedgeDetector, ValidationRejectsBadKnobsOnlyWhenEnabled) {
  HedgeConfig cfg;  // disabled: anything goes
  cfg.ewma_alpha = -1.0;
  EXPECT_TRUE(validate_hedge(cfg).is_ok());
  cfg = enabled_cfg();
  cfg.ewma_alpha = 0.0;
  EXPECT_EQ(validate_hedge(cfg).code(), ErrorCode::kInvalidArgument);
  cfg = enabled_cfg();
  cfg.flag_factor = 1.0;
  EXPECT_EQ(validate_hedge(cfg).code(), ErrorCode::kInvalidArgument);
  cfg = enabled_cfg();
  cfg.clear_factor = cfg.flag_factor + 1.0;
  EXPECT_EQ(validate_hedge(cfg).code(), ErrorCode::kInvalidArgument);
  cfg = enabled_cfg();
  cfg.hedge_deadline_factor = 0.0;
  EXPECT_EQ(validate_hedge(cfg).code(), ErrorCode::kInvalidArgument);
}

/// A rebuilding array with one fail-slow peer, served under load.
recon::OnlineConfig slow_disk_config(bool hedging) {
  recon::OnlineConfig cfg;
  cfg.arrival.rate_hz = 150.0;
  cfg.arrival.max_requests = 1500;
  cfg.arrival.seed = 11;
  cfg.hedge.enabled = hedging;
  cfg.hedge.warmup_samples = 8;
  return cfg;
}

array::ArrayConfig slow_array_config() {
  array::ArrayConfig acfg;
  acfg.arch = layout::Architecture::mirror(4, true);
  acfg.stripes = 4 * acfg.arch.total_disks();
  acfg.content_bytes = 64;
  acfg.fault_overrides[2].slow_factor = 8.0;  // a live data disk limps
  return acfg;
}

TEST(HedgeOnline, DetectorFlagsAndReroutesAroundTheSlowDisk) {
  array::DiskArray arr(slow_array_config());
  arr.fail_physical(0);
  const auto r = recon::run_online_reconstruction(arr, slow_disk_config(true));
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_GE(r.value().fail_slow_flagged, 1);
  EXPECT_GT(r.value().affinity_reroutes, 0u);
  // With one replica array and copy affinity on, a read that reaches
  // the flagged disk got there because its only other copy is failed
  // or flagged too, so arm_hedge finds no alternate: no hedge fires.
  // HedgedReadsFireWithoutCopyAffinity covers the hedging path.
  EXPECT_EQ(r.value().hedged_reads, 0u);
}

TEST(HedgeOnline, HedgedReadsFireWithoutCopyAffinity) {
  array::DiskArray plain(slow_array_config());
  plain.fail_physical(0);
  const auto off =
      recon::run_online_reconstruction(plain, slow_disk_config(false));
  ASSERT_TRUE(off.is_ok());

  // Reads keep queueing to the flagged disk, so deadline hedges fire
  // and race the partner copy.
  recon::OnlineConfig cfg = slow_disk_config(true);
  cfg.hedge.affinity_routing = false;
  array::DiskArray hedged(slow_array_config());
  hedged.fail_physical(0);
  const auto on = recon::run_online_reconstruction(hedged, cfg);
  ASSERT_TRUE(on.is_ok()) << on.status().to_string();
  EXPECT_GT(on.value().hedged_reads, 0u);
  EXPECT_LE(on.value().hedge_wins, on.value().hedged_reads);
  EXPECT_LE(on.value().hedge_wasted, on.value().hedged_reads);
  EXPECT_EQ(on.value().affinity_reroutes, 0u);
  EXPECT_LT(on.value().p99_latency_s, off.value().p99_latency_s);
}

TEST(HedgeOnline, DisabledHedgingKeepsEveryCounterAtZero) {
  array::DiskArray arr(slow_array_config());
  arr.fail_physical(0);
  const auto r = recon::run_online_reconstruction(arr, slow_disk_config(false));
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().fail_slow_flagged, 0);
  EXPECT_EQ(r.value().affinity_reroutes, 0u);
  EXPECT_EQ(r.value().hedged_reads, 0u);
  EXPECT_EQ(r.value().hedge_wins, 0u);
  EXPECT_EQ(r.value().hedge_wasted, 0u);
}

TEST(HedgeOnline, HedgingImprovesTheFailSlowTail) {
  array::DiskArray plain(slow_array_config());
  plain.fail_physical(0);
  const auto off =
      recon::run_online_reconstruction(plain, slow_disk_config(false));
  ASSERT_TRUE(off.is_ok());

  array::DiskArray hedged(slow_array_config());
  hedged.fail_physical(0);
  const auto on =
      recon::run_online_reconstruction(hedged, slow_disk_config(true));
  ASSERT_TRUE(on.is_ok());

  // Routing away from the limping disk (plus deadline hedges for pieces
  // already queued to it) must improve the foreground tail.
  EXPECT_LT(on.value().p99_latency_s, off.value().p99_latency_s);
}

TEST(HedgeOnline, HedgedRunsReplayBitIdentically) {
  array::DiskArray a(slow_array_config());
  a.fail_physical(0);
  const auto first =
      recon::run_online_reconstruction(a, slow_disk_config(true));
  ASSERT_TRUE(first.is_ok());
  array::DiskArray b(slow_array_config());
  b.fail_physical(0);
  const auto second =
      recon::run_online_reconstruction(b, slow_disk_config(true));
  ASSERT_TRUE(second.is_ok());
  EXPECT_DOUBLE_EQ(first.value().p99_latency_s, second.value().p99_latency_s);
  EXPECT_EQ(first.value().hedged_reads, second.value().hedged_reads);
  EXPECT_EQ(first.value().hedge_wins, second.value().hedge_wins);
  EXPECT_EQ(first.value().affinity_reroutes, second.value().affinity_reroutes);
  EXPECT_EQ(first.value().fail_slow_flagged, second.value().fail_slow_flagged);
}

}  // namespace
}  // namespace sma::workload
