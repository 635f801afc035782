#include "workload/degraded_read.hpp"

#include <gtest/gtest.h>

namespace sma::workload {
namespace {

array::ArrayConfig cfg_for(layout::Architecture arch) {
  array::ArrayConfig cfg;
  cfg.arch = arch;
  cfg.stripes = 2 * arch.total_disks();
  cfg.content_bytes = 64;
  cfg.logical_element_bytes = 4'000'000;
  cfg.seed = 8;
  return cfg;
}

TEST(DegradedRead, HealthyArrayHasNoDegradedReads) {
  array::DiskArray arr(cfg_for(layout::Architecture::mirror(4, true)));
  arr.initialize();
  DegradedReadConfig cfg;
  cfg.arrival.max_requests = 300;
  auto report = run_degraded_reads(arr, cfg);
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report.value().degraded_reads, 0u);
  EXPECT_GT(report.value().throughput_mbps(), 0.0);
}

TEST(DegradedRead, RejectsRaidAndMultiFailure) {
  array::DiskArray raid(cfg_for(layout::Architecture::raid5(3)));
  raid.initialize();
  EXPECT_FALSE(run_degraded_reads(raid, {}).is_ok());

  array::DiskArray arr(

      cfg_for(layout::Architecture::mirror_with_parity(3, true)));
  arr.initialize();
  arr.fail_physical(0);
  arr.fail_physical(1);
  EXPECT_FALSE(run_degraded_reads(arr, {}).is_ok());
}

TEST(DegradedRead, RedirectedShareRoughlyOneOverTotalDisks) {
  // Reads target data disks uniformly; one failed data disk redirects
  // about (stripes hosting it as data)/total of the traffic.
  array::DiskArray arr(cfg_for(layout::Architecture::mirror(4, true)));
  arr.initialize();
  arr.fail_physical(2);
  DegradedReadConfig cfg;
  cfg.arrival.max_requests = 4000;
  auto report = run_degraded_reads(arr, cfg);
  ASSERT_TRUE(report.is_ok());
  // With rotation, physical disk 2 hosts a data role in half the
  // stripes (data disks occupy n of 2n logical slots), so expected
  // degraded share is 1/(2n) x ... measured empirically ~ 1/8 of 4000.
  EXPECT_NEAR(static_cast<double>(report.value().degraded_reads), 4000.0 / 8,
              4000.0 / 8 * 0.35);
}

TEST(DegradedRead, TraditionalConcentratesShiftedSpreads) {
  const int n = 5;
  double imbalance[2];
  double mbps[2];
  for (const bool shifted : {false, true}) {
    // Rotation on: the stack spreads data/mirror roles across physical
    // disks so the imbalance isolates the degraded-redirect hotspot.
    array::DiskArray arr(cfg_for(layout::Architecture::mirror(n, shifted)));
    arr.initialize();
    arr.fail_physical(0);
    DegradedReadConfig cfg;
    cfg.arrival.max_requests = 3000;
    cfg.arrival.seed = 99;
    auto report = run_degraded_reads(arr, cfg);
    ASSERT_TRUE(report.is_ok());
    imbalance[shifted ? 1 : 0] = report.value().load_imbalance;
    mbps[shifted ? 1 : 0] = report.value().throughput_mbps();
  }
  // Traditional: the partner of the failed disk serves ~2x the mean.
  EXPECT_GT(imbalance[0], 1.5);
  // Shifted: redirected load spreads; imbalance stays near 1.
  EXPECT_LT(imbalance[1], 1.3);
  EXPECT_GE(mbps[1], mbps[0]);
}

TEST(DegradedRead, DeterministicBySeed) {
  auto run = [] {
    array::DiskArray arr(cfg_for(layout::Architecture::mirror(3, true)));
    arr.initialize();
    arr.fail_physical(1);
    DegradedReadConfig cfg;
    cfg.arrival.max_requests = 500;
    cfg.arrival.seed = 77;
    return run_degraded_reads(arr, cfg);
  };
  auto a = run();
  auto b = run();
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_DOUBLE_EQ(a.value().makespan_s, b.value().makespan_s);
  EXPECT_EQ(a.value().degraded_reads, b.value().degraded_reads);
}

TEST(DegradedRead, ZeroReadsIsTrivial) {
  array::DiskArray arr(cfg_for(layout::Architecture::mirror(3, true)));
  arr.initialize();
  DegradedReadConfig cfg;
  cfg.arrival.max_requests = 0;
  auto report = run_degraded_reads(arr, cfg);
  ASSERT_TRUE(report.is_ok());
  EXPECT_DOUBLE_EQ(report.value().makespan_s, 0.0);
}

}  // namespace
}  // namespace sma::workload
