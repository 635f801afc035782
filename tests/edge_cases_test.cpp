// Degenerate-size and boundary-condition checks across modules: the
// places where off-by-ones live.
#include <gtest/gtest.h>

#include "core/volume.hpp"
#include "layout/properties.hpp"
#include "recon/analytic.hpp"
#include "recon/executor.hpp"
#include "recon/failure.hpp"
#include "recon/plan.hpp"
#include "workload/write_executor.hpp"

namespace sma {
namespace {

TEST(Edge, NEqualsOneMirror) {
  // A 1-disk "array" mirrored: 2 disks, 1 row. Everything still works.
  const auto arch = layout::Architecture::mirror(1, true);
  EXPECT_EQ(arch.total_disks(), 2);
  EXPECT_TRUE(layout::evaluate_properties(*arch.arrangement()).all());
  auto plan = recon::plan_reconstruction(arch, {0});
  ASSERT_TRUE(plan.is_ok());
  EXPECT_EQ(plan.value().read_accesses(arch), 1);

  array::ArrayConfig cfg;
  cfg.arch = arch;
  cfg.stripes = 2;
  cfg.content_bytes = 32;
  array::DiskArray arr(cfg);
  arr.initialize();
  arr.fail_physical(1);
  auto report = recon::reconstruct(arr);
  ASSERT_TRUE(report.is_ok());
  EXPECT_TRUE(arr.verify_all().is_ok());
}

TEST(Edge, NEqualsOneMirrorWithParity) {
  const auto arch = layout::Architecture::mirror_with_parity(1, true);
  EXPECT_EQ(arch.total_disks(), 3);
  const auto table = recon::enumerate_double_failure_cases(arch);
  // n=1: F2 has zero cases; only F1 (2 cases) and F3 (1 case) exist.
  long total = 0;
  for (const auto& row : table.rows) total += row.num_cases;
  EXPECT_EQ(total, 3);
  // The paper's closed form 4n/(2n+1) implicitly assumes n >= 2: at
  // n = 1 the F3 parity path degenerates to reading the lone parity
  // element (1 access, not 2), so every case needs exactly 1 access.
  EXPECT_NEAR(table.average_read_accesses, 1.0, 1e-12);
  EXPECT_GT(recon::paper_avg_read_shifted_mirror_parity(1),
            table.average_read_accesses);
}

TEST(Edge, NEqualsTwoShiftedIsSwapColumns) {
  // n=2: the shifted arrangement maps a(i,j) -> b(<i+j>_2, i); still
  // all three properties, and the rebuild is 2x parallel.
  const auto arr = layout::make_arrangement("shifted", 2).take();
  EXPECT_TRUE(layout::evaluate_properties(arr).all());
  EXPECT_EQ(arr.mirror_of(0, 1), (layout::Pos{1, 0}));
  EXPECT_EQ(arr.mirror_of(1, 1), (layout::Pos{0, 1}));
}

TEST(Edge, SingleStripeNoRotation) {
  array::ArrayConfig cfg;
  cfg.arch = layout::Architecture::mirror_with_parity(3, true);
  cfg.stripes = 1;
  cfg.rotate = false;
  cfg.content_bytes = 32;
  array::DiskArray arr(cfg);
  arr.initialize();
  EXPECT_TRUE(arr.verify_all().is_ok());
  arr.fail_physical(0);
  arr.fail_physical(4);
  auto report = recon::reconstruct(arr);
  ASSERT_TRUE(report.is_ok());
  EXPECT_TRUE(arr.verify_all().is_ok());
}

TEST(Edge, TimingUsesLogicalNotStoredBytes) {
  // The content store is tiny; the timing model must charge the 4 MB
  // logical size regardless.
  array::ArrayConfig cfg;
  cfg.arch = layout::Architecture::mirror(3, true);
  cfg.stripes = 6;
  cfg.content_bytes = 16;  // 16 stored bytes
  cfg.logical_element_bytes = 4'000'000;
  array::DiskArray arr(cfg);
  arr.initialize();
  arr.fail_physical(0);
  auto report = recon::reconstruct(arr);
  ASSERT_TRUE(report.is_ok());
  // 6 stripes x 3 rows... the failed disk holds 6 x 3 = 18 elements?
  // No: rows == n == 3, so 18 elements of 4 MB each were recovered.
  EXPECT_EQ(report.value().logical_bytes_recovered, 18u * 4'000'000);
  // Reads took longer than 18 stored-bytes would ever take.
  EXPECT_GT(report.value().read_makespan_s, 0.05);
}

TEST(Edge, VolumeWithMultipleStacks) {
  core::VolumeConfig cfg;
  cfg.n = 3;
  cfg.with_parity = true;
  cfg.stacks = 3;
  cfg.content_bytes = 32;
  auto vol = core::MirroredVolume::create(cfg);
  ASSERT_TRUE(vol.is_ok());
  EXPECT_EQ(vol.value().stripes(), 21);  // 3 stacks x 7 disks
  EXPECT_TRUE(vol.value().verify().is_ok());
}

TEST(Edge, WriteWorkloadOnSingleStripeVolume) {
  array::ArrayConfig cfg;
  cfg.arch = layout::Architecture::mirror(2, true);
  cfg.stripes = 1;
  cfg.content_bytes = 32;
  array::DiskArray arr(cfg);
  arr.initialize();
  workload::WriteWorkloadConfig wcfg;
  wcfg.arrival.max_requests = 20;
  const auto reqs = workload::generate_large_writes(arr, wcfg);
  for (const auto& r : reqs) {
    EXPECT_GE(r.start, 0);
    EXPECT_LE(r.start + r.length, 4);  // 2x2 elements total
  }
  const auto report = workload::run_write_workload(arr, reqs);
  EXPECT_GT(report.write_throughput_mbps(), 0.0);
}

TEST(Edge, Fig7PointAtMinimumN) {
  const auto p = recon::fig7_point(2);
  EXPECT_GT(p.shifted_avg, 1.0);
  EXPECT_LT(p.shifted_avg, 2.0);
  EXPECT_DOUBLE_EQ(p.traditional_avg, 2.0);
  EXPECT_GT(p.ratio_vs_traditional_pct, 0.0);
}

TEST(Edge, ZeroLengthBatchExecute) {
  array::ArrayConfig cfg;
  cfg.arch = layout::Architecture::mirror(2, true);
  cfg.stripes = 1;
  cfg.content_bytes = 32;
  array::DiskArray arr(cfg);
  arr.initialize();
  const auto stats = arr.execute({}, 5.0);
  EXPECT_DOUBLE_EQ(stats.start_s, 5.0);
  EXPECT_DOUBLE_EQ(stats.end_s, 5.0);
  EXPECT_EQ(stats.max_ops_per_disk, 0);
}

}  // namespace
}  // namespace sma
