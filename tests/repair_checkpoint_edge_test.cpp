// RebuildCheckpoint edge cases: the watermark at the very first and the
// very last stripe, the degenerate zero-stripe budget, and a watermark
// whose already-rebuilt progress is wiped because the rebuilt disk
// itself fails again before the rebuild finishes.
#include <gtest/gtest.h>

#include "recon/executor.hpp"
#include "repair/checkpoint.hpp"

namespace sma::repair {
namespace {

array::ArrayConfig cfg_for(layout::Architecture arch) {
  array::ArrayConfig cfg;
  cfg.arch = arch;
  cfg.stripes = arch.total_disks();  // one full stack
  cfg.content_bytes = 64;
  cfg.logical_element_bytes = 4'000'000;
  cfg.seed = 47;
  return cfg;
}

TEST(CheckpointEdge, ZeroStripeBudgetIsRejectedNotRecorded) {
  array::DiskArray arr(
      cfg_for(layout::Architecture::mirror_with_parity(4, true)));
  arr.initialize();
  arr.fail_physical(0);
  RebuildCheckpoint ck;
  recon::ReconOptions opts;
  opts.checkpoint = &ck;
  opts.max_stripes = 0;
  // A zero budget cannot make progress: reject instead of looping or
  // writing a watermark at stripe 0 (stripes_done == 0 means "no
  // checkpoint", so recording it would be indistinguishable from none).
  EXPECT_EQ(recon::reconstruct(arr, opts).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_FALSE(ck.valid());
  // Budgets also require a checkpoint to record where they stopped.
  recon::ReconOptions no_ck;
  no_ck.max_stripes = 1;
  EXPECT_EQ(recon::reconstruct(arr, no_ck).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST(CheckpointEdge, WatermarkAfterTheFirstStripeResumes) {
  array::DiskArray arr(
      cfg_for(layout::Architecture::mirror_with_parity(4, true)));
  arr.initialize();
  arr.fail_physical(0);
  RebuildCheckpoint ck;
  recon::ReconOptions opts;
  opts.checkpoint = &ck;
  opts.max_stripes = 1;
  auto first = recon::reconstruct(arr, opts);
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  EXPECT_FALSE(first.value().completed);
  EXPECT_EQ(first.value().stripes_processed, 1);
  EXPECT_TRUE(ck.valid());
  EXPECT_EQ(ck.stripes_done, 1);

  opts.max_stripes = -1;
  auto rest = recon::reconstruct(arr, opts);
  ASSERT_TRUE(rest.is_ok()) << rest.status().to_string();
  EXPECT_TRUE(rest.value().completed);
  EXPECT_EQ(rest.value().stripes_skipped, 1);
  EXPECT_EQ(rest.value().stripes_processed, arr.stripes() - 1);
  EXPECT_TRUE(arr.failed_physical().empty());
  EXPECT_TRUE(arr.verify_all().is_ok());
}

TEST(CheckpointEdge, WatermarkAtTheFinalStripeResumesForOneStripe) {
  array::DiskArray arr(
      cfg_for(layout::Architecture::mirror_with_parity(4, true)));
  arr.initialize();
  arr.fail_physical(0);
  RebuildCheckpoint ck;
  recon::ReconOptions opts;
  opts.checkpoint = &ck;
  opts.max_stripes = arr.stripes() - 1;
  auto first = recon::reconstruct(arr, opts);
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  EXPECT_FALSE(first.value().completed);
  EXPECT_EQ(ck.stripes_done, arr.stripes() - 1);
  // The budget interrupted the rebuild: the disk is still failed even
  // though only one stripe of work remains.
  EXPECT_FALSE(arr.failed_physical().empty());

  opts.max_stripes = -1;
  auto rest = recon::reconstruct(arr, opts);
  ASSERT_TRUE(rest.is_ok()) << rest.status().to_string();
  EXPECT_TRUE(rest.value().completed);
  EXPECT_EQ(rest.value().stripes_skipped, arr.stripes() - 1);
  EXPECT_EQ(rest.value().stripes_processed, 1);
  EXPECT_TRUE(arr.failed_physical().empty());
  EXPECT_TRUE(arr.verify_all().is_ok());
}

TEST(CheckpointEdge, RefailedWatermarkDiskForcesCoveredStripesToRebuild) {
  array::DiskArray arr(
      cfg_for(layout::Architecture::mirror_with_parity(4, true)));
  arr.initialize();
  arr.fail_physical(0);
  RebuildCheckpoint ck;
  recon::ReconOptions opts;
  opts.checkpoint = &ck;
  opts.max_stripes = 4;
  auto first = recon::reconstruct(arr, opts);
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  ASSERT_FALSE(first.value().completed);
  ASSERT_EQ(ck.stripes_done, 4);

  // The disk being rebuilt in place fails again (replacement drive dies
  // mid-rebuild): SimDisk::fail() wipes the restored-slot progress, so
  // the stripes the watermark claims covered no longer hold rebuilt
  // data. The resume must notice and re-rebuild them instead of
  // trusting the watermark.
  arr.fail_physical(0);
  opts.max_stripes = -1;
  auto rest = recon::reconstruct(arr, opts);
  ASSERT_TRUE(rest.is_ok()) << rest.status().to_string();
  EXPECT_TRUE(rest.value().completed);
  EXPECT_EQ(rest.value().stripes_skipped, 0);
  EXPECT_EQ(rest.value().stripes_processed, arr.stripes());
  EXPECT_TRUE(arr.failed_physical().empty());
  EXPECT_TRUE(arr.verify_all().is_ok());
}

}  // namespace
}  // namespace sma::repair
