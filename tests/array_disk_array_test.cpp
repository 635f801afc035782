#include "array/disk_array.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

namespace sma::array {
namespace {

ArrayConfig small_config(layout::Architecture arch, int stripes = 0,
                         bool rotate = true) {
  ArrayConfig cfg;
  cfg.arch = arch;
  cfg.stripes = stripes > 0 ? stripes : arch.total_disks();
  cfg.rotate = rotate;
  cfg.content_bytes = 64;
  cfg.logical_element_bytes = 4'000'000;
  cfg.seed = 2024;
  return cfg;
}

TEST(DiskArray, InitializeAndVerifyMirrorShifted) {
  DiskArray arr(small_config(layout::Architecture::mirror(4, true)));
  arr.initialize();
  EXPECT_TRUE(arr.verify_all().is_ok());
  EXPECT_TRUE(arr.verify_consistency().is_ok());
}

TEST(DiskArray, InitializeMaterializesEveryDisk) {
  DiskArray arr(
      small_config(layout::Architecture::mirror_with_parity(4, true)));
  for (int d = 0; d < arr.physical_count(); ++d)
    EXPECT_FALSE(arr.physical(d).content_materialized()) << "disk " << d;
  arr.initialize();
  for (int d = 0; d < arr.physical_count(); ++d)
    EXPECT_TRUE(arr.physical(d).content_materialized()) << "disk " << d;
}

TEST(DiskArray, VerifyAllOnUninitializedArrayNamesTheFirstDataElement) {
  // Never-written elements read as zeros, which no data pattern is.
  const DiskArray arr(small_config(layout::Architecture::mirror(4, true)));
  const Status st = arr.verify_all();
  EXPECT_EQ(st.code(), ErrorCode::kCorruption);
  EXPECT_EQ(st.message(), "data mismatch at logical disk 0, stripe 0, row 0");
  for (int d = 0; d < arr.physical_count(); ++d)
    EXPECT_FALSE(arr.physical(d).content_materialized()) << "disk " << d;
}

TEST(DiskArray, InitializeAndVerifyMirrorParityTraditional) {
  DiskArray arr(
      small_config(layout::Architecture::mirror_with_parity(3, false)));
  arr.initialize();
  EXPECT_TRUE(arr.verify_all().is_ok());
}

TEST(DiskArray, InitializeAndVerifyRaid5) {
  DiskArray arr(small_config(layout::Architecture::raid5(4)));
  arr.initialize();
  ASSERT_NE(arr.raid_codec(), nullptr);
  EXPECT_TRUE(arr.verify_all().is_ok());
  EXPECT_TRUE(arr.verify_consistency().is_ok());
}

TEST(DiskArray, InitializeAndVerifyRaid6) {
  DiskArray arr(small_config(layout::Architecture::raid6(5)));
  arr.initialize();
  EXPECT_TRUE(arr.verify_all().is_ok());
}

TEST(DiskArray, VerifyDetectsCorruption) {
  DiskArray arr(small_config(layout::Architecture::mirror(3, true)));
  arr.initialize();
  auto elem = arr.content(1, 0, 2);
  elem[0] ^= 0xFF;
  const Status st = arr.verify_all();
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), ErrorCode::kCorruption);
  EXPECT_FALSE(arr.verify_consistency().is_ok());
}

TEST(DiskArray, MirrorCellsMatchArrangement) {
  const auto arch = layout::Architecture::mirror(5, true);
  DiskArray arr(small_config(arch));
  arr.initialize();
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) {
      const layout::Pos replica = arch.replica_of(1, i, j);
      auto data = arr.content(arch.data_disk(i), 2, j);
      auto mirror = arr.content(replica.disk, 2, replica.row);
      EXPECT_TRUE(std::equal(data.begin(), data.end(), mirror.begin()))
          << i << "," << j;
    }
  }
}

TEST(DiskArray, RotationMapsLogicalToDifferentPhysicalPerStripe) {
  DiskArray arr(small_config(layout::Architecture::mirror(3, true)));
  std::set<int> hosts;
  for (int s = 0; s < arr.stripes(); ++s) hosts.insert(arr.physical_disk(0, s));
  EXPECT_EQ(hosts.size(), static_cast<std::size_t>(arr.total_disks()));
}

TEST(DiskArray, NoRotationKeepsIdentity) {
  DiskArray arr(small_config(layout::Architecture::mirror(3, true), 6,
                             /*rotate=*/false));
  for (int s = 0; s < arr.stripes(); ++s) {
    EXPECT_EQ(arr.physical_disk(2, s), 2);
    EXPECT_EQ(arr.logical_disk(5, s), 5);
  }
}

TEST(DiskArray, RotatedContentsStillVerify) {
  // verify_all resolves content through the rotation, so a rotated
  // array must verify as cleanly as an unrotated one.
  DiskArray arr(
      small_config(layout::Architecture::mirror_with_parity(4, true)));
  arr.initialize();
  EXPECT_TRUE(arr.verify_all().is_ok());
}

TEST(DiskArray, FailPhysicalTracksFailedSet) {
  DiskArray arr(small_config(layout::Architecture::mirror(3, true)));
  arr.initialize();
  EXPECT_TRUE(arr.failed_physical().empty());
  arr.fail_physical(4);
  arr.fail_physical(1);
  EXPECT_EQ(arr.failed_physical(), (std::vector<int>{1, 4}));
}

TEST(DiskArray, VerifySkipsFailedDisks) {
  DiskArray arr(small_config(layout::Architecture::mirror(3, true)));
  arr.initialize();
  arr.fail_physical(2);  // scrambles its contents
  EXPECT_TRUE(arr.verify_all().is_ok());  // failed disk excluded
}

TEST(DiskArray, VerifyLogicalDiskChecksOneColumn) {
  DiskArray arr(
      small_config(layout::Architecture::mirror_with_parity(3, true)));
  arr.initialize();
  for (int l = 0; l < arr.total_disks(); ++l)
    EXPECT_TRUE(arr.verify_logical_disk(l).is_ok()) << l;
  // Corrupt one element of logical disk 4 (a mirror disk).
  arr.content(4, 1, 0)[3] ^= 1;
  EXPECT_FALSE(arr.verify_logical_disk(4).is_ok());
  EXPECT_TRUE(arr.verify_logical_disk(0).is_ok());
}

TEST(DiskArray, ExecuteParallelismAcrossDisks) {
  DiskArray arr(small_config(layout::Architecture::mirror(4, true)));
  arr.initialize();
  // One read on each of 4 distinct data disks: parallel, so the batch
  // takes one service time, not four.
  std::vector<Op> ops;
  for (int i = 0; i < 4; ++i) ops.push_back({i, 0, 0, disk::IoKind::kRead});
  const auto stats = arr.execute(ops, 0.0);
  EXPECT_EQ(stats.max_ops_per_disk, 1);
  const double one_read =
      arr.physical(0).spec().positioning_s() +
      arr.physical(0).spec().read_transfer_s(4'000'000);
  EXPECT_NEAR(stats.elapsed_s(), one_read, 1e-9);
  EXPECT_EQ(stats.logical_bytes_read, 4u * 4'000'000);
}

TEST(DiskArray, ExecuteSerializesOnOneDisk) {
  DiskArray arr(small_config(layout::Architecture::mirror(4, true)));
  arr.initialize();
  std::vector<Op> ops;
  for (int r = 0; r < 4; ++r) ops.push_back({2, 0, r, disk::IoKind::kRead});
  const auto stats = arr.execute(ops, 0.0);
  EXPECT_EQ(stats.max_ops_per_disk, 4);
  const auto& spec = arr.physical(0).spec();
  // First read seeks, the rest stream sequentially.
  const double expect =
      spec.positioning_s() + 4 * spec.read_transfer_s(4'000'000);
  EXPECT_NEAR(stats.elapsed_s(), expect, 1e-9);
}

TEST(DiskArray, ResetTimelinesClearsBusy) {
  DiskArray arr(small_config(layout::Architecture::mirror(3, true)));
  arr.initialize();
  std::vector<Op> ops{{0, 0, 0, disk::IoKind::kRead}};
  arr.execute(ops, 0.0);
  EXPECT_GT(arr.physical(0).busy_until(), 0.0);
  arr.reset_timelines();
  EXPECT_DOUBLE_EQ(arr.physical(0).busy_until(), 0.0);
}

TEST(DiskArray, SlotLayoutIsStripeMajor) {
  DiskArray arr(small_config(layout::Architecture::mirror(3, true)));
  EXPECT_EQ(arr.slot(0, 0), 0);
  EXPECT_EQ(arr.slot(0, 2), 2);
  EXPECT_EQ(arr.slot(1, 0), 3);
  EXPECT_EQ(arr.slot(2, 1), 7);
}

}  // namespace
}  // namespace sma::array
