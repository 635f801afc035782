#include "layout/architecture.hpp"

#include <gtest/gtest.h>

namespace sma::layout {
namespace {

TEST(Architecture, MirrorShape) {
  const auto a = Architecture::mirror(5, /*shifted=*/true);
  EXPECT_EQ(a.kind(), ArchKind::kMirror);
  EXPECT_EQ(a.n(), 5);
  EXPECT_EQ(a.rows(), 5);
  EXPECT_EQ(a.total_disks(), 10);
  EXPECT_EQ(a.fault_tolerance(), 1);
  EXPECT_EQ(a.parity_disks(), 0);
  EXPECT_TRUE(a.is_mirror());
  EXPECT_FALSE(a.has_parity());
  EXPECT_DOUBLE_EQ(a.storage_efficiency(), 0.5);
  ASSERT_NE(a.arrangement(), nullptr);
  EXPECT_EQ(a.arrangement()->name(), "shifted");
}

TEST(Architecture, MirrorTraditionalUsesIdentityArrangement) {
  const auto a = Architecture::mirror(3, /*shifted=*/false);
  EXPECT_EQ(a.kind(), ArchKind::kMirror);
  EXPECT_EQ(a.arrangement()->name(), "traditional");
  EXPECT_EQ(a.replica_of(1, 1, 2), (Pos{a.replica_disk(1, 1), 2}));
}

TEST(Architecture, MirrorWithParityShape) {
  const auto a = Architecture::mirror_with_parity(4, true);
  EXPECT_EQ(a.kind(), ArchKind::kMirrorParity);
  EXPECT_EQ(a.total_disks(), 9);
  EXPECT_EQ(a.fault_tolerance(), 2);
  EXPECT_EQ(a.parity_disks(), 1);
  EXPECT_TRUE(a.has_parity());
  EXPECT_EQ(a.parity_disk(), 8);
  EXPECT_DOUBLE_EQ(a.storage_efficiency(), 4.0 / 9.0);
  EXPECT_EQ(a.name(), "mirror-parity-shifted");
}

TEST(Architecture, StorageEfficiencyMatchesPaperFormulas) {
  // Paper Section VI-D: n/2n for mirror, n/(2n+1) with parity, n/(n+2)
  // for RAID-6.
  for (int n = 1; n <= 10; ++n) {
    EXPECT_DOUBLE_EQ(Architecture::mirror(n, true).storage_efficiency(),
                     n / (2.0 * n));
    EXPECT_DOUBLE_EQ(
        Architecture::mirror_with_parity(n, true).storage_efficiency(),
        n / (2.0 * n + 1));
    EXPECT_DOUBLE_EQ(Architecture::raid6(n).storage_efficiency(),
                     static_cast<double>(n) / (n + 2));
  }
}

TEST(Architecture, Raid5Shape) {
  const auto a = Architecture::raid5(4);
  EXPECT_EQ(a.total_disks(), 5);
  EXPECT_EQ(a.rows(), 4);
  EXPECT_EQ(a.fault_tolerance(), 1);
  EXPECT_FALSE(a.is_mirror());
  EXPECT_EQ(a.parity_disk(), 4);
  EXPECT_EQ(a.role_of(4), DiskRole::kParity);
}

TEST(Architecture, Raid6ShortenedRows) {
  // rows = p - 1 with p the smallest prime >= n + 1.
  EXPECT_EQ(Architecture::raid6(3).rows(), 4);   // p=5
  EXPECT_EQ(Architecture::raid6(4).rows(), 4);   // p=5
  EXPECT_EQ(Architecture::raid6(5).rows(), 6);   // p=7
  EXPECT_EQ(Architecture::raid6(6).rows(), 6);   // p=7
  EXPECT_EQ(Architecture::raid6(7).rows(), 10);  // p=11
  EXPECT_EQ(Architecture::raid6(5).parity_disks(), 2);
  EXPECT_EQ(Architecture::raid6(5).parity_disk(1), 6);
}

TEST(Architecture, RoleMapping) {
  const auto a = Architecture::mirror_with_parity(3, true);
  EXPECT_EQ(a.role_of(0), DiskRole::kData);
  EXPECT_EQ(a.role_of(2), DiskRole::kData);
  EXPECT_EQ(a.role_of(3), DiskRole::kMirror);
  EXPECT_EQ(a.role_of(5), DiskRole::kMirror);
  EXPECT_EQ(a.role_of(6), DiskRole::kParity);
  EXPECT_EQ(a.role_index(0), 0);
  EXPECT_EQ(a.role_index(4), 1);
  EXPECT_EQ(a.role_index(6), 0);
  EXPECT_EQ(a.replica_disk(1, 2), 5);
  EXPECT_EQ(a.data_disk(1), 1);
}

TEST(Architecture, ReplicaMappingShifted) {
  const auto a = Architecture::mirror(3, true);
  // a(0,1) -> mirror local (1, 0) -> global disk 4.
  EXPECT_EQ(a.replica_of(1, 0, 1), (Pos{4, 0}));
  // Inverse: mirror disk index 1, row 0 replicates a(0, 1).
  EXPECT_EQ(a.replicated_by(1, 1, 0), (Pos{0, 1}));
}

TEST(Architecture, ReplicaAndReplicatedByAreInverse) {
  const auto a = Architecture::mirror_with_parity(5, true);
  for (int i = 0; i < 5; ++i)
    for (int j = 0; j < 5; ++j) {
      const Pos replica = a.replica_of(1, i, j);
      const int mirror_index = a.role_index(replica.disk);
      EXPECT_EQ(a.replicated_by(1, mirror_index, replica.row), (Pos{i, j}));
    }
}

TEST(Architecture, Names) {
  EXPECT_EQ(Architecture::mirror(3, false).name(), "mirror-traditional");
  EXPECT_EQ(Architecture::mirror(3, true).name(), "mirror-shifted");
  EXPECT_EQ(Architecture::mirror_with_parity(3, false).name(),
            "mirror-parity-traditional");
  EXPECT_EQ(Architecture::raid5(3).name(), "raid5");
  EXPECT_EQ(Architecture::raid6(3).name(), "raid6-shortened");
}

}  // namespace
}  // namespace sma::layout
