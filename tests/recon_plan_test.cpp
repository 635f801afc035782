#include "recon/plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "recon/failure.hpp"
#include "reference_oracle.hpp"

namespace sma::recon {
namespace {

// Every built-in layout spec as mirror and as mirror+parity for
// n = 2..9 (lrc and pyramid default to two groups, so odd n use one),
// plus RAID-5 and RAID-6 at the same n.
std::vector<layout::Architecture> planner_grid() {
  std::vector<layout::Architecture> archs;
  for (int n = 2; n <= 9; ++n) {
    const std::string groups = n % 2 == 0 ? "" : ":groups=1";
    for (const std::string& spec :
         {std::string("traditional"), std::string("shifted"),
          std::string("iterated:2"), std::string("iterated:3"),
          "lrc" + groups, "pyramid" + groups, std::string("zigzag")}) {
      auto mirror = layout::Architecture::mirror_named(n, spec);
      auto parity = layout::Architecture::mirror_with_parity_named(n, spec);
      EXPECT_TRUE(mirror.is_ok()) << spec << " n=" << n;
      EXPECT_TRUE(parity.is_ok()) << spec << " n=" << n;
      if (!mirror.is_ok() || !parity.is_ok()) continue;
      archs.push_back(std::move(mirror).take());
      archs.push_back(std::move(parity).take());
    }
    archs.push_back(layout::Architecture::raid5(n));
    archs.push_back(layout::Architecture::raid6(n));
  }
  return archs;
}

// All single and double failures of `arch`, tolerated or not.
std::vector<std::vector<int>> planner_failure_sets(
    const layout::Architecture& arch) {
  auto sets = enumerate_single_failures(arch);
  for (auto& pair : enumerate_double_failures(arch)) sets.push_back(pair);
  return sets;
}

TEST(ReadSet, DuplicateInsertReturnsFalse) {
  ReadSet reads(3, 70);
  EXPECT_TRUE(reads.insert(2, 65));
  EXPECT_FALSE(reads.insert(2, 65));
  EXPECT_TRUE(reads.contains(2, 65));
  EXPECT_FALSE(reads.contains(2, 1));  // same bit, the disk's first word
  EXPECT_FALSE(reads.contains(1, 65));
  EXPECT_EQ(reads.size(), 1u);
  EXPECT_EQ(reads.count(2), 1);
  EXPECT_EQ(reads.max_per_disk(), 1);
}

TEST(ReadSet, InsertAllRowsSetsExactlyTheRows) {
  // One short of, exactly at, and past a word boundary, and a full
  // first word followed by a partial second one. Disk 0 keeps one read
  // that the fill of disk 1 must not touch; disk 2 stays empty.
  for (const int rows : {1, 63, 64, 65, 130}) {
    ReadSet reads(3, rows);
    reads.insert(0, rows - 1);
    reads.insert(1, rows / 2);  // the fill must count it once
    reads.insert_all_rows(1);
    EXPECT_EQ(reads.size(), static_cast<std::size_t>(rows) + 1) << rows;
    EXPECT_EQ(reads.count(0), 1) << rows;
    EXPECT_EQ(reads.count(1), rows) << rows;
    EXPECT_EQ(reads.count(2), 0) << rows;
    EXPECT_EQ(reads.max_per_disk(), rows) << rows;
    std::vector<ElementRead> want{{0, rows - 1}};
    for (int j = 0; j < rows; ++j) want.push_back({1, j});
    const std::vector<ElementRead> got(reads.begin(), reads.end());
    EXPECT_EQ(got, want) << rows;
    EXPECT_EQ(std::distance(reads.begin(), reads.end()), rows + 1) << rows;
    reads.insert_all_rows(1);  // idempotent
    EXPECT_EQ(reads.size(), static_cast<std::size_t>(rows) + 1) << rows;
  }
}

TEST(ReadSet, IteratesInAscendingDiskThenRowOrder) {
  // Cells inserted out of order, over three words per disk.
  std::vector<ElementRead> cells;
  for (const int disk : {3, 0, 1})
    for (const int row : {129, 0, 64, 63, 128}) cells.push_back({disk, row});
  ReadSet reads(4, 130);
  for (const auto& c : cells) EXPECT_TRUE(reads.insert(c.logical_disk, c.row));
  std::vector<ElementRead> want = cells;
  std::sort(want.begin(), want.end());
  const std::vector<ElementRead> got(reads.begin(), reads.end());
  EXPECT_EQ(got, want);
  EXPECT_EQ(reads.count(2), 0);
  EXPECT_EQ(reads.count(3), 5);
  EXPECT_EQ(reads.max_per_disk(), 5);
  auto it = reads.begin();
  EXPECT_EQ(*it++, (ElementRead{0, 0}));
  EXPECT_EQ(*it, (ElementRead{0, 63}));
}

TEST(ReadSet, EmptySetHasBeginEqualToEnd) {
  const ReadSet none;
  EXPECT_TRUE(none.begin() == none.end());
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.max_per_disk(), 0);
  const ReadSet sized(5, 64);
  EXPECT_TRUE(sized.begin() == sized.end());
  EXPECT_EQ(sized.size(), 0u);
  EXPECT_EQ(sized.max_per_disk(), 0);
}

class PlanN : public ::testing::TestWithParam<int> {};

TEST_P(PlanN, ShiftedMirrorSingleFailureIsOneReadAccess) {
  // Paper Section IV-B: replicas of any single disk spread across all
  // disks of the other array -> one parallel read access.
  const int n = GetParam();
  const auto arch = layout::Architecture::mirror(n, true);
  for (const auto& failed : enumerate_single_failures(arch)) {
    auto plan = plan_reconstruction(arch, failed);
    ASSERT_TRUE(plan.is_ok());
    EXPECT_EQ(plan.value().read_accesses(arch), 1) << "disk " << failed[0];
    EXPECT_EQ(plan.value().availability_reads.size(),
              static_cast<std::size_t>(n));
  }
}

TEST_P(PlanN, TraditionalMirrorSingleFailureIsNReadAccesses) {
  const int n = GetParam();
  const auto arch = layout::Architecture::mirror(n, false);
  for (const auto& failed : enumerate_single_failures(arch)) {
    auto plan = plan_reconstruction(arch, failed);
    ASSERT_TRUE(plan.is_ok());
    EXPECT_EQ(plan.value().read_accesses(arch), n);
  }
}

TEST_P(PlanN, ShiftedMirrorParityMatchesTable1PerClass) {
  // Table I: F1 -> 1, F2 -> 2, F3 -> 2 read accesses.
  const int n = GetParam();
  const auto arch = layout::Architecture::mirror_with_parity(n, true);
  for (const auto& failed : enumerate_double_failures(arch)) {
    auto plan = plan_reconstruction(arch, failed);
    ASSERT_TRUE(plan.is_ok());
    const int accesses = plan.value().read_accesses(arch);
    switch (classify(arch, failed)) {
      case FailureClass::kF1:
        EXPECT_EQ(accesses, 1) << failed[0] << "," << failed[1];
        break;
      case FailureClass::kF2:
      case FailureClass::kF3:
        EXPECT_EQ(accesses, 2) << failed[0] << "," << failed[1];
        break;
      default:
        FAIL();
    }
  }
}

TEST_P(PlanN, TraditionalMirrorParityAlwaysNReadAccesses) {
  const int n = GetParam();
  const auto arch = layout::Architecture::mirror_with_parity(n, false);
  for (const auto& failed : enumerate_double_failures(arch)) {
    auto plan = plan_reconstruction(arch, failed);
    ASSERT_TRUE(plan.is_ok());
    EXPECT_EQ(plan.value().read_accesses(arch), n)
        << failed[0] << "," << failed[1];
  }
}

INSTANTIATE_TEST_SUITE_P(N, PlanN, ::testing::Values(2, 3, 4, 5, 6, 7));

TEST(Plan, ParityOnlyFailureNeedsNoAvailabilityReads) {
  const auto arch = layout::Architecture::mirror_with_parity(4, true);
  auto plan = plan_reconstruction(arch, {arch.parity_disk()});
  ASSERT_TRUE(plan.is_ok());
  EXPECT_TRUE(plan.value().availability_reads.empty());
  // Rebuilding the parity itself reads the full data array: the two
  // disjoint sets together put 4 reads on each data disk and none on
  // any other.
  EXPECT_EQ(plan.value().parity_rebuild_reads.size(),
            static_cast<std::size_t>(4 * 4));
  int busiest = 0;
  for (int d = 0; d < arch.total_disks(); ++d) {
    const int total = plan.value().availability_reads.count(d) +
                      plan.value().parity_rebuild_reads.count(d);
    EXPECT_EQ(total, d < 4 ? 4 : 0) << "disk " << d;
    busiest = std::max(busiest, total);
  }
  EXPECT_EQ(busiest, 4);
}

TEST(Plan, F1ParityRebuildReadsExcludeAvailabilityReads) {
  // Shifted, failed = {data 0, parity}: availability reads the n
  // replicas; parity rebuild reads everything else of the data array.
  const int n = 4;
  const auto arch = layout::Architecture::mirror_with_parity(n, true);
  auto plan = plan_reconstruction(arch, {0, arch.parity_disk()});
  ASSERT_TRUE(plan.is_ok());
  EXPECT_EQ(plan.value().read_accesses(arch), 1);
  // Intact data disks: (n-1) columns x n rows, none overlapping the
  // mirror-side availability reads.
  EXPECT_EQ(plan.value().parity_rebuild_reads.size(),
            static_cast<std::size_t>((n - 1) * n));
  for (const auto& read : plan.value().parity_rebuild_reads)
    EXPECT_EQ(arch.role_of(read.logical_disk), layout::DiskRole::kData);
}

TEST(Plan, F3ReadsExactlyThePaperSets) {
  // n=3 shifted with parity, failed = {data x=0, mirror y=1 (global 4)}.
  // Overlap element is a(0, <y-x>=1) = b(1, 0). Expect:
  //  - replicas of data 0's other elements from mirror disks != 1
  //  - sources of mirror 1's other elements from data disks != 0
  //  - row 1 of the data array (disks 1,2) plus parity element 1.
  const auto arch = layout::Architecture::mirror_with_parity(3, true);
  auto plan = plan_reconstruction(arch, {0, 4});
  ASSERT_TRUE(plan.is_ok());
  const auto& reads = plan.value().availability_reads;
  auto has = [&](int disk, int row) {
    return std::find(reads.begin(), reads.end(), ElementRead{disk, row}) !=
           reads.end();
  };
  // Replicas of a(0,0) at b(0,0) and a(0,2) at b(2,0): mirror globals 3, 5.
  EXPECT_TRUE(has(3, 0));
  EXPECT_TRUE(has(5, 0));
  // Sources of mirror 1: b(1,j) = a(j, <1-j>): j=1 -> a(1,0); j=2 -> a(2,2).
  EXPECT_TRUE(has(1, 0));
  EXPECT_TRUE(has(2, 2));
  // Parity path for a(0,1): a(1,1), a(2,1), c_1.
  EXPECT_TRUE(has(1, 1));
  EXPECT_TRUE(has(2, 1));
  EXPECT_TRUE(has(arch.parity_disk(), 1));
  EXPECT_EQ(reads.size(), 7u);
  EXPECT_EQ(plan.value().read_accesses(arch), 2);
}

TEST(Plan, MirrorPairLossWithoutParityIsUnrecoverable) {
  // Mirror (no parity): losing a disk and (in the traditional layout)
  // its exact partner exceeds tolerance 1 -> planner refuses by size.
  const auto arch = layout::Architecture::mirror(3, false);
  auto plan = plan_reconstruction(arch, {0, 3});
  EXPECT_FALSE(plan.is_ok());
  EXPECT_EQ(plan.status().code(), ErrorCode::kUnrecoverable);
}

TEST(Plan, RejectsMalformedInput) {
  const auto arch = layout::Architecture::mirror(3, true);
  EXPECT_EQ(plan_reconstruction(arch, {-1}).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(plan_reconstruction(arch, {9}).status().code(),
            ErrorCode::kInvalidArgument);
  const auto archp = layout::Architecture::mirror_with_parity(3, true);
  EXPECT_EQ(plan_reconstruction(archp, {2, 2}).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST(Plan, EmptyFailureSetYieldsEmptyPlan) {
  const auto arch = layout::Architecture::mirror(3, true);
  auto plan = plan_reconstruction(arch, {});
  ASSERT_TRUE(plan.is_ok());
  EXPECT_TRUE(plan.value().availability_reads.empty());
  EXPECT_EQ(plan.value().read_accesses(arch), 0);
}

TEST(Plan, Raid5SingleFailureReadsAllIntactColumns) {
  const auto arch = layout::Architecture::raid5(4);
  auto plan = plan_reconstruction(arch, {2});
  ASSERT_TRUE(plan.is_ok());
  EXPECT_EQ(plan.value().availability_reads.size(),
            static_cast<std::size_t>(4 * 4));  // 4 intact cols x 4 rows
  EXPECT_EQ(plan.value().read_accesses(arch), 4);
}

TEST(Plan, Raid6DoubleFailureReadsAllIntactColumns) {
  const auto arch = layout::Architecture::raid6(5);  // rows = 6
  auto plan = plan_reconstruction(arch, {0, 3});
  ASSERT_TRUE(plan.is_ok());
  EXPECT_EQ(plan.value().read_accesses(arch), 6);
}

TEST(Plan, Raid6ParityOnlyLossNeedsNoAvailabilityReads) {
  const auto arch = layout::Architecture::raid6(5);
  auto plan = plan_reconstruction(arch, {5, 6});
  ASSERT_TRUE(plan.is_ok());
  EXPECT_TRUE(plan.value().availability_reads.empty());
  EXPECT_GT(plan.value().parity_rebuild_reads.size(), 0u);
}

TEST(Plan, ReadsNeverTargetFailedDisks) {
  // Safety invariant across every architecture and tolerated failure:
  // no read (availability or parity rebuild) addresses a failed disk.
  const layout::Architecture archs[] = {
      layout::Architecture::mirror(4, false),
      layout::Architecture::mirror(4, true),
      layout::Architecture::mirror_with_parity(4, false),
      layout::Architecture::mirror_with_parity(4, true),
      layout::Architecture::raid5(4),
      layout::Architecture::raid6(4),
  };
  for (const auto& arch : archs) {
    std::vector<std::vector<int>> scenarios =
        enumerate_single_failures(arch);
    if (arch.fault_tolerance() >= 2)
      for (auto& d : enumerate_double_failures(arch))
        scenarios.push_back(d);
    for (const auto& failed : scenarios) {
      auto plan = plan_reconstruction(arch, failed);
      ASSERT_TRUE(plan.is_ok()) << arch.name();
      auto check = [&](const ReadSet& reads) {
        for (const auto& read : reads) {
          EXPECT_EQ(std::count(failed.begin(), failed.end(),
                               read.logical_disk),
                    0)
              << arch.name() << " reads failed disk " << read.logical_disk;
          EXPECT_GE(read.row, 0);
          EXPECT_LT(read.row, arch.rows());
        }
      };
      check(plan.value().availability_reads);
      check(plan.value().parity_rebuild_reads);
    }
  }
}

TEST(Plan, ReadsAreDeduplicated) {
  // Output-order contract: each read list is strictly ascending in
  // (logical_disk, row), so no read repeats, and the parity-rebuild
  // reads never repeat an availability read. The online engine stamps
  // reads into its per-disk rebuild queues in this order.
  for (const auto& arch : planner_grid()) {
    for (const auto& failed : planner_failure_sets(arch)) {
      auto plan = plan_reconstruction(arch, failed);
      std::string where = arch.name();
      where += " n=";
      where += std::to_string(arch.n());
      where += " failed ";
      where += std::to_string(failed[0]);
      if (failed.size() > 1) {
        where += ',';
        where += std::to_string(failed[1]);
      }
      const bool tolerated =
          static_cast<int>(failed.size()) <= arch.fault_tolerance();
      ASSERT_EQ(plan.is_ok(), tolerated) << where;
      if (!tolerated) continue;
      const auto& avail = plan.value().availability_reads;
      const auto& parity = plan.value().parity_rebuild_reads;
      EXPECT_TRUE(std::adjacent_find(avail.begin(), avail.end(),
                                     std::greater_equal<>()) == avail.end())
          << "availability reads not strictly ascending: " << where;
      EXPECT_TRUE(std::adjacent_find(parity.begin(), parity.end(),
                                     std::greater_equal<>()) == parity.end())
          << "parity-rebuild reads not strictly ascending: " << where;
      std::vector<ElementRead> both;
      std::set_intersection(avail.begin(), avail.end(), parity.begin(),
                            parity.end(), std::back_inserter(both));
      EXPECT_TRUE(both.empty()) << "read lists overlap: " << where;
    }
  }
}

TEST(Plan, GoldenDigestOverLayoutGrid) {
  // Every plan over planner_grid(), read for read and in order, folded
  // into one value. Recorded from the earlier std::set-based planner, so
  // it pins the bitset planner to it plan for plan; any change to a
  // single read, its order, or a plan's status moves it.
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto fold = [&h](std::uint64_t v) { h = (h ^ v) * 0x100000001b3ull; };
  std::size_t plans = 0;
  for (const auto& arch : planner_grid()) {
    for (const auto& failed : planner_failure_sets(arch)) {
      auto plan = plan_reconstruction(arch, failed);
      ++plans;
      fold(failed.size());
      for (const int d : failed) fold(static_cast<std::uint64_t>(d));
      fold(static_cast<std::uint64_t>(plan.status().code()));
      if (!plan.is_ok()) continue;
      for (const auto* reads : {&plan.value().availability_reads,
                                &plan.value().parity_rebuild_reads}) {
        fold(reads->size());
        for (const auto& read : *reads) {
          fold(static_cast<std::uint64_t>(read.logical_disk));
          fold(static_cast<std::uint64_t>(read.row));
        }
      }
    }
  }
  EXPECT_EQ(plans, 9732u);
  EXPECT_EQ(h, 0xb4a71523e178ac91ull) << std::hex << h;
}

// The shapes the differential test adds to planner_grid(): R = 2 and 3
// replica arrays at n = 2..9 where they build, and the plain and parity
// mirrors whose rows end one short of, exactly at, and one past a 64-bit
// word (n = 63, 64, 65), a shifted R = 2 array at n = 65 and a RAID-6
// with 66 rows. No table, CSV or workload plans rows >= 64.
std::vector<layout::Architecture> differential_plan_grid() {
  std::vector<layout::Architecture> archs = planner_grid();
  for (int n = 2; n <= 9; ++n)
    for (const char* spec : {"traditional", "shifted"})
      for (int replicas = 2; replicas <= 3; ++replicas) {
        auto multi = layout::Architecture::mirror_named(n, spec, replicas);
        if (multi.is_ok()) archs.push_back(std::move(multi).take());
      }
  for (int n = 63; n <= 65; ++n)
    for (const bool shifted : {false, true}) {
      archs.push_back(layout::Architecture::mirror(n, shifted));
      archs.push_back(layout::Architecture::mirror_with_parity(n, shifted));
    }
  archs.push_back(layout::Architecture::mirror_named(65, "shifted", 2).take());
  archs.push_back(layout::Architecture::raid6(63));
  return archs;
}

TEST(Plan, MatchesReferenceVectorPlanner) {
  // plan_reconstruction against a verbatim copy of the planner that
  // built read lists: same status, the same reads in the same order,
  // the same chosen copies and the same access count, for every single
  // and double failure of differential_plan_grid().
  auto reads_of = [](const auto& reads) {
    return std::vector<ElementRead>(reads.begin(), reads.end());
  };
  std::size_t plans = 0;
  std::size_t wide_plans = 0;
  for (const auto& arch : differential_plan_grid()) {
    for (const auto& failed : planner_failure_sets(arch)) {
      const auto got = plan_reconstruction(arch, failed);
      const auto want = testref::reference_vector_plan(arch, failed);
      std::string where = arch.name();
      where += " n=";
      where += std::to_string(arch.n());
      where += " R=";
      where += std::to_string(arch.replicas());
      where += " failed";
      for (const int d : failed) {
        where += ' ';
        where += std::to_string(d);
      }
      ++plans;
      ASSERT_EQ(got.status().code(), want.status().code()) << where;
      if (!got.is_ok()) continue;
      if (arch.rows() >= 63) ++wide_plans;
      const auto& g = got.value();
      const auto& w = want.value();
      EXPECT_TRUE(reads_of(g.availability_reads) == w.availability_reads)
          << "availability reads differ: " << where;
      EXPECT_TRUE(reads_of(g.parity_rebuild_reads) == w.parity_rebuild_reads)
          << "parity-rebuild reads differ: " << where;
      EXPECT_EQ(g.read_accesses(arch), w.read_accesses(arch)) << where;
      ASSERT_EQ(g.sources.size(), w.sources.size()) << where;
      for (std::size_t k = 0; k < w.sources.size(); ++k) {
        EXPECT_EQ(g.sources[k].lost_disk, w.sources[k].lost_disk) << where;
        EXPECT_EQ(g.sources[k].lost_row, w.sources[k].lost_row) << where;
        EXPECT_EQ(g.sources[k].from, w.sources[k].from) << where;
      }
    }
  }
  EXPECT_GT(plans, 60000u);
  EXPECT_GT(wide_plans, 30000u);
}

TEST(Plan, ShiftedLoadIsBalanced) {
  // The defining claim: under the shifted arrangement no disk serves
  // more than 2 reads for any tolerated failure (1 without parity).
  for (int n : {3, 5, 7}) {
    const auto arch = layout::Architecture::mirror_with_parity(n, true);
    for (const auto& failed : enumerate_double_failures(arch)) {
      auto plan = plan_reconstruction(arch, failed);
      ASSERT_TRUE(plan.is_ok());
      EXPECT_LE(plan.value().read_accesses(arch), 2);
    }
  }
}

}  // namespace
}  // namespace sma::recon
