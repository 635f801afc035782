#include "recon/scrub.hpp"

#include <gtest/gtest.h>

namespace sma::recon {
namespace {

array::ArrayConfig cfg_for(layout::Architecture arch) {
  array::ArrayConfig cfg;
  cfg.arch = arch;
  cfg.stripes = arch.total_disks();
  cfg.content_bytes = 64;
  cfg.logical_element_bytes = 4'000'000;
  cfg.seed = 55;
  return cfg;
}

TEST(Scrub, CleanArrayReportsClean) {
  array::DiskArray arr(
      cfg_for(layout::Architecture::mirror_with_parity(4, true)));
  arr.initialize();
  auto report = scrub(arr);
  ASSERT_TRUE(report.is_ok());
  EXPECT_TRUE(report.value().clean());
  EXPECT_EQ(report.value().mismatches, 0u);
  EXPECT_EQ(report.value().elements_scanned,
            static_cast<std::uint64_t>(4 * 4 * arr.stripes()));
  EXPECT_GT(report.value().makespan_s, 0.0);
}

TEST(Scrub, RejectsRaidAndDegradedArrays) {
  array::DiskArray raid(cfg_for(layout::Architecture::raid5(3)));
  raid.initialize();
  EXPECT_EQ(scrub(raid).status().code(), ErrorCode::kInvalidArgument);

  array::DiskArray degraded(cfg_for(layout::Architecture::mirror(3, true)));
  degraded.initialize();
  degraded.fail_physical(0);
  EXPECT_EQ(scrub(degraded).status().code(), ErrorCode::kFailedPrecondition);
}

TEST(Scrub, RepairsCorruptDataCopyViaParity) {
  array::DiskArray arr(
      cfg_for(layout::Architecture::mirror_with_parity(4, true)));
  arr.initialize();
  arr.content(arr.arch().data_disk(1), 2, 3)[5] ^= 0xFF;
  auto report = scrub(arr);
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report.value().mismatches, 1u);
  EXPECT_EQ(report.value().repaired_data, 1u);
  EXPECT_EQ(report.value().repaired_mirror, 0u);
  EXPECT_EQ(report.value().undecidable, 0u);
  EXPECT_TRUE(arr.verify_all().is_ok());
}

TEST(Scrub, RepairsCorruptMirrorCopyViaParity) {
  array::DiskArray arr(
      cfg_for(layout::Architecture::mirror_with_parity(4, true)));
  arr.initialize();
  const layout::Pos rp = arr.arch().replica_of(1, 2, 1);
  arr.content(rp.disk, 3, rp.row)[0] ^= 0x10;
  auto report = scrub(arr);
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report.value().repaired_mirror, 1u);
  EXPECT_TRUE(arr.verify_all().is_ok());
}

TEST(Scrub, RepairsCorruptParityElement) {
  array::DiskArray arr(
      cfg_for(layout::Architecture::mirror_with_parity(3, true)));
  arr.initialize();
  arr.content(arr.arch().parity_disk(), 1, 2)[7] ^= 0x80;
  auto report = scrub(arr);
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report.value().mismatches, 0u);
  EXPECT_EQ(report.value().repaired_parity, 1u);
  EXPECT_TRUE(arr.verify_all().is_ok());
}

TEST(Scrub, MirrorWithoutParityDetectsButCannotAttribute) {
  array::DiskArray arr(cfg_for(layout::Architecture::mirror(3, true)));
  arr.initialize();
  arr.content(0, 0, 0)[0] ^= 0x01;
  auto report = scrub(arr);
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report.value().mismatches, 1u);
  EXPECT_EQ(report.value().undecidable, 1u);
  EXPECT_EQ(report.value().repaired_data, 0u);
}

TEST(Scrub, TwoCorruptionsInOneRowAreUndecidable) {
  array::DiskArray arr(
      cfg_for(layout::Architecture::mirror_with_parity(4, true)));
  arr.initialize();
  // Corrupt two *data* elements of the same row: parity arbitration of
  // either one is polluted by the other.
  arr.content(arr.arch().data_disk(0), 0, 1)[0] ^= 0x01;
  arr.content(arr.arch().data_disk(2), 0, 1)[0] ^= 0x02;
  auto report = scrub(arr);
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report.value().mismatches, 2u);
  EXPECT_EQ(report.value().undecidable, 2u);
}

class ScrubSweep : public ::testing::TestWithParam<int> {};

TEST_P(ScrubSweep, InjectedErrorsInDistinctRowsAllRepaired) {
  // Property: any number of latent errors, at most one per parity row,
  // is fully repaired and the array verifies byte-exact afterwards.
  const int errors = GetParam();
  array::DiskArray arr(
      cfg_for(layout::Architecture::mirror_with_parity(5, true)));
  arr.initialize();
  Rng rng(static_cast<std::uint64_t>(errors) * 31 + 7);

  // Inject by hand into distinct (stripe, row) combinations so no two
  // errors share an arbitration row.
  // Key the uniqueness on the *arbitration row* (stripe, data row), so
  // no two corruptions pollute the same parity equation. Half corrupt
  // the data copy, half the replica.
  std::set<std::pair<int, int>> rows_used;
  int placed = 0;
  while (placed < errors) {
    const int s = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(arr.stripes())));
    const int j = static_cast<int>(rng.next_below(5));
    if (!rows_used.insert({s, j}).second) continue;
    const int i = static_cast<int>(rng.next_below(5));
    if (rng.next_bool()) {
      const layout::Pos rp = arr.arch().replica_of(1, i, j);
      arr.content(rp.disk, s, rp.row)[0] ^= 0x5A;
    } else {
      arr.content(arr.arch().data_disk(i), s, j)[0] ^= 0x5A;
    }
    ++placed;
  }
  auto report = scrub(arr);
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report.value().undecidable, 0u);
  EXPECT_TRUE(arr.verify_all().is_ok());
}

INSTANTIATE_TEST_SUITE_P(ErrorCounts, ScrubSweep,
                         ::testing::Values(1, 3, 8, 20));

TEST(Inject, ProducesRequestedDistinctCorruptions) {
  array::DiskArray arr(
      cfg_for(layout::Architecture::mirror_with_parity(4, true)));
  arr.initialize();
  Rng rng(11);
  const auto result = inject_latent_errors(arr, rng, 12);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const auto& injected = result.value();
  EXPECT_EQ(injected.size(), 12u);
  // Every injection must actually corrupt (verify_all fails now).
  EXPECT_FALSE(arr.verify_all().is_ok());
  std::set<std::tuple<int, int, int>> distinct;
  for (const auto& e : injected)
    distinct.insert({e.logical_disk, e.stripe, e.row});
  EXPECT_EQ(distinct.size(), 12u);
}

TEST(Inject, RejectsACountOutsideTheElementRange) {
  // mirror(3): 6 disks x 6 stripes x 3 rows = 108 elements. A larger
  // count has no distinct elements left to draw; a negative one means
  // nothing. Both are refused before any byte is touched.
  array::DiskArray arr(cfg_for(layout::Architecture::mirror(3, true)));
  arr.initialize();
  Rng rng(5);
  for (const int count : {-3, 109, 200}) {
    const auto injected = inject_latent_errors(arr, rng, count);
    EXPECT_EQ(injected.status().code(), ErrorCode::kInvalidArgument)
        << "count " << count;
  }
  EXPECT_TRUE(arr.verify_all().is_ok());  // nothing was touched
  const auto every = inject_latent_errors(arr, rng, 108);
  ASSERT_TRUE(every.is_ok()) << every.status().to_string();
  EXPECT_EQ(every.value().size(), 108u);
  EXPECT_TRUE(inject_latent_errors(arr, rng, 0).value().empty());
}

TEST(Scrub, InjectThenScrubThenVerifyEndToEnd) {
  array::DiskArray arr(
      cfg_for(layout::Architecture::mirror_with_parity(5, true)));
  arr.initialize();
  Rng rng(3);
  ASSERT_TRUE(inject_latent_errors(arr, rng, 5).is_ok());
  auto report = scrub(arr);
  ASSERT_TRUE(report.is_ok());
  // Some injections may share a row (undecidable); re-scrub after a
  // second pass must at least not regress, and decidable ones are
  // repaired.
  EXPECT_GE(report.value().mismatches + report.value().repaired_parity, 1u);
  if (report.value().undecidable == 0) {
    EXPECT_TRUE(arr.verify_all().is_ok());
  }
}

}  // namespace
}  // namespace sma::recon
