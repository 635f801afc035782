// Serial-vs-parallel determinism of the experiment sweeps.
//
// The benches promise their CSVs are bit-identical whatever the thread
// count (ISSUE: parallel sweeps must not perturb published numbers).
// Each sweep here runs once with threads=1 (the serial reference) and
// once with threads=4, at a reduced element size so the whole file
// stays inside a unit-test budget, and the rendered tables — the exact
// bytes bench::emit writes — are compared as strings.
#include "recon/sweeps.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

namespace sma::recon {
namespace {

SweepOptions small(std::size_t threads) {
  SweepOptions opt;
  opt.threads = threads;
  opt.element_bytes = 40'000;  // 100x smaller than the bench default
  opt.content_bytes = 64;
  return opt;
}

TEST(SweepDeterminism, ReliabilityParallelMatchesSerial) {
  auto serial = reliability_sweep({3, 5}, 17.0, small(1));
  auto parallel = reliability_sweep({3, 5}, 17.0, small(4));
  ASSERT_TRUE(serial.is_ok()) << serial.status().to_string();
  ASSERT_TRUE(parallel.is_ok()) << parallel.status().to_string();
  EXPECT_EQ(serial.value().render(), parallel.value().render());
  EXPECT_EQ(serial.value().row_count(), 8u);  // 4 architectures x 2 sizes
}

TEST(SweepDeterminism, Table1ParallelMatchesSerial) {
  auto serial = table1_sweep(3, 6, small(1));
  auto parallel = table1_sweep(3, 6, small(4));
  ASSERT_TRUE(serial.is_ok()) << serial.status().to_string();
  ASSERT_TRUE(parallel.is_ok()) << parallel.status().to_string();
  EXPECT_EQ(serial.value().table.render(), parallel.value().table.render());
  EXPECT_EQ(serial.value().avg.render(), parallel.value().avg.render());
}

TEST(SweepDeterminism, RebuildFaultsParallelMatchesSerial) {
  auto serial = rebuild_faults_sweep({0.0, 0.01}, 5, 1, small(1));
  auto parallel = rebuild_faults_sweep({0.0, 0.01}, 5, 1, small(4));
  ASSERT_TRUE(serial.is_ok()) << serial.status().to_string();
  ASSERT_TRUE(parallel.is_ok()) << parallel.status().to_string();
  EXPECT_EQ(serial.value().render(), parallel.value().render());
  EXPECT_EQ(serial.value().row_count(), 4u);  // 2 rates x 2 arrangements
}

TEST(SweepDeterminism, ScrubParallelMatchesSerial) {
  auto serial = scrub_sweep(5, {0, 5}, small(1));
  auto parallel = scrub_sweep(5, {0, 5}, small(4));
  ASSERT_TRUE(serial.is_ok()) << serial.status().to_string();
  ASSERT_TRUE(parallel.is_ok()) << parallel.status().to_string();
  EXPECT_EQ(serial.value().render(), parallel.value().render());
}

// A bad range must come back as a Status before any n < 1 reaches
// Architecture::mirror_with_parity, which asserts on it.
TEST(Table1Sweep, RejectsNonPositiveOrEmptyRange) {
  for (const auto& [lo, hi] : {std::pair{0, 3}, std::pair{-2, 2},
                               std::pair{5, 4}}) {
    auto result = table1_sweep(lo, hi, small(1));
    ASSERT_FALSE(result.is_ok()) << lo << ".." << hi;
    EXPECT_EQ(result.status().code(), ErrorCode::kInvalidArgument)
        << lo << ".." << hi;
  }
}

// Running the same sweep twice at the same thread count must also be
// stable — per-case seeding may not leak any cross-run state.
TEST(SweepDeterminism, RepeatedParallelRunsAreStable) {
  auto first = scrub_sweep(5, {0, 5}, small(4));
  auto second = scrub_sweep(5, {0, 5}, small(4));
  ASSERT_TRUE(first.is_ok());
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(first.value().render(), second.value().render());
}

}  // namespace
}  // namespace sma::recon
