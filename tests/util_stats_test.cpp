#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "util/rng.hpp"

namespace sma {
namespace {

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStat, SingleValue) {
  RunningStat s;
  s.add(4.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.5);
  EXPECT_DOUBLE_EQ(s.min(), 4.5);
  EXPECT_DOUBLE_EQ(s.max(), 4.5);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStat, KnownMoments) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of this classic dataset is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, MergeMatchesSequential) {
  RunningStat all;
  RunningStat a;
  RunningStat b;
  for (int i = 0; i < 100; ++i) {
    const double x = i * 0.37 - 5;
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStat, MergeWithEmptyIsNoOp) {
  RunningStat a;
  a.add(1);
  a.add(3);
  RunningStat empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(SampleSet, PercentilesOnKnownData) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.percentile(0), 1.0, 1e-12);
  EXPECT_NEAR(s.percentile(100), 100.0, 1e-12);
  EXPECT_NEAR(s.median(), 50.5, 1e-12);
  EXPECT_NEAR(s.mean(), 50.5, 1e-12);
}

TEST(SampleSet, SingleSample) {
  SampleSet s;
  s.add(3.14);
  EXPECT_DOUBLE_EQ(s.percentile(0), 3.14);
  EXPECT_DOUBLE_EQ(s.percentile(50), 3.14);
  EXPECT_DOUBLE_EQ(s.percentile(100), 3.14);
}

TEST(SampleSet, AddAfterQueryStillSorts) {
  SampleSet s;
  s.add(5);
  s.add(1);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  s.add(0.5);
  EXPECT_DOUBLE_EQ(s.min(), 0.5);  // re-sorts after mutation
}

TEST(SampleSet, SamplesAreAscendingRegardlessOfInsertionOrder) {
  SampleSet s;
  for (const double x : {3.0, 1.0, 2.0, 2.0, 0.5}) s.add(x);
  const auto& v = s.samples();
  ASSERT_EQ(v.size(), 5u);
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
  EXPECT_DOUBLE_EQ(v.front(), 0.5);
  EXPECT_DOUBLE_EQ(v.back(), 3.0);
}

// The vector constructor sorts once; it must agree bit for bit with a
// set grown one add() at a time from the same values, whatever order
// they arrive in.
std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_bitwise_equal(const SampleSet& a, const SampleSet& b) {
  ASSERT_EQ(a.count(), b.count());
  for (std::size_t i = 0; i < a.count(); ++i)
    ASSERT_EQ(bits(a.samples()[i]), bits(b.samples()[i])) << "index " << i;
  EXPECT_EQ(bits(a.mean()), bits(b.mean()));
  EXPECT_EQ(bits(a.min()), bits(b.min()));
  EXPECT_EQ(bits(a.max()), bits(b.max()));
  for (const double p : {0.0, 50.0, 99.0, 99.9, 100.0})
    EXPECT_EQ(bits(a.percentile(p)), bits(b.percentile(p))) << "p" << p;
}

TEST(SampleSet, VectorConstructorMatchesAddInAnyOrder) {
  Rng rng(2012);
  for (const std::size_t n : {1u, 2u, 3u, 17u, 100u, 1000u, 4096u}) {
    // Latency-like values with many duplicates (a five-value grid) and
    // exact zeros (a request served at its arrival time).
    std::vector<double> values;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t pick = rng.next_below(8);
      if (pick == 0)
        values.push_back(0.0);
      else if (pick < 4)
        values.push_back(static_cast<double>(rng.next_below(5)) * 0.0125);
      else
        values.push_back(rng.next_exponential(0.08));
    }
    for (int order = 0; order < 3; ++order) {
      SampleSet by_add;
      for (const double x : values) by_add.add(x);
      const SampleSet by_vector(values);
      expect_bitwise_equal(by_add, by_vector);
      EXPECT_TRUE(std::is_sorted(by_vector.samples().begin(),
                                 by_vector.samples().end()));
      rng.shuffle(values);
    }
  }
}

TEST(SampleSet, VectorConstructorSingleSample) {
  for (const double x : {0.0, 3.14, 1e-300}) {
    SampleSet by_add;
    by_add.add(x);
    const SampleSet by_vector(std::vector<double>{x});
    expect_bitwise_equal(by_add, by_vector);
    EXPECT_EQ(by_vector.percentile(99.9), x);
  }
}

TEST(SampleSet, VectorConstructorFromEmptyIsEmpty) {
  const SampleSet s(std::vector<double>{});
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
}

// Regression: percentile()/min()/max() used to sort lazily under a
// `mutable` member, so two threads reading a shared (no longer
// mutated) set raced on the hidden sort. Accessors are now genuinely
// const; this test documents the contract and trips TSan if the
// mutation ever comes back.
TEST(SampleSet, ConcurrentConstReadsAreSafe) {
  SampleSet s;
  Rng rng(17);
  for (int i = 0; i < 1000; ++i)
    s.add(rng.next_double());

  const auto& shared = s;
  std::vector<std::thread> readers;
  std::vector<double> results(4, 0.0);
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&shared, &results, t] {
      double acc = 0.0;
      for (int i = 0; i < 100; ++i) {
        acc += shared.percentile(25.0 + t);
        acc += shared.min() + shared.max() + shared.median();
      }
      results[static_cast<std::size_t>(t)] = acc;
    });
  }
  for (auto& th : readers) th.join();
  // Same inputs, deterministic outputs: readers at the same percentile
  // would agree; here just require everything finished sane.
  for (const double r : results) EXPECT_GT(r, 0.0);
}

}  // namespace
}  // namespace sma
