#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

namespace sma {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  const std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  parallel_for(kCount, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, ZeroCountIsNoOp) {
  bool called = false;
  parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SerialFallbackForTinyRanges) {
  std::vector<int> hits(2, 0);
  parallel_for(2, [&](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(hits[0], 1);
  EXPECT_EQ(hits[1], 1);
}

TEST(ParallelFor, ExplicitThreadCount) {
  std::atomic<std::size_t> sum{0};
  parallel_for(100, [&](std::size_t i) { sum += i; }, 3);
  EXPECT_EQ(sum.load(), 4950u);
}

}  // namespace
}  // namespace sma
