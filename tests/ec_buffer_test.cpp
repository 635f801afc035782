#include "ec/buffer.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace sma::ec {
namespace {

TEST(ColumnSet, ShapeAccessors) {
  ColumnSet cs(4, 3, 64);
  EXPECT_EQ(cs.columns(), 4);
  EXPECT_EQ(cs.rows(), 3);
  EXPECT_EQ(cs.element_bytes(), 64u);
  EXPECT_EQ(cs.column_bytes(), 192u);
}

TEST(ColumnSet, ElementsAreDisjoint) {
  ColumnSet cs(3, 3, 16);
  cs.zero_all();
  auto e = cs.element(1, 2);
  std::fill(e.begin(), e.end(), 0xAB);
  for (int c = 0; c < 3; ++c) {
    for (int r = 0; r < 3; ++r) {
      auto other = cs.element(c, r);
      const bool expected_set = (c == 1 && r == 2);
      EXPECT_EQ(other[0] == 0xAB, expected_set) << c << "," << r;
    }
  }
}

TEST(ColumnSet, ColumnSpansRowsContiguously) {
  ColumnSet cs(2, 4, 8);
  cs.zero_all();
  for (int r = 0; r < 4; ++r) {
    auto e = cs.element(1, r);
    std::fill(e.begin(), e.end(), static_cast<std::uint8_t>(r + 1));
  }
  auto col = cs.column(1);
  ASSERT_EQ(col.size(), 32u);
  for (int r = 0; r < 4; ++r)
    EXPECT_EQ(col[static_cast<std::size_t>(r) * 8], r + 1);
}

TEST(ColumnSet, FillPatternDeterministicPerElement) {
  ColumnSet a(3, 3, 32);
  ColumnSet b(3, 3, 32);
  a.fill_pattern(99);
  b.fill_pattern(99);
  for (int c = 0; c < 3; ++c)
    EXPECT_TRUE(a.column_equals(c, b, c));
  b.fill_pattern(100);
  bool any_diff = false;
  for (int c = 0; c < 3; ++c)
    if (!a.column_equals(c, b, c)) any_diff = true;
  EXPECT_TRUE(any_diff);
}

TEST(ColumnSet, FillPatternElementsDiffer) {
  ColumnSet cs(2, 2, 64);
  cs.fill_pattern(7);
  // No two elements should be byte-identical.
  auto same = [&](int c1, int r1, int c2, int r2) {
    auto a = cs.element(c1, r1);
    auto b = cs.element(c2, r2);
    return std::equal(a.begin(), a.end(), b.begin());
  };
  EXPECT_FALSE(same(0, 0, 0, 1));
  EXPECT_FALSE(same(0, 0, 1, 0));
  EXPECT_FALSE(same(1, 0, 1, 1));
}

TEST(ColumnSet, ZeroColumnOnlyTouchesThatColumn) {
  ColumnSet cs(3, 2, 16);
  cs.fill_pattern(1);
  ColumnSet ref = cs;
  cs.zero_column(1);
  EXPECT_TRUE(cs.column_equals(0, ref, 0));
  EXPECT_FALSE(cs.column_equals(1, ref, 1));
  EXPECT_TRUE(cs.column_equals(2, ref, 2));
  auto col = cs.column(1);
  EXPECT_TRUE(std::all_of(col.begin(), col.end(),
                          [](std::uint8_t b) { return b == 0; }));
}

TEST(ColumnSet, SameShape) {
  ColumnSet a(2, 3, 8);
  ColumnSet b(2, 3, 8);
  ColumnSet c(3, 3, 8);
  ColumnSet d(2, 3, 16);
  EXPECT_TRUE(a.same_shape(b));
  EXPECT_FALSE(a.same_shape(c));
  EXPECT_FALSE(a.same_shape(d));
}

TEST(ColumnSet, CopySemantics) {
  ColumnSet a(2, 2, 8);
  a.fill_pattern(5);
  ColumnSet b = a;  // deep copy
  b.zero_column(0);
  EXPECT_FALSE(a.column_equals(0, b, 0));
  EXPECT_TRUE(a.column_equals(1, b, 1));
}

}  // namespace
}  // namespace sma::ec
