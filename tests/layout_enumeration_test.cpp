#include "layout/enumeration.hpp"

#include <gtest/gtest.h>

#include "layout/properties.hpp"

namespace sma::layout {
namespace {

TEST(LatinCount, KnownValues) {
  EXPECT_EQ(count_latin_squares(1), 1u);
  EXPECT_EQ(count_latin_squares(2), 2u);
  EXPECT_EQ(count_latin_squares(3), 12u);
  EXPECT_EQ(count_latin_squares(4), 576u);
  EXPECT_EQ(count_latin_squares(5), 161280u);
}

TEST(LatinEnumeration, VisitsEverySquareOnce) {
  std::set<std::vector<int>> seen;
  for_each_latin_square(3, [&](const std::vector<int>& sq) {
    EXPECT_TRUE(seen.insert(sq).second);
    return true;
  });
  EXPECT_EQ(seen.size(), 12u);
}

TEST(LatinEnumeration, EarlyStopHonored) {
  int visits = 0;
  for_each_latin_square(4, [&](const std::vector<int>&) {
    return ++visits < 5;
  });
  EXPECT_EQ(visits, 5);
}

TEST(LatinEnumeration, EverySquareIsActuallyLatin) {
  for_each_latin_square(4, [&](const std::vector<int>& sq) {
    for (int r = 0; r < 4; ++r) {
      std::set<int> row;
      std::set<int> col;
      for (int c = 0; c < 4; ++c) {
        row.insert(sq[static_cast<std::size_t>(r) * 4 + c]);
        col.insert(sq[static_cast<std::size_t>(c) * 4 + r]);
      }
      EXPECT_EQ(row.size(), 4u);
      EXPECT_EQ(col.size(), 4u);
    }
    return true;
  });
}

TEST(ValidArrangementCount, ClosedForm) {
  // L(n) * (n!)^n
  EXPECT_EQ(count_valid_arrangements(1), 1u);
  EXPECT_EQ(count_valid_arrangements(2), 2u * 2 * 2);          // 2 * (2!)^2
  EXPECT_EQ(count_valid_arrangements(3), 12u * 6 * 6 * 6);     // 12 * (3!)^3
  EXPECT_EQ(count_valid_arrangements(4), 576u * 24 * 24 * 24 * 24);
}

TEST(Census, StructureTheoremExhaustiveN2) {
  const auto census = census_all_arrangements(2);
  EXPECT_EQ(census.total, 24u);  // 4!
  // P1 implies P2 — no counterexample may exist.
  EXPECT_EQ(census.p1_and_not_p2, 0u);
  // All-three count equals the closed form L(2)*(2!)^2 = 8.
  EXPECT_EQ(census.p1_p3, count_valid_arrangements(2));
}

TEST(Census, StructureTheoremExhaustiveN3) {
  // 9! = 362880 bijections — exhaustive check of the Section VI-E
  // structure: P1 => P2, and |P1 ∧ P3| = L(3) * (3!)^3 = 2592.
  const auto census = census_all_arrangements(3);
  EXPECT_EQ(census.total, 362880u);
  EXPECT_EQ(census.p1_and_not_p2, 0u);
  EXPECT_EQ(census.p1_p3, count_valid_arrangements(3));
  // P1 alone: disk assignment with bijective rows (n x n "row-Latin"
  // rectangles: (n!)^n ... times row placements (n!)^n / — verified
  // against the census rather than asserted in closed form here.
  EXPECT_GT(census.p1, census.p1_p3);
}

TEST(LatinDerived, ProducesAllThreeProperties) {
  for_each_latin_square(4, [&](const std::vector<int>& sq) {
    static int budget = 40;  // spot-check a prefix of the enumeration
    auto arr = arrangement_from_latin_square(sq, 4);
    EXPECT_TRUE(evaluate_properties(arr).all());
    return --budget > 0;
  });
}

TEST(LatinDerived, ShiftedArrangementIsLatinDerived) {
  // The paper's arrangement corresponds to the cyclic Latin square
  // d(i, j) = (i + j) mod n.
  const int n = 5;
  std::vector<int> square(static_cast<std::size_t>(n) * n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      square[static_cast<std::size_t>(i) * n + j] = (i + j) % n;
  auto arr = arrangement_from_latin_square(square, n);
  EXPECT_TRUE(evaluate_properties(arr).all());
  // Same disk assignment as the shifted arrangement (rows may differ —
  // the canonical representative assigns rows in scan order).
  const auto shifted = make_arrangement("shifted", n).take();
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      EXPECT_EQ(arr.mirror_of(i, j).disk, shifted.mirror_of(i, j).disk);
}

}  // namespace
}  // namespace sma::layout
