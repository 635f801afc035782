#include "ec/update_penalty.hpp"

#include <gtest/gtest.h>

#include "ec/evenodd.hpp"
#include "ec/raid5.hpp"
#include "ec/rdp.hpp"
#include "ec/rs.hpp"

namespace sma::ec {
namespace {

TEST(UpdatePenalty, Raid5IsOptimal) {
  // RAID-5: exactly one parity element changes for any data change —
  // the theoretical optimum for single-fault tolerance.
  Raid5Codec codec(5, 4);
  auto penalty = measure_update_penalty(codec);
  ASSERT_TRUE(penalty.is_ok());
  EXPECT_EQ(penalty.value().min, 1);
  EXPECT_EQ(penalty.value().max, 1);
  EXPECT_DOUBLE_EQ(penalty.value().average, 1.0);
  EXPECT_EQ(optimal_parity_updates(codec.fault_tolerance()), 1);
}

TEST(UpdatePenalty, CauchyRsRowCodesAreOptimal) {
  // Each row is encoded independently: m parity elements change.
  CauchyRsCodec codec(4, 2, 3);
  auto penalty = measure_update_penalty(codec);
  ASSERT_TRUE(penalty.is_ok());
  EXPECT_EQ(penalty.value().min, 2);
  EXPECT_EQ(penalty.value().max, 2);
}

TEST(UpdatePenalty, EvenOddExceedsOptimal) {
  // The paper's Section II claim: EVENODD's second parity is not
  // update-optimal. Elements on the S diagonal perturb S and therefore
  // EVERY Q element: max = 1 (P) + (p-1) (all of Q).
  EvenOddCodec codec(5);  // p = 5
  auto penalty = measure_update_penalty(codec);
  ASSERT_TRUE(penalty.is_ok());
  EXPECT_EQ(penalty.value().max, 1 + (5 - 1));
  // Off-diagonal elements are optimal (P row + one Q diagonal).
  EXPECT_EQ(penalty.value().min, 2);
  EXPECT_GT(penalty.value().average,
            optimal_parity_updates(codec.fault_tolerance()));
}

TEST(UpdatePenalty, EvenOddDiagonalElementsAreExactlyTheSDiagonal) {
  // The penalized elements must be exactly those with i + j == p - 1
  // (the diagonal defining S), j being the row, i the column.
  const int p = 5;
  EvenOddCodec codec(p);
  auto penalty = measure_update_penalty(codec);
  ASSERT_TRUE(penalty.is_ok());
  for (int i = 0; i < p; ++i) {
    for (int j = 0; j < p - 1; ++j) {
      const std::size_t changed =
          penalty.value()
              .cells[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]
              .size();
      if ((i + j) % p == p - 1)
        EXPECT_EQ(changed, static_cast<std::size_t>(p))
            << i << "," << j;  // P + all Q
      else
        EXPECT_EQ(changed, 2u) << i << "," << j;  // P + one Q
    }
  }
}

TEST(UpdatePenalty, RdpIsBetterThanEvenOddButNotOptimal) {
  // RDP's diagonals include P, so changing a data element changes P,
  // which sits on another diagonal: typically 3 updates (P, own Q
  // diagonal, P's Q diagonal); elements whose diagonals hit the
  // missing diagonal save one.
  RdpCodec codec(4);  // p = 5
  auto penalty = measure_update_penalty(codec);
  ASSERT_TRUE(penalty.is_ok());
  EXPECT_GE(penalty.value().min, 2);
  EXPECT_LE(penalty.value().max, 3);
  EXPECT_GT(penalty.value().average, 2.0);
  // RDP's worst case (3) is strictly better than EVENODD's (1 + p-1):
  // no S constant means no element can touch every Q cell.
  EvenOddCodec evenodd(4);
  auto eo = measure_update_penalty(evenodd);
  ASSERT_TRUE(eo.is_ok());
  EXPECT_LT(penalty.value().max, eo.value().max);
}

TEST(UpdatePenalty, DeterministicAcrossSeeds) {
  // The penalty is structural: the seed (content) must not matter.
  RdpCodec codec(5);
  auto a = measure_update_penalty(codec, 16, 1);
  auto b = measure_update_penalty(codec, 16, 999);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(a.value().cells, b.value().cells);
}

// --- The update map: which parity cells a data element's update changes.
// The RAID-5/6 write path (workload::run_write_workload) reads and
// writes exactly these cells.

const std::vector<Cell>& cells_of(const UpdatePenalty& penalty, int i,
                                  int j) {
  return penalty
      .cells[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
}

TEST(RaidUpdateMap, Raid5EveryElementTouchesOneParityCell) {
  Raid5Codec codec(4, 4);
  auto penalty = measure_update_penalty(codec);
  ASSERT_TRUE(penalty.is_ok());
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j) {
      const auto& cells = cells_of(penalty.value(), i, j);
      ASSERT_EQ(cells.size(), 1u) << i << "," << j;
      EXPECT_EQ(cells[0], (Cell{4, j}));  // parity of the same row
    }
}

TEST(RaidUpdateMap, RdpElementsTouchTwoOrThreeCells) {
  RdpCodec codec(4);  // p = 5
  auto penalty = measure_update_penalty(codec);
  ASSERT_TRUE(penalty.is_ok());
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < codec.rows(); ++j) {
      const auto& cells = cells_of(penalty.value(), i, j);
      EXPECT_GE(cells.size(), 2u);
      EXPECT_LE(cells.size(), 3u);
      for (const Cell& c : cells) EXPECT_GE(c.col, codec.data_columns());
    }
}

TEST(RaidUpdateMap, EvenOddSDiagonalTouchesEveryQCell) {
  const int p = 5;
  EvenOddCodec codec(p);
  auto penalty = measure_update_penalty(codec);
  ASSERT_TRUE(penalty.is_ok());
  // Element (i, j) with (i + j) % p == p-1 changes S, hence all Q.
  const auto& cells = cells_of(penalty.value(), 1, p - 2);  // 1 + 3 = 4
  EXPECT_EQ(cells.size(), static_cast<std::size_t>(1 + (p - 1)));
}

}  // namespace
}  // namespace sma::ec
