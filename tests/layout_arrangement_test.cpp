#include "layout/arrangement.hpp"

#include <gtest/gtest.h>

namespace sma::layout {
namespace {

/// The registry's arrangement for `spec` at order n.
Arrangement layout_of(const std::string& spec, int n) {
  return make_arrangement(spec, n).take();
}

/// data_of inverts mirror_of on every cell.
void expect_round_trip(const Arrangement& arr) {
  for (int i = 0; i < arr.n(); ++i)
    for (int j = 0; j < arr.n(); ++j) {
      const Pos p = arr.mirror_of(i, j);
      EXPECT_EQ(arr.data_of(p.disk, p.row), (Pos{i, j}))
          << arr.name() << " i=" << i << " j=" << j;
    }
}

TEST(Traditional, IsIdentity) {
  const auto arr = layout_of("traditional", 4);
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j) {
      EXPECT_EQ(arr.mirror_of(i, j), (Pos{i, j}));
      EXPECT_EQ(arr.data_of(i, j), (Pos{i, j}));
    }
  expect_round_trip(arr);
}

TEST(Shifted, MatchesPaperFormula) {
  // a(i, j) = b(<i+j>_n, i)  (paper Section IV-A)
  for (int n : {1, 2, 3, 5, 8}) {
    const auto arr = layout_of("shifted", n);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j)
        EXPECT_EQ(arr.mirror_of(i, j), (Pos{(i + j) % n, i}))
            << "n=" << n << " i=" << i << " j=" << j;
  }
}

TEST(Shifted, InverseMatchesPaperFormula) {
  // b(i, j) = a(j, <i-j>_n)
  for (int n : {2, 3, 5, 7}) {
    const auto arr = layout_of("shifted", n);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j)
        EXPECT_EQ(arr.data_of(i, j), (Pos{j, ((i - j) % n + n) % n}));
  }
}

TEST(Shifted, MirrorAndDataAreInverse) {
  expect_round_trip(layout_of("shifted", 6));
}

TEST(Shifted, IsBijection) {
  for (int n = 1; n <= 10; ++n) expect_round_trip(layout_of("shifted", n));
}

TEST(Shifted, Figure3Example) {
  // Paper Fig. 3 with n = 3, elements labeled 1..9 row-major: data disk
  // 0 holds {1, 4, 7}. Their replicas land on mirror disks 0, 1, 2
  // respectively, all in mirror row 0.
  const auto arr = layout_of("shifted", 3);
  EXPECT_EQ(arr.mirror_of(0, 0), (Pos{0, 0}));  // element 1
  EXPECT_EQ(arr.mirror_of(0, 1), (Pos{1, 0}));  // element 4
  EXPECT_EQ(arr.mirror_of(0, 2), (Pos{2, 0}));  // element 7
  // Data disk 1 = {2, 5, 8} -> mirror disks 1, 2, 0, mirror row 1.
  EXPECT_EQ(arr.mirror_of(1, 0), (Pos{1, 1}));
  EXPECT_EQ(arr.mirror_of(1, 1), (Pos{2, 1}));
  EXPECT_EQ(arr.mirror_of(1, 2), (Pos{0, 1}));
}

TEST(Shifted, FirstRowOnMainDiagonal) {
  // Paper Fig. 5: the first element of each data disk (row 0) lands on
  // the main diagonal of the mirror array: b(i, i) = a(i, 0).
  for (int n : {3, 4, 7}) {
    const auto arr = layout_of("shifted", n);
    for (int i = 0; i < n; ++i) EXPECT_EQ(arr.mirror_of(i, 0), (Pos{i, i}));
  }
}

TEST(Arrangement, FromMapRoundTripsExplicitTable) {
  // Hand-build the shifted table for n=3 and check equivalence.
  const auto shifted = layout_of("shifted", 3);
  const std::vector<std::vector<Pos>> table = {
      {{0, 0}, {1, 0}, {2, 0}}, {{1, 1}, {2, 1}, {0, 1}},
      {{2, 2}, {0, 2}, {1, 2}}};
  auto arr = Arrangement::from_map("custom", 3, [&](Pos p) {
    return table[static_cast<std::size_t>(p.disk)]
                [static_cast<std::size_t>(p.row)];
  });
  ASSERT_TRUE(arr.is_ok()) << arr.status().to_string();
  EXPECT_EQ(arr.value().n(), 3);
  EXPECT_EQ(arr.value().name(), "custom");
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) {
      EXPECT_EQ(arr.value().mirror_of(i, j), shifted.mirror_of(i, j));
      EXPECT_EQ(arr.value().data_of(i, j), shifted.data_of(i, j));
    }
}

TEST(Arrangement, FromMapRejectsOffGridAndRepeatedCells) {
  // Every data element onto mirror cell (0, 0): the second one repeats
  // a cell.
  auto collapsed = Arrangement::from_map("collapse", 3,
                                         [](Pos) { return Pos{0, 0}; });
  ASSERT_FALSE(collapsed.is_ok());
  EXPECT_EQ(collapsed.status().code(), ErrorCode::kFailedPrecondition);
  // Row n is one past the grid.
  auto off_grid = Arrangement::from_map("off-grid", 3, [](Pos p) {
    return Pos{p.disk, p.row + 3};
  });
  ASSERT_FALSE(off_grid.is_ok());
  EXPECT_EQ(off_grid.status().code(), ErrorCode::kFailedPrecondition);
  // A negative cell is off the grid too, and n must be at least 1.
  EXPECT_EQ(Arrangement::from_map("negative", 2,
                                  [](Pos p) { return Pos{p.disk - 1, p.row}; })
                .status()
                .code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(Arrangement::from_map("empty", 0, [](Pos p) { return p; })
                .status()
                .code(),
            ErrorCode::kInvalidArgument);
}

TEST(ShiftTransform, OnceFromIdentityGivesShifted) {
  for (int n : {2, 3, 5}) {
    const auto once = apply_shift_transform(make_iterated(n, 0));
    const auto shifted = layout_of("shifted", n);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j)
        EXPECT_EQ(once.mirror_of(i, j), shifted.mirror_of(i, j))
            << "n=" << n;
  }
}

TEST(Iterated, ZeroIterationsIsIdentity) {
  auto arr = make_iterated(4, 0);
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j) EXPECT_EQ(arr.mirror_of(i, j), (Pos{i, j}));
}

TEST(Iterated, AlwaysBijective) {
  for (int n : {2, 3, 4, 5})
    for (int k = 0; k <= 6; ++k) expect_round_trip(make_iterated(n, k));
}

TEST(Iterated, TransformEventuallyCycles) {
  // The transform is a permutation of a finite set of arrangements, so
  // iterating must return to a previously seen arrangement; for small n
  // the cycle is short. Verify a cycle exists within 64 steps for n=3.
  const int n = 3;
  auto key = [&](const Arrangement& a) {
    std::string k;
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) {
        const Pos p = a.mirror_of(i, j);
        k += static_cast<char>('0' + p.disk);
        k += static_cast<char>('0' + p.row);
      }
    return k;
  };
  std::vector<std::string> seen;
  bool cycled = false;
  for (int k = 0; k <= 64 && !cycled; ++k) {
    const std::string sig = key(make_iterated(n, k));
    for (const auto& s : seen)
      if (s == sig) cycled = true;
    seen.push_back(sig);
  }
  EXPECT_TRUE(cycled);
}

TEST(Factory, MakesKnownKinds) {
  auto trad = make_arrangement("traditional", 4);
  ASSERT_TRUE(trad.is_ok());
  EXPECT_EQ(trad.value().name(), "traditional");
  auto shifted = make_arrangement("shifted", 4);
  ASSERT_TRUE(shifted.is_ok());
  EXPECT_EQ(shifted.value().name(), "shifted");
}

TEST(Factory, RejectsUnknownKindAndBadN) {
  EXPECT_FALSE(make_arrangement("bogus", 3).is_ok());
  EXPECT_FALSE(make_arrangement("shifted", 0).is_ok());
}

TEST(Render, ShowsBothArrays) {
  const std::string out = render_arrays(layout_of("shifted", 3));
  EXPECT_NE(out.find("data disk array"), std::string::npos);
  EXPECT_NE(out.find("mirror disk array (shifted)"), std::string::npos);
  // 3 data rows below the header.
  EXPECT_GE(std::count(out.begin(), out.end(), '\n'), 4);
}

}  // namespace
}  // namespace sma::layout
