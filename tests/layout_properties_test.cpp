#include "layout/properties.hpp"

#include <gtest/gtest.h>

namespace sma::layout {
namespace {

/// The registry's arrangement for `spec` at order n.
Arrangement layout_of(const std::string& spec, int n) {
  return make_arrangement(spec, n).take();
}

class ShiftedProps : public ::testing::TestWithParam<int> {};

TEST_P(ShiftedProps, ShiftedSatisfiesAllThreeProperties) {
  const int n = GetParam();
  const auto arr = layout_of("shifted", n);
  EXPECT_TRUE(check_property1(arr).is_ok()) << "n=" << n;
  EXPECT_TRUE(check_property2(arr).is_ok()) << "n=" << n;
  EXPECT_TRUE(check_property3(arr).is_ok()) << "n=" << n;
  EXPECT_TRUE(evaluate_properties(arr).all());
}

INSTANTIATE_TEST_SUITE_P(N, ShiftedProps,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 10, 16));

TEST(Traditional, ViolatesP1P2ButSatisfiesP3) {
  // The identity arrangement keeps a data disk's replicas on one mirror
  // disk (breaking P1/P2 for n > 1) but each row is spread (P3 holds).
  const auto arr = layout_of("traditional", 4);
  EXPECT_FALSE(check_property1(arr).is_ok());
  EXPECT_FALSE(check_property2(arr).is_ok());
  EXPECT_TRUE(check_property3(arr).is_ok());
  const auto report = evaluate_properties(arr);
  EXPECT_FALSE(report.p1);
  EXPECT_FALSE(report.p2);
  EXPECT_TRUE(report.p3);
  EXPECT_FALSE(report.all());
}

TEST(Traditional, TrivialForNEqualsOne) {
  EXPECT_TRUE(evaluate_properties(layout_of("traditional", 1)).all());
}

TEST(PropertyViolation, MessagesNameTheDisk) {
  const auto arr = layout_of("traditional", 3);
  const Status p1 = check_property1(arr);
  ASSERT_FALSE(p1.is_ok());
  EXPECT_NE(p1.message().find("P1 violated"), std::string::npos);
  const Status p2 = check_property2(arr);
  ASSERT_FALSE(p2.is_ok());
  EXPECT_NE(p2.message().find("P2 violated"), std::string::npos);
}

TEST(PropertyReport, ToStringReflectsFlags) {
  EXPECT_EQ(evaluate_properties(layout_of("shifted", 3)).to_string(),
            "bijective P1 P2 P3");
  EXPECT_EQ(evaluate_properties(layout_of("traditional", 3)).to_string(),
            "bijective !P1 !P2 P3");
}

TEST(IteratedFamily, P1P2FollowTheFibonacciLaw) {
  // Refinement of the paper's Section VI-E claim: the k-th iterate maps
  // a(i,j) to (F(k+1)i + F(k)j, F(k)i + F(k-1)j) mod n, so P1/P2 hold
  // iff gcd(F(k), n) == 1 — not for every odd k (k=3 has F(3)=2, which
  // breaks every even n). Cross-check the closed form against the
  // brute-force property checkers.
  for (int n = 2; n <= 8; ++n) {
    for (int k = 0; k <= 8; ++k) {
      auto arr = make_iterated(n, k);
      const bool expect = iterate_satisfies_p1p2(n, k);
      EXPECT_EQ(check_property1(arr).is_ok(), expect)
          << "n=" << n << " k=" << k;
      EXPECT_EQ(check_property2(arr).is_ok(), expect)
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(IteratedFamily, PaperClaimHoldsWhenFibCoprimeToN) {
  // For the paper's own example (n = 3) all odd iterates do satisfy
  // P1/P2, because F(1)=1, F(3)=2, F(5)=5 are all coprime to 3.
  for (int k : {1, 3, 5}) {
    auto arr = make_iterated(3, k);
    EXPECT_TRUE(check_property1(arr).is_ok()) << "k=" << k;
    EXPECT_TRUE(check_property2(arr).is_ok()) << "k=" << k;
  }
  // ...but k=3 with even n is a counterexample to the blanket claim.
  auto arr = make_iterated(4, 3);
  EXPECT_FALSE(check_property1(arr).is_ok());
}

TEST(IteratedFamily, NotAllOddIteratesSatisfyP3) {
  // Paper Fig. 8 (n = 3): the first and fifth arrangements satisfy P3
  // while the third does not.
  const int n = 3;
  EXPECT_TRUE(check_property3(make_iterated(n, 1)).is_ok());
  EXPECT_FALSE(check_property3(make_iterated(n, 3)).is_ok());
  EXPECT_TRUE(check_property3(make_iterated(n, 5)).is_ok());
}

TEST(IteratedFamily, P3FollowsTheFibonacciLaw) {
  // P3 holds iff gcd(F(k+1), n) == 1. Notably k=2 (F(2)=1) satisfies
  // P1/P2 despite being even — the loop shifts break the naive
  // columns-back-to-columns intuition.
  for (int n = 2; n <= 8; ++n) {
    for (int k = 0; k <= 8; ++k) {
      auto arr = make_iterated(n, k);
      EXPECT_EQ(check_property3(arr).is_ok(), iterate_satisfies_p3(n, k))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(CustomArrangement, RowSwapViolatesP3Detected) {
  // An arrangement that maps entire data rows onto single mirror disks:
  // b(j, i) = a(i, j) (pure transpose). P1/P2 hold (columns spread) but
  // P3 fails (a row's replicas all land on one mirror disk).
  const int n = 4;
  auto made = Arrangement::from_map("transpose", n,
                                    [](Pos p) { return Pos{p.row, p.disk}; });
  const Arrangement& arr = made.value();
  EXPECT_TRUE(check_property1(arr).is_ok());
  EXPECT_TRUE(check_property2(arr).is_ok());
  EXPECT_FALSE(check_property3(arr).is_ok());
}

}  // namespace
}  // namespace sma::layout
