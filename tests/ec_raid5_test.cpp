#include "ec/raid5.hpp"

#include <gtest/gtest.h>

#include "gf/region.hpp"

namespace sma::ec {
namespace {

class Raid5Param : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(Raid5Param, SelfTestAllErasurePatterns) {
  const auto [k, rows] = GetParam();
  Raid5Codec codec(k, rows);
  EXPECT_EQ(codec.data_columns(), k);
  EXPECT_EQ(codec.parity_columns(), 1);
  EXPECT_EQ(codec.rows(), rows);
  EXPECT_EQ(codec.fault_tolerance(), 1);
  EXPECT_TRUE(codec.self_test(1234).is_ok()) << codec.name();
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Raid5Param,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 7, 12),
                       ::testing::Values(1, 3, 7)));

TEST(Raid5, ParityIsRowXor) {
  Raid5Codec codec(3, 2);
  ColumnSet cs = codec.make_stripe(8);
  cs.fill_pattern(9);
  ASSERT_TRUE(codec.encode(cs).is_ok());
  for (int r = 0; r < 2; ++r) {
    std::vector<std::uint8_t> expect(8, 0);
    for (int c = 0; c < 3; ++c) gf::region_xor(cs.element(c, r), expect);
    auto p = cs.element(3, r);
    EXPECT_TRUE(std::equal(p.begin(), p.end(), expect.begin()));
  }
}

TEST(Raid5, DecodeEmptyErasureListIsNoOp) {
  Raid5Codec codec(3, 3);
  ColumnSet cs = codec.make_stripe(16);
  cs.fill_pattern(5);
  ASSERT_TRUE(codec.encode(cs).is_ok());
  ColumnSet copy = cs;
  ASSERT_TRUE(codec.decode(cs, {}).is_ok());
  for (int c = 0; c < cs.columns(); ++c)
    EXPECT_TRUE(cs.column_equals(c, copy, c));
}

TEST(Raid5, RejectsTwoErasures) {
  Raid5Codec codec(4, 2);
  ColumnSet cs = codec.make_stripe(8);
  const Status st = codec.decode(cs, {0, 1});
  EXPECT_EQ(st.code(), ErrorCode::kUnrecoverable);
}

TEST(Raid5, RejectsOutOfRangeErasure) {
  Raid5Codec codec(4, 2);
  ColumnSet cs = codec.make_stripe(8);
  EXPECT_EQ(codec.decode(cs, {5}).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(codec.decode(cs, {-1}).code(), ErrorCode::kInvalidArgument);
}

TEST(Raid5, MalformedSetPastTheToleranceIsAnInvalidArgument) {
  // A repeated or out-of-range column is malformed input whatever the
  // set's length: the tolerance check must not report it first.
  Raid5Codec codec(4, 4);
  ColumnSet cs = codec.make_stripe(8);
  EXPECT_EQ(codec.decode(cs, {1, 1}).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(codec.decode(cs, {0, 5}).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(codec.decode(cs, {-1, 2}).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(codec.decode(cs, {0, 2}).code(), ErrorCode::kUnrecoverable);
}

TEST(Raid5, RejectsWrongStripeShape) {
  Raid5Codec codec(4, 2);
  ColumnSet wrong(4, 2, 8);  // 4 columns but codec needs 5
  EXPECT_EQ(codec.encode(wrong).code(), ErrorCode::kInvalidArgument);
}

TEST(Raid5, SingleDataColumnDegenerateCase) {
  // k=1: parity equals the single data column (pure mirror).
  Raid5Codec codec(1, 4);
  ColumnSet cs = codec.make_stripe(32);
  cs.fill_pattern(3);
  ASSERT_TRUE(codec.encode(cs).is_ok());
  EXPECT_TRUE(cs.column_equals(0, cs, 1));
}

}  // namespace
}  // namespace sma::ec
