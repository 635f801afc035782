#include "ec/xor_code.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ec/evenodd.hpp"
#include "ec/raid5.hpp"
#include "ec/rdp.hpp"
#include "ec/xcode.hpp"

namespace sma::ec {
namespace {

// Two data columns and two parity columns that both hold the row XOR:
// the table claims tolerance 2, but losing both data columns leaves
// each equation with two unknown cells, so the peel cannot start.
class TwinParity final : public XorCode {
 public:
  TwinParity() : XorCode({2, 2, 1, 0, 2}) {
    add_equation({{0, 0}, {1, 0}, {2, 0}});
    add_equation({{0, 0}, {1, 0}, {3, 0}});
  }
  std::string name() const override { return "twin-parity"; }
};

// RAID-5 over three data columns with every row equation listed twice.
class RepeatedRaid5 final : public XorCode {
 public:
  RepeatedRaid5() : XorCode({3, 1, 4, 0, 1}) {
    for (int copy = 0; copy < 2; ++copy)
      for (int i = 0; i < 4; ++i)
        add_equation({{0, i}, {1, i}, {2, i}, {3, i}});
  }
  std::string name() const override { return "repeated-raid5"; }
};

// RAID-5 over two data columns whose table opens and closes with an
// equation that names no cell.
class EmptyEquationRaid5 final : public XorCode {
 public:
  EmptyEquationRaid5() : XorCode({2, 1, 3, 0, 1}) {
    add_equation({});
    add_row_parity();
    add_equation({});
  }
  std::string name() const override { return "empty-equation-raid5"; }
};

// A two-row mirror: every equation names one cell of each column, so
// each unknown cell is solved directly from its survivor.
class Mirror final : public XorCode {
 public:
  Mirror() : XorCode({1, 1, 2, 0, 1}) {
    for (int i = 0; i < 2; ++i) add_equation({{0, i}, {1, i}});
  }
  std::string name() const override { return "mirror"; }
};

// Data cell i is the XOR of parity cells 0..i, listed from the last row
// up: solving the parity column is a chain of kRows substitutions, each
// found against the table's order.
class Triangular final : public XorCode {
 public:
  static constexpr int kRows = 50;
  Triangular() : XorCode({1, 1, kRows, 0, 1}) {
    for (int i = kRows - 1; i >= 0; --i) {
      std::vector<Cell> cells{{0, i}};
      for (int j = 0; j <= i; ++j) cells.push_back({1, j});
      add_equation(std::move(cells));
    }
  }
  std::string name() const override { return "triangular"; }
};

void fill_column(ColumnSet& cs, int col, std::uint8_t byte) {
  for (auto& b : cs.column(col)) b = byte;
}

TEST(XorCode, SingleUnknownIsSolvedDirectly) {
  const Mirror code;
  ColumnSet reference = code.make_stripe(2);
  reference.fill_pattern(11);
  fill_column(reference, 1, 0xEE);
  ASSERT_TRUE(code.encode(reference).is_ok());
  EXPECT_TRUE(reference.column_equals(1, reference, 0));
  for (int lost = 0; lost < code.total_columns(); ++lost) {
    ColumnSet damaged = reference;
    fill_column(damaged, lost, 0xEE);
    ASSERT_TRUE(code.decode(damaged, {lost}).is_ok()) << lost;
    for (int c = 0; c < code.total_columns(); ++c)
      EXPECT_TRUE(damaged.column_equals(c, reference, c)) << lost << "," << c;
  }
}

TEST(XorCode, TableThatCannotPeelIsUnrecoverable) {
  const TwinParity code;
  ColumnSet reference = code.make_stripe(16);
  reference.fill_pattern(3);
  ASSERT_TRUE(code.encode(reference).is_ok());

  ColumnSet damaged = reference;
  fill_column(damaged, 0, 0xEE);
  fill_column(damaged, 1, 0xEE);
  const Status st = code.decode(damaged, {0, 1});
  EXPECT_EQ(st.code(), ErrorCode::kUnrecoverable) << st.to_string();

  // One data column and one parity column do peel: the surviving
  // parity names the lost data cell alone.
  const std::vector<std::vector<int>> peelable = {
      {0, 2}, {1, 3}, {2, 3}, {0}, {3}};
  for (const std::vector<int>& erased : peelable) {
    ColumnSet fixable = reference;
    for (const int c : erased) fill_column(fixable, c, 0xEE);
    ASSERT_TRUE(code.decode(fixable, erased).is_ok());
    for (int c = 0; c < code.total_columns(); ++c)
      EXPECT_TRUE(fixable.column_equals(c, reference, c)) << c;
  }
}

TEST(XorCode, RedundantConsistentEquationIsHarmless) {
  const RepeatedRaid5 code;
  EXPECT_TRUE(code.self_test(41).is_ok());
  ColumnSet reference = code.make_stripe(32);
  reference.fill_pattern(5);
  ASSERT_TRUE(code.encode(reference).is_ok());
  const Raid5Codec raid5(3, 4);
  ColumnSet plain = raid5.make_stripe(32);
  plain.fill_pattern(5);
  ASSERT_TRUE(raid5.encode(plain).is_ok());
  EXPECT_TRUE(reference.column_equals(3, plain, 3));

  // EVENODD's identity S = XOR(P) ^ XOR(Q) is redundant, and it is the
  // only equation that starts the peel when two data columns are lost
  // and both parity columns survive.
  EXPECT_TRUE(EvenOddCodec(5).self_test(17).is_ok());
}

TEST(XorCode, EmptyEquationIsIgnored) {
  const EmptyEquationRaid5 code;
  EXPECT_TRUE(code.self_test(43).is_ok());
  ColumnSet reference = code.make_stripe(16);
  reference.fill_pattern(7);
  fill_column(reference, 2, 0xEE);
  ASSERT_TRUE(code.encode(reference).is_ok());
  const Raid5Codec raid5(2, 3);
  ColumnSet plain = raid5.make_stripe(16);
  plain.fill_pattern(7);
  ASSERT_TRUE(raid5.encode(plain).is_ok());
  EXPECT_TRUE(reference.column_equals(2, plain, 2));
  for (int lost = 0; lost < code.total_columns(); ++lost) {
    ColumnSet damaged = reference;
    fill_column(damaged, lost, 0x5A);
    ASSERT_TRUE(code.decode(damaged, {lost}).is_ok()) << lost;
    EXPECT_TRUE(damaged.column_equals(lost, reference, lost)) << lost;
  }
}

TEST(XorCode, DecodeWithNoErasuresIsNoOp) {
  std::vector<CodecPtr> codes;
  codes.push_back(std::make_unique<Raid5Codec>(4, 4));
  codes.push_back(std::make_unique<EvenOddCodec>(5));
  codes.push_back(std::make_unique<RdpCodec>(5));
  codes.push_back(std::make_unique<XCodec>(7));
  codes.push_back(std::make_unique<TwinParity>());
  for (const CodecPtr& code : codes) {
    // Not a codeword: a decode that recomputed anything would show.
    ColumnSet stripe = code->make_stripe(24);
    stripe.fill_pattern(99);
    const ColumnSet before = stripe;
    ASSERT_TRUE(code->decode(stripe, {}).is_ok()) << code->name();
    for (int c = 0; c < code->total_columns(); ++c)
      EXPECT_TRUE(stripe.column_equals(c, before, c)) << code->name() << c;
  }
}

TEST(XorCode, LongSubstitutionChainResolves) {
  // X-code at p = 13: a double erasure peels along zigzag chains, each
  // solved cell leaving the next equation with one unknown; all 78
  // pairs must resolve.
  const XCodec code(13);
  ColumnSet reference = code.make_stripe(40);
  reference.fill_pattern(2026);
  ASSERT_TRUE(code.encode(reference).is_ok());
  for (int a = 0; a < code.total_columns(); ++a)
    for (int b = a + 1; b < code.total_columns(); ++b) {
      ColumnSet damaged = reference;
      fill_column(damaged, a, 0x5A);
      fill_column(damaged, b, 0xA5);
      ASSERT_TRUE(code.decode(damaged, {b, a}).is_ok()) << a << "," << b;
      EXPECT_TRUE(damaged.column_equals(a, reference, a)) << a << "," << b;
      EXPECT_TRUE(damaged.column_equals(b, reference, b)) << a << "," << b;
    }
}

TEST(XorCode, LargeTriangularTableResolves) {
  const Triangular code;
  const std::size_t eb = 16;
  ColumnSet reference = code.make_stripe(eb);
  reference.fill_pattern(77);
  fill_column(reference, 1, 0xEE);
  ASSERT_TRUE(code.encode(reference).is_ok());
  // Parity cell i is data cell i ^ data cell i - 1 (data cell 0 for i = 0).
  for (int i = 0; i < Triangular::kRows; ++i) {
    std::vector<std::uint8_t> expect(reference.element(0, i).begin(),
                                     reference.element(0, i).end());
    if (i > 0)
      for (std::size_t b = 0; b < eb; ++b)
        expect[b] ^= reference.element(0, i - 1)[b];
    const auto got = reference.element(1, i);
    EXPECT_EQ(std::vector<std::uint8_t>(got.begin(), got.end()), expect) << i;
  }
  for (int lost = 0; lost < code.total_columns(); ++lost) {
    ColumnSet damaged = reference;
    fill_column(damaged, lost, 0xA5);
    ASSERT_TRUE(code.decode(damaged, {lost}).is_ok()) << lost;
    EXPECT_TRUE(damaged.column_equals(lost, reference, lost)) << lost;
  }
}

}  // namespace
}  // namespace sma::ec
