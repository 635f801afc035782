#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <set>
#include <vector>

namespace sma {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowOneIsAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextIntCoversInclusiveRange) {
  Rng rng(99);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all 5 values hit in 2000 draws
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ExponentialMeanRoughlyCorrect) {
  Rng rng(17);
  double sum = 0;
  const int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) sum += rng.next_exponential(2.5);
  const double mean = sum / kDraws;
  EXPECT_NEAR(mean, 2.5, 0.1);
}

TEST(Rng, BoolRespectsProbability) {
  Rng rng(21);
  int trues = 0;
  const int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i)
    if (rng.next_bool(0.25)) ++trues;
  EXPECT_NEAR(static_cast<double>(trues) / kDraws, 0.25, 0.02);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(3);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto original = v;
  rng.shuffle(v);
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, original);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(55);
  Rng child = a.fork();
  // Child stream should not replay the parent stream.
  Rng b(55);
  b.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (child.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 64);  // not in lockstep with the parent continuation
}

TEST(FillPattern, DeterministicAndSeedSensitive) {
  unsigned char a[37];
  unsigned char b[37];
  fill_pattern(42, a, sizeof(a));
  fill_pattern(42, b, sizeof(b));
  EXPECT_EQ(0, memcmp(a, b, sizeof(a)));
  fill_pattern(43, b, sizeof(b));
  EXPECT_NE(0, memcmp(a, b, sizeof(a)));
}

TEST(FillPattern, HandlesNonMultipleOfEightLengths) {
  for (std::size_t len : {0u, 1u, 7u, 8u, 9u, 15u, 16u, 17u}) {
    std::vector<unsigned char> buf(len + 2, 0xAA);
    fill_pattern(9, buf.data(), len);
    // Guard bytes untouched.
    EXPECT_EQ(buf[len], 0xAA);
    EXPECT_EQ(buf[len + 1], 0xAA);
  }
}

TEST(FillPattern, GoldenBytes) {
  // Each 8-byte group is one splitmix64 output, low byte first, on any
  // host and whatever store width the compiler picks.
  constexpr std::array<unsigned char, 37> kGolden = {
      0x95, 0x6e, 0xeb, 0x2f, 0x26, 0x32, 0xd7, 0xbd, 0x03, 0xf1,
      0x66, 0xb2, 0x33, 0xe3, 0xef, 0x28, 0x52, 0x9f, 0x0f, 0x13,
      0x57, 0x67, 0x52, 0x47, 0x94, 0xe3, 0x4a, 0x0e, 0xff, 0xe1,
      0x1c, 0x58, 0xf2, 0x23, 0x48, 0x24, 0x5a};
  std::array<unsigned char, 37> got{};
  fill_pattern(42, got.data(), got.size());
  EXPECT_EQ(got, kGolden);
}

TEST(Fingerprint, DistinguishesContent) {
  unsigned char a[16] = {0};
  unsigned char b[16] = {0};
  b[15] = 1;
  EXPECT_NE(fingerprint(a, 16), fingerprint(b, 16));
  EXPECT_EQ(fingerprint(a, 16), fingerprint(a, 16));
}

TEST(Fingerprint, EverySingleByteChangeAtEveryPositionIsDetected) {
  // A change confined to one word (here one byte) always changes the
  // value: each word step is a bijection in its word and in h.
  std::vector<unsigned char> buf(256);
  fill_pattern(7, buf.data(), buf.size());
  const std::uint64_t base = fingerprint(buf.data(), buf.size());
  int undetected = 0;
  for (std::size_t at = 0; at < buf.size(); ++at) {
    const unsigned char keep = buf[at];
    for (int delta = 1; delta < 256; ++delta) {
      buf[at] = static_cast<unsigned char>(keep ^ delta);
      if (fingerprint(buf.data(), buf.size()) == base) ++undetected;
    }
    buf[at] = keep;
  }
  EXPECT_EQ(undetected, 0);
  EXPECT_EQ(fingerprint(buf.data(), buf.size()), base);
}

TEST(Fingerprint, ShortLengthsAreDeterministicAndCountTheTail) {
  // Lengths 0..17 cover no word, one or two words, and every tail
  // length; a copy fingerprints the same, a changed byte anywhere
  // (tail bytes included) does not, and neither does a prefix.
  std::array<unsigned char, 17> src{};
  fill_pattern(11, src.data(), src.size());
  std::set<std::uint64_t> prefixes;
  for (std::size_t len = 0; len <= src.size(); ++len) {
    std::vector<unsigned char> copy(src.begin(), src.begin() + len);
    const std::uint64_t h = fingerprint(src.data(), len);
    EXPECT_EQ(fingerprint(copy.data(), len), h) << len;
    prefixes.insert(h);
    for (std::size_t at = 0; at < len; ++at) {
      copy[at] ^= 0x01;
      EXPECT_NE(fingerprint(copy.data(), len), h) << len << " @" << at;
      copy[at] ^= 0x01;
    }
  }
  EXPECT_EQ(prefixes.size(), src.size() + 1);
}

TEST(Fingerprint, GoldenValue) {
  // Words are loaded in host byte order, so the value is pinned for
  // little-endian hosts; edits to the function must update it on
  // purpose.
  if constexpr (std::endian::native != std::endian::little)
    GTEST_SKIP() << "golden value recorded on a little-endian host";
  std::array<unsigned char, 37> buf{};
  fill_pattern(42, buf.data(), buf.size());
  EXPECT_EQ(fingerprint(buf.data(), buf.size()), 0x620fae883d682f86ULL);
}

}  // namespace
}  // namespace sma
