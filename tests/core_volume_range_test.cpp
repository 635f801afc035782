#include "core/volume.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace sma::core {
namespace {

MirroredVolume make_volume(int n, bool parity) {
  VolumeConfig cfg;
  cfg.n = n;
  cfg.with_parity = parity;
  cfg.arrangement = "shifted";
  cfg.content_bytes = 64;
  cfg.seed = 21;
  auto vol = MirroredVolume::create(cfg);
  EXPECT_TRUE(vol.is_ok());
  return std::move(vol).take();
}

TEST(VolumeRange, CapacityMatchesGeometry) {
  auto vol = make_volume(3, false);
  // stripes = 6 (one stack of 2n disks), rows = 3, n = 3, 64 B each.
  EXPECT_EQ(vol.capacity_bytes(), 6u * 3 * 3 * 64);
}

TEST(VolumeRange, RoundTripAlignedElement) {
  auto vol = make_volume(3, true);
  std::vector<std::uint8_t> payload(64);
  std::iota(payload.begin(), payload.end(), 0);
  ASSERT_TRUE(vol.write_range(64 * 5, payload).is_ok());
  std::vector<std::uint8_t> got(64);
  ASSERT_TRUE(vol.read_range(64 * 5, got).is_ok());
  EXPECT_EQ(got, payload);
  EXPECT_TRUE(vol.verify().is_ok());
}

TEST(VolumeRange, UnalignedSpanningWrite) {
  auto vol = make_volume(3, true);
  // 200 bytes starting mid-element: touches 4 elements partially/fully.
  std::vector<std::uint8_t> payload(200);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i * 7);
  const std::uint64_t offset = 64 * 2 + 17;
  ASSERT_TRUE(vol.write_range(offset, payload).is_ok());
  std::vector<std::uint8_t> got(200);
  ASSERT_TRUE(vol.read_range(offset, got).is_ok());
  EXPECT_EQ(got, payload);
  // Partial-element RMW must not disturb neighbours.
  std::vector<std::uint8_t> before(17);
  ASSERT_TRUE(vol.read_range(64 * 2, before).is_ok());
  std::vector<std::uint8_t> expect(17);
  // Bytes before the write keep the initial pattern; verify simply by
  // internal consistency (parity still valid).
  EXPECT_TRUE(vol.verify().is_ok());
}

TEST(VolumeRange, ZeroLengthIsNoOp) {
  auto vol = make_volume(3, false);
  std::vector<std::uint8_t> nothing;
  EXPECT_TRUE(vol.read_range(0, nothing).is_ok());
  EXPECT_TRUE(vol.write_range(vol.capacity_bytes(), nothing).is_ok());
}

TEST(VolumeRange, OutOfRangeRejected) {
  auto vol = make_volume(3, false);
  std::vector<std::uint8_t> buf(64);
  EXPECT_EQ(vol.read_range(vol.capacity_bytes() - 10, buf).code(),
            ErrorCode::kOutOfRange);
  EXPECT_EQ(vol.write_range(vol.capacity_bytes(), buf).code(),
            ErrorCode::kOutOfRange);
}

TEST(VolumeRange, WholeVolumeRoundTrip) {
  auto vol = make_volume(2, true);
  const std::uint64_t cap = vol.capacity_bytes();
  std::vector<std::uint8_t> payload(cap);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i ^ (i >> 8));
  ASSERT_TRUE(vol.write_range(0, payload).is_ok());
  std::vector<std::uint8_t> got(cap);
  ASSERT_TRUE(vol.read_range(0, got).is_ok());
  EXPECT_EQ(got, payload);
  EXPECT_TRUE(vol.verify().is_ok());
}

TEST(VolumeRange, DegradedRangeReadAfterDiskFailure) {
  auto vol = make_volume(4, false);
  std::vector<std::uint8_t> payload(300, 0xC3);
  ASSERT_TRUE(vol.write_range(100, payload).is_ok());
  vol.fail_disk(1);
  std::vector<std::uint8_t> got(300);
  ASSERT_TRUE(vol.read_range(100, got).is_ok());
  EXPECT_EQ(got, payload);
}

TEST(VolumeRange, RangeAddressingIsRowMajorAcrossDisks) {
  // offset 0..eb-1 -> element (disk 0, stripe 0, row 0); the next
  // element along the linear space is disk 1 of the same row.
  auto vol = make_volume(3, false);
  std::vector<std::uint8_t> payload(64, 0xEE);
  ASSERT_TRUE(vol.write_range(64, payload).is_ok());  // second element
  std::vector<std::uint8_t> got(64);
  ASSERT_TRUE(vol.read_element(1, 0, 0, got).is_ok());
  EXPECT_EQ(got, payload);
}

}  // namespace
}  // namespace sma::core
