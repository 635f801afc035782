#include "core/volume.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace sma::core {
namespace {

VolumeConfig small(int n, bool parity, bool shifted) {
  VolumeConfig cfg;
  cfg.n = n;
  cfg.with_parity = parity;
  cfg.arrangement = shifted ? "shifted" : "traditional";
  cfg.content_bytes = 64;
  cfg.seed = 9;
  return cfg;
}

TEST(Volume, CreateValidatesConfig) {
  EXPECT_FALSE(MirroredVolume::create(small(0, false, true)).is_ok());
  VolumeConfig bad = small(3, false, true);
  bad.stacks = 0;
  EXPECT_FALSE(MirroredVolume::create(bad).is_ok());
  bad = small(3, false, true);
  bad.content_bytes = 0;
  EXPECT_FALSE(MirroredVolume::create(bad).is_ok());
}

TEST(Volume, CreateInitializesConsistentArray) {
  auto vol = MirroredVolume::create(small(4, true, true));
  ASSERT_TRUE(vol.is_ok());
  EXPECT_TRUE(vol.value().verify().is_ok());
  EXPECT_EQ(vol.value().arch().n(), 4);
  EXPECT_EQ(vol.value().stripes(), 9);  // one stack of 2n+1 disks
}

TEST(Volume, ReadElementReturnsWrittenData) {
  auto volr = MirroredVolume::create(small(3, true, true));
  ASSERT_TRUE(volr.is_ok());
  auto& vol = volr.value();
  std::vector<std::uint8_t> payload(64, 0x5C);
  ASSERT_TRUE(vol.write_element(1, 2, 0, payload).is_ok());
  std::vector<std::uint8_t> got(64);
  ASSERT_TRUE(vol.read_element(1, 2, 0, got).is_ok());
  EXPECT_EQ(got, payload);
  EXPECT_TRUE(vol.verify().is_ok());  // mirror + parity updated
}

TEST(Volume, ReadRejectsBadCoordinatesAndSizes) {
  auto volr = MirroredVolume::create(small(3, false, true));
  ASSERT_TRUE(volr.is_ok());
  auto& vol = volr.value();
  std::vector<std::uint8_t> buf(64);
  EXPECT_EQ(vol.read_element(-1, 0, 0, buf).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(vol.read_element(0, 99, 0, buf).code(), ErrorCode::kOutOfRange);
  std::vector<std::uint8_t> wrong(63);
  EXPECT_EQ(vol.read_element(0, 0, 0, wrong).code(),
            ErrorCode::kInvalidArgument);
}

TEST(Volume, DegradedReadFromReplica) {
  auto volr = MirroredVolume::create(small(3, false, true));
  ASSERT_TRUE(volr.is_ok());
  auto& vol = volr.value();
  std::vector<std::uint8_t> before(64);
  ASSERT_TRUE(vol.read_element(0, 0, 1, before).is_ok());
  // Fail the physical disk hosting data disk 0 in stripe 0.
  vol.fail_disk(0);
  std::vector<std::uint8_t> after(64);
  ASSERT_TRUE(vol.read_element(0, 0, 1, after).is_ok());
  EXPECT_EQ(after, before);
}

TEST(Volume, DegradedReadViaParityPath) {
  // Fail both copies of an element (possible only with parity): data
  // disk and the specific mirror disk holding its replica.
  auto volr = MirroredVolume::create(small(3, true, true));
  ASSERT_TRUE(volr.is_ok());
  auto& vol = volr.value();
  std::vector<std::uint8_t> before(64);
  ASSERT_TRUE(vol.read_element(0, 0, 1, before).is_ok());
  const layout::Pos replica = vol.arch().replica_of(1, 0, 1);
  // Stripe 0 is unrotated: logical == physical.
  vol.fail_disk(0);
  vol.fail_disk(replica.disk);
  std::vector<std::uint8_t> after(64);
  ASSERT_TRUE(vol.read_element(0, 0, 1, after).is_ok());
  EXPECT_EQ(after, before);
}

TEST(Volume, ReadFailsWhenNoPathSurvives) {
  auto volr = MirroredVolume::create(small(3, false, true));  // no parity
  ASSERT_TRUE(volr.is_ok());
  auto& vol = volr.value();
  const layout::Pos replica = vol.arch().replica_of(1, 0, 1);
  vol.fail_disk(0);
  vol.fail_disk(replica.disk);
  std::vector<std::uint8_t> buf(64);
  EXPECT_EQ(vol.read_element(0, 0, 1, buf).code(), ErrorCode::kUnrecoverable);
}

TEST(Volume, WriteKeepsParityConsistentViaDelta) {
  auto volr = MirroredVolume::create(small(4, true, false));
  ASSERT_TRUE(volr.is_ok());
  auto& vol = volr.value();
  std::vector<std::uint8_t> payload(64);
  for (int i = 0; i < 64; ++i) payload[static_cast<std::size_t>(i)] =
      static_cast<std::uint8_t>(i * 3);
  for (int d = 0; d < 4; ++d)
    ASSERT_TRUE(vol.write_element(d, 1, 2, payload).is_ok());
  EXPECT_TRUE(vol.verify().is_ok());
}

TEST(Volume, DegradedWriteUpdatesSurvivingCopy) {
  auto volr = MirroredVolume::create(small(3, true, true));
  ASSERT_TRUE(volr.is_ok());
  auto& vol = volr.value();
  vol.fail_disk(1);  // stripe 0: data disk 1 down
  std::vector<std::uint8_t> payload(64, 0x77);
  ASSERT_TRUE(vol.write_element(1, 0, 0, payload).is_ok());
  std::vector<std::uint8_t> got(64);
  ASSERT_TRUE(vol.read_element(1, 0, 0, got).is_ok());  // replica serves it
  EXPECT_EQ(got, payload);
}

TEST(Volume, RebuildAfterFailureRestoresEverything) {
  auto volr = MirroredVolume::create(small(4, true, true));
  ASSERT_TRUE(volr.is_ok());
  auto& vol = volr.value();
  vol.fail_disk(3);
  vol.fail_disk(7);
  ASSERT_EQ(vol.failed_disks().size(), 2u);
  auto report = vol.rebuild();
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_TRUE(vol.failed_disks().empty());
  EXPECT_TRUE(vol.array().verify_all().is_ok());
  EXPECT_GT(report.value().read_throughput_mbps(), 0.0);
}

TEST(Volume, ShiftedRebuildFasterThanTraditional) {
  double mbps[2];
  for (const bool shifted : {false, true}) {
    auto volr = MirroredVolume::create(small(5, false, shifted));
    ASSERT_TRUE(volr.is_ok());
    auto& vol = volr.value();
    vol.fail_disk(2);
    auto report = vol.rebuild();
    ASSERT_TRUE(report.is_ok());
    mbps[shifted ? 1 : 0] = report.value().read_throughput_mbps();
  }
  EXPECT_GT(mbps[1], mbps[0]);
}

}  // namespace
}  // namespace sma::core
