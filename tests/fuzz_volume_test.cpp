// Model-based randomized testing of MirroredVolume: a long random
// sequence of range writes, range reads, element writes, disk failures
// (within tolerance), rebuilds, and scrubs is executed against the
// volume AND against a flat byte-vector shadow model. Every read must
// match the shadow; every rebuild/verify must succeed. Seeds are fixed
// so failures reproduce.
#include <gtest/gtest.h>

#include <vector>

#include "core/volume.hpp"
#include "recon/scrub.hpp"
#include "util/rng.hpp"

namespace sma::core {
namespace {

struct FuzzParams {
  int n;
  bool parity;
  bool shifted;
  std::uint64_t seed;
};

class VolumeFuzz : public ::testing::TestWithParam<FuzzParams> {};

TEST_P(VolumeFuzz, RandomOpsMatchShadowModel) {
  const FuzzParams p = GetParam();
  VolumeConfig cfg;
  cfg.n = p.n;
  cfg.with_parity = p.parity;
  cfg.arrangement = p.shifted ? "shifted" : "traditional";
  cfg.content_bytes = 32;
  cfg.seed = p.seed;
  auto volr = MirroredVolume::create(cfg);
  ASSERT_TRUE(volr.is_ok());
  auto vol = std::move(volr).take();

  // Shadow model: the linear data address space.
  const std::uint64_t cap = vol.capacity_bytes();
  std::vector<std::uint8_t> shadow(cap);
  {
    // Initial contents are the deterministic pattern; capture them via
    // a full read (exercises read_range at scale too).
    ASSERT_TRUE(vol.read_range(0, shadow).is_ok());
  }

  Rng rng(p.seed * 7919 + 17);
  const int tolerance = vol.arch().fault_tolerance();
  int failed_now = 0;

  for (int step = 0; step < 400; ++step) {
    const auto op = rng.next_below(100);
    if (op < 40) {
      // Random range write.
      const std::uint64_t len = 1 + rng.next_below(96);
      const std::uint64_t off = rng.next_below(cap - len);
      std::vector<std::uint8_t> payload(len);
      fill_pattern(rng.next_u64(), payload.data(), payload.size());
      ASSERT_TRUE(vol.write_range(off, payload).is_ok()) << "step " << step;
      std::copy(payload.begin(), payload.end(),
                shadow.begin() + static_cast<std::ptrdiff_t>(off));
    } else if (op < 80) {
      // Random range read, checked against the shadow.
      const std::uint64_t len = 1 + rng.next_below(96);
      const std::uint64_t off = rng.next_below(cap - len);
      std::vector<std::uint8_t> got(len);
      ASSERT_TRUE(vol.read_range(off, got).is_ok()) << "step " << step;
      ASSERT_TRUE(std::equal(got.begin(), got.end(),
                             shadow.begin() + static_cast<std::ptrdiff_t>(off)))
          << "step " << step << " offset " << off;
    } else if (op < 90) {
      // Fail a random healthy disk if tolerance allows.
      if (failed_now < tolerance) {
        const int disk = static_cast<int>(rng.next_below(
            static_cast<std::uint64_t>(vol.arch().total_disks())));
        bool already = false;
        for (const int d : vol.failed_disks()) already |= (d == disk);
        if (!already) {
          vol.fail_disk(disk);
          ++failed_now;
        }
      }
    } else {
      // Rebuild everything that has failed.
      if (failed_now > 0) {
        auto report = vol.rebuild();
        ASSERT_TRUE(report.is_ok())
            << "step " << step << ": " << report.status().to_string();
        failed_now = 0;
      }
    }
  }

  // Drain: rebuild any remaining failures and do a full final audit.
  if (failed_now > 0) {
    ASSERT_TRUE(vol.rebuild().is_ok());
  }
  std::vector<std::uint8_t> final_read(cap);
  ASSERT_TRUE(vol.read_range(0, final_read).is_ok());
  EXPECT_EQ(final_read, shadow);
  EXPECT_TRUE(vol.verify().is_ok());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, VolumeFuzz,
    ::testing::Values(FuzzParams{3, false, true, 1},
                      FuzzParams{3, false, false, 2},
                      FuzzParams{4, true, true, 3},
                      FuzzParams{4, true, false, 4},
                      FuzzParams{5, true, true, 5},
                      FuzzParams{2, true, true, 6},
                      FuzzParams{7, false, true, 7},
                      FuzzParams{5, true, true, 99}),
    [](const ::testing::TestParamInfo<FuzzParams>& info) {
      const auto& p = info.param;
      return "n" + std::to_string(p.n) + (p.parity ? "_parity" : "_plain") +
             (p.shifted ? "_shifted" : "_trad") + "_seed" +
             std::to_string(p.seed);
    });

// The degraded-state variant: run reads/writes WHILE disks are failed,
// then rebuild and audit.
class DegradedFuzz : public ::testing::TestWithParam<FuzzParams> {};

TEST_P(DegradedFuzz, DegradedOpsThenRebuildMatchShadow) {
  const FuzzParams p = GetParam();
  VolumeConfig cfg;
  cfg.n = p.n;
  cfg.with_parity = p.parity;
  cfg.arrangement = p.shifted ? "shifted" : "traditional";
  cfg.content_bytes = 32;
  cfg.seed = p.seed;
  auto vol = MirroredVolume::create(cfg).take();
  const std::uint64_t cap = vol.capacity_bytes();
  std::vector<std::uint8_t> shadow(cap);
  ASSERT_TRUE(vol.read_range(0, shadow).is_ok());

  Rng rng(p.seed + 5);
  // Fail up to tolerance disks immediately.
  for (int f = 0; f < vol.arch().fault_tolerance(); ++f)
    vol.fail_disk(static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(vol.arch().total_disks()))));

  for (int step = 0; step < 150; ++step) {
    const std::uint64_t len = 1 + rng.next_below(64);
    const std::uint64_t off = rng.next_below(cap - len);
    if (rng.next_bool()) {
      std::vector<std::uint8_t> payload(len);
      fill_pattern(rng.next_u64(), payload.data(), payload.size());
      ASSERT_TRUE(vol.write_range(off, payload).is_ok()) << "step " << step;
      std::copy(payload.begin(), payload.end(),
                shadow.begin() + static_cast<std::ptrdiff_t>(off));
    } else {
      std::vector<std::uint8_t> got(len);
      ASSERT_TRUE(vol.read_range(off, got).is_ok()) << "step " << step;
      ASSERT_TRUE(std::equal(got.begin(), got.end(),
                             shadow.begin() + static_cast<std::ptrdiff_t>(off)))
          << "step " << step;
    }
  }

  ASSERT_TRUE(vol.rebuild().is_ok());
  std::vector<std::uint8_t> final_read(cap);
  ASSERT_TRUE(vol.read_range(0, final_read).is_ok());
  EXPECT_EQ(final_read, shadow);
  EXPECT_TRUE(vol.verify().is_ok());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, DegradedFuzz,
    ::testing::Values(FuzzParams{3, false, true, 11},
                      FuzzParams{4, true, true, 12},
                      FuzzParams{4, true, false, 13},
                      FuzzParams{6, true, true, 14}),
    [](const ::testing::TestParamInfo<FuzzParams>& info) {
      const auto& p = info.param;
      return "n" + std::to_string(p.n) + (p.parity ? "_parity" : "_plain") +
             (p.shifted ? "_shifted" : "_trad") + "_seed" +
             std::to_string(p.seed);
    });

}  // namespace
}  // namespace sma::core
