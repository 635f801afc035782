// Cross-module integration tests: the paper's end-to-end claims
// exercised through the full stack (layout -> array -> recon ->
// workload) rather than module by module.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/volume.hpp"
#include "util/rng.hpp"
#include "recon/analytic.hpp"
#include "recon/executor.hpp"
#include "recon/failure.hpp"
#include "util/thread_pool.hpp"
#include "workload/write_executor.hpp"

namespace sma {
namespace {

array::ArrayConfig cfg_for(layout::Architecture arch) {
  array::ArrayConfig cfg;
  cfg.arch = arch;
  cfg.stripes = arch.total_disks();
  cfg.content_bytes = 64;
  cfg.logical_element_bytes = 4'000'000;
  cfg.seed = 1234;
  return cfg;
}

// The measured per-stripe read accesses of the executor must equal the
// analytic planner's counts — the simulation and the theory are the
// same model.
TEST(Integration, ExecutorAccessCountsMatchAnalyticTable) {
  for (int n : {3, 5}) {
    const auto arch = layout::Architecture::mirror_with_parity(n, true);
    for (const auto& failed : recon::enumerate_double_failures(arch)) {
      // Rotation off: with it, the same physical pair plays a different
      // failure class per stripe and the executor reports the max.
      auto cfg = cfg_for(arch);
      cfg.rotate = false;
      array::DiskArray arr(cfg);
      arr.initialize();
      for (const int d : failed) arr.fail_physical(d);
      auto report = recon::reconstruct(arr);
      ASSERT_TRUE(report.is_ok());
      const int expected =
          recon::classify(arch, failed) == recon::FailureClass::kF1 ? 1 : 2;
      EXPECT_EQ(report.value().read_accesses_per_stripe, expected)
          << "n=" << n << " failed " << failed[0] << "," << failed[1];
    }
  }
}

// Measured throughput ratio grows with n for the mirror method, as in
// Fig. 9(a): the shifted curve rises while the traditional stays flat.
TEST(Integration, ThroughputGapGrowsWithN) {
  auto measured = [](int n, bool shifted) {
    const auto arch = layout::Architecture::mirror(n, shifted);
    array::DiskArray arr(cfg_for(arch));
    arr.initialize();
    arr.fail_physical(0);
    auto report = recon::reconstruct(arr);
    EXPECT_TRUE(report.is_ok());
    return report.value().read_throughput_mbps();
  };
  const double t3 = measured(3, false);
  const double t7 = measured(7, false);
  const double s3 = measured(3, true);
  const double s7 = measured(7, true);
  // Traditional is pinned near the disk's streaming read rate.
  EXPECT_NEAR(t3, t7, 5.0);
  EXPECT_NEAR(t3, 54.8, 8.0);
  // Shifted scales roughly with n.
  EXPECT_GT(s7 / s3, 1.8);
  EXPECT_GT(s3 / t3, 1.5);
  EXPECT_GT(s7 / t7, 3.0);
}

// Rebuild correctness survives user writes made before the failure:
// consistency-level verification through the volume facade.
TEST(Integration, WriteThenFailThenRebuild) {
  core::VolumeConfig vc;
  vc.n = 4;
  vc.with_parity = true;
  vc.arrangement = "shifted";
  vc.content_bytes = 64;
  auto volr = core::MirroredVolume::create(vc);
  ASSERT_TRUE(volr.is_ok());
  auto& vol = volr.value();

  std::vector<std::uint8_t> payload(64);
  for (int k = 0; k < 20; ++k) {
    fill_pattern(1000 + static_cast<unsigned>(k), payload.data(),
                 payload.size());
    const int d = k % 4;
    const int s = k % vol.stripes();
    const int r = (k * 7) % 4;
    ASSERT_TRUE(vol.write_element(d, s, r, payload).is_ok());
  }
  ASSERT_TRUE(vol.verify().is_ok());

  vol.fail_disk(1);
  vol.fail_disk(6);
  auto report = vol.rebuild();
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  // The rebuild recovers the *current* contents (user writes included);
  // mirror/parity consistency must hold exactly afterwards.
  EXPECT_TRUE(vol.verify().is_ok());
}

// Stack rotation: failing the same physical disk exercises every
// logical role, so per-stripe plans differ but all rebuild cleanly.
TEST(Integration, StackRotationCoversAllLogicalRoles) {
  const auto arch = layout::Architecture::mirror_with_parity(3, true);
  array::DiskArray arr(cfg_for(arch));
  arr.initialize();
  std::set<int> roles_seen;
  for (int s = 0; s < arr.stripes(); ++s)
    roles_seen.insert(arr.logical_disk(4, s));
  EXPECT_EQ(roles_seen.size(), static_cast<std::size_t>(arch.total_disks()));
  arr.fail_physical(4);
  auto report = recon::reconstruct(arr);
  ASSERT_TRUE(report.is_ok());
  EXPECT_TRUE(arr.verify_all().is_ok());
}

// Determinism: identical configuration gives bit-identical simulation
// results even when scenarios are dispatched across threads.
TEST(Integration, ParallelScenarioSweepIsDeterministic) {
  const auto arch = layout::Architecture::mirror_with_parity(3, true);
  const auto failures = recon::enumerate_double_failures(arch);
  std::vector<double> a(failures.size());
  std::vector<double> b(failures.size());
  auto sweep = [&](std::vector<double>& out) {
    parallel_for(failures.size(), [&](std::size_t i) {
      array::DiskArray arr(cfg_for(arch));
      arr.initialize();
      for (const int d : failures[i]) arr.fail_physical(d);
      auto report = recon::reconstruct(arr);
      ASSERT_TRUE(report.is_ok());
      out[i] = report.value().read_throughput_mbps();
    });
  };
  sweep(a);
  sweep(b);
  EXPECT_EQ(a, b);
}

// Writes and reconstruction do not interfere: running the write
// workload (timing-only) then failing and rebuilding verifies clean.
TEST(Integration, WriteWorkloadThenRebuild) {
  const auto arch = layout::Architecture::mirror_with_parity(4, true);
  array::DiskArray arr(cfg_for(arch));
  arr.initialize();
  workload::WriteWorkloadConfig wcfg;
  wcfg.requests = 100;
  const auto reqs = workload::generate_large_writes(arr, wcfg);
  const auto wreport = workload::run_write_workload(arr, reqs);
  ASSERT_TRUE(wreport.is_ok()) << wreport.status().to_string();
  EXPECT_GT(wreport.value().write_throughput_mbps(), 0.0);
  arr.fail_physical(0);
  auto report = recon::reconstruct(arr);
  ASSERT_TRUE(report.is_ok());
  EXPECT_TRUE(arr.verify_all().is_ok());
}

// The paper's improvement-band sanity: measured double-failure average
// accesses equal the closed forms feeding Fig. 7.
TEST(Integration, MeasuredAveragesMatchClosedForms) {
  for (int n : {3, 4, 5, 6, 7}) {
    const auto shifted = recon::enumerate_double_failure_cases(
        layout::Architecture::mirror_with_parity(n, true));
    EXPECT_NEAR(shifted.average_read_accesses, 4.0 * n / (2 * n + 1), 1e-12);
    const auto traditional = recon::enumerate_double_failure_cases(
        layout::Architecture::mirror_with_parity(n, false));
    EXPECT_NEAR(traditional.average_read_accesses, n, 1e-12);
  }
}

}  // namespace
}  // namespace sma
