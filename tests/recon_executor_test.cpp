#include "recon/executor.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "recon/failure.hpp"

namespace sma::recon {
namespace {

array::ArrayConfig cfg_for(layout::Architecture arch) {
  array::ArrayConfig cfg;
  cfg.arch = arch;
  cfg.stripes = arch.total_disks();  // one full stack
  cfg.content_bytes = 64;
  cfg.logical_element_bytes = 4'000'000;
  cfg.seed = 31;
  return cfg;
}

class ExecutorSingle
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(ExecutorSingle, EverysingleDiskRebuildVerifies) {
  const auto [n, shifted] = GetParam();
  const auto arch = layout::Architecture::mirror(n, shifted);
  for (int d = 0; d < arch.total_disks(); ++d) {
    array::DiskArray arr(cfg_for(arch));
    arr.initialize();
    arr.fail_physical(d);
    auto report = reconstruct(arr);
    ASSERT_TRUE(report.is_ok()) << "disk " << d << ": "
                                << report.status().to_string();
    EXPECT_TRUE(arr.verify_all().is_ok()) << "disk " << d;
    EXPECT_TRUE(arr.failed_physical().empty());
    EXPECT_EQ(report.value().read_accesses_per_stripe, shifted ? 1 : n);
    EXPECT_GT(report.value().read_throughput_mbps(), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Mirrors, ExecutorSingle,
    ::testing::Combine(::testing::Values(2, 3, 5), ::testing::Bool()));

class ExecutorDouble
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(ExecutorDouble, EveryDoubleFailureRebuildVerifies) {
  const auto [n, shifted] = GetParam();
  const auto arch = layout::Architecture::mirror_with_parity(n, shifted);
  for (const auto& failed : enumerate_double_failures(arch)) {
    array::DiskArray arr(cfg_for(arch));
    arr.initialize();
    for (const int d : failed) arr.fail_physical(d);
    auto report = reconstruct(arr);
    ASSERT_TRUE(report.is_ok())
        << failed[0] << "," << failed[1] << ": "
        << report.status().to_string();
    EXPECT_TRUE(arr.verify_all().is_ok()) << failed[0] << "," << failed[1];
  }
}

INSTANTIATE_TEST_SUITE_P(
    MirrorsWithParity, ExecutorDouble,
    ::testing::Combine(::testing::Values(3, 4), ::testing::Bool()));

TEST(Executor, ShiftedBeatsTraditionalThroughputSingleFailure) {
  // The paper's headline effect (Fig. 9a): with everything else equal,
  // the shifted arrangement's rebuild reads are parallel.
  const int n = 5;
  double trad = 0;
  double shifted = 0;
  for (const bool s : {false, true}) {
    const auto arch = layout::Architecture::mirror(n, s);
    array::DiskArray arr(cfg_for(arch));
    arr.initialize();
    arr.fail_physical(0);
    auto report = reconstruct(arr);
    ASSERT_TRUE(report.is_ok());
    (s ? shifted : trad) = report.value().read_throughput_mbps();
  }
  EXPECT_GT(shifted, 1.5 * trad);
}

TEST(Executor, NoFailureIsTrivial) {
  const auto arch = layout::Architecture::mirror(3, true);
  array::DiskArray arr(cfg_for(arch));
  arr.initialize();
  auto report = reconstruct(arr);
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report.value().logical_bytes_read, 0u);
  EXPECT_DOUBLE_EQ(report.value().read_makespan_s, 0.0);
}

TEST(Executor, TripleFailureIsUnrecoverable) {
  const auto arch = layout::Architecture::mirror_with_parity(3, true);
  array::DiskArray arr(cfg_for(arch));
  arr.initialize();
  arr.fail_physical(0);
  arr.fail_physical(1);
  arr.fail_physical(2);
  auto report = reconstruct(arr);
  EXPECT_FALSE(report.is_ok());
  EXPECT_EQ(report.status().code(), ErrorCode::kUnrecoverable);
}

TEST(Executor, ParityRebuildOptionAddsReads) {
  // Rotation off so the failed physical disk is the parity disk in
  // *every* stripe; with rotation it would play data/mirror roles in
  // other stripes and legitimately incur availability reads.
  const auto arch = layout::Architecture::mirror_with_parity(4, true);
  auto cfg_no_rotate = cfg_for(arch);
  cfg_no_rotate.rotate = false;

  array::DiskArray a(cfg_no_rotate);
  a.initialize();
  a.fail_physical(a.arch().parity_disk());
  auto without = reconstruct(a);
  ASSERT_TRUE(without.is_ok());

  array::DiskArray b(cfg_no_rotate);
  b.initialize();
  b.fail_physical(b.arch().parity_disk());
  ReconOptions opts;
  opts.include_parity_rebuild = true;
  auto with = reconstruct(b, opts);
  ASSERT_TRUE(with.is_ok());

  EXPECT_EQ(without.value().logical_bytes_read, 0u);
  EXPECT_GT(with.value().logical_bytes_read, 0u);
  // Both still leave a fully verified array.
  EXPECT_TRUE(a.verify_all().is_ok());
  EXPECT_TRUE(b.verify_all().is_ok());
}

TEST(Executor, Raid5RebuildVerifies) {
  const auto arch = layout::Architecture::raid5(4);
  for (int d = 0; d < arch.total_disks(); ++d) {
    array::DiskArray arr(cfg_for(arch));
    arr.initialize();
    arr.fail_physical(d);
    auto report = reconstruct(arr);
    ASSERT_TRUE(report.is_ok()) << d;
    EXPECT_TRUE(arr.verify_all().is_ok()) << d;
  }
}

TEST(Executor, Raid6DoubleRebuildVerifies) {
  const auto arch = layout::Architecture::raid6(4);
  for (const auto& failed : enumerate_double_failures(arch)) {
    array::DiskArray arr(cfg_for(arch));
    arr.initialize();
    for (const int d : failed) arr.fail_physical(d);
    auto report = reconstruct(arr);
    ASSERT_TRUE(report.is_ok()) << failed[0] << "," << failed[1];
    EXPECT_TRUE(arr.verify_all().is_ok()) << failed[0] << "," << failed[1];
  }
}

TEST(Executor, PipelinedRebuildIsFasterAndStillVerifies) {
  for (const bool shifted : {false, true}) {
    const auto arch = layout::Architecture::mirror(4, shifted);
    double totals[2];
    for (const bool pipelined : {false, true}) {
      array::DiskArray arr(cfg_for(arch));
      arr.initialize();
      arr.fail_physical(1);
      ReconOptions opts;
      opts.pipelined = pipelined;
      auto report = reconstruct(arr, opts);
      ASSERT_TRUE(report.is_ok());
      EXPECT_TRUE(arr.verify_all().is_ok());
      totals[pipelined ? 1 : 0] = report.value().total_makespan_s;
      EXPECT_GE(report.value().total_makespan_s,
                report.value().read_makespan_s);
    }
    EXPECT_LT(totals[1], totals[0]) << "shifted=" << shifted;
  }
}

TEST(Executor, PipelinedMatchesBarrierOnBytesAndAccesses) {
  const auto arch = layout::Architecture::mirror_with_parity(4, true);
  ReconOptions barrier;
  ReconOptions pipe;
  pipe.pipelined = true;
  ReconReport reports[2];
  for (int mode = 0; mode < 2; ++mode) {
    array::DiskArray arr(cfg_for(arch));
    arr.initialize();
    arr.fail_physical(0);
    arr.fail_physical(5);
    auto r = reconstruct(arr, mode == 0 ? barrier : pipe);
    ASSERT_TRUE(r.is_ok());
    reports[mode] = r.value();
  }
  EXPECT_EQ(reports[0].logical_bytes_read, reports[1].logical_bytes_read);
  EXPECT_EQ(reports[0].logical_bytes_recovered,
            reports[1].logical_bytes_recovered);
  EXPECT_EQ(reports[0].read_accesses_per_stripe,
            reports[1].read_accesses_per_stripe);
}

TEST(Executor, StragglerSlowsShiftedRebuild) {
  // One slow mirror disk gates the shifted fan-out but not the
  // traditional partner read (rotation off; partner is disk n+0, the
  // straggler n+1).
  const int n = 4;
  double mbps[2];
  for (const bool slow : {false, true}) {
    auto cfg = cfg_for(layout::Architecture::mirror(n, true));
    cfg.rotate = false;
    if (slow) {
      disk::DiskSpec s = cfg.spec;
      s.read_mbps /= 4;
      cfg.spec_overrides[n + 1] = s;
    }
    array::DiskArray arr(cfg);
    arr.initialize();
    arr.fail_physical(0);
    auto report = reconstruct(arr);
    ASSERT_TRUE(report.is_ok());
    mbps[slow ? 1 : 0] = report.value().read_throughput_mbps();
  }
  EXPECT_LT(mbps[1], 0.75 * mbps[0]);

  // Traditional is untouched when the straggler is not the partner.
  double trad[2];
  for (const bool slow : {false, true}) {
    auto cfg = cfg_for(layout::Architecture::mirror(n, false));
    cfg.rotate = false;
    if (slow) {
      disk::DiskSpec s = cfg.spec;
      s.read_mbps /= 4;
      cfg.spec_overrides[n + 1] = s;
    }
    array::DiskArray arr(cfg);
    arr.initialize();
    arr.fail_physical(0);  // partner is n + 0, not the straggler
    auto report = reconstruct(arr);
    ASSERT_TRUE(report.is_ok());
    trad[slow ? 1 : 0] = report.value().read_throughput_mbps();
  }
  EXPECT_DOUBLE_EQ(trad[0], trad[1]);
}

TEST(Executor, BytesRecoveredEqualsFailedDiskCapacity) {
  const auto arch = layout::Architecture::mirror(3, true);
  array::DiskArray arr(cfg_for(arch));
  arr.initialize();
  arr.fail_physical(1);
  auto report = reconstruct(arr);
  ASSERT_TRUE(report.is_ok());
  const std::uint64_t capacity =
      static_cast<std::uint64_t>(arr.stripes()) * arch.rows() * 4'000'000;
  EXPECT_EQ(report.value().logical_bytes_recovered, capacity);
}

// --- checkpointed / resumable rebuilds ------------------------------------

TEST(Executor, CheckpointInterruptAndResume) {
  const auto arch = layout::Architecture::mirror(4, true);  // 8 stripes
  array::DiskArray arr(cfg_for(arch));
  arr.initialize();
  arr.fail_physical(2);

  repair::RebuildCheckpoint ck;
  ReconOptions opts;
  opts.checkpoint = &ck;
  opts.max_stripes = 3;
  auto first = reconstruct(arr, opts);
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  EXPECT_FALSE(first.value().completed);
  EXPECT_EQ(first.value().stripes_processed, 3);
  EXPECT_EQ(first.value().stripes_skipped, 0);
  EXPECT_EQ(ck.stripes_done, 3);
  EXPECT_TRUE(ck.valid());
  EXPECT_EQ(ck.failed, std::vector<int>{2});
  // Interrupted: the disk is still failed, verification deferred.
  EXPECT_EQ(arr.failed_physical(), std::vector<int>{2});

  opts.max_stripes = -1;
  auto second = reconstruct(arr, opts);
  ASSERT_TRUE(second.is_ok()) << second.status().to_string();
  EXPECT_TRUE(second.value().completed);
  EXPECT_EQ(second.value().stripes_skipped, 3);  // covered stripes are free
  EXPECT_EQ(second.value().stripes_processed, arr.stripes() - 3);
  EXPECT_FALSE(ck.valid());  // reset once the rebuild lands
  EXPECT_TRUE(arr.failed_physical().empty());
  EXPECT_TRUE(arr.verify_all().is_ok());
  // Both rounds together did exactly one full rebuild's I/O.
  array::DiskArray fresh(cfg_for(arch));
  fresh.initialize();
  fresh.fail_physical(2);
  auto whole = reconstruct(fresh);
  ASSERT_TRUE(whole.is_ok());
  EXPECT_EQ(first.value().elements_read + second.value().elements_read,
            whole.value().elements_read);
  EXPECT_EQ(first.value().elements_written + second.value().elements_written,
            whole.value().elements_written);
}

TEST(Executor, StaleCheckpointForADifferentFailureRestarts) {
  const auto arch = layout::Architecture::mirror(4, true);
  array::DiskArray arr(cfg_for(arch));
  arr.initialize();
  arr.fail_physical(2);
  repair::RebuildCheckpoint ck;
  ck.failed = {5};  // watermark from some other episode
  ck.stripes_done = 4;
  ReconOptions opts;
  opts.checkpoint = &ck;
  auto report = reconstruct(arr, opts);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(report.value().stripes_skipped, 0);  // nothing trustworthy
  EXPECT_EQ(report.value().stripes_processed, arr.stripes());
  EXPECT_TRUE(arr.verify_all().is_ok());
}

TEST(Executor, SecondFailureResumeReadsFewerElementsThanRestart) {
  // The acceptance scenario: a second disk dies mid-rebuild. Resuming
  // from the checkpoint re-reads strictly less than restarting, because
  // the first disk's already-restored stripes only need the new disk
  // rebuilt (the restored elements even serve as live sources).
  const auto arch = layout::Architecture::mirror_with_parity(4, true);

  std::uint64_t resumed_reads = 0;
  {
    array::DiskArray arr(cfg_for(arch));
    arr.initialize();
    arr.fail_physical(0);
    repair::RebuildCheckpoint ck;
    ReconOptions opts;
    opts.checkpoint = &ck;
    opts.max_stripes = 4;
    auto first = reconstruct(arr, opts);
    ASSERT_TRUE(first.is_ok()) << first.status().to_string();
    ASSERT_FALSE(first.value().completed);
    arr.fail_physical(1);  // second failure mid-rebuild
    opts.max_stripes = -1;
    auto rest = reconstruct(arr, opts);
    ASSERT_TRUE(rest.is_ok()) << rest.status().to_string();
    EXPECT_TRUE(rest.value().completed);
    // Covered stripes are *partial* (the new disk still needs them), so
    // none skip outright — the saving shows up in elements_read below.
    EXPECT_EQ(rest.value().stripes_skipped, 0);
    EXPECT_EQ(rest.value().stripes_processed, arr.stripes());
    resumed_reads = first.value().elements_read + rest.value().elements_read;
    EXPECT_TRUE(arr.failed_physical().empty());
    EXPECT_TRUE(arr.verify_all().is_ok());
  }

  std::uint64_t restart_reads = 0;
  {
    array::DiskArray arr(cfg_for(arch));
    arr.initialize();
    arr.fail_physical(0);
    repair::RebuildCheckpoint ck;
    ReconOptions opts;
    opts.checkpoint = &ck;
    opts.max_stripes = 4;
    auto first = reconstruct(arr, opts);
    ASSERT_TRUE(first.is_ok()) << first.status().to_string();
    arr.fail_physical(1);
    // No checkpoint on the second call: rebuild both from scratch.
    auto rest = reconstruct(arr);
    ASSERT_TRUE(rest.is_ok()) << rest.status().to_string();
    restart_reads = first.value().elements_read + rest.value().elements_read;
    EXPECT_TRUE(arr.verify_all().is_ok());
  }

  EXPECT_LT(resumed_reads, restart_reads);
}

TEST(Executor, StripeBudgetRequiresACheckpoint) {
  const auto arch = layout::Architecture::mirror(3, true);
  array::DiskArray arr(cfg_for(arch));
  arr.initialize();
  arr.fail_physical(0);
  ReconOptions opts;
  opts.max_stripes = 2;  // no checkpoint to record the watermark
  EXPECT_EQ(reconstruct(arr, opts).status().code(),
            ErrorCode::kInvalidArgument);
  repair::RebuildCheckpoint ck;
  opts.checkpoint = &ck;
  opts.max_stripes = 0;
  EXPECT_EQ(reconstruct(arr, opts).status().code(),
            ErrorCode::kInvalidArgument);
}

// --- golden digest over the rebuild grid ----------------------------------

struct GridArch {
  layout::Architecture arch;
  bool faults;  // also rebuild under latent sectors and transients
};

// Every registry layout at n = 2..5 with and without parity, shifted and
// traditional at R = 2, and RAID-5/6 (fault-free only).
std::vector<GridArch> rebuild_grid() {
  std::vector<GridArch> grid;
  for (int n = 2; n <= 5; ++n) {
    const std::string groups = n % 2 == 0 ? "" : ":groups=1";
    for (const std::string& spec :
         {std::string("traditional"), std::string("shifted"),
          std::string("iterated:2"), std::string("iterated:3"),
          "lrc" + groups, "pyramid" + groups, std::string("zigzag")}) {
      auto mirror = layout::Architecture::mirror_named(n, spec);
      auto parity = layout::Architecture::mirror_with_parity_named(n, spec);
      EXPECT_TRUE(mirror.is_ok()) << spec << " n=" << n;
      EXPECT_TRUE(parity.is_ok()) << spec << " n=" << n;
      if (!mirror.is_ok() || !parity.is_ok()) continue;
      grid.push_back({std::move(mirror).take(), true});
      grid.push_back({std::move(parity).take(), true});
    }
    for (const char* spec : {"traditional", "shifted"}) {
      auto r2 = layout::Architecture::mirror_named(n, spec, 2);
      if (r2.is_ok()) grid.push_back({std::move(r2).take(), true});
    }
    grid.push_back({layout::Architecture::raid5(n), false});
    grid.push_back({layout::Architecture::raid6(n), false});
  }
  return grid;
}

TEST(Executor, GoldenDigestOverRebuildGrid) {
  // Every ReconReport field of every rebuild over rebuild_grid() x every
  // failure set within tolerance x {no faults, latent sectors,
  // transients} x {barrier, pipelined} x {parity rebuild off, on},
  // folded into one value. Recorded from the executor that kept a
  // separate three-phase default path; any change to one timing, count
  // or per-stripe completion time moves it.
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto fold = [&h](std::uint64_t v) { h = (h ^ v) * 0x100000001b3ull; };
  auto fold_s = [&fold](double s) { fold(std::bit_cast<std::uint64_t>(s)); };

  disk::FaultProfile latent;
  latent.latent_error_rate = 0.05;
  latent.seed = 19;
  disk::FaultProfile transient;
  transient.transient_read_error_p = 0.2;
  transient.transient_write_error_p = 0.2;
  transient.seed = 19;
  const disk::FaultProfile profiles[] = {disk::FaultProfile{}, latent,
                                         transient};

  std::size_t rebuilds = 0;
  for (const auto& [arch, faults] : rebuild_grid()) {
    auto sets = enumerate_single_failures(arch);
    if (arch.fault_tolerance() >= 2)
      for (auto& pair : enumerate_double_failures(arch)) sets.push_back(pair);
    for (const auto& failed : sets) {
      for (int f = 0; f < (faults ? 3 : 1); ++f) {
        for (const bool pipelined : {false, true}) {
          for (const bool parity_rebuild : {false, true}) {
            if (parity_rebuild && arch.kind() == layout::ArchKind::kMirror)
              continue;  // nothing to recompute
            auto cfg = cfg_for(arch);
            cfg.content_bytes = 16;
            cfg.fault = profiles[f];
            array::DiskArray arr(cfg);
            arr.initialize();
            for (const int d : failed) arr.fail_physical(d);
            ReconOptions opts;
            opts.pipelined = pipelined;
            opts.include_parity_rebuild = parity_rebuild;
            auto rep = reconstruct(arr, opts);
            ++rebuilds;
            fold(static_cast<std::uint64_t>(rep.status().code()));
            if (!rep.is_ok()) continue;
            const ReconReport& r = rep.value();
            fold_s(r.read_makespan_s);
            fold_s(r.total_makespan_s);
            fold(r.logical_bytes_read);
            fold(r.logical_bytes_recovered);
            fold(static_cast<std::uint64_t>(r.read_accesses_per_stripe));
            fold(r.stripe_read_done_s.size());
            for (const double t : r.stripe_read_done_s) fold_s(t);
            fold(r.retried_ops);
            fold(r.hard_errors);
            fold(r.latent_sectors_hit);
            fold(r.fallback_to_mirror);
            fold(r.fallback_to_parity);
            fold(r.fallback_to_codec);
            fold(r.unrecoverable_elements);
            fold(static_cast<std::uint64_t>(r.stripes_processed));
            fold(static_cast<std::uint64_t>(r.stripes_skipped));
            fold(r.elements_read);
            fold(r.elements_written);
            fold(r.completed ? 1 : 0);
            fold(arr.failed_physical().size());
          }
        }
      }
    }
  }
  EXPECT_EQ(rebuilds, 17522u);
  EXPECT_EQ(h, 0x47c11b9441935f2aull) << std::hex << h;
}

TEST(Executor, ReportMakespansAreOrdered) {
  const auto arch = layout::Architecture::mirror(4, false);
  array::DiskArray arr(cfg_for(arch));
  arr.initialize();
  arr.fail_physical(2);
  auto report = reconstruct(arr);
  ASSERT_TRUE(report.is_ok());
  EXPECT_GT(report.value().read_makespan_s, 0.0);
  EXPECT_GT(report.value().total_makespan_s, report.value().read_makespan_s);
}

}  // namespace
}  // namespace sma::recon
