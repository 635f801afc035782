// Fault-injection subsystem: error-aware reconstruction with redundancy
// fallback, bounded retry in the batch executor, and scrub arbitration
// of unreadable sectors.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "array/disk_array.hpp"
#include "recon/executor.hpp"
#include "recon/scrub.hpp"

namespace sma::recon {
namespace {

array::ArrayConfig base_cfg(layout::Architecture arch, int stacks = 1) {
  array::ArrayConfig cfg;
  cfg.arch = arch;
  cfg.stripes = stacks * arch.total_disks();
  cfg.rotate = false;  // logical == physical: targeted fault placement
  cfg.content_bytes = 64;
  cfg.logical_element_bytes = 4'000'000;
  cfg.seed = 11;
  return cfg;
}

disk::FaultProfile all_latent(std::uint64_t seed = 1) {
  disk::FaultProfile p;
  p.latent_error_rate = 1.0;  // every slot unreadable
  p.seed = seed;
  return p;
}

TEST(ReconFaults, InertProfileReportsNoFaultActivity) {
  array::DiskArray arr(
      base_cfg(layout::Architecture::mirror_with_parity(3, true)));
  EXPECT_FALSE(arr.faults_active());
  arr.initialize();
  arr.fail_physical(0);
  auto report = reconstruct(arr);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(report.value().retried_ops, 0u);
  EXPECT_EQ(report.value().hard_errors, 0u);
  EXPECT_EQ(report.value().latent_sectors_hit, 0u);
  EXPECT_EQ(report.value().fallback_to_mirror, 0u);
  EXPECT_EQ(report.value().fallback_to_parity, 0u);
  EXPECT_EQ(report.value().unrecoverable_elements, 0u);
  EXPECT_FALSE(report.value().degraded());
  EXPECT_TRUE(arr.verify_all().is_ok());
}

TEST(ReconFaults, FaultsThatNeverFireKeepTheFaultFreeReads) {
  // A fail-stop scheduled long after the rebuild turns the error-aware
  // path on without any fault firing, so every rebuild must time the
  // reads of its fault-free twin. Under stack rotation each failed RAID
  // disk holds only parity in some stripe; recomputing it reads the data
  // columns as parity-rebuild reads, never as availability reads.
  for (const auto& arch : {layout::Architecture::raid5(3),
                           layout::Architecture::raid6(4),
                           layout::Architecture::mirror_with_parity(3, true)}) {
    for (int d = 0; d < arch.total_disks(); ++d) {
      for (const bool parity_rebuild : {false, true}) {
        for (const bool pipelined : {false, true}) {
          ReconReport reports[2];
          for (const bool faulty : {false, true}) {
            auto cfg = base_cfg(arch);
            cfg.rotate = true;
            if (faulty) cfg.fault.fail_at_s = 1e9;
            array::DiskArray arr(cfg);
            ASSERT_EQ(arr.faults_active(), faulty);
            arr.initialize();
            arr.fail_physical(d);
            ReconOptions opts;
            opts.include_parity_rebuild = parity_rebuild;
            opts.pipelined = pipelined;
            auto report = reconstruct(arr, opts);
            ASSERT_TRUE(report.is_ok()) << report.status().to_string();
            EXPECT_TRUE(arr.verify_all().is_ok());
            reports[faulty ? 1 : 0] = report.value();
          }
          const std::string where = arch.name() + " disk " +
                                    std::to_string(d) + " parity_rebuild " +
                                    std::to_string(parity_rebuild) +
                                    " pipelined " + std::to_string(pipelined);
          EXPECT_EQ(reports[1].elements_read, reports[0].elements_read)
              << where;
          EXPECT_EQ(reports[1].logical_bytes_read,
                    reports[0].logical_bytes_read)
              << where;
          EXPECT_EQ(reports[1].read_makespan_s, reports[0].read_makespan_s)
              << where;
          EXPECT_EQ(reports[1].total_makespan_s, reports[0].total_makespan_s)
              << where;
          EXPECT_EQ(reports[1].stripe_read_done_s,
                    reports[0].stripe_read_done_s)
              << where;
        }
      }
    }
  }
}

TEST(ReconFaults, LatentReplicaFallsBackToParity) {
  auto cfg = base_cfg(layout::Architecture::mirror_with_parity(3, true));
  // Every mirror disk entirely unreadable: rebuilding a data disk must
  // take the parity-XOR path for every element.
  for (int m = 0; m < 3; ++m)
    cfg.fault_overrides[cfg.arch.replica_disk(1, m)] = all_latent();
  array::DiskArray arr(cfg);
  EXPECT_TRUE(arr.faults_active());
  arr.initialize();
  arr.fail_physical(0);  // a data disk
  auto report = reconstruct(arr);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  const auto expected = static_cast<std::uint64_t>(cfg.arch.rows()) *
                        static_cast<std::uint64_t>(cfg.stripes);
  EXPECT_EQ(report.value().fallback_to_parity, expected);
  EXPECT_GT(report.value().latent_sectors_hit, 0u);
  EXPECT_EQ(report.value().unrecoverable_elements, 0u);
  // Every recovered byte matched a surviving redundancy path.
  EXPECT_TRUE(arr.verify_all().is_ok());
}

TEST(ReconFaults, LatentDataColumnFallsBackToMirrorDuringParityRebuild) {
  auto cfg = base_cfg(layout::Architecture::mirror_with_parity(3, true));
  cfg.fault_overrides[0] = all_latent();  // data disk 0 unreadable
  array::DiskArray arr(cfg);
  arr.initialize();
  arr.fail_physical(cfg.arch.parity_disk());
  auto report = reconstruct(arr);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  // Rebuilding the parity column needs every data value; disk 0's come
  // from its mirror copies.
  const auto expected = static_cast<std::uint64_t>(cfg.arch.rows()) *
                        static_cast<std::uint64_t>(cfg.stripes);
  EXPECT_EQ(report.value().fallback_to_mirror, expected);
  EXPECT_EQ(report.value().unrecoverable_elements, 0u);
  EXPECT_TRUE(arr.verify_all().is_ok());
}

TEST(ReconFaults, NoSurvivingPathCountsUnrecoverableInsteadOfAborting) {
  auto cfg = base_cfg(layout::Architecture::mirror(2, true));
  cfg.fault = all_latent();  // plain mirror, everything latent
  array::DiskArray arr(cfg);
  arr.initialize();
  arr.fail_physical(0);
  auto report = reconstruct(arr);
  // No parity and every replica unreadable: the rebuild completes
  // degraded, zero-filling and counting the lost elements.
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  const auto expected = static_cast<std::uint64_t>(cfg.arch.rows()) *
                        static_cast<std::uint64_t>(cfg.stripes);
  EXPECT_EQ(report.value().unrecoverable_elements, expected);
  EXPECT_TRUE(report.value().degraded());
  EXPECT_FALSE(arr.physical(0).failed());  // healed regardless
}

TEST(ReconFaults, RaidLatentColumnBecomesExtraErasure) {
  auto cfg = base_cfg(layout::Architecture::raid6(4));  // tolerance 2
  cfg.fault_overrides[2] = all_latent();  // live data column unreadable
  array::DiskArray arr(cfg);
  arr.initialize();
  arr.fail_physical(0);
  auto report = reconstruct(arr);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(report.value().fallback_to_codec,
            static_cast<std::uint64_t>(cfg.stripes));
  EXPECT_EQ(report.value().unrecoverable_elements, 0u);
  EXPECT_TRUE(arr.verify_all().is_ok());
}

TEST(ReconFaults, RaidLatentBeyondToleranceIsDegradedNotFatal) {
  auto cfg = base_cfg(layout::Architecture::raid5(3));  // tolerance 1
  cfg.fault_overrides[1] = all_latent();
  array::DiskArray arr(cfg);
  arr.initialize();
  arr.fail_physical(0);
  auto report = reconstruct(arr);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  const auto expected = static_cast<std::uint64_t>(cfg.arch.rows()) *
                        static_cast<std::uint64_t>(cfg.stripes);
  EXPECT_EQ(report.value().unrecoverable_elements, expected);
  EXPECT_TRUE(report.value().degraded());
}

TEST(ReconFaults, TransientErrorsAreRetriedDuringTiming) {
  auto cfg = base_cfg(layout::Architecture::mirror_with_parity(3, true), 2);
  cfg.fault.transient_read_error_p = 0.05;
  cfg.fault.transient_write_error_p = 0.05;
  cfg.fault.seed = 3;
  cfg.io_max_retries = 4;
  array::DiskArray arr(cfg);
  arr.initialize();
  arr.fail_physical(1);
  auto report = reconstruct(arr);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_GT(report.value().retried_ops, 0u);
  EXPECT_EQ(report.value().unrecoverable_elements, 0u);
  // Transient errors cost time, never correctness.
  EXPECT_TRUE(arr.verify_all().is_ok());
}

TEST(ReconFaults, FaultyRebuildIsDeterministicUnderFixedSeed) {
  auto run = [] {
    auto cfg = base_cfg(layout::Architecture::mirror_with_parity(3, true));
    cfg.fault.latent_error_rate = 0.15;
    cfg.fault.transient_read_error_p = 0.05;
    cfg.fault.seed = 42;
    array::DiskArray arr(cfg);
    arr.initialize();
    arr.fail_physical(0);
    auto report = reconstruct(arr);
    EXPECT_TRUE(report.is_ok()) << report.status().to_string();
    return report.value();
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.read_makespan_s, b.read_makespan_s);
  EXPECT_EQ(a.total_makespan_s, b.total_makespan_s);
  EXPECT_EQ(a.retried_ops, b.retried_ops);
  EXPECT_EQ(a.latent_sectors_hit, b.latent_sectors_hit);
  EXPECT_EQ(a.fallback_to_parity, b.fallback_to_parity);
  EXPECT_EQ(a.unrecoverable_elements, b.unrecoverable_elements);
}

// --- batch-executor retry policy -----------------------------------------

TEST(ReconFaults, ExecuteBoundsTransientRetries) {
  auto cfg = base_cfg(layout::Architecture::mirror(2, true));
  cfg.fault_overrides[0].transient_write_error_p = 1.0;  // never succeeds
  cfg.io_max_retries = 2;
  array::DiskArray arr(cfg);
  std::vector<array::Op> ops{{0, 0, 0, disk::IoKind::kWrite}};
  const auto stats = arr.execute(ops, 0.0);
  EXPECT_EQ(stats.retried_ops, 2u);  // exactly io_max_retries attempts more
  EXPECT_EQ(stats.failed_ops, 1u);
  // Every attempt occupied the disk.
  EXPECT_EQ(arr.physical(0).counters().writes, 3u);
  EXPECT_GT(stats.end_s, 0.0);
}

TEST(ReconFaults, ExecuteCountsUnreadableSectorsWithoutRetry) {
  auto cfg = base_cfg(layout::Architecture::mirror(2, true));
  cfg.fault_overrides[0] = all_latent();
  array::DiskArray arr(cfg);
  std::vector<array::Op> ops{{0, 0, 0, disk::IoKind::kRead}};
  const auto stats = arr.execute(ops, 0.0);
  EXPECT_EQ(stats.retried_ops, 0u);  // hard error: no retry
  EXPECT_EQ(stats.failed_ops, 1u);
  EXPECT_EQ(stats.unreadable_ops, 1u);
  EXPECT_EQ(stats.max_retry_depth, 0);
}

TEST(ReconFaults, ExecuteReportsTheDeepestRetryChain) {
  auto cfg = base_cfg(layout::Architecture::mirror(2, true));
  cfg.fault_overrides[0].transient_write_error_p = 1.0;
  cfg.io_max_retries = 3;
  array::DiskArray arr(cfg);
  // Disk 0's op burns the whole budget — the *final* retry attempt
  // still draws a transient error and the op fails; disk 1's op is
  // clean and contributes depth 0.
  std::vector<array::Op> ops{{0, 0, 0, disk::IoKind::kWrite},
                             {1, 0, 0, disk::IoKind::kWrite}};
  const auto stats = arr.execute(ops, 0.0);
  EXPECT_EQ(stats.max_retry_depth, 3);
  EXPECT_EQ(stats.retried_ops, 3u);
  EXPECT_EQ(stats.failed_ops, 1u);
  EXPECT_EQ(arr.physical(0).counters().writes, 4u);  // 1 + 3 attempts

  std::vector<array::Op> clean{{1, 1, 0, disk::IoKind::kWrite}};
  EXPECT_EQ(arr.execute(clean, 100.0).max_retry_depth, 0);
}

TEST(ReconFaults, RetryBackoffDelaysResubmissionLinearly) {
  // The first two attempts of the exponential schedule wait backoff * 1
  // and backoff * 2 after the failed attempt drains — identical to a
  // linear schedule — so an op that exhausts two retries finishes
  // exactly backoff * (1 + 2) later than with the default immediate
  // retry.
  auto run = [](double backoff) {
    auto cfg = base_cfg(layout::Architecture::mirror(2, true));
    cfg.fault_overrides[0].transient_write_error_p = 1.0;
    cfg.io_max_retries = 2;
    cfg.retry_backoff_base_s = backoff;
    array::DiskArray arr(cfg);
    std::vector<array::Op> ops{{0, 0, 0, disk::IoKind::kWrite}};
    return arr.execute(ops, 0.0);
  };
  const auto immediate = run(0.0);
  const auto delayed = run(0.5);
  EXPECT_EQ(immediate.retried_ops, delayed.retried_ops);
  EXPECT_EQ(immediate.max_retry_depth, delayed.max_retry_depth);
  EXPECT_NEAR(delayed.end_s, immediate.end_s + 0.5 * (1 + 2), 1e-9);
}

TEST(ReconFaults, TwoDisksFailStoppingAtTheSameInstant) {
  // Both fail-stops arm at t=0: the first access to either disk kills
  // it, the batch reports both ops failed, and the double failure is
  // still recoverable on a tolerance-2 architecture.
  auto cfg = base_cfg(layout::Architecture::mirror_with_parity(3, true));
  cfg.fault_overrides[0].fail_at_s = 0.0;
  cfg.fault_overrides[1].fail_at_s = 0.0;
  array::DiskArray arr(cfg);
  arr.initialize();

  std::vector<array::Op> ops{{0, 0, 0, disk::IoKind::kRead},
                             {1, 0, 0, disk::IoKind::kRead}};
  const auto stats = arr.execute(ops, 0.0);
  EXPECT_EQ(stats.failed_ops, 2u);
  EXPECT_EQ(stats.retried_ops, 0u);  // fail-stop is hard, not transient
  EXPECT_EQ(arr.failed_physical(), (std::vector<int>{0, 1}));

  auto report = reconstruct(arr);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_TRUE(arr.failed_physical().empty());
  EXPECT_TRUE(arr.verify_all().is_ok());
}

// --- scrub: unreadable sectors as arbitration input ----------------------

TEST(ScrubFaults, UnreadableCopyRemappedFromReadablePartner) {
  auto cfg = base_cfg(layout::Architecture::mirror(2, true));
  const int m0 = cfg.arch.replica_disk(1, 0);
  cfg.fault_overrides[m0] = all_latent();
  array::DiskArray arr(cfg);
  arr.initialize();
  auto report = scrub(arr);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  const auto disk_elems = static_cast<std::uint64_t>(cfg.arch.rows()) *
                          static_cast<std::uint64_t>(cfg.stripes);
  EXPECT_EQ(report.value().unreadable_sectors, disk_elems);
  EXPECT_EQ(report.value().remapped, disk_elems);
  EXPECT_EQ(report.value().undecidable, 0u);
  // The latent sectors were rewritten in place (remapped).
  EXPECT_EQ(arr.physical(m0).latent_slot_count(), 0);
  EXPECT_TRUE(arr.verify_all().is_ok());
}

TEST(ScrubFaults, BothCopiesUnreadableRebuiltFromParityRow) {
  auto cfg = base_cfg(layout::Architecture::mirror_with_parity(3, true));
  cfg.fault_overrides[0] = all_latent(2);  // data disk 0
  for (int m = 0; m < 3; ++m)  // and every mirror disk
    cfg.fault_overrides[cfg.arch.replica_disk(1, m)] = all_latent(3 + m);
  array::DiskArray arr(cfg);
  arr.initialize();
  auto report = scrub(arr);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  // Pairs with data 0: both copies unreadable -> parity row rebuilds
  // both. Other pairs: the readable data copy is authoritative.
  EXPECT_EQ(report.value().undecidable, 0u);
  EXPECT_GT(report.value().remapped, 0u);
  for (int d = 0; d < arr.total_disks(); ++d)
    EXPECT_EQ(arr.physical(d).latent_slot_count(), 0) << "disk " << d;
  EXPECT_TRUE(arr.verify_all().is_ok());
}

TEST(ScrubFaults, UnreadableParityElementRecomputed) {
  auto cfg = base_cfg(layout::Architecture::mirror_with_parity(2, true));
  cfg.fault_overrides[cfg.arch.parity_disk()] = all_latent();
  array::DiskArray arr(cfg);
  arr.initialize();
  auto report = scrub(arr);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  const auto parity_elems = static_cast<std::uint64_t>(cfg.arch.rows()) *
                            static_cast<std::uint64_t>(cfg.stripes);
  EXPECT_EQ(report.value().unreadable_sectors, parity_elems);
  EXPECT_EQ(report.value().remapped, parity_elems);
  EXPECT_EQ(arr.physical(cfg.arch.parity_disk()).latent_slot_count(), 0);
  EXPECT_TRUE(arr.verify_all().is_ok());
}

TEST(ScrubFaults, BothCopiesUnreadableWithoutParityIsUndecidable) {
  auto cfg = base_cfg(layout::Architecture::mirror(2, true));
  cfg.fault = all_latent();  // everything unreadable, no parity
  array::DiskArray arr(cfg);
  arr.initialize();
  auto report = scrub(arr);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  const auto pairs = static_cast<std::uint64_t>(cfg.arch.n()) *
                     static_cast<std::uint64_t>(cfg.arch.rows()) *
                     static_cast<std::uint64_t>(cfg.stripes);
  EXPECT_EQ(report.value().undecidable, pairs);
  EXPECT_EQ(report.value().remapped, 0u);
}

}  // namespace
}  // namespace sma::recon
