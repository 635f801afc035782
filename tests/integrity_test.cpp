// Crash-consistency subsystem: the dirty-region log, op-indexed crash
// injection and power cycling, DRL-driven post-crash resync (partial vs
// full), crash-mid-rebuild resume through the repair orchestrator, and
// the verifying scrub against the three silent-corruption modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "integrity/crash_workload.hpp"
#include "integrity/dirty_region_log.hpp"
#include "integrity/resync.hpp"
#include "obs/observer.hpp"
#include "obs/trace_sink.hpp"
#include "recon/executor.hpp"
#include "recon/scrub.hpp"
#include "repair/orchestrator.hpp"

namespace sma::integrity {
namespace {

/// The bench_crash_resync configuration at test scale: parity mirror,
/// two stacks, DRL + checksums on, crash armed at an op index that
/// tears a request between its data and mirror copy (the write hole).
array::ArrayConfig crash_cfg(bool shifted, int region_stripes) {
  array::ArrayConfig cfg;
  cfg.arch = layout::Architecture::mirror_with_parity(5, shifted);
  cfg.stripes = 2 * cfg.arch.total_disks();
  cfg.content_bytes = 64;
  cfg.logical_element_bytes = 4'000'000;
  cfg.seed = 20120901;
  cfg.drl_region_stripes = region_stripes;
  cfg.checksums = true;
  cfg.fault.crash_after_writes = 103;
  cfg.fault.seed = 20120901;
  return cfg;
}

CrashWorkloadConfig workload_cfg() {
  CrashWorkloadConfig wcfg;
  wcfg.requests = 40;
  wcfg.seed = 20120901;
  wcfg.quiesce_every = 10;
  return wcfg;
}

/// Drive the seeded workload into the armed crash point.
CrashWorkloadReport run_to_crash(array::DiskArray& arr) {
  auto wl = run_crash_workload(arr, workload_cfg());
  EXPECT_TRUE(wl.is_ok()) << wl.status().to_string();
  EXPECT_TRUE(wl.value().crashed);
  EXPECT_TRUE(arr.crashed());
  return wl.value();
}

// --- dirty-region log ------------------------------------------------------

TEST(DirtyRegionLog, RegionMappingMarksAndClears) {
  DirtyRegionLog drl(10, 4);  // regions: [0,4) [4,8) [8,10)
  ASSERT_TRUE(drl.enabled());
  EXPECT_EQ(drl.regions(), 3);
  EXPECT_EQ(drl.region_of(0), 0);
  EXPECT_EQ(drl.region_of(3), 0);
  EXPECT_EQ(drl.region_of(4), 1);
  EXPECT_EQ(drl.region_of(9), 2);
  EXPECT_EQ(drl.region_begin(2), 8);
  EXPECT_EQ(drl.region_end(2), 10);  // trailing region is shorter

  drl.mark(5);
  EXPECT_TRUE(drl.dirty(1));
  EXPECT_TRUE(drl.stripe_dirty(4));
  EXPECT_TRUE(drl.stripe_dirty(7));
  EXPECT_FALSE(drl.stripe_dirty(3));
  EXPECT_EQ(drl.dirty_count(), 1);
  EXPECT_EQ(drl.dirty_regions(), std::vector<int>{1});

  drl.mark(5);  // idempotent bit, but counted as bitmap traffic
  EXPECT_EQ(drl.dirty_count(), 1);
  EXPECT_EQ(drl.marks(), 2u);

  drl.clear(1);
  EXPECT_EQ(drl.dirty_count(), 0);
  drl.mark_all();
  EXPECT_EQ(drl.dirty_count(), 3);
  drl.clear_all();
  EXPECT_EQ(drl.dirty_count(), 0);
}

TEST(DirtyRegionLog, DisabledLogIsInert) {
  for (DirtyRegionLog drl : {DirtyRegionLog{}, DirtyRegionLog{10, 0},
                             DirtyRegionLog{10, -3}}) {
    EXPECT_FALSE(drl.enabled());
    EXPECT_EQ(drl.regions(), 0);
    drl.mark(0);  // no-op, not even counted
    EXPECT_EQ(drl.marks(), 0u);
    EXPECT_EQ(drl.dirty_count(), 0);
    EXPECT_FALSE(drl.stripe_dirty(0));
    EXPECT_TRUE(drl.dirty_regions().empty());
  }
}

// --- crash injection -------------------------------------------------------

TEST(CrashInjection, OpIndexedCrashLosesTheBatchTailButKeepsItsIntent) {
  array::ArrayConfig cfg;
  cfg.arch = layout::Architecture::mirror(3, true);
  cfg.stripes = cfg.arch.total_disks();
  cfg.content_bytes = 64;
  cfg.logical_element_bytes = 4'000'000;
  cfg.drl_region_stripes = 1;
  cfg.fault.crash_after_writes = 2;  // third write is the victim
  cfg.fault.seed = 9;
  array::DiskArray arr(cfg);
  arr.initialize();

  std::vector<array::Op> ops;
  for (int s = 0; s < 5; ++s)
    ops.push_back({cfg.arch.data_disk(s % 3), s, 0, disk::IoKind::kWrite});
  const auto stats = arr.execute(ops, 0.0);
  EXPECT_TRUE(stats.crashed);
  EXPECT_TRUE(arr.crashed());
  // Victim write plus the two powered-off tail writes never hit media.
  EXPECT_EQ(stats.lost_writes, 3u);
  EXPECT_EQ(stats.failed_ops, 3u);
  // Intent was logged at batch admission, so even the tail writes'
  // regions are dirty — exactly the set a resync must re-examine.
  for (int s = 0; s < 5; ++s)
    EXPECT_TRUE(arr.dirty_log().stripe_dirty(s)) << "stripe " << s;

  // Powered off: every op fails, every write's bytes are lost.
  const array::Op read{0, 0, 0, disk::IoKind::kRead};
  const auto off = arr.execute({&read, 1}, stats.end_s);
  EXPECT_TRUE(off.crashed);
  EXPECT_EQ(off.failed_ops, 1u);

  ASSERT_TRUE(arr.power_cycle().is_ok());
  EXPECT_FALSE(arr.crashed());
  // The crash point is consumed; power cycling twice is a misuse.
  EXPECT_EQ(arr.power_cycle().code(), ErrorCode::kFailedPrecondition);
  const auto on = arr.execute({&read, 1}, 0.0);
  EXPECT_EQ(on.failed_ops, 0u);
  EXPECT_FALSE(on.crashed);
}

// --- post-crash resync -----------------------------------------------------

TEST(CrashResync, WriteHoleRepairedByDrlResyncOnBothArrangements) {
  for (const bool shifted : {true, false}) {
    SCOPED_TRACE(shifted ? "shifted" : "traditional");
    array::DiskArray arr(crash_cfg(shifted, 2));
    arr.initialize();
    obs::TraceSink sink;
    obs::Observer ob;
    ob.trace = &sink;
    arr.set_observer(&ob);

    const auto wl = run_to_crash(arr);
    EXPECT_GT(wl.dirty_regions, 0);
    // The crash left a write hole: the array is NOT internally
    // consistent until the resync reconciles the copies.
    EXPECT_FALSE(arr.verify_consistency(nullptr).is_ok());
    const auto crashes =
        std::count_if(sink.events().begin(), sink.events().end(),
                      [](const obs::TraceEvent& e) {
                        return e.kind == obs::EventKind::kCrash;
                      });
    EXPECT_EQ(crashes, 1);

    ASSERT_TRUE(arr.power_cycle().is_ok());
    ResyncOptions opts;
    opts.observer = &ob;
    auto rs = resync(arr, opts);
    ASSERT_TRUE(rs.is_ok()) << rs.status().to_string();
    const auto& r = rs.value();
    EXPECT_GE(r.diverged, 1u);  // the write hole was found...
    EXPECT_EQ(r.copies_rewritten, r.diverged);  // ...and closed
    EXPECT_LT(r.regions_scanned, r.regions_total);  // partial scan
    EXPECT_TRUE(arr.verify_consistency(nullptr).is_ok());
    EXPECT_TRUE(arr.verify_checksums().is_ok());
    EXPECT_GE(std::count_if(sink.events().begin(), sink.events().end(),
                            [](const obs::TraceEvent& e) {
                              return e.kind == obs::EventKind::kResync;
                            }),
              1);

    // Reconciled regions were cleared: a second resync scans nothing.
    EXPECT_EQ(arr.dirty_log().dirty_count(), 0);
    auto again = resync(arr);
    ASSERT_TRUE(again.is_ok());
    EXPECT_EQ(again.value().regions_scanned, 0);
    EXPECT_EQ(again.value().elements_read, 0u);
    arr.set_observer(nullptr);
  }
}

TEST(CrashResync, DrlResyncReadsStrictlyFewerElementsThanFull) {
  for (const bool shifted : {true, false}) {
    SCOPED_TRACE(shifted ? "shifted" : "traditional");
    array::DiskArray partial(crash_cfg(shifted, 2));
    partial.initialize();
    run_to_crash(partial);
    ASSERT_TRUE(partial.power_cycle().is_ok());
    auto drl = resync(partial);
    ASSERT_TRUE(drl.is_ok());

    array::DiskArray whole(crash_cfg(shifted, 2));
    whole.initialize();
    run_to_crash(whole);
    ASSERT_TRUE(whole.power_cycle().is_ok());
    ResyncOptions opts;
    opts.full = true;
    auto full = resync(whole, opts);
    ASSERT_TRUE(full.is_ok());

    // The acceptance claim: for a partial-dirty workload the log pays
    // for itself on both arrangements.
    EXPECT_LT(drl.value().elements_read, full.value().elements_read);
    EXPECT_EQ(full.value().regions_scanned, full.value().regions_total);
    // Both paths end fully consistent regardless of cost.
    EXPECT_TRUE(partial.verify_consistency(nullptr).is_ok());
    EXPECT_TRUE(whole.verify_consistency(nullptr).is_ok());
    EXPECT_TRUE(partial.verify_checksums().is_ok());
    EXPECT_TRUE(whole.verify_checksums().is_ok());
  }
}

TEST(CrashResync, GuardsRejectMisuse) {
  array::DiskArray arr(crash_cfg(true, 2));
  arr.initialize();
  run_to_crash(arr);
  // Powered off: nothing runs until power_cycle().
  EXPECT_EQ(resync(arr).status().code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(recon::reconstruct(arr).status().code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(recon::scrub(arr).status().code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(run_crash_workload(arr, workload_cfg()).status().code(),
            ErrorCode::kFailedPrecondition);

  // Resync is a mirror-consistency operation.
  array::ArrayConfig rcfg;
  rcfg.arch = layout::Architecture::raid5(4);
  rcfg.stripes = rcfg.arch.total_disks();
  rcfg.content_bytes = 64;
  array::DiskArray raid(rcfg);
  raid.initialize();
  EXPECT_EQ(resync(raid).status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(run_crash_workload(raid, workload_cfg()).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST(CrashResync, CrashMidRebuildResumesFromTheCheckpointAfterResync) {
  array::ArrayConfig cfg;
  cfg.arch = layout::Architecture::mirror_with_parity(4, true);
  cfg.stripes = cfg.arch.total_disks();  // 9 stripes, 4 writes each
  cfg.content_bytes = 64;
  cfg.logical_element_bytes = 4'000'000;
  cfg.drl_region_stripes = 2;
  cfg.checksums = true;
  cfg.fault.crash_after_writes = 15;  // inside stripe 3 of the rebuild
  cfg.fault.seed = 5;
  array::DiskArray arr(cfg);
  arr.initialize();
  arr.fail_physical(0);

  repair::RepairConfig rc;
  rc.checkpointing = true;
  repair::RepairOrchestrator orch(arr, rc);
  ASSERT_TRUE(orch.admit_failures(0.0).is_ok());

  // Round 1: the rebuild's own replacement writes trip the crash point.
  auto r1 = orch.run(0.0);
  ASSERT_TRUE(r1.is_ok()) << r1.status().to_string();
  EXPECT_TRUE(arr.crashed());
  EXPECT_NE(r1.value().final_state, repair::ArrayState::kHealthy);
  // The watermark survived the crash, somewhere mid-array.
  EXPECT_GT(orch.checkpoint().stripes_done, 0);
  EXPECT_LT(orch.checkpoint().stripes_done, arr.stripes());

  // Power-cycle + resync through the lifecycle, then resume the rebuild.
  ASSERT_TRUE(orch.admit_crash(1.0).is_ok());
  EXPECT_EQ(orch.lifecycle().state(), repair::ArrayState::kInconsistent);
  auto rs = orch.resync(1.0);
  ASSERT_TRUE(rs.is_ok()) << rs.status().to_string();
  // One side of every disk-0 pair is dead; the rebuild owns those.
  EXPECT_GT(rs.value().pairs_skipped, 0u);

  auto r2 = orch.run(2.0);
  ASSERT_TRUE(r2.is_ok()) << r2.status().to_string();
  EXPECT_EQ(r2.value().final_state, repair::ArrayState::kHealthy);
  EXPECT_TRUE(arr.failed_physical().empty());
  EXPECT_TRUE(arr.verify_all().is_ok());
  EXPECT_TRUE(arr.verify_checksums().is_ok());
}

TEST(CrashResync, CrashMidRebuildWithoutACheckpointLeavesTheDiskFailed) {
  // A plain reconstruct() whose own replacement writes trip the crash
  // point: the disk must stay failed (a torn rebuild write never heals),
  // and power-cycle + resync + a second reconstruct() finish the job.
  for (const bool pipelined : {false, true}) {
    array::ArrayConfig cfg;
    cfg.arch = layout::Architecture::mirror_with_parity(4, true);
    cfg.stripes = cfg.arch.total_disks();  // 9 stripes, 4 writes each
    cfg.content_bytes = 64;
    cfg.logical_element_bytes = 4'000'000;
    cfg.drl_region_stripes = 2;
    cfg.checksums = true;
    cfg.fault.crash_after_writes = 15;
    cfg.fault.seed = 5;
    array::DiskArray arr(cfg);
    arr.initialize();
    arr.fail_physical(0);

    recon::ReconOptions opts;
    opts.pipelined = pipelined;
    auto first = recon::reconstruct(arr, opts);
    ASSERT_TRUE(first.is_ok()) << first.status().to_string();
    EXPECT_FALSE(first.value().completed);
    EXPECT_TRUE(arr.crashed());
    EXPECT_EQ(arr.failed_physical(), std::vector<int>{0});

    ASSERT_TRUE(arr.power_cycle().is_ok());
    auto rs = resync(arr);
    ASSERT_TRUE(rs.is_ok()) << rs.status().to_string();
    auto second = recon::reconstruct(arr, opts);
    ASSERT_TRUE(second.is_ok()) << second.status().to_string();
    EXPECT_TRUE(second.value().completed);
    EXPECT_EQ(second.value().stripes_processed, arr.stripes());
    EXPECT_TRUE(arr.failed_physical().empty());
    EXPECT_TRUE(arr.verify_all().is_ok()) << "pipelined=" << pipelined;
    EXPECT_TRUE(arr.verify_checksums().is_ok()) << "pipelined=" << pipelined;
  }
}

// --- verifying scrub -------------------------------------------------------

TEST(VerifyingScrub, DetectsAndRepairsEverySilentCorruptionKind) {
  for (const auto kind :
       {SilentCorruption::kBitRot, SilentCorruption::kLostWrite,
        SilentCorruption::kMisdirectedWrite}) {
    SCOPED_TRACE(static_cast<int>(kind));
    array::ArrayConfig cfg;
    cfg.arch = layout::Architecture::mirror_with_parity(4, true);
    cfg.stripes = cfg.arch.total_disks();
    cfg.content_bytes = 64;
    cfg.logical_element_bytes = 4'000'000;
    cfg.checksums = true;
    array::DiskArray arr(cfg);
    arr.initialize();

    Rng rng(123 + static_cast<std::uint64_t>(kind));
    auto injected = inject_silent_corruption(arr, rng, 3, kind);
    ASSERT_TRUE(injected.is_ok()) << injected.status().to_string();
    const auto expected =
        static_cast<std::uint64_t>(injected.value().size());
    ASSERT_GE(expected, 3u);
    EXPECT_FALSE(arr.verify_checksums().is_ok());

    obs::TraceSink sink;
    obs::Observer ob;
    ob.trace = &sink;
    recon::ScrubOptions opts;
    opts.observer = &ob;
    auto report = recon::scrub(arr, opts);
    ASSERT_TRUE(report.is_ok()) << report.status().to_string();
    // 100% of the injections detected and repaired, none undecidable.
    EXPECT_EQ(report.value().checksum_mismatches, expected);
    EXPECT_EQ(report.value().repaired_by_checksum, expected);
    EXPECT_EQ(report.value().undecidable, 0u);
    EXPECT_EQ(std::count_if(sink.events().begin(), sink.events().end(),
                            [](const obs::TraceEvent& e) {
                              return e.kind == obs::EventKind::kCorruption;
                            }),
              static_cast<std::ptrdiff_t>(expected));

    EXPECT_TRUE(arr.verify_checksums().is_ok());
    EXPECT_TRUE(arr.verify_consistency(nullptr).is_ok());
    auto again = recon::scrub(arr);
    ASSERT_TRUE(again.is_ok());
    EXPECT_TRUE(again.value().clean());
  }
}

TEST(VerifyingScrub, ChecksumDependentInjectionsRequireChecksums) {
  array::ArrayConfig cfg;
  cfg.arch = layout::Architecture::mirror_with_parity(3, true);
  cfg.stripes = cfg.arch.total_disks();
  cfg.content_bytes = 64;
  array::DiskArray arr(cfg);  // checksums off
  arr.initialize();
  Rng rng(7);
  // Lost/misdirected writes ARE checksum-vs-content divergences.
  EXPECT_EQ(inject_silent_corruption(arr, rng, 1,
                                     SilentCorruption::kLostWrite)
                .status()
                .code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(inject_silent_corruption(arr, rng, 1,
                                     SilentCorruption::kMisdirectedWrite)
                .status()
                .code(),
            ErrorCode::kFailedPrecondition);
  // Bit rot needs no checksum store: the plain scrub attributes it
  // through the parity row.
  auto injected =
      inject_silent_corruption(arr, rng, 2, SilentCorruption::kBitRot);
  ASSERT_TRUE(injected.is_ok());
  auto report = recon::scrub(arr);
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report.value().checksum_mismatches, 0u);  // no store to check
  EXPECT_TRUE(arr.verify_consistency(nullptr).is_ok());
}

}  // namespace
}  // namespace sma::integrity
