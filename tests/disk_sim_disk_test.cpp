#include "disk/sim_disk.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "obs/observer.hpp"

namespace sma::disk {
namespace {

DiskSpec flat_spec() {
  // Simple numbers for hand-checkable math: 1 MB/s read & write,
  // positioning exactly 10 ms.
  DiskSpec s;
  s.read_mbps = 1.0;
  s.write_mbps = 1.0;
  s.avg_seek_s = 9e-3;
  s.rpm = 0;
  s.command_overhead_s = 1e-3;
  return s;
}

TEST(SimDisk, FirstAccessPaysPositioning) {
  SimDisk d(0, flat_spec(), 10, 16, 1'000'000);
  // transfer = 1 s; positioning = 10 ms.
  const double done = d.submit_ok(IoKind::kRead, 0, 0.0);
  EXPECT_NEAR(done, 1.010, 1e-9);
  EXPECT_EQ(d.counters().reads, 1u);
  EXPECT_EQ(d.counters().sequential, 0u);
}

TEST(SimDisk, SequentialContinuationSkipsPositioning) {
  SimDisk d(0, flat_spec(), 10, 16, 1'000'000);
  d.submit_ok(IoKind::kRead, 3, 0.0);
  const double done = d.submit_ok(IoKind::kRead, 4, 0.0);
  EXPECT_NEAR(done, 1.010 + 1.0, 1e-9);
  EXPECT_EQ(d.counters().sequential, 1u);
}

TEST(SimDisk, NonAdjacentSlotSeeksAgain) {
  SimDisk d(0, flat_spec(), 10, 16, 1'000'000);
  d.submit_ok(IoKind::kRead, 3, 0.0);
  const double done = d.submit_ok(IoKind::kRead, 7, 0.0);
  EXPECT_NEAR(done, 2 * 1.010, 1e-9);
  // Backward movement seeks too.
  const double done2 = d.submit_ok(IoKind::kRead, 6, 0.0);
  EXPECT_NEAR(done2, 3 * 1.010, 1e-9);
}

TEST(SimDisk, EarliestStartDelaysService) {
  SimDisk d(0, flat_spec(), 10, 16, 1'000'000);
  const double done = d.submit_ok(IoKind::kRead, 0, 5.0);
  EXPECT_NEAR(done, 6.010, 1e-9);
}

TEST(SimDisk, QueueingBehindPriorIo) {
  SimDisk d(0, flat_spec(), 10, 16, 1'000'000);
  d.submit_ok(IoKind::kRead, 0, 0.0);  // done at 1.010
  // Requested at t=0 but must wait; continues sequentially.
  const double done = d.submit_ok(IoKind::kRead, 1, 0.0);
  EXPECT_NEAR(done, 2.010, 1e-9);
}

TEST(SimDisk, WriteUsesWriteRate) {
  DiskSpec s = flat_spec();
  s.write_mbps = 2.0;  // writes twice as fast
  SimDisk d(0, s, 10, 16, 1'000'000);
  const double done = d.submit_ok(IoKind::kWrite, 0, 0.0);
  EXPECT_NEAR(done, 0.510, 1e-9);
  EXPECT_EQ(d.counters().writes, 1u);
  EXPECT_EQ(d.counters().logical_bytes_written, 1'000'000u);
}

TEST(SimDisk, PeekDoesNotMutate) {
  SimDisk d(0, flat_spec(), 10, 16, 1'000'000);
  const double est = d.peek_service_s(IoKind::kRead, 5);
  EXPECT_NEAR(est, 1.010, 1e-9);
  EXPECT_EQ(d.counters().reads, 0u);
  EXPECT_DOUBLE_EQ(d.busy_until(), 0.0);
}

TEST(SimDisk, ResetTimelineForgetsHeadPosition) {
  SimDisk d(0, flat_spec(), 10, 16, 1'000'000);
  d.submit_ok(IoKind::kRead, 4, 0.0);
  d.reset_timeline();
  EXPECT_DOUBLE_EQ(d.busy_until(), 0.0);
  // Slot 5 would have been sequential; after reset it seeks.
  const double done = d.submit_ok(IoKind::kRead, 5, 0.0);
  EXPECT_NEAR(done, 1.010, 1e-9);
}

TEST(SimDisk, ResetCountersZeroesStats) {
  SimDisk d(0, flat_spec(), 10, 16, 1'000'000);
  d.submit_ok(IoKind::kRead, 0, 0.0);
  d.reset_counters();
  EXPECT_EQ(d.counters().reads, 0u);
  EXPECT_DOUBLE_EQ(d.counters().busy_s, 0.0);
}

TEST(SimDisk, ContentIsPerSlotAndPersistent) {
  SimDisk d(0, flat_spec(), 4, 8, 1'000'000);
  auto s0 = d.content(0);
  auto s3 = d.content(3);
  std::fill(s0.begin(), s0.end(), 0x11);
  std::fill(s3.begin(), s3.end(), 0x33);
  EXPECT_EQ(d.content(0)[7], 0x11);
  EXPECT_EQ(d.content(3)[0], 0x33);
  EXPECT_EQ(d.content(1)[0], 0x00);  // untouched slots zero-initialized
}

TEST(SimDisk, FailScramblesContentAndHealRestoresService) {
  SimDisk d(0, flat_spec(), 2, 8, 1'000'000);
  auto s = d.content(0);
  std::fill(s.begin(), s.end(), 0x42);
  d.fail();
  EXPECT_TRUE(d.failed());
  EXPECT_NE(d.content(0)[0], 0x42);  // data gone
  // heal() requires every slot restored first.
  const std::vector<std::uint8_t> bytes(8, 0x42);
  d.restore_content(0, bytes);
  EXPECT_FALSE(d.fully_restored());
  d.restore_content(1, bytes);
  EXPECT_TRUE(d.fully_restored());
  ASSERT_TRUE(d.heal().is_ok());
  EXPECT_FALSE(d.failed());
  EXPECT_EQ(d.content(0)[0], 0x42);  // restored, not scramble pattern
  d.submit_ok(IoKind::kWrite, 0, 0.0);  // usable again
  EXPECT_EQ(d.counters().writes, 1u);
}

// --- lazy element store ---------------------------------------------

bool all_bytes(std::span<const std::uint8_t> bytes, std::uint8_t v) {
  return std::all_of(bytes.begin(), bytes.end(),
                     [v](std::uint8_t b) { return b == v; });
}

TEST(SimDisk, UntouchedDiskReadsZerosWithoutMaterializing) {
  const SimDisk d(0, flat_spec(), 64, 16, 1'000'000);
  EXPECT_FALSE(d.content_materialized());
  for (std::int64_t s = 0; s < d.slot_count(); ++s) {
    ASSERT_EQ(d.content(s).size(), 16u);
    EXPECT_TRUE(all_bytes(d.content(s), 0x00)) << "slot " << s;
  }
  EXPECT_FALSE(d.content_materialized());
}

TEST(SimDisk, TimingLeavesTheStoreUnmaterialized) {
  SimDisk d(0, flat_spec(), 8, 16, 1'000'000);
  d.submit_ok(IoKind::kWrite, 3, 0.0);
  d.submit_ok(IoKind::kRead, 4, 0.0);
  const RunAccess run[] = {{IoKind::kRead, 5}, {IoKind::kWrite, 6}};
  d.submit_run(run, 0.0);
  EXPECT_FALSE(d.content_materialized());
}

TEST(SimDisk, FailOnUntouchedDiskScramblesEverySlot) {
  SimDisk d(0, flat_spec(), 32, 16, 1'000'000);
  d.fail();
  EXPECT_FALSE(d.content_materialized());
  const SimDisk& cd = d;
  for (std::int64_t s = 0; s < d.slot_count(); ++s)
    EXPECT_TRUE(all_bytes(cd.content(s), 0xDB)) << "slot " << s;
  // The mutable overload materializes the scramble, not zeros.
  for (std::int64_t s = 0; s < d.slot_count(); ++s)
    EXPECT_TRUE(all_bytes(d.content(s), 0xDB)) << "slot " << s;
  EXPECT_TRUE(d.content_materialized());
}

TEST(SimDisk, RestoreEverySlotThenHealOnUntouchedDisk) {
  SimDisk d(0, flat_spec(), 16, 8, 1'000'000);
  d.fail();
  for (std::int64_t s = 0; s < d.slot_count(); ++s) {
    const std::vector<std::uint8_t> bytes(8, static_cast<std::uint8_t>(s + 1));
    d.restore_content(s, bytes);
  }
  EXPECT_TRUE(d.content_materialized());
  ASSERT_TRUE(d.heal().is_ok());
  const SimDisk& cd = d;
  for (std::int64_t s = 0; s < d.slot_count(); ++s)
    EXPECT_TRUE(all_bytes(cd.content(s), static_cast<std::uint8_t>(s + 1)))
        << "slot " << s;
}

TEST(SimDisk, FirstMutableAccessMaterializesExactlyOnce) {
  SimDisk d(0, flat_spec(), 16, 8, 1'000'000);
  EXPECT_FALSE(d.content_materialized());
  const std::uint8_t* base = d.content(0).data();
  EXPECT_TRUE(d.content_materialized());
  // Later mutable accesses, restores and a fail() reuse the store: no
  // slot moves again.
  for (std::int64_t s = 0; s < d.slot_count(); ++s)
    EXPECT_EQ(d.content(s).data(), base + s * 8);
  d.fail();
  const std::vector<std::uint8_t> bytes(8, 0x5A);
  d.restore_content(7, bytes);
  EXPECT_EQ(d.content(0).data(), base);
  const SimDisk& cd = d;
  EXPECT_EQ(cd.content(7).data(), base + 7 * 8);
}

TEST(SimDisk, OneSlotDiskIsMaterializedFromTheStart) {
  const SimDisk d(0, flat_spec(), 1, 8, 1'000'000);
  EXPECT_TRUE(d.content_materialized());
  EXPECT_TRUE(all_bytes(d.content(0), 0x00));
}

TEST(SimDisk, ConcurrentConstReadsOfUntouchedDisk) {
  const SimDisk d(0, flat_spec(), 256, 32, 1'000'000);
  std::vector<int> zero_slots(4, 0);
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < zero_slots.size(); ++t)
    readers.emplace_back([&d, &zero_slots, t] {
      for (std::int64_t s = 0; s < d.slot_count(); ++s)
        zero_slots[t] += all_bytes(d.content(s), 0x00) ? 1 : 0;
    });
  for (auto& r : readers) r.join();
  for (const int n : zero_slots) EXPECT_EQ(n, 256);
  EXPECT_FALSE(d.content_materialized());
}

TEST(SimDisk, TraceDisabledByDefault) {
  // A fresh disk has no sink to emit service spans to, and keeps the
  // batched fast path until an observer is attached.
  SimDisk d(0, flat_spec(), 10, 16, 1'000'000);
  d.submit_ok(IoKind::kRead, 0, 0.0);
  EXPECT_EQ(d.observer(), nullptr);
  EXPECT_TRUE(d.can_batch());
  obs::TraceSink sink;
  obs::Observer ob;
  ob.trace = &sink;
  d.set_observer(&ob);
  EXPECT_FALSE(d.can_batch());
}

TEST(SimDisk, TraceRecordsOpsInOrder) {
  SimDisk d(0, flat_spec(), 10, 16, 1'000'000);
  obs::TraceSink sink;
  obs::Observer ob;
  ob.trace = &sink;
  d.set_observer(&ob);
  d.submit_ok(IoKind::kRead, 3, 0.0);
  EXPECT_EQ(d.counters().sequential, 0u);  // the first access seeks
  d.submit_ok(IoKind::kRead, 4, 0.0);
  EXPECT_EQ(d.counters().sequential, 1u);  // the next slot follows on
  d.submit_ok(IoKind::kWrite, 0, 0.0);
  EXPECT_EQ(d.counters().sequential, 1u);
  std::vector<obs::TraceEvent> spans;
  for (const obs::TraceEvent& ev : sink.events())
    if (ev.kind == obs::EventKind::kServiceStart) spans.push_back(ev);
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].slot, 3);
  EXPECT_NEAR(spans[0].t_s, 0.0, 1e-12);
  EXPECT_NEAR(spans[0].t_s + spans[0].dur_s, 1.010, 1e-9);
  EXPECT_EQ(spans[1].slot, 4);
  EXPECT_NEAR(spans[1].dur_s, 1.0, 1e-9);  // transfer only, no seek
  EXPECT_TRUE(spans[2].write);
  // Ops on one disk never overlap in time.
  for (std::size_t i = 1; i < spans.size(); ++i)
    EXPECT_GE(spans[i].t_s, spans[i - 1].t_s + spans[i - 1].dur_s - 1e-12);
}

TEST(SimDisk, BusyTimeAccumulates) {
  SimDisk d(0, flat_spec(), 10, 16, 1'000'000);
  d.submit_ok(IoKind::kRead, 0, 0.0);
  d.submit_ok(IoKind::kRead, 1, 0.0);
  EXPECT_NEAR(d.counters().busy_s, 1.010 + 1.0, 1e-9);
}

// --- fault injection -----------------------------------------------------

TEST(SimDiskFaults, SubmitToFailedDiskReturnsStatusNotAbort) {
  SimDisk d(0, flat_spec(), 4, 16, 1000);
  d.fail();
  const IoResult res = d.submit(IoKind::kRead, 0, 0.0);
  ASSERT_FALSE(res.is_ok());
  EXPECT_EQ(res.status().code(), ErrorCode::kIoError);
}

TEST(SimDiskFaults, OutOfRangeSlotReturnsStatusNotAbort) {
  SimDisk d(0, flat_spec(), 4, 16, 1000);
  const IoResult low = d.submit(IoKind::kRead, -1, 0.0);
  ASSERT_FALSE(low.is_ok());
  EXPECT_EQ(low.status().code(), ErrorCode::kOutOfRange);
  const IoResult high = d.submit(IoKind::kRead, 4, 0.0);
  ASSERT_FALSE(high.is_ok());
  EXPECT_EQ(high.status().code(), ErrorCode::kOutOfRange);
  // Rejected ops never touch the timeline or counters.
  EXPECT_DOUBLE_EQ(d.busy_until(), 0.0);
  EXPECT_EQ(d.counters().reads, 0u);
}

TEST(SimDiskFaults, InertProfileChangesNothing) {
  SimDisk plain(0, flat_spec(), 10, 16, 1'000'000);
  SimDisk faulted(0, flat_spec(), 10, 16, 1'000'000);
  faulted.set_fault_profile(FaultProfile{});  // inert
  EXPECT_EQ(faulted.latent_slot_count(), 0);
  for (int i = 0; i < 6; ++i) {
    const double a = plain.submit_ok(IoKind::kRead, i, 0.0);
    const double b = faulted.submit_ok(IoKind::kRead, i, 0.0);
    EXPECT_EQ(a, b);  // bit-identical timing
  }
}

TEST(SimDiskFaults, LatentSlotsAreDeterministicAndUnreadable) {
  FaultProfile p;
  p.latent_error_rate = 0.3;
  p.seed = 17;
  SimDisk d(3, flat_spec(), 100, 16, 1000);
  d.set_fault_profile(p);
  SimDisk d2(3, flat_spec(), 100, 16, 1000);
  d2.set_fault_profile(p);
  ASSERT_GT(d.latent_slot_count(), 0);
  EXPECT_EQ(d.latent_slot_count(), d2.latent_slot_count());
  for (std::int64_t s = 0; s < 100; ++s)
    EXPECT_EQ(d.slot_unreadable(s), d2.slot_unreadable(s));

  std::int64_t latent = -1;
  for (std::int64_t s = 0; s < 100; ++s)
    if (d.slot_unreadable(s)) { latent = s; break; }
  ASSERT_GE(latent, 0);
  const IoResult res = d.submit(IoKind::kRead, latent, 0.0);
  ASSERT_FALSE(res.is_ok());
  EXPECT_EQ(res.status().code(), ErrorCode::kUnreadableSector);
  // The failed attempt still occupied the disk.
  EXPECT_GT(d.busy_until(), 0.0);
  EXPECT_EQ(d.counters().unreadable_errors, 1u);
  // A successful write remaps the sector; the slot reads fine after.
  d.submit_ok(IoKind::kWrite, latent, 0.0);
  EXPECT_FALSE(d.slot_unreadable(latent));
  EXPECT_TRUE(d.submit(IoKind::kRead, latent, 0.0).is_ok());
}

TEST(SimDiskFaults, TransientErrorsRetrySucceedEventually) {
  FaultProfile p;
  p.transient_read_error_p = 0.5;
  p.seed = 5;
  SimDisk d(0, flat_spec(), 10, 16, 1000);
  d.set_fault_profile(p);
  int errors = 0;
  int successes = 0;
  for (int i = 0; i < 200; ++i) {
    const IoResult res = d.submit(IoKind::kRead, i % 10, 0.0);
    if (res.is_ok()) {
      ++successes;
    } else {
      ++errors;
      EXPECT_EQ(res.status().code(), ErrorCode::kIoError);
    }
  }
  EXPECT_GT(errors, 0);
  EXPECT_GT(successes, 0);
  EXPECT_EQ(d.counters().transient_errors, static_cast<std::uint64_t>(errors));
}

TEST(SimDiskFaults, SlowFactorStretchesService) {
  FaultProfile p;
  p.slow_factor = 2.0;
  SimDisk d(0, flat_spec(), 10, 16, 1'000'000);
  d.set_fault_profile(p);
  const double done = d.submit_ok(IoKind::kRead, 0, 0.0);
  EXPECT_NEAR(done, 2 * 1.010, 1e-9);
  EXPECT_NEAR(d.peek_service_s(IoKind::kRead, 5), 2 * 1.010, 1e-9);
}

TEST(SimDiskFaults, ScheduledFailStopKillsOnFirstAccessAtOrAfter) {
  FaultProfile p;
  p.fail_at_s = 1.5;
  SimDisk d(0, flat_spec(), 10, 16, 1'000'000);
  d.set_fault_profile(p);
  // Starts at t=0 < 1.5: served normally (completes past the deadline).
  EXPECT_TRUE(d.submit(IoKind::kRead, 0, 0.0).is_ok());
  // Next op starts at busy_until() = 1.010 < 1.5: still served.
  EXPECT_TRUE(d.submit(IoKind::kRead, 1, 0.0).is_ok());
  // Now busy_until() = 2.010 >= 1.5: the fail-stop manifests.
  const IoResult res = d.submit(IoKind::kRead, 2, 0.0);
  ASSERT_FALSE(res.is_ok());
  EXPECT_EQ(res.status().code(), ErrorCode::kIoError);
  EXPECT_TRUE(d.failed());
}

TEST(SimDiskFaults, HealDiscardsLatentSetAndConsumedFailStop) {
  FaultProfile p;
  p.latent_error_rate = 0.5;
  p.fail_at_s = 100.0;
  p.seed = 9;
  SimDisk d(0, flat_spec(), 20, 8, 1000);
  d.set_fault_profile(p);
  ASSERT_GT(d.latent_slot_count(), 0);
  d.fail();
  const std::vector<std::uint8_t> bytes(8, 0xAA);
  for (std::int64_t s = 0; s < 20; ++s) d.restore_content(s, bytes);
  ASSERT_TRUE(d.heal().is_ok());
  // Replacement hardware: no latent sectors, no pending fail-stop.
  EXPECT_EQ(d.latent_slot_count(), 0);
  EXPECT_TRUE(d.submit(IoKind::kRead, 0, 200.0).is_ok());
}

TEST(SimDisk, HealMisuseReturnsStatus) {
  SimDisk d(0, flat_spec(), 2, 8, 1'000'000);
  // Healing a disk that never failed is a recoverable error, not an
  // abort: the repair orchestrator reports it up as a Status.
  Status never_failed = d.heal();
  ASSERT_FALSE(never_failed.is_ok());
  EXPECT_EQ(never_failed.code(), ErrorCode::kFailedPrecondition);
  d.fail();
  const std::vector<std::uint8_t> bytes(8, 0x5A);
  d.restore_content(0, bytes);  // slot 1 never restored
  Status partial = d.heal();
  ASSERT_FALSE(partial.is_ok());
  EXPECT_EQ(partial.code(), ErrorCode::kFailedPrecondition);
  EXPECT_TRUE(d.failed());  // the failed state is untouched by the misuse
  d.restore_content(1, bytes);
  EXPECT_TRUE(d.heal().is_ok());
  EXPECT_FALSE(d.failed());
}

TEST(SimDisk, RestoredSlotsServeOnFailedDisk) {
  SimDisk d(0, flat_spec(), 2, 8, 1'000'000);
  d.fail();
  const std::vector<std::uint8_t> bytes(8, 0x5A);
  d.restore_content(0, bytes);
  EXPECT_TRUE(d.slot_restored(0));
  // The replacement serves rebuilt slots mid-rebuild — reads for a
  // resumed rebuild and the replacement writes themselves.
  EXPECT_TRUE(d.submit(IoKind::kRead, 0, 0.0).is_ok());
  EXPECT_TRUE(d.submit(IoKind::kWrite, 0, 0.0).is_ok());
  // Everything not yet restored is still dead.
  const IoResult unrestored = d.submit(IoKind::kRead, 1, 0.0);
  ASSERT_FALSE(unrestored.is_ok());
  EXPECT_EQ(unrestored.status().code(), ErrorCode::kIoError);
}

TEST(SimDiskFaults, FailStopAtTimeZeroKillsFirstAccess) {
  FaultProfile p;
  p.fail_at_s = 0.0;
  SimDisk d(0, flat_spec(), 10, 16, 1'000'000);
  d.set_fault_profile(p);
  // Every access starts at t >= 0: the very first one fail-stops.
  const IoResult res = d.submit(IoKind::kRead, 0, 0.0);
  ASSERT_FALSE(res.is_ok());
  EXPECT_EQ(res.status().code(), ErrorCode::kIoError);
  EXPECT_TRUE(d.failed());
  EXPECT_EQ(d.counters().reads, 0u);  // died before serving anything
}

}  // namespace
}  // namespace sma::disk
