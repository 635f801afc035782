// Retry backoff x transient-error windows: the batch executor's bounded
// retries interact with FaultProfile's bounded interference episode.
// Whether a retry succeeds depends on *when* it re-submits — immediate
// retries can re-enter the episode and exhaust the budget, while a
// backoff long enough to outlast the episode turns the same fault into
// one retried op.
#include <gtest/gtest.h>

#include <vector>

#include "array/disk_array.hpp"
#include "obs/observer.hpp"

namespace sma::array {
namespace {

ArrayConfig base_cfg() {
  ArrayConfig cfg;
  cfg.arch = layout::Architecture::mirror(3, true);
  cfg.stripes = cfg.arch.total_disks();
  cfg.content_bytes = 64;
  cfg.logical_element_bytes = 4'000'000;
  cfg.seed = 7;
  return cfg;
}

/// Service time of one cold read of element (0, 0, 0) on this model.
double cold_read_service_s() {
  DiskArray arr(base_cfg());
  arr.initialize();
  const Op read{0, 0, 0, disk::IoKind::kRead};
  return arr.execute({&read, 1}, 0.0).end_s;
}

TEST(RetryBackoff, TransientWindowInTheFutureIsInert) {
  auto cfg = base_cfg();
  cfg.fault.transient_read_error_p = 1.0;  // certain error...
  cfg.fault.transient_from_s = 1e9;        // ...but the episode is later
  cfg.fault.seed = 3;
  DiskArray arr(cfg);
  arr.initialize();
  const Op read{0, 0, 0, disk::IoKind::kRead};
  const auto stats = arr.execute({&read, 1}, 0.0);
  EXPECT_EQ(stats.retried_ops, 0u);
  EXPECT_EQ(stats.failed_ops, 0u);
  EXPECT_EQ(stats.max_retry_depth, 0);
  EXPECT_DOUBLE_EQ(stats.end_s, cold_read_service_s());
}

TEST(RetryBackoff, ImmediateRetriesReenterTheEpisodeAndExhaust) {
  const double service = cold_read_service_s();
  auto cfg = base_cfg();
  cfg.fault.transient_read_error_p = 1.0;
  cfg.fault.transient_from_s = 0.0;
  cfg.fault.transient_until_s = 2.5 * service;  // covers all 3 attempts
  cfg.fault.seed = 3;
  ASSERT_EQ(cfg.io_max_retries, 2);  // the default budget this test counts
  DiskArray arr(cfg);
  arr.initialize();
  const Op read{0, 0, 0, disk::IoKind::kRead};
  const auto stats = arr.execute({&read, 1}, 0.0);
  // Attempt 1 starts at 0, retries re-submit as soon as the disk drains
  // — all inside the episode, so the budget burns out and the op fails.
  EXPECT_EQ(stats.retried_ops, 2u);
  EXPECT_EQ(stats.max_retry_depth, 2);
  EXPECT_EQ(stats.failed_ops, 1u);
  EXPECT_EQ(stats.unreadable_ops, 0u);
}

TEST(RetryBackoff, BackoffPushesTheRetryPastTheEpisode) {
  const double service = cold_read_service_s();
  auto cfg = base_cfg();
  cfg.fault.transient_read_error_p = 1.0;
  cfg.fault.transient_from_s = 0.0;
  cfg.fault.transient_until_s = 2.5 * service;
  cfg.fault.seed = 3;
  cfg.retry_backoff_base_s = 2.5 * service;  // first retry outlasts it
  DiskArray arr(cfg);
  arr.initialize();
  const Op read{0, 0, 0, disk::IoKind::kRead};
  const auto stats = arr.execute({&read, 1}, 0.0);
  // Same fault, same budget — but the delayed retry starts after the
  // episode ends and succeeds on the second attempt.
  EXPECT_EQ(stats.retried_ops, 1u);
  EXPECT_EQ(stats.max_retry_depth, 1);
  EXPECT_EQ(stats.failed_ops, 0u);
  // The retry could not have started before backing off past the drain.
  EXPECT_GE(stats.end_s, 2.5 * service);
}

// --- capped exponential backoff with seeded jitter -----------------------
// One always-transient disk, a 3-retry budget, and a write op pin the
// exact delay schedule: attempt k waits min(base * 2^(k-1), cap),
// shrunk by the deterministic jitter factor when configured.

BatchStats run_backoff(double base, double cap, double jitter,
                       std::uint64_t seed = 7) {
  auto cfg = base_cfg();
  cfg.seed = seed;
  cfg.fault_overrides[0].transient_write_error_p = 1.0;
  cfg.io_max_retries = 3;
  cfg.retry_backoff_base_s = base;
  cfg.retry_backoff_cap_s = cap;
  cfg.retry_backoff_jitter = jitter;
  DiskArray arr(cfg);
  std::vector<Op> ops{{0, 0, 0, disk::IoKind::kWrite}};
  return arr.execute(ops, 0.0);
}

TEST(RetryBackoff, ExponentialDelaysDoubleEachAttempt) {
  const auto immediate = run_backoff(0.0, 0.0, 0.0);
  const auto delayed = run_backoff(0.5, 0.0, 0.0);
  EXPECT_EQ(delayed.retried_ops, 3u);
  EXPECT_EQ(delayed.failed_ops, 1u);
  // Attempts wait 1x, 2x, 4x the base — exponential, not linear.
  EXPECT_NEAR(delayed.end_s, immediate.end_s + 0.5 * (1 + 2 + 4), 1e-9);
}

TEST(RetryBackoff, CapBoundsEveryDelay) {
  const auto immediate = run_backoff(0.0, 0.0, 0.0);
  const auto capped = run_backoff(0.5, 0.75, 0.0);
  // 0.5, then min(1.0, 0.75), then min(2.0, 0.75).
  EXPECT_NEAR(capped.end_s, immediate.end_s + (0.5 + 0.75 + 0.75), 1e-9);
}

TEST(RetryBackoff, JitterIsBoundedAndSeedDeterministic) {
  const auto immediate = run_backoff(0.0, 0.0, 0.0);
  const auto full = run_backoff(0.5, 0.0, 0.0);
  const auto jittered = run_backoff(0.5, 0.0, 0.5);
  // Jitter only shrinks delays, by at most the jitter fraction.
  EXPECT_LT(jittered.end_s, full.end_s);
  EXPECT_GE(jittered.end_s,
            immediate.end_s + 0.5 * (0.5 * (1 + 2 + 4)) - 1e-9);
  // Same ArrayConfig::seed, same delays — bit for bit.
  const auto replay = run_backoff(0.5, 0.0, 0.5);
  EXPECT_DOUBLE_EQ(jittered.end_s, replay.end_s);
  // A different seed draws a different jitter factor.
  const auto other = run_backoff(0.5, 0.0, 0.5, 8);
  EXPECT_NE(jittered.end_s, other.end_s);
}

TEST(RetryBackoff, MaxRetryDepthReportsTheWorstOpInTheBatch) {
  const double service = cold_read_service_s();
  auto cfg = base_cfg();
  // Only the physical disk serving (0, 0, 0) carries the episode; the
  // other ops in the batch are clean.
  disk::FaultProfile flaky;
  flaky.transient_read_error_p = 1.0;
  flaky.transient_from_s = 0.0;
  flaky.transient_until_s = 2.5 * service;
  flaky.seed = 3;
  DiskArray probe(base_cfg());
  cfg.fault_overrides[probe.physical_disk(0, 0)] = flaky;
  DiskArray arr(cfg);
  arr.initialize();
  // Same stripe => the logical->physical mapping is a permutation, so
  // the three ops land on three distinct disks.
  std::vector<Op> ops{{0, 0, 0, disk::IoKind::kRead},
                      {1, 0, 0, disk::IoKind::kRead},
                      {2, 0, 0, disk::IoKind::kRead}};
  const auto stats = arr.execute(ops, 0.0);
  // The flaky op exhausts its budget; the clean ops never retry. The
  // batch reports the deepest chain, not the sum.
  EXPECT_EQ(stats.retried_ops, 2u);
  EXPECT_EQ(stats.max_retry_depth, 2);
  EXPECT_EQ(stats.failed_ops, 1u);
}

TEST(RetryBackoff, JitterIsPerDiskSoAnObserverChangesNoDelay) {
  // Two always-transient disks, two writes each, interleaved in the
  // batch. The observed executor submits in op order and the unobserved
  // one disk by disk, so one array-wide jitter stream would hand the
  // disks different draws in the two modes; per-disk streams cannot.
  auto cfg = base_cfg();
  cfg.rotate = false;
  cfg.fault_overrides[0].transient_write_error_p = 1.0;
  cfg.fault_overrides[1].transient_write_error_p = 1.0;
  cfg.io_max_retries = 3;
  cfg.retry_backoff_base_s = 0.5;
  cfg.retry_backoff_jitter = 0.5;
  const std::vector<Op> ops{{0, 0, 0, disk::IoKind::kWrite},
                            {1, 0, 0, disk::IoKind::kWrite},
                            {0, 0, 1, disk::IoKind::kWrite},
                            {1, 0, 1, disk::IoKind::kWrite}};
  obs::TraceSink sink;
  obs::Observer observer{&sink, nullptr};
  BatchStats stats[2];
  for (const bool observed : {false, true}) {
    DiskArray arr(cfg);
    if (observed) arr.set_observer(&observer);
    stats[observed ? 1 : 0] = arr.execute(ops, 0.0);
  }
  EXPECT_GT(sink.size(), 0u);
  EXPECT_EQ(stats[0].retried_ops, 12u);
  EXPECT_EQ(stats[0].failed_ops, 4u);
  EXPECT_EQ(stats[0].end_s, stats[1].end_s);
  EXPECT_EQ(stats[0].retried_ops, stats[1].retried_ops);
  EXPECT_EQ(stats[0].failed_ops, stats[1].failed_ops);
  EXPECT_EQ(stats[0].max_retry_depth, stats[1].max_retry_depth);
  EXPECT_EQ(stats[0].max_ops_per_disk, stats[1].max_ops_per_disk);
  EXPECT_EQ(stats[0].logical_bytes_written, stats[1].logical_bytes_written);
}

}  // namespace
}  // namespace sma::array
