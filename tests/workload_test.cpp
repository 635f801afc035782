#include "workload/write_executor.hpp"
#include "workload/write_workload.hpp"

#include <gtest/gtest.h>

namespace sma::workload {
namespace {

array::ArrayConfig cfg_for(layout::Architecture arch, int stacks = 1) {
  array::ArrayConfig cfg;
  cfg.arch = arch;
  cfg.stripes = stacks * arch.total_disks();
  cfg.content_bytes = 64;
  cfg.logical_element_bytes = 4'000'000;
  cfg.seed = 77;
  return cfg;
}

TEST(WriteWorkload, CountsAndBounds) {
  array::DiskArray arr(cfg_for(layout::Architecture::mirror(4, true)));
  WriteWorkloadConfig cfg;
  cfg.arrival.max_requests = 500;
  const auto reqs = generate_large_writes(arr, cfg);
  EXPECT_EQ(reqs.size(), 500u);
  const std::int64_t total = data_element_count(arr);
  const int stripe_elems = 16;
  for (const auto& r : reqs) {
    EXPECT_GE(r.length, 1);
    EXPECT_LE(r.length, stripe_elems);
    EXPECT_GE(r.start, 0);
    EXPECT_LE(r.start + r.length, total);
  }
}

TEST(WriteWorkload, DeterministicBySeed) {
  array::DiskArray arr(cfg_for(layout::Architecture::mirror(3, true)));
  WriteWorkloadConfig cfg;
  cfg.arrival.max_requests = 50;
  cfg.arrival.seed = 42;
  const auto a = generate_large_writes(arr, cfg);
  const auto b = generate_large_writes(arr, cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start, b[i].start);
    EXPECT_EQ(a[i].length, b[i].length);
  }
}

TEST(WriteWorkload, DataElementCount) {
  array::DiskArray arr(cfg_for(layout::Architecture::mirror(3, true)));
  // stripes = 6 (one stack), rows = 3, n = 3.
  EXPECT_EQ(data_element_count(arr), 6 * 3 * 3);
}

TEST(WriteExecutor, FullRowWriteIsOneAccessNoReads) {
  array::DiskArray arr(cfg_for(layout::Architecture::mirror(3, true)));
  arr.initialize();
  // One full row: start at element 0, length n.
  const std::vector<WriteRequest> reqs{{0, 3}};
  const auto report = run_write_workload(arr, reqs);
  EXPECT_EQ(report.bytes_read, 0u);
  EXPECT_EQ(report.rows_written, 1u);
  EXPECT_EQ(report.write_accesses, 1u);  // Property 3 at work
  EXPECT_EQ(report.user_bytes, 3u * 4'000'000);
  // data + mirror copies.
  EXPECT_EQ(report.bytes_written, 6u * 4'000'000);
}

TEST(WriteExecutor, FullRowWithParityAddsParityWriteOnly) {
  array::DiskArray arr(
      cfg_for(layout::Architecture::mirror_with_parity(3, true)));
  arr.initialize();
  const std::vector<WriteRequest> reqs{{0, 3}};
  const auto report = run_write_workload(arr, reqs);
  EXPECT_EQ(report.bytes_read, 0u);  // reconstruct-write on a full row
  // 3 data + 3 mirror + parity.
  EXPECT_EQ(report.bytes_written, 7u * 4'000'000);
}

TEST(WriteExecutor, SmallWritePartialRowReadsForParity) {
  array::DiskArray arr(
      cfg_for(layout::Architecture::mirror_with_parity(5, true)));
  arr.initialize();
  // Single element: RMW (2 reads: old data + old parity) beats
  // reconstruct (4 reads).
  const std::vector<WriteRequest> reqs{{0, 1}};
  const auto report = run_write_workload(arr, reqs);
  EXPECT_EQ(report.bytes_read, 2u * 4'000'000);
  EXPECT_EQ(report.bytes_written, 3u * 4'000'000);  // data + mirror + parity
}

TEST(WriteExecutor, NearFullRowUsesReconstructWrite) {
  array::DiskArray arr(
      cfg_for(layout::Architecture::mirror_with_parity(5, true)));
  arr.initialize();
  // 4 of 5 elements: reconstruct (1 read) beats RMW (5 reads).
  const std::vector<WriteRequest> reqs{{0, 4}};
  const auto report = run_write_workload(arr, reqs);
  EXPECT_EQ(report.bytes_read, 1u * 4'000'000);
}

TEST(WriteExecutor, MultiRowRequestSpansRows) {
  array::DiskArray arr(cfg_for(layout::Architecture::mirror(3, true)));
  arr.initialize();
  // 7 elements starting at 1: rows (0:1..2), (1:0..2), (2:0..1).
  const std::vector<WriteRequest> reqs{{1, 7}};
  const auto report = run_write_workload(arr, reqs);
  EXPECT_EQ(report.rows_written, 3u);
  EXPECT_EQ(report.user_bytes, 7u * 4'000'000);
}

TEST(WriteExecutor, RequestCrossingStripeBoundary) {
  array::DiskArray arr(cfg_for(layout::Architecture::mirror(3, true)));
  arr.initialize();
  // Start in stripe 0's last row, extend into stripe 1.
  const std::vector<WriteRequest> reqs{{8, 2}};  // element 8 = (s0, row2, d2)
  const auto report = run_write_workload(arr, reqs);
  EXPECT_EQ(report.rows_written, 2u);
  EXPECT_EQ(report.user_bytes, 2u * 4'000'000);
}

TEST(WriteExecutor, ShiftedAndTraditionalWriteNearIdenticalAccessCounts) {
  // Paper Section VI-C: the shifted arrangement preserves optimal write
  // access counts. Exactly equal on full-row writes (Property 3); for
  // partial multi-row requests two rows' partial segments can land two
  // replicas on one mirror disk, so allow a small (<5%) difference.
  WriteWorkloadConfig wcfg;
  wcfg.arrival.max_requests = 200;
  std::uint64_t accesses[2];
  for (const bool shifted : {false, true}) {
    array::DiskArray arr(
        cfg_for(layout::Architecture::mirror_with_parity(4, shifted)));
    arr.initialize();
    const auto reqs = generate_large_writes(arr, wcfg);
    const auto report = run_write_workload(arr, reqs);
    accesses[shifted ? 1 : 0] = report.write_accesses;
  }
  const double ratio =
      static_cast<double>(accesses[1]) / static_cast<double>(accesses[0]);
  EXPECT_GE(ratio, 0.95);
  EXPECT_LE(ratio, 1.05);
}

TEST(WriteExecutor, FullRowWritesIdenticalAccessCountsBothArrangements) {
  // Pure row-aligned large writes: exact equality (each row is one
  // parallel write access under both arrangements).
  for (const bool shifted : {false, true}) {
    array::DiskArray arr(
        cfg_for(layout::Architecture::mirror_with_parity(4, shifted)));
    arr.initialize();
    std::vector<WriteRequest> reqs;
    for (int r = 0; r < 12; ++r) reqs.push_back({r * 4, 4});  // full rows
    const auto report = run_write_workload(arr, reqs);
    EXPECT_EQ(report.write_accesses, 12u) << "shifted=" << shifted;
    EXPECT_EQ(report.bytes_read, 0u);
  }
}

TEST(WriteExecutor, ThroughputComparableBetweenArrangements) {
  WriteWorkloadConfig wcfg;
  wcfg.arrival.max_requests = 300;
  double mbps[2];
  for (const bool shifted : {false, true}) {
    array::DiskArray arr(cfg_for(layout::Architecture::mirror(5, shifted)));
    arr.initialize();
    const auto reqs = generate_large_writes(arr, wcfg);
    mbps[shifted ? 1 : 0] =
        run_write_workload(arr, reqs).write_throughput_mbps();
  }
  // "compatible write efficiency": within 25% of each other.
  EXPECT_NEAR(mbps[1] / mbps[0], 1.0, 0.25);
}

TEST(WriteExecutor, EmptyWorkloadZeroReport) {
  array::DiskArray arr(cfg_for(layout::Architecture::mirror(3, true)));
  arr.initialize();
  const auto report = run_write_workload(arr, {});
  EXPECT_DOUBLE_EQ(report.makespan_s, 0.0);
  EXPECT_EQ(report.user_bytes, 0u);
  EXPECT_DOUBLE_EQ(report.write_throughput_mbps(), 0.0);
}

}  // namespace
}  // namespace sma::workload
