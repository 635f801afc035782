#include "array/disk_array.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "util/rng.hpp"

namespace sma::array {
namespace {

ArrayConfig small_config(layout::Architecture arch, int stripes = 0,
                         bool rotate = true) {
  ArrayConfig cfg;
  cfg.arch = arch;
  cfg.stripes = stripes > 0 ? stripes : arch.total_disks();
  cfg.rotate = rotate;
  cfg.content_bytes = 64;
  cfg.logical_element_bytes = 4'000'000;
  cfg.seed = 2024;
  return cfg;
}

TEST(DiskArray, InitializeAndVerifyMirrorShifted) {
  DiskArray arr(small_config(layout::Architecture::mirror(4, true)));
  arr.initialize();
  EXPECT_TRUE(arr.verify_all().is_ok());
  EXPECT_TRUE(arr.verify_consistency().is_ok());
}

TEST(DiskArray, InitializeMaterializesEveryDisk) {
  DiskArray arr(
      small_config(layout::Architecture::mirror_with_parity(4, true)));
  for (int d = 0; d < arr.physical_count(); ++d)
    EXPECT_FALSE(arr.physical(d).content_materialized()) << "disk " << d;
  arr.initialize();
  for (int d = 0; d < arr.physical_count(); ++d)
    EXPECT_TRUE(arr.physical(d).content_materialized()) << "disk " << d;
}

TEST(DiskArray, VerifyAllOnUninitializedArrayNamesTheFirstDataElement) {
  // Never-written elements read as zeros, which no data pattern is.
  const DiskArray arr(small_config(layout::Architecture::mirror(4, true)));
  const Status st = arr.verify_all();
  EXPECT_EQ(st.code(), ErrorCode::kCorruption);
  EXPECT_EQ(st.message(), "data mismatch at logical disk 0, stripe 0, row 0");
  for (int d = 0; d < arr.physical_count(); ++d)
    EXPECT_FALSE(arr.physical(d).content_materialized()) << "disk " << d;
}

TEST(DiskArray, InitializeAndVerifyMirrorParityTraditional) {
  DiskArray arr(
      small_config(layout::Architecture::mirror_with_parity(3, false)));
  arr.initialize();
  EXPECT_TRUE(arr.verify_all().is_ok());
}

TEST(DiskArray, InitializeAndVerifyRaid5) {
  DiskArray arr(small_config(layout::Architecture::raid5(4)));
  arr.initialize();
  ASSERT_NE(arr.raid_codec(), nullptr);
  EXPECT_TRUE(arr.verify_all().is_ok());
  EXPECT_TRUE(arr.verify_consistency().is_ok());
}

TEST(DiskArray, InitializeAndVerifyRaid6) {
  DiskArray arr(small_config(layout::Architecture::raid6(5)));
  arr.initialize();
  EXPECT_TRUE(arr.verify_all().is_ok());
}

TEST(DiskArray, VerifyDetectsCorruption) {
  DiskArray arr(small_config(layout::Architecture::mirror(3, true)));
  arr.initialize();
  auto elem = arr.content(1, 0, 2);
  elem[0] ^= 0xFF;
  const Status st = arr.verify_all();
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), ErrorCode::kCorruption);
  EXPECT_FALSE(arr.verify_consistency().is_ok());
}

TEST(DiskArray, MirrorCellsMatchArrangement) {
  const auto arch = layout::Architecture::mirror(5, true);
  DiskArray arr(small_config(arch));
  arr.initialize();
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) {
      const layout::Pos replica = arch.replica_of(1, i, j);
      auto data = arr.content(arch.data_disk(i), 2, j);
      auto mirror = arr.content(replica.disk, 2, replica.row);
      EXPECT_TRUE(std::equal(data.begin(), data.end(), mirror.begin()))
          << i << "," << j;
    }
  }
}

TEST(DiskArray, RotationMapsLogicalToDifferentPhysicalPerStripe) {
  DiskArray arr(small_config(layout::Architecture::mirror(3, true)));
  std::set<int> hosts;
  for (int s = 0; s < arr.stripes(); ++s) hosts.insert(arr.physical_disk(0, s));
  EXPECT_EQ(hosts.size(), static_cast<std::size_t>(arr.total_disks()));
}

TEST(DiskArray, NoRotationKeepsIdentity) {
  DiskArray arr(small_config(layout::Architecture::mirror(3, true), 6,
                             /*rotate=*/false));
  for (int s = 0; s < arr.stripes(); ++s) {
    EXPECT_EQ(arr.physical_disk(2, s), 2);
    EXPECT_EQ(arr.logical_disk(5, s), 5);
  }
}

TEST(DiskArray, RotatedContentsStillVerify) {
  // verify_all resolves content through the rotation, so a rotated
  // array must verify as cleanly as an unrotated one.
  DiskArray arr(
      small_config(layout::Architecture::mirror_with_parity(4, true)));
  arr.initialize();
  EXPECT_TRUE(arr.verify_all().is_ok());
}

TEST(DiskArray, FailPhysicalTracksFailedSet) {
  DiskArray arr(small_config(layout::Architecture::mirror(3, true)));
  arr.initialize();
  EXPECT_TRUE(arr.failed_physical().empty());
  arr.fail_physical(4);
  arr.fail_physical(1);
  EXPECT_EQ(arr.failed_physical(), (std::vector<int>{1, 4}));
}

TEST(DiskArray, VerifySkipsFailedDisks) {
  DiskArray arr(small_config(layout::Architecture::mirror(3, true)));
  arr.initialize();
  arr.fail_physical(2);  // scrambles its contents
  EXPECT_TRUE(arr.verify_all().is_ok());  // failed disk excluded
}

TEST(DiskArray, VerifyLogicalDiskChecksOneColumn) {
  DiskArray arr(
      small_config(layout::Architecture::mirror_with_parity(3, true)));
  arr.initialize();
  for (int l = 0; l < arr.total_disks(); ++l)
    EXPECT_TRUE(arr.verify_logical_disk(l).is_ok()) << l;
  // Corrupt one element of logical disk 4 (a mirror disk).
  arr.content(4, 1, 0)[3] ^= 1;
  EXPECT_FALSE(arr.verify_logical_disk(4).is_ok());
  EXPECT_TRUE(arr.verify_logical_disk(0).is_ok());
}

TEST(DiskArray, ExecuteParallelismAcrossDisks) {
  DiskArray arr(small_config(layout::Architecture::mirror(4, true)));
  arr.initialize();
  // One read on each of 4 distinct data disks: parallel, so the batch
  // takes one service time, not four.
  std::vector<Op> ops;
  for (int i = 0; i < 4; ++i) ops.push_back({i, 0, 0, disk::IoKind::kRead});
  const auto stats = arr.execute(ops, 0.0);
  EXPECT_EQ(stats.max_ops_per_disk, 1);
  const double one_read =
      arr.physical(0).spec().positioning_s() +
      arr.physical(0).spec().read_transfer_s(4'000'000);
  EXPECT_NEAR(stats.elapsed_s(), one_read, 1e-9);
  EXPECT_EQ(stats.logical_bytes_read, 4u * 4'000'000);
}

TEST(DiskArray, ExecuteSerializesOnOneDisk) {
  DiskArray arr(small_config(layout::Architecture::mirror(4, true)));
  arr.initialize();
  std::vector<Op> ops;
  for (int r = 0; r < 4; ++r) ops.push_back({2, 0, r, disk::IoKind::kRead});
  const auto stats = arr.execute(ops, 0.0);
  EXPECT_EQ(stats.max_ops_per_disk, 4);
  const auto& spec = arr.physical(0).spec();
  // First read seeks, the rest stream sequentially.
  const double expect =
      spec.positioning_s() + 4 * spec.read_transfer_s(4'000'000);
  EXPECT_NEAR(stats.elapsed_s(), expect, 1e-9);
}

TEST(DiskArray, ResetTimelinesClearsBusy) {
  DiskArray arr(small_config(layout::Architecture::mirror(3, true)));
  arr.initialize();
  std::vector<Op> ops{{0, 0, 0, disk::IoKind::kRead}};
  arr.execute(ops, 0.0);
  EXPECT_GT(arr.physical(0).busy_until(), 0.0);
  arr.reset_timelines();
  EXPECT_DOUBLE_EQ(arr.physical(0).busy_until(), 0.0);
}

TEST(DiskArray, SlotLayoutIsStripeMajor) {
  DiskArray arr(small_config(layout::Architecture::mirror(3, true)));
  EXPECT_EQ(arr.slot(0, 0), 0);
  EXPECT_EQ(arr.slot(0, 2), 2);
  EXPECT_EQ(arr.slot(1, 0), 3);
  EXPECT_EQ(arr.slot(2, 1), 7);
}

// --- golden pin over the batch executor ------------------------------------

enum class GridState { kHealthy, kFailed, kRestored, kRedirected };
enum class GridCrash { kNone, kAfterWrites, kAtTime };
enum class GridBatch { kRead, kWrite, kMixed, kEmpty };

// The disk every non-healthy state fails (and whose ops the redirected
// state serves from the hot spare), and the disk the slow and fail-stop
// profiles single out.
constexpr int kGridFailed = 1;
constexpr int kGridFaulty = 2;

ArrayConfig golden_config(const layout::Architecture& arch, GridState state,
                          int profile, int retries, bool backoff, bool drl,
                          GridCrash crash) {
  ArrayConfig cfg;
  cfg.arch = arch;
  cfg.stripes = arch.total_disks();
  cfg.content_bytes = 8;
  cfg.seed = 2012;
  cfg.spare_disks = state == GridState::kRedirected ? 1 : 0;
  cfg.io_max_retries = retries;
  if (backoff) {
    cfg.retry_backoff_base_s = 0.002;
    cfg.retry_backoff_cap_s = 0.01;
    cfg.retry_backoff_jitter = 0.5;
  }
  cfg.drl_region_stripes = drl ? 2 : 0;
  cfg.fault.seed = 7;
  switch (profile) {
    case 0:  // inert
      break;
    case 1:  // latent sectors
      cfg.fault.latent_error_rate = 0.15;
      break;
    case 2:  // transient errors inside a window
      cfg.fault.transient_read_error_p = 0.35;
      cfg.fault.transient_write_error_p = 0.35;
      cfg.fault.transient_from_s = 0.2;
      cfg.fault.transient_until_s = 1.5;
      break;
    case 3: {  // every disk slow, one disk slower
      cfg.fault.slow_factor = 1.5;
      disk::FaultProfile slower;
      slower.slow_factor = 4.0;
      cfg.fault_overrides[kGridFaulty] = slower;
      break;
    }
    default: {  // one disk fail-stops mid-sequence
      disk::FaultProfile stop;
      stop.fail_at_s = 0.3;
      cfg.fault_overrides[kGridFaulty] = stop;
      break;
    }
  }
  if (crash == GridCrash::kAfterWrites) cfg.fault.crash_after_writes = 9;
  if (crash == GridCrash::kAtTime) cfg.fault.crash_at_s = 1.0;
  return cfg;
}

// One column of a stripe in row order (sequential on its disk), then
// 2 x total_disks() ops at random elements.
std::vector<Op> golden_batch(const DiskArray& arr, Rng& rng, GridBatch kind,
                             bool redirect) {
  std::vector<Op> ops;
  if (kind == GridBatch::kEmpty) return ops;
  const auto pick = [&rng](int bound) {
    return static_cast<int>(rng.next_below(static_cast<std::uint64_t>(bound)));
  };
  const auto io = [&rng, kind] {
    if (kind == GridBatch::kMixed)
      return rng.next_bool() ? disk::IoKind::kWrite : disk::IoKind::kRead;
    return kind == GridBatch::kWrite ? disk::IoKind::kWrite
                                     : disk::IoKind::kRead;
  };
  const int column = pick(arr.total_disks());
  const int stripe = pick(arr.stripes());
  for (int row = 0; row < arr.arch().rows(); ++row)
    ops.push_back({column, stripe, row, io()});
  for (int k = 0; k < 2 * arr.total_disks(); ++k)
    ops.push_back({pick(arr.total_disks()), pick(arr.stripes()),
                   pick(arr.arch().rows()), io()});
  if (redirect)
    for (Op& op : ops)
      if (arr.physical_disk(op.logical_disk, op.stripe) == kGridFailed)
        op.redirect_phys = arr.total_disks();
  return ops;
}

// The grid's running digest and the counts it checks.
struct GridDigest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  std::uint64_t runs = 0;
  std::uint64_t batches = 0;
  std::uint64_t crashed_batches = 0;

  void fold(std::uint64_t v) { h = (h ^ v) * 0x100000001b3ull; }
  void fold_s(double s) { fold(std::bit_cast<std::uint64_t>(s)); }
};

// Time one batch on `arr` and fold what it left: every BatchStats field,
// every disk's busy_until(), failed() and DiskCounters, the dirty-region
// log, the observer's events and counters and, after a batch that
// crashed, every element's bytes.
void fold_batch(GridDigest& g, DiskArray& arr, Rng& rng, GridBatch kind,
                double start, bool redirect, obs::TraceSink& sink,
                const obs::MetricsRegistry& metrics) {
  const auto ops = golden_batch(arr, rng, kind, redirect);
  const BatchStats st = arr.execute(ops, start);
  ++g.batches;
  g.fold_s(st.start_s);
  g.fold_s(st.end_s);
  g.fold(static_cast<std::uint64_t>(st.max_ops_per_disk));
  g.fold(st.logical_bytes_read);
  g.fold(st.logical_bytes_written);
  g.fold(st.retried_ops);
  g.fold(st.failed_ops);
  g.fold(st.unreadable_ops);
  g.fold(static_cast<std::uint64_t>(st.max_retry_depth));
  g.fold(st.lost_writes);
  g.fold(st.crashed ? 1 : 0);
  for (int d = 0; d < arr.physical_count(); ++d) {
    const disk::SimDisk& sd = arr.physical(d);
    const disk::DiskCounters& c = sd.counters();
    g.fold_s(sd.busy_until());
    g.fold(sd.failed() ? 1 : 0);
    g.fold(c.reads);
    g.fold(c.writes);
    g.fold(c.sequential);
    g.fold(c.logical_bytes_read);
    g.fold(c.logical_bytes_written);
    g.fold(c.transient_errors);
    g.fold(c.unreadable_errors);
    g.fold_s(c.busy_s);
  }
  g.fold(arr.dirty_log().marks());
  for (const int r : arr.dirty_log().dirty_regions())
    g.fold(static_cast<std::uint64_t>(r));
  g.fold(sink.size());
  for (const obs::TraceEvent& ev : sink.events()) {
    g.fold(static_cast<std::uint64_t>(ev.kind));
    g.fold_s(ev.t_s);
    g.fold_s(ev.dur_s);
    g.fold(static_cast<std::uint64_t>(ev.disk));
    g.fold(static_cast<std::uint64_t>(ev.slot));
    g.fold(static_cast<std::uint64_t>(ev.stripe));
    g.fold(ev.write ? 1 : 0);
  }
  sink.clear();
  for (const auto& [name, value] : metrics.counters()) g.fold(value);
  if (!st.crashed) return;
  ++g.crashed_batches;
  g.fold_s(arr.crash_time_s());
  for (int d = 0; d < arr.physical_count(); ++d) {
    const disk::SimDisk& sd = arr.physical(d);
    for (std::int64_t sl = 0; sl < sd.slot_count(); ++sl)
      for (const std::uint8_t b : sd.content(sl)) g.fold(b);
  }
}

// One array of the grid: put it in `state`, run read, write, mixed and
// empty batches at start_time 0 and then at later starts (some still
// queued behind earlier batches) and, after a crash, power-cycle it and
// run one more batch.
void fold_grid_array(GridDigest& g, const layout::Architecture& arch,
                     GridState state, int profile, int retries, bool backoff,
                     bool drl, GridCrash crash, bool observed) {
  const ArrayConfig cfg =
      golden_config(arch, state, profile, retries, backoff, drl, crash);
  const std::pair<GridBatch, double> sequence[] = {
      {GridBatch::kRead, 0.0},  {GridBatch::kWrite, 0.0},
      {GridBatch::kMixed, 0.0}, {GridBatch::kEmpty, 0.0},
      {GridBatch::kRead, 0.5},  {GridBatch::kWrite, 1.2},
      {GridBatch::kEmpty, 2.0}, {GridBatch::kMixed, 4.0}};
  obs::TraceSink sink;
  obs::MetricsRegistry metrics;
  obs::Observer ob;
  ob.trace = &sink;
  ob.metrics = &metrics;
  DiskArray arr(cfg);
  arr.initialize();
  if (state != GridState::kHealthy) arr.fail_physical(kGridFailed);
  if (state == GridState::kRestored) {
    const std::vector<std::uint8_t> bytes(cfg.content_bytes, 0x5A);
    for (int s = 0; s < arr.stripes(); ++s)
      for (int j = 0; j < arch.rows(); ++j)
        if ((s + j) % 2 == 0)
          arr.restore_element(arr.logical_disk(kGridFailed, s), s, j, bytes);
  }
  if (observed) arr.set_observer(&ob);
  Rng rng(++g.runs);
  const bool redirect = state == GridState::kRedirected;
  for (const auto& [kind, start] : sequence)
    fold_batch(g, arr, rng, kind, start, redirect, sink, metrics);
  if (arr.crashed()) {
    ASSERT_TRUE(arr.power_cycle().is_ok());
    fold_batch(g, arr, rng, GridBatch::kMixed, 0.0, redirect, sink, metrics);
  }
}

TEST(ArrayGolden, ExecuteDigestOverBatchGrid) {
  // Every batch DiskArray::execute times over mirror, mirror+parity,
  // R = 2, RAID-5 and RAID-6 arrays x {healthy, one failed disk, half
  // its slots restored, its ops redirected to a hot spare} x {inert,
  // latent, transient-window, slow, scheduled fail-stop} x
  // io_max_retries {0, 2} x backoff {off, on} x observer {off, on} x
  // DRL {off, on} x crash point {none, op-indexed, time-indexed}, folded
  // into one value (fold_batch). Recorded from the executor that timed
  // uninstrumented batches in one grouped pass per disk and everything
  // else op by op, so it pins both.
  const layout::Architecture archs[] = {
      layout::Architecture::mirror(4, true),
      layout::Architecture::mirror_with_parity(4, true),
      layout::Architecture::mirror_named(4, "shifted", 2).value(),
      layout::Architecture::raid5(4), layout::Architecture::raid6(4)};
  const GridState states[] = {GridState::kHealthy, GridState::kFailed,
                              GridState::kRestored, GridState::kRedirected};
  const GridCrash crashes[] = {GridCrash::kNone, GridCrash::kAfterWrites,
                               GridCrash::kAtTime};
  GridDigest g;
  for (const auto& arch : archs)
    for (const GridState state : states)
      for (int profile = 0; profile < 5; ++profile)
        for (const int retries : {0, 2})
          for (const bool backoff : {false, true})
            for (const bool observed : {false, true})
              for (const bool drl : {false, true})
                for (const GridCrash crash : crashes)
                  fold_grid_array(g, arch, state, profile, retries, backoff,
                                  drl, crash, observed);
  EXPECT_EQ(g.runs, 4800u);
  EXPECT_EQ(g.batches, 41600u);
  EXPECT_EQ(g.crashed_batches, 12121u);
  EXPECT_EQ(g.h, 0x390b070114f1d99full) << std::hex << g.h;
}

}  // namespace
}  // namespace sma::array
