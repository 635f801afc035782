// R >= 2 replica arrays (the three-mirror method at R = 2) through the
// one mirror stack: layout::Architecture, recon::plan_reconstruction,
// recon::reconstruct, workload::run_degraded_reads,
// recon::run_online_reconstruction, and the integrity layer
// (recon::scrub, integrity::resync, the crash workload, the injectors).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <set>

#include "array/disk_array.hpp"
#include "chaos/oracle.hpp"
#include "fleet/timeline.hpp"
#include "integrity/crash_workload.hpp"
#include "integrity/resync.hpp"
#include "recon/analytic.hpp"
#include "recon/executor.hpp"
#include "recon/failure.hpp"
#include "recon/online.hpp"
#include "recon/plan.hpp"
#include "recon/reliability.hpp"
#include "recon/scrub.hpp"
#include "recon/sweeps.hpp"
#include "reference_oracle.hpp"
#include "repair/lifecycle.hpp"
#include "repair/lifetime.hpp"
#include "repair/orchestrator.hpp"
#include "util/thread_pool.hpp"
#include "workload/degraded_read.hpp"
#include "workload/write_executor.hpp"
#include "workload/write_workload.hpp"

namespace sma {
namespace {

using layout::Architecture;
using layout::Pos;

Architecture make(int n, int replicas, bool shifted) {
  auto a = Architecture::mirror_named(n, shifted ? "shifted" : "traditional",
                                      replicas);
  EXPECT_TRUE(a.is_ok()) << a.status().to_string();
  return std::move(a).take();
}

int phi(int n) {
  int count = 0;
  for (int c = 1; c <= n; ++c) {
    int a = c;
    int b = n;
    while (b != 0) {
      const int t = a % b;
      a = b;
      b = t;
    }
    if (a == 1) ++count;
  }
  return count;
}

/// Calls fn(failed) for every failed set of size <= k, ascending.
void for_each_failed_set_up_to(
    int total, int k, const std::function<void(std::vector<int>&)>& fn) {
  std::vector<int> failed;
  std::function<void(int)> rec = [&](int from) {
    fn(failed);
    if (static_cast<int>(failed.size()) == k) return;
    for (int d = from; d < total; ++d) {
      failed.push_back(d);
      rec(d + 1);
      failed.pop_back();
    }
  };
  rec(0);
}

// --- the layout ----------------------------------------------------------

TEST(MultiMirror, CreateValidates) {
  EXPECT_FALSE(Architecture::mirror_named(0, "shifted", 2).is_ok());
  EXPECT_FALSE(Architecture::mirror_named(3, "shifted", 0).is_ok());
  // n = 4 has units {1, 3}: at most 2 orthogonal shifted arrays.
  EXPECT_FALSE(Architecture::mirror_named(4, "shifted", 3).is_ok());
  EXPECT_TRUE(Architecture::mirror_named(4, "shifted", 2).is_ok());
  // Traditional mode has no multiplier constraint.
  EXPECT_TRUE(Architecture::mirror_named(4, "traditional", 3).is_ok());
  // Other layouts have no multi-replica form.
  const auto lrc = Architecture::mirror_named(4, "lrc:groups=2", 2);
  ASSERT_FALSE(lrc.is_ok());
  EXPECT_EQ(lrc.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_TRUE(Architecture::mirror_named(4, "lrc:groups=2", 1).is_ok());
}

TEST(MultiMirror, ShapeAndNames) {
  const auto m = make(5, 2, true);
  EXPECT_EQ(m.total_disks(), 15);
  EXPECT_EQ(m.fault_tolerance(), 2);
  EXPECT_EQ(m.replicas(), 2);
  EXPECT_DOUBLE_EQ(m.storage_efficiency(), 1.0 / 3.0);
  EXPECT_EQ(m.name(), "3-mirror-shifted");
  EXPECT_EQ(make(3, 1, false).name(), "mirror-traditional");
  EXPECT_EQ(m.array_of(4), 0);
  EXPECT_EQ(m.array_of(5), 1);
  EXPECT_EQ(m.array_of(14), 2);
  EXPECT_EQ(m.role_index(12), 2);
  EXPECT_EQ(m.replica_disk(2, 2), 12);
}

TEST(MultiMirror, ReplicaArrayOneMatchesPaperShiftedArrangement) {
  // c_1 = 1: array 1 must reproduce the paper's shifted arrangement.
  const auto m = make(4, 2, true);
  const auto paper = layout::make_arrangement("shifted", 4).take();
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j) {
      const Pos mp = m.replica_of(1, i, j);
      const Pos pp = paper.mirror_of(i, j);
      EXPECT_EQ(mp.disk - 4, pp.disk);  // array 1 global offset = n
      EXPECT_EQ(mp.row, pp.row);
    }
}

TEST(MultiMirror, SourceOfInvertsReplicaOf) {
  for (const bool shifted : {false, true}) {
    const auto m = make(5, 2, shifted);
    for (int r = 1; r <= 2; ++r)
      for (int i = 0; i < 5; ++i)
        for (int j = 0; j < 5; ++j) {
          const Pos p = m.replica_of(r, i, j);
          EXPECT_EQ(m.array_of(p.disk), r);
          EXPECT_EQ(m.replicated_by(r, m.role_index(p.disk), p.row),
                    (Pos{i, j}));
        }
  }
}

TEST(MultiMirror, EveryReplicaArrayIsBijective) {
  const auto m = make(5, 2, true);
  for (int r = 1; r <= 2; ++r) {
    std::set<std::pair<int, int>> cells;
    for (int i = 0; i < 5; ++i)
      for (int j = 0; j < 5; ++j) {
        const Pos p = m.replica_of(r, i, j);
        EXPECT_TRUE(cells.insert({p.disk, p.row}).second);
      }
    EXPECT_EQ(cells.size(), 25u);
  }
}

TEST(MultiMirror, AffineArraysSatisfyP1Analogue) {
  // Replicas of one data disk land on all n disks of each replica array.
  const auto m = make(7, 2, true);
  for (int r = 1; r <= 2; ++r) {
    for (int i = 0; i < 7; ++i) {
      std::set<int> disks;
      for (int j = 0; j < 7; ++j) disks.insert(m.replica_of(r, i, j).disk);
      EXPECT_EQ(disks.size(), 7u) << "array " << r << " data disk " << i;
    }
  }
}

TEST(MultiMirror, OrthogonalityOneOverlapPerDiskPair) {
  // A data disk x and a replica disk y in array r share exactly one
  // element per stripe; two replica disks in different arrays share
  // exactly one source element.
  const auto m = make(5, 2, true);
  for (int x = 0; x < 5; ++x) {
    for (int r = 1; r <= 2; ++r) {
      for (int local = 0; local < 5; ++local) {
        int overlap = 0;
        for (int j = 0; j < 5; ++j)
          if (m.replica_of(r, x, j).disk == m.replica_disk(r, local))
            ++overlap;
        EXPECT_EQ(overlap, 1);
      }
    }
  }
  // Cross-array: disks y1 (array 1) and y2 (array 2).
  for (int y1 = 0; y1 < 5; ++y1) {
    for (int y2 = 0; y2 < 5; ++y2) {
      int shared_sources = 0;
      for (int row1 = 0; row1 < 5; ++row1) {
        const Pos s1 = m.replicated_by(1, y1, row1);
        for (int row2 = 0; row2 < 5; ++row2)
          if (m.replicated_by(2, y2, row2) == s1) ++shared_sources;
      }
      EXPECT_EQ(shared_sources, 1) << y1 << "," << y2;
    }
  }
}

// --- the planner ---------------------------------------------------------

class MultiPlanN : public ::testing::TestWithParam<int> {};

TEST_P(MultiPlanN, ShiftedSingleFailureIsOneAccess) {
  const int n = GetParam();
  const auto m = make(n, 2, true);
  for (int d = 0; d < m.total_disks(); ++d) {
    auto plan = recon::plan_reconstruction(m, {d});
    ASSERT_TRUE(plan.is_ok()) << d;
    EXPECT_EQ(plan.value().read_accesses(m), 1) << "disk " << d;
  }
}

TEST_P(MultiPlanN, ShiftedDoubleFailureAtMostTwoAccesses) {
  const int n = GetParam();
  const auto m = make(n, 2, true);
  for (int a = 0; a < m.total_disks(); ++a)
    for (int b = a + 1; b < m.total_disks(); ++b) {
      auto plan = recon::plan_reconstruction(m, {a, b});
      ASSERT_TRUE(plan.is_ok()) << a << "," << b;
      EXPECT_LE(plan.value().read_accesses(m), 2) << a << "," << b;
    }
}

TEST_P(MultiPlanN, TraditionalSingleFailureNeedsCeilNOverRAccesses) {
  // The greedy planner splits the lost column across the R identical
  // copies, so ceil(n / R) reads land on the busiest disk — still far
  // worse than the shifted arrangement's 1.
  const int n = GetParam();
  const auto m = make(n, 2, false);
  auto plan = recon::plan_reconstruction(m, {0});
  ASSERT_TRUE(plan.is_ok());
  EXPECT_EQ(plan.value().read_accesses(m), (n + 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(N, MultiPlanN, ::testing::Values(3, 4, 5, 7));

TEST(MultiPlan, TripleFailureBeyondToleranceRejected) {
  const auto m = make(5, 2, true);
  auto plan = recon::plan_reconstruction(m, {0, 1, 2});
  EXPECT_FALSE(plan.is_ok());
  EXPECT_EQ(plan.status().code(), ErrorCode::kUnrecoverable);
}

TEST(MultiPlan, SharedReadsAreDeduplicated) {
  // Traditional: failing data disk 0 and its copy in array 1 leaves the
  // copy in array 2; every lost element of both disks is fed by ONE
  // read of the surviving copy.
  const auto m = make(4, 2, false);
  auto plan = recon::plan_reconstruction(m, {0, m.replica_disk(1, 0)});
  ASSERT_TRUE(plan.is_ok());
  EXPECT_EQ(plan.value().availability_reads.size(), 4u);
  EXPECT_EQ(plan.value().sources.size(), 8u);  // 2 disks x 4 rows
  EXPECT_EQ(plan.value().read_accesses(m), 4);  // all on one disk
}

TEST(MultiPlan, MalformedInputRejected) {
  const auto m = make(3, 2, true);
  EXPECT_EQ(recon::plan_reconstruction(m, {-1}).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(recon::plan_reconstruction(m, {99}).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(recon::plan_reconstruction(m, {1, 1}).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST(MultiPlan, DoubleFailureCaseTable) {
  // Every double failure of the shifted three-mirror array needs at
  // most two accesses; recon::enumerate_double_failure_cases groups them.
  const auto shifted = make(5, 2, true);
  long total_cases = 0;
  for (const auto& row : recon::enumerate_double_failure_cases(shifted).rows)
    total_cases += row.num_cases;
  EXPECT_EQ(total_cases, 15 * 14 / 2);
  const auto worst = [](const Architecture& arch) {
    int lo = 1 << 30;
    int hi = 0;
    for (const auto& failed : recon::enumerate_double_failures(arch)) {
      const int a = recon::plan_reconstruction(arch, failed)
                        .value()
                        .read_accesses(arch);
      lo = std::min(lo, a);
      hi = std::max(hi, a);
    }
    return std::pair<int, int>{lo, hi};
  };
  EXPECT_GE(worst(shifted).first, 1);
  EXPECT_LE(worst(shifted).second, 2);
  // Losing a data disk together with one of its copies forces the
  // whole column onto the single remaining copy: n accesses.
  EXPECT_EQ(worst(make(5, 2, false)).second, 5);
}

TEST(MultiPlan, CaseTableClassCounts) {
  const auto m = make(4, 2, true);  // 12 disks
  std::map<std::string, long> counts;
  for (int a = 0; a < m.total_disks(); ++a)
    for (int b = a + 1; b < m.total_disks(); ++b) {
      const int ra = m.array_of(a);
      const int rb = m.array_of(b);
      ++counts[ra == 0 && rb == 0 ? "both data"
               : ra == 0          ? "data + replica array"
               : ra == rb         ? "same replica array"
                                  : "two replica arrays"];
      EXPECT_EQ(recon::classify(m, {a, b}),
                ra == rb ? recon::FailureClass::kF2 : recon::FailureClass::kF3);
    }
  EXPECT_EQ(counts["both data"], 6);              // C(4,2)
  EXPECT_EQ(counts["data + replica array"], 32);  // 4 * 8
  EXPECT_EQ(counts["same replica array"], 12);    // 2 * C(4,2)
  EXPECT_EQ(counts["two replica arrays"], 16);    // 4 * 4
}

// The one planner against the reference greedy loop: traditional and
// shifted, n = 2..9, every R up to min(3, phi(n)), every failure set of
// size <= R — read sets, their order, access counts and chosen copies.
TEST(ThreeMirrorPlan, MatchesReferenceGreedy) {
  int cases = 0;
  for (const bool shifted : {false, true}) {
    for (int n = 2; n <= 9; ++n) {
      for (int r = 1; r <= std::min(3, phi(n)); ++r) {
        const auto arch = make(n, r, shifted);
        for_each_failed_set_up_to(
            arch.total_disks(), r, [&](std::vector<int>& failed) {
              const auto got = recon::plan_reconstruction(arch, failed);
              const auto want = testref::reference_plan(arch, failed);
              ASSERT_TRUE(got.is_ok()) << got.status().to_string();
              ASSERT_TRUE(want.is_ok()) << want.status().to_string();
              const auto& g = got.value();
              const auto& w = want.value();
              ASSERT_EQ(g.availability_reads.size(), w.unique_reads.size());
              for (std::size_t k = 0; k < w.unique_reads.size(); ++k) {
                EXPECT_EQ(g.availability_reads[k].logical_disk,
                          w.unique_reads[k].disk);
                EXPECT_EQ(g.availability_reads[k].row, w.unique_reads[k].row);
              }
              EXPECT_EQ(g.read_accesses(arch), w.read_accesses);
              if (r >= 2) {
                ASSERT_EQ(g.sources.size(), w.recoveries.size());
                for (std::size_t k = 0; k < w.recoveries.size(); ++k) {
                  EXPECT_EQ(g.sources[k].lost_disk, w.recoveries[k].lost_disk);
                  EXPECT_EQ(g.sources[k].lost_row, w.recoveries[k].lost_row);
                  EXPECT_EQ(g.sources[k].from.logical_disk,
                            w.recoveries[k].from.disk);
                  EXPECT_EQ(g.sources[k].from.row, w.recoveries[k].from.row);
                }
              } else {
                EXPECT_TRUE(g.sources.empty());
              }
              ++cases;
            });
      }
    }
  }
  EXPECT_GT(cases, 10000);
}

// bench_three_mirror plans and rebuilds from parallel_for threads that
// share one Architecture: concurrent plans equal serial ones (and run
// under TSan in CI).
TEST(ThreeMirrorPlan, ConcurrentPlansMatchSerial) {
  const auto arch = make(5, 2, true);
  const auto sets = recon::enumerate_double_failures(arch);
  std::vector<std::vector<recon::ElementRead>> serial(sets.size());
  for (std::size_t i = 0; i < sets.size(); ++i)
    serial[i] = recon::plan_reconstruction(arch, sets[i])
                    .value()
                    .availability_reads;
  std::vector<std::vector<recon::ElementRead>> parallel(sets.size());
  parallel_for(
      sets.size(),
      [&](std::size_t i) {
        parallel[i] = recon::plan_reconstruction(arch, sets[i])
                          .value()
                          .availability_reads;
      },
      4);
  EXPECT_EQ(parallel, serial);
}

// R = 1 over every registry layout, n = 2..8, every single failure: the
// planner the paper's mirror method uses equals the greedy reference.
TEST(ThreeMirrorPlan, SingleMirrorMatchesReferenceOverRegistry) {
  int cases = 0;
  for (const std::string& name : layout::AlgorithmRegistry::global().names()) {
    for (int n = 2; n <= 8; ++n) {
      auto built = Architecture::mirror_named(n, name);
      if (!built.is_ok()) continue;
      const auto& arch = built.value();
      for (int d = 0; d < arch.total_disks(); ++d) {
        const auto got = recon::plan_reconstruction(arch, {d});
        const auto want = testref::reference_plan(arch, {d});
        ASSERT_TRUE(got.is_ok() && want.is_ok()) << arch.name() << " " << d;
        ASSERT_EQ(got.value().availability_reads.size(),
                  want.value().unique_reads.size());
        for (std::size_t k = 0; k < want.value().unique_reads.size(); ++k) {
          EXPECT_EQ(got.value().availability_reads[k].logical_disk,
                    want.value().unique_reads[k].disk);
          EXPECT_EQ(got.value().availability_reads[k].row,
                    want.value().unique_reads[k].row);
        }
        EXPECT_EQ(got.value().read_accesses(arch), want.value().read_accesses);
        ++cases;
      }
    }
  }
  // 360 over the built-in layouts; a test in the same process may have
  // registered more.
  EXPECT_GE(cases, 360);
}

// recon::is_recoverable at R = 2 against brute force: every data element
// keeps a live copy. Every failure set of size <= 4.
TEST(ThreeMirrorRecoverable, MatchesBruteForceAtTwoReplicas) {
  for (const bool shifted : {false, true}) {
    for (int n = 3; n <= 5; ++n) {
      const auto arch = make(n, 2, shifted);
      for_each_failed_set_up_to(
          arch.total_disks(), 4, [&](std::vector<int>& failed) {
            auto down = [&](int d) {
              return std::find(failed.begin(), failed.end(), d) !=
                     failed.end();
            };
            bool every_element_live = true;
            for (int i = 0; i < n && every_element_live; ++i)
              for (int j = 0; j < n && every_element_live; ++j) {
                bool live = !down(arch.data_disk(i));
                for (int r = 1; r <= 2; ++r)
                  live = live || !down(arch.replica_of(r, i, j).disk);
                every_element_live = live;
              }
            EXPECT_EQ(recon::is_recoverable(arch, failed), every_element_live)
                << arch.name() << " n=" << n;
          });
    }
  }
}

// The MTTDL closed form follows the replica count past tolerance 2: a
// third replica array (tolerance 3) outlives the second.
TEST(ThreeMirrorReliability, ClosedFormCoversEveryReplicaCount) {
  recon::MttdlParams mp;
  mp.disk_mttf_hours = 1.0e5;
  double prev = 0.0;
  for (int r = 1; r <= 3; ++r) {
    const double h = recon::estimate_mttdl(make(3, r, false), mp).mttdl_hours;
    EXPECT_TRUE(std::isfinite(h)) << "R=" << r;
    EXPECT_GT(h, 10.0 * prev) << "R=" << r;
    prev = h;
  }
}

// --- the array and the batch rebuild ---------------------------------------

array::ArrayConfig array_cfg(int n, int replicas, bool shifted) {
  array::ArrayConfig cfg;
  cfg.arch = make(n, replicas, shifted);
  cfg.stripes = cfg.arch.total_disks();
  cfg.content_bytes = 64;
  cfg.logical_element_bytes = 4'000'000;
  return cfg;
}

TEST(MultiArray, InitializeAndVerify) {
  array::DiskArray arr(array_cfg(4, 2, true));
  arr.initialize();
  EXPECT_TRUE(arr.verify_all().is_ok());
  EXPECT_TRUE(arr.verify_consistency().is_ok());
}

TEST(MultiArray, VerifyCatchesCorruption) {
  // Replica array 2's copies are checked too.
  array::DiskArray arr(array_cfg(3, 2, true));
  arr.initialize();
  arr.content(7, 1, 1)[0] ^= 0x01;
  EXPECT_EQ(arr.verify_all().code(), ErrorCode::kCorruption);
  EXPECT_EQ(arr.verify_consistency().code(), ErrorCode::kCorruption);
  EXPECT_EQ(arr.verify_logical_disk(7).code(), ErrorCode::kCorruption);
}

class MultiArrayRebuild
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(MultiArrayRebuild, EveryDoubleFailureRebuildsAndVerifies) {
  const auto [n, shifted] = GetParam();
  const auto proto = array_cfg(n, 2, shifted);
  const int total = (2 + 1) * n;
  for (int a = 0; a < total; ++a) {
    for (int b = a + 1; b < total; ++b) {
      array::DiskArray arr(proto);
      arr.initialize();
      arr.fail_physical(a);
      arr.fail_physical(b);
      auto report = recon::reconstruct(arr);
      ASSERT_TRUE(report.is_ok())
          << a << "," << b << ": " << report.status().to_string();
      EXPECT_TRUE(arr.failed_physical().empty());
      EXPECT_TRUE(arr.verify_all().is_ok()) << a << "," << b;
      EXPECT_GT(report.value().read_throughput_mbps(), 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MultiArrayRebuild,
    ::testing::Combine(::testing::Values(3, 4), ::testing::Bool()));

TEST(MultiArray, ShiftedRebuildsFasterThanTraditional) {
  double mbps[2];
  for (const bool shifted : {false, true}) {
    array::DiskArray arr(array_cfg(5, 2, shifted));
    arr.initialize();
    arr.fail_physical(0);
    auto report = recon::reconstruct(arr);
    ASSERT_TRUE(report.is_ok());
    mbps[shifted ? 1 : 0] = report.value().read_throughput_mbps();
  }
  EXPECT_GT(mbps[1], 1.3 * mbps[0]);
}

TEST(MultiArray, NoFailureTrivialReport) {
  array::DiskArray arr(array_cfg(3, 2, true));
  arr.initialize();
  auto report = recon::reconstruct(arr);
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report.value().logical_bytes_read, 0u);
}

// With faults active the executor falls back from the plan's chosen copy
// to the element's other live copy: every element of a failed data disk
// has two replicas, and latent sectors on every disk of replica array 1
// still leave array 2.
TEST(ThreeMirrorRebuild, LatentChosenCopyFallsBackToTheOtherReplica) {
  auto cfg = array_cfg(4, 2, false);
  cfg.rotate = false;
  for (int local = 0; local < 4; ++local) {
    disk::FaultProfile all_latent;
    all_latent.latent_error_rate = 1.0;
    cfg.fault_overrides[cfg.arch.replica_disk(1, local)] = all_latent;
  }
  array::DiskArray arr(cfg);
  arr.initialize();
  arr.fail_physical(0);
  auto report = recon::reconstruct(arr);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(report.value().unrecoverable_elements, 0u);
  EXPECT_GT(report.value().fallback_to_mirror, 0u);
  EXPECT_TRUE(arr.verify_all().is_ok());
}

// --- degraded reads --------------------------------------------------------

workload::DegradedReadConfig reads_cfg(int reads, std::uint64_t seed) {
  workload::DegradedReadConfig cfg;
  cfg.requests = reads;
  cfg.seed = seed;
  return cfg;
}

TEST(MultiArray, DegradedReadsCompleteWithTwoFailures) {
  array::DiskArray arr(array_cfg(5, 2, true));
  arr.initialize();
  arr.fail_physical(0);
  arr.fail_physical(7);
  auto report = workload::run_degraded_reads(arr, reads_cfg(1000, 3));
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_GT(report.value().degraded_reads, 0u);
  EXPECT_GT(report.value().throughput_mbps(), 0.0);
  EXPECT_GE(report.value().load_imbalance, 1.0);
}

TEST(MultiArray, DegradedReadsHealthyArrayNoRedirects) {
  array::DiskArray arr(array_cfg(4, 2, true));
  arr.initialize();
  auto report = workload::run_degraded_reads(arr, reads_cfg(200, 9));
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report.value().degraded_reads, 0u);
}

TEST(MultiArray, DegradedReadsRejectOverTolerance) {
  array::DiskArray arr(array_cfg(3, 2, true));
  arr.initialize();
  arr.fail_physical(0);
  arr.fail_physical(1);
  arr.fail_physical(2);
  EXPECT_FALSE(workload::run_degraded_reads(arr, reads_cfg(10, 1)).is_ok());
}

TEST(MultiArray, TraditionalThreeMirrorSplitsDegradedLoadAcrossCopies) {
  // With two identical replica arrays, redirected reads can alternate
  // between them — the three-mirror layout softens the RAID-1 hotspot
  // even without the shifted arrangement.
  auto cfg = array_cfg(4, 2, false);
  cfg.rotate = false;
  array::DiskArray arr(cfg);
  arr.initialize();
  arr.fail_physical(0);  // data disk 0 in every stripe
  auto report = workload::run_degraded_reads(arr, reads_cfg(2000, 5));
  ASSERT_TRUE(report.is_ok());
  // Redirected load (~500 reads) splits over the local-0 disks of both
  // replica arrays instead of hammering one partner.
  EXPECT_GT(report.value().degraded_reads, 400u);
  const auto copy1 =
      arr.physical(arr.arch().replica_disk(1, 0)).counters().reads;
  const auto copy2 =
      arr.physical(arr.arch().replica_disk(2, 0)).counters().reads;
  EXPECT_EQ(copy1 + copy2, report.value().degraded_reads);
  EXPECT_LT(copy1, 0.65 * static_cast<double>(report.value().degraded_reads));
  EXPECT_LT(copy2, 0.65 * static_cast<double>(report.value().degraded_reads));
}

// --- the online engine -----------------------------------------------------

TEST(MultiOnline, CompletesAndCollectsLatencies) {
  array::DiskArray arr(array_cfg(4, 2, true));
  arr.initialize();
  arr.fail_physical(0);
  recon::OnlineConfig cfg;
  cfg.arrival.max_requests = 150;
  auto report = recon::run_online_reconstruction(arr, cfg);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_GT(report.value().rebuild_done_s, 0.0);
  EXPECT_EQ(report.value().user_reads, 150u);
  EXPECT_GT(report.value().mean_latency_s, 0.0);
  EXPECT_GE(report.value().p99_latency_s, report.value().p50_latency_s);
}

TEST(MultiOnline, HandlesDoubleFailure) {
  array::DiskArray arr(array_cfg(4, 2, true));
  arr.initialize();
  arr.fail_physical(1);
  arr.fail_physical(6);
  recon::OnlineConfig cfg;
  cfg.arrival.max_requests = 100;
  auto report = recon::run_online_reconstruction(arr, cfg);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_GT(report.value().degraded_reads, 0u);
  EXPECT_EQ(report.value().requests_completed, 100u);
}

TEST(MultiOnline, ServesHealthyArrayRejectsOverTolerance) {
  array::DiskArray arr(array_cfg(3, 2, true));
  arr.initialize();
  // No failure: the healthy-array serve every replica count shares.
  auto none = recon::run_online_reconstruction(arr);
  ASSERT_TRUE(none.is_ok()) << none.status().to_string();
  EXPECT_EQ(none.value().rebuild_done_s, 0.0);
  arr.fail_physical(0);
  arr.fail_physical(1);
  arr.fail_physical(2);
  const auto three = recon::run_online_reconstruction(arr);
  ASSERT_FALSE(three.is_ok());
  EXPECT_EQ(three.status().code(), ErrorCode::kInvalidArgument);
}

TEST(MultiOnline, ShiftedRebuildCompletesSoonerThanTraditional) {
  double done[2];
  for (const bool shifted : {false, true}) {
    array::DiskArray arr(array_cfg(5, 2, shifted));
    arr.initialize();
    arr.fail_physical(0);
    recon::OnlineConfig cfg;
    cfg.arrival.max_requests = 200;
    cfg.arrival.seed = 77;
    auto report = recon::run_online_reconstruction(arr, cfg);
    ASSERT_TRUE(report.is_ok());
    done[shifted ? 1 : 0] = report.value().rebuild_done_s;
  }
  EXPECT_LT(done[1], done[0]);
}

// R = 2 gains the single engine's writes, second-failure injection and
// hedging: a 30 % write mix, a second failure mid-rebuild and hedged
// reads on a slow disk still complete every request, and an offline
// rebuild afterwards verifies.
TEST(ThreeMirrorOnline, WritesSecondFailureAndHedgingComplete) {
  for (const bool shifted : {false, true}) {
    auto acfg = array_cfg(4, 2, shifted);
    acfg.stripes = 2 * acfg.arch.total_disks();
    disk::FaultProfile slow;
    slow.slow_factor = 8.0;
    acfg.fault_overrides[5] = slow;
    array::DiskArray arr(acfg);
    arr.initialize();
    arr.fail_physical(0);
    recon::OnlineConfig cfg;
    cfg.arrival.rate_hz = 40.0;
    cfg.arrival.max_requests = 400;
    cfg.arrival.seed = 2012;
    cfg.mix.write_fraction = 0.3;
    cfg.second_failure_at_s = 0.5;
    cfg.second_failure_disk = 9;
    cfg.hedge.enabled = true;
    const auto r = recon::run_online_reconstruction(arr, cfg);
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    const auto& rep = r.value();
    SCOPED_TRACE(testing::Message() << "shifted=" << shifted);
    EXPECT_TRUE(rep.second_failure_injected);
    EXPECT_EQ(rep.requests_completed, rep.requests_issued);
    EXPECT_EQ(rep.requests_issued, 400u);
    EXPECT_GT(rep.user_writes, 0u);
    EXPECT_GT(rep.degraded_reads, 0u);
    EXPECT_EQ(rep.final_state, repair::ArrayState::kHealthy);
    EXPECT_EQ(arr.failed_physical(), (std::vector<int>{0, 9}));
    const auto rebuilt = recon::reconstruct(arr);
    ASSERT_TRUE(rebuilt.is_ok()) << rebuilt.status().to_string();
    EXPECT_TRUE(arr.verify_all().is_ok());
  }
}

// --- no silent R = 1 path ----------------------------------------------------

// Every src/ entry point that takes an Architecture or a DiskArray, on an
// R = 2 array: it serves all three copies or returns kInvalidArgument.
TEST(ThreeMirrorEntryPoints, ServeEveryCopyOrReject) {
  const auto arch = make(4, 2, true);
  auto acfg = array_cfg(4, 2, true);
  acfg.checksums = true;

  // Layout-level: planner, failure classes, analytic tables, reliability.
  EXPECT_TRUE(recon::plan_reconstruction(arch, {0, 8}).is_ok());
  EXPECT_EQ(recon::enumerate_single_failures(arch).size(), 12u);
  EXPECT_EQ(recon::enumerate_double_failures(arch).size(), 66u);
  EXPECT_EQ(recon::classify(arch, {5, 9}), recon::FailureClass::kF3);
  EXPECT_DOUBLE_EQ(recon::average_single_failure_read_accesses(arch), 1.0);
  EXPECT_EQ(recon::enumerate_double_failure_cases(arch).rows.size(), 2u);
  EXPECT_TRUE(recon::is_recoverable(arch, {0, 4}));
  EXPECT_FALSE(recon::is_recoverable(arch, {0, 4, 8}));
  const auto fatal = recon::count_fatal_sets(arch);
  EXPECT_EQ(fatal.avg_fatal_second, 0.0);  // any two failures survive
  EXPECT_GT(fatal.avg_fatal_third, 0.0);
  recon::MttdlParams mp;
  EXPECT_GT(recon::estimate_mttdl(arch, mp).mttdl_hours, 0.0);
  repair::MonteCarloParams mc;
  mc.trials = 20;
  mc.disk_mttf_hours = 100;
  EXPECT_TRUE(repair::simulate_mttdl(arch, mc).is_ok());
  EXPECT_EQ(repair::classify(arch, {0, 4}, true, false),
            repair::ArrayState::kCritical);
  EXPECT_EQ(repair::classify(arch, {0}, true, false),
            repair::ArrayState::kRebuilding);
  fleet::TimelineConfig tl;
  tl.arrays = 4;
  EXPECT_TRUE(fleet::run_failure_timeline(arch, tl).is_ok());
  recon::SweepOptions sweep;
  EXPECT_EQ(recon::sweep_array_config(arch, 1, sweep).arch.total_disks(), 12);

  // Array-level: writes reach every copy.
  {
    array::DiskArray arr(acfg);
    arr.initialize();
    EXPECT_TRUE(arr.verify_checksums().is_ok());
    EXPECT_EQ(workload::data_element_count(arr), 4 * 4 * 12);
    workload::WriteWorkloadConfig wcfg;
    wcfg.requests = 20;
    const auto writes = workload::generate_large_writes(arr, wcfg);
    const auto wrep = workload::run_write_workload(arr, writes);
    ASSERT_TRUE(wrep.is_ok()) << wrep.status().to_string();
    EXPECT_EQ(wrep.value().bytes_written, 3 * wrep.value().user_bytes);
  }
  // Integrity: scrub, resync, the crash workload and every silent
  // corruption mode walk all three copies of an element.
  {
    array::DiskArray arr(acfg);
    arr.initialize();
    const auto clean = recon::scrub(arr);
    ASSERT_TRUE(clean.is_ok()) << clean.status().to_string();
    EXPECT_TRUE(clean.value().clean());
    EXPECT_EQ(clean.value().elements_scanned, 4u * 4 * 12);
    const auto rs = integrity::resync(arr, {});
    ASSERT_TRUE(rs.is_ok()) << rs.status().to_string();
    EXPECT_EQ(rs.value().diverged, 0u);
    EXPECT_EQ(rs.value().elements_read, 3u * 4 * 4 * 12);  // every copy
    integrity::CrashWorkloadConfig ccfg;
    const auto cw = integrity::run_crash_workload(arr, ccfg);
    ASSERT_TRUE(cw.is_ok()) << cw.status().to_string();
    EXPECT_EQ(cw.value().element_writes,
              3u * static_cast<std::uint64_t>(ccfg.requests));
    EXPECT_TRUE(arr.verify_consistency().is_ok());
    EXPECT_TRUE(arr.verify_checksums().is_ok());
    Rng rng(1);
    for (const auto kind : {integrity::SilentCorruption::kLostWrite,
                            integrity::SilentCorruption::kMisdirectedWrite,
                            integrity::SilentCorruption::kBitRot}) {
      const auto injected =
          integrity::inject_silent_corruption(arr, rng, 1, kind);
      ASSERT_TRUE(injected.is_ok()) << injected.status().to_string();
      const auto sc = recon::scrub(arr);
      ASSERT_TRUE(sc.is_ok()) << sc.status().to_string();
      EXPECT_EQ(sc.value().checksum_mismatches, injected.value().size());
      EXPECT_EQ(sc.value().repaired_by_checksum, injected.value().size());
      EXPECT_EQ(sc.value().undecidable, 0u);
      EXPECT_TRUE(arr.verify_consistency().is_ok());
      EXPECT_TRUE(arr.verify_checksums().is_ok());
    }
    // Latent errors touch one element of any role.
    EXPECT_EQ(recon::inject_latent_errors(arr, rng, 2).value().size(), 2u);
  }
  // Rebuild and repair: a data disk and a disk of each replica array.
  for (const std::vector<int>& failed :
       {std::vector<int>{0, 6}, std::vector<int>{5, 10}}) {
    array::DiskArray arr(acfg);
    arr.initialize();
    for (const int d : failed) arr.fail_physical(d);
    chaos::OracleContext ctx;
    EXPECT_TRUE(chaos::check_durability(arr, ctx).is_ok());
    EXPECT_TRUE(chaos::check_resync_clean(arr, ctx).is_ok());
    repair::RepairOrchestrator orch(arr, {});
    const auto rep = orch.run(0.0);
    ASSERT_TRUE(rep.is_ok()) << rep.status().to_string();
    EXPECT_EQ(rep.value().final_state, repair::ArrayState::kHealthy);
    EXPECT_TRUE(chaos::check_lifecycle(orch.lifecycle(), arch, ctx).is_ok());
    EXPECT_TRUE(arr.verify_all().is_ok());
    EXPECT_TRUE(arr.verify_checksums().is_ok());
  }
}

// --- integrity at R >= 2: scrub, resync, crash points, injectors --------

/// Every replica array the R >= 2 integrity tests cover: shifted and
/// traditional, n = 3..6, R = 2 and (where the layout builds) R = 3.
std::vector<array::ArrayConfig> integrity_cfgs() {
  std::vector<array::ArrayConfig> out;
  for (int n = 3; n <= 6; ++n)
    for (const bool shifted : {true, false})
      for (const int replicas : {2, 3}) {
        if (shifted && phi(n) < replicas) continue;
        auto cfg = array_cfg(n, replicas, shifted);
        cfg.seed = 7;
        out.push_back(cfg);
      }
  return out;
}

TEST(ThreeMirrorIntegrity, MajorityRepairsACorruptCopyWithoutParity) {
  for (const auto& cfg : integrity_cfgs()) {
    SCOPED_TRACE(cfg.arch.name() + " R=" +
                 std::to_string(cfg.arch.replicas()));
    const int copies = cfg.arch.replicas() + 1;
    array::DiskArray arr(cfg);
    arr.initialize();
    // One corrupt copy per element, every copy index in turn, each in
    // its own stripe: the other copies outvote it.
    for (int c = 0; c < copies; ++c) {
      const Pos at = cfg.arch.copy_of(c, c % cfg.arch.n(), 1);
      arr.content(at.disk, c, at.row)[3] ^= 0x5A;
    }
    const auto rep = recon::scrub(arr);
    ASSERT_TRUE(rep.is_ok()) << rep.status().to_string();
    EXPECT_EQ(rep.value().mismatches, static_cast<std::uint64_t>(copies));
    EXPECT_EQ(rep.value().repaired_data, 1u);
    EXPECT_EQ(rep.value().repaired_mirror,
              static_cast<std::uint64_t>(copies - 1));
    EXPECT_EQ(rep.value().undecidable, 0u);
    EXPECT_TRUE(arr.verify_all().is_ok());
    const auto again = recon::scrub(arr);
    ASSERT_TRUE(again.is_ok());
    EXPECT_TRUE(again.value().clean());

    // Copies split with no strict majority: detected, left undecided.
    const int split = copies / 2 + copies % 2;  // >= half of the copies
    for (int c = 0; c < split; ++c) {
      const Pos at = cfg.arch.copy_of(c, 0, 0);
      arr.content(at.disk, 0, at.row)[0] ^= static_cast<std::uint8_t>(1 + c);
    }
    const auto undecided = recon::scrub(arr);
    ASSERT_TRUE(undecided.is_ok());
    EXPECT_EQ(undecided.value().mismatches, 1u);
    EXPECT_EQ(undecided.value().undecidable, 1u);
  }
}

TEST(ThreeMirrorIntegrity, EveryCrashPointResyncsClean) {
  // Each request writes all R + 1 copies, so a crash can tear an
  // element between any two of them. A full resync reconciles every
  // stripe. The dirty-region resync re-reads only logged regions; a
  // misdirected victim write may clobber a neighbor slot in a clean
  // region, which the verifying scrub after it repairs.
  for (const auto& base : integrity_cfgs()) {
    const int writes_per_request = base.arch.replicas() + 1;
    integrity::CrashWorkloadConfig wcfg;
    wcfg.requests = 12;
    wcfg.quiesce_every = 4;
    wcfg.seed = 11;
    for (int k = 0; k < wcfg.requests * writes_per_request; ++k) {
      for (const bool full : {true, false}) {
        SCOPED_TRACE(base.arch.name() + " R=" +
                     std::to_string(base.arch.replicas()) + " crash after " +
                     std::to_string(k) + (full ? " full" : " dirty"));
        auto cfg = base;
        cfg.checksums = true;
        cfg.drl_region_stripes = 2;
        cfg.fault.crash_after_writes = k;
        cfg.fault.seed = static_cast<std::uint64_t>(k) + 1;
        array::DiskArray arr(cfg);
        arr.initialize();
        const auto cw = integrity::run_crash_workload(arr, wcfg);
        ASSERT_TRUE(cw.is_ok()) << cw.status().to_string();
        ASSERT_TRUE(cw.value().crashed);
        ASSERT_TRUE(arr.power_cycle().is_ok());
        integrity::ResyncOptions opts;
        opts.full = full;
        const auto rs = integrity::resync(arr, opts);
        ASSERT_TRUE(rs.is_ok()) << rs.status().to_string();
        EXPECT_EQ(rs.value().pairs_skipped, 0u);
        if (!full) {
          const auto sc = recon::scrub(arr);
          ASSERT_TRUE(sc.is_ok()) << sc.status().to_string();
          EXPECT_EQ(sc.value().undecidable, 0u);
        }
        EXPECT_TRUE(arr.verify_consistency().is_ok());
        EXPECT_TRUE(arr.verify_checksums().is_ok());
        chaos::OracleContext ctx;
        EXPECT_TRUE(chaos::check_resync_clean(arr, ctx).is_ok());
      }
    }
  }
}

TEST(ThreeMirrorIntegrity, VerifyingScrubRepairsEveryLostAndMisdirectedWrite) {
  for (const auto& base : integrity_cfgs()) {
    for (const auto kind : {integrity::SilentCorruption::kLostWrite,
                            integrity::SilentCorruption::kMisdirectedWrite}) {
      SCOPED_TRACE(base.arch.name() + " R=" +
                   std::to_string(base.arch.replicas()) + " kind " +
                   std::to_string(static_cast<int>(kind)));
      auto cfg = base;
      cfg.checksums = true;
      array::DiskArray arr(cfg);
      arr.initialize();
      Rng rng(static_cast<std::uint64_t>(cfg.arch.total_disks()) * 7 +
              static_cast<std::uint64_t>(kind));
      const auto injected =
          integrity::inject_silent_corruption(arr, rng, 3, kind);
      ASSERT_TRUE(injected.is_ok()) << injected.status().to_string();
      const auto expected =
          static_cast<std::uint64_t>(injected.value().size());
      EXPECT_EQ(expected,
                kind == integrity::SilentCorruption::kLostWrite ? 3u : 6u);
      EXPECT_FALSE(arr.verify_checksums().is_ok());
      const auto sc = recon::scrub(arr);
      ASSERT_TRUE(sc.is_ok()) << sc.status().to_string();
      EXPECT_EQ(sc.value().checksum_mismatches, expected);
      EXPECT_EQ(sc.value().repaired_by_checksum, expected);
      EXPECT_EQ(sc.value().undecidable, 0u);
      EXPECT_TRUE(arr.verify_checksums().is_ok());
      EXPECT_TRUE(arr.verify_consistency().is_ok());
      const auto again = recon::scrub(arr);
      ASSERT_TRUE(again.is_ok());
      EXPECT_TRUE(again.value().clean());
    }
  }
}

}  // namespace
}  // namespace sma
