#include "multimirror/multi_array.hpp"
#include "multimirror/multi_mirror.hpp"
#include "multimirror/multi_online.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

namespace sma::mm {
namespace {

MultiMirror make(int n, int replicas, bool shifted) {
  MultiMirrorConfig cfg;
  cfg.n = n;
  cfg.replica_arrays = replicas;
  cfg.shifted = shifted;
  auto m = MultiMirror::create(cfg);
  EXPECT_TRUE(m.is_ok()) << m.status().to_string();
  return std::move(m).take();
}

TEST(MultiMirror, CreateValidates) {
  MultiMirrorConfig cfg;
  cfg.n = 0;
  EXPECT_FALSE(MultiMirror::create(cfg).is_ok());
  cfg.n = 3;
  cfg.replica_arrays = 0;
  EXPECT_FALSE(MultiMirror::create(cfg).is_ok());
  // n = 4 has units {1, 3}: at most 2 orthogonal shifted arrays.
  cfg.n = 4;
  cfg.replica_arrays = 3;
  cfg.shifted = true;
  EXPECT_FALSE(MultiMirror::create(cfg).is_ok());
  cfg.replica_arrays = 2;
  EXPECT_TRUE(MultiMirror::create(cfg).is_ok());
  // Traditional mode has no multiplier constraint.
  cfg.replica_arrays = 3;
  cfg.shifted = false;
  EXPECT_TRUE(MultiMirror::create(cfg).is_ok());
}

TEST(MultiMirror, ShapeAndNames) {
  const auto m = make(5, 2, true);
  EXPECT_EQ(m.total_disks(), 15);
  EXPECT_EQ(m.fault_tolerance(), 2);
  EXPECT_DOUBLE_EQ(m.storage_efficiency(), 1.0 / 3.0);
  EXPECT_EQ(m.name(), "shifted-3-mirror(n=5)");
  EXPECT_EQ(make(3, 1, false).name(), "traditional-2-mirror(n=3)");
}

TEST(MultiMirror, ReplicaArrayOneMatchesPaperShiftedArrangement) {
  // c_1 = 1: array 1 must reproduce the paper's shifted arrangement.
  const auto m = make(4, 2, true);
  const auto paper = layout::make_arrangement("shifted", 4).take();
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j) {
      const layout::Pos mp = m.replica_of(1, i, j);
      const layout::Pos pp = paper->mirror_of(i, j);
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
          const layout::Pos p = m.replica_of(r, i, j);
          const layout::Pos src = m.source_of(r, m.local_index(p.disk), p.row);
          EXPECT_EQ(src, (layout::Pos{i, j}));
        }
  }
}

TEST(MultiMirror, EveryReplicaArrayIsBijective) {
  const auto m = make(5, 2, true);
  for (int r = 1; r <= 2; ++r) {
    std::set<std::pair<int, int>> cells;
    for (int i = 0; i < 5; ++i)
      for (int j = 0; j < 5; ++j) {
        const layout::Pos p = m.replica_of(r, i, j);
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
        const layout::Pos s1 = m.source_of(1, y1, row1);
        for (int row2 = 0; row2 < 5; ++row2)
          if (m.source_of(2, y2, row2) == s1) ++shared_sources;
      }
      EXPECT_EQ(shared_sources, 1) << y1 << "," << y2;
    }
  }
}

class MultiPlanN : public ::testing::TestWithParam<int> {};

TEST_P(MultiPlanN, ShiftedSingleFailureIsOneAccess) {
  const int n = GetParam();
  const auto m = make(n, 2, true);
  for (int d = 0; d < m.total_disks(); ++d) {
    auto plan = m.plan({d});
    ASSERT_TRUE(plan.is_ok()) << d;
    EXPECT_EQ(plan.value().read_accesses, 1) << "disk " << d;
  }
}

TEST_P(MultiPlanN, ShiftedDoubleFailureAtMostTwoAccesses) {
  const int n = GetParam();
  const auto m = make(n, 2, true);
  for (int a = 0; a < m.total_disks(); ++a)
    for (int b = a + 1; b < m.total_disks(); ++b) {
      auto plan = m.plan({a, b});
      ASSERT_TRUE(plan.is_ok()) << a << "," << b;
      EXPECT_LE(plan.value().read_accesses, 2) << a << "," << b;
    }
}

TEST_P(MultiPlanN, TraditionalSingleFailureNeedsCeilNOverRAccesses) {
  // The greedy planner splits the lost column across the R identical
  // copies, so ceil(n / R) reads land on the busiest disk — still far
  // worse than the shifted arrangement's 1.
  const int n = GetParam();
  const auto m = make(n, 2, false);
  auto plan = m.plan({0});
  ASSERT_TRUE(plan.is_ok());
  EXPECT_EQ(plan.value().read_accesses, (n + 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(N, MultiPlanN, ::testing::Values(3, 4, 5, 7));

TEST(MultiPlan, TripleFailureBeyondToleranceRejected) {
  const auto m = make(5, 2, true);
  auto plan = m.plan({0, 1, 2});
  EXPECT_FALSE(plan.is_ok());
  EXPECT_EQ(plan.status().code(), ErrorCode::kUnrecoverable);
}

TEST(MultiPlan, SharedReadsAreDeduplicated) {
  // Traditional: failing data disk 0 and its copy in array 1 leaves the
  // copy in array 2; every lost element of both disks is fed by ONE
  // read of the surviving copy.
  const auto m = make(4, 2, false);
  auto plan = m.plan({0, m.replica_disk(1, 0)});
  ASSERT_TRUE(plan.is_ok());
  EXPECT_EQ(plan.value().unique_reads.size(), 4u);
  EXPECT_EQ(plan.value().recoveries.size(), 8u);  // 2 disks x 4 rows
  EXPECT_EQ(plan.value().read_accesses, 4);       // all on one disk
}

TEST(MultiPlan, MalformedInputRejected) {
  const auto m = make(3, 2, true);
  EXPECT_EQ(m.plan({-1}).status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(m.plan({99}).status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(m.plan({1, 1}).status().code(), ErrorCode::kInvalidArgument);
}

TEST(MultiPlan, DoubleFailureCaseTable) {
  const auto shifted = make(5, 2, true);
  long total_cases = 0;
  for (const auto& row : shifted.enumerate_double_failure_cases()) {
    total_cases += row.cases;
    EXPECT_LE(row.max_accesses, 2) << row.label;
    EXPECT_GE(row.min_accesses, 1) << row.label;
  }
  EXPECT_EQ(total_cases, 15 * 14 / 2);

  const auto trad = make(5, 2, false);
  int worst = 0;
  for (const auto& row : trad.enumerate_double_failure_cases())
    worst = std::max(worst, row.max_accesses);
  // Losing a data disk together with one of its copies forces the
  // whole column onto the single remaining copy: n accesses.
  EXPECT_EQ(worst, 5);
}

TEST(MultiPlan, CaseTableClassCounts) {
  const auto m = make(4, 2, true);  // 12 disks
  std::map<std::string, long> counts;
  for (const auto& row : m.enumerate_double_failure_cases())
    counts[row.label] = row.cases;
  EXPECT_EQ(counts["both data"], 6);                // C(4,2)
  EXPECT_EQ(counts["data + replica array"], 32);    // 4 * 8
  EXPECT_EQ(counts["same replica array"], 12);      // 2 * C(4,2)
  EXPECT_EQ(counts["two replica arrays"], 16);      // 4 * 4
}

MultiArrayConfig array_cfg(int n, int replicas, bool shifted) {
  MultiArrayConfig cfg;
  cfg.layout.n = n;
  cfg.layout.replica_arrays = replicas;
  cfg.layout.shifted = shifted;
  cfg.content_bytes = 64;
  return cfg;
}

TEST(MultiArray, InitializeAndVerify) {
  auto arr = MultiMirrorArray::create(array_cfg(4, 2, true));
  ASSERT_TRUE(arr.is_ok());
  arr.value().initialize();
  EXPECT_TRUE(arr.value().verify_all().is_ok());
}

TEST(MultiArray, VerifyCatchesCorruption) {
  auto arrr = MultiMirrorArray::create(array_cfg(3, 2, true));
  ASSERT_TRUE(arrr.is_ok());
  auto& arr = arrr.value();
  arr.initialize();
  arr.content(4, 1, 1)[0] ^= 0x01;
  EXPECT_EQ(arr.verify_all().code(), ErrorCode::kCorruption);
}

class MultiArrayRebuild
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(MultiArrayRebuild, EveryDoubleFailureRebuildsAndVerifies) {
  const auto [n, shifted] = GetParam();
  auto proto = array_cfg(n, 2, shifted);
  const int total = (2 + 1) * n;
  for (int a = 0; a < total; ++a) {
    for (int b = a + 1; b < total; ++b) {
      auto arrr = MultiMirrorArray::create(proto);
      ASSERT_TRUE(arrr.is_ok());
      auto& arr = arrr.value();
      arr.initialize();
      arr.fail_physical(a);
      arr.fail_physical(b);
      auto report = arr.reconstruct();
      ASSERT_TRUE(report.is_ok())
          << a << "," << b << ": " << report.status().to_string();
      EXPECT_TRUE(arr.failed_physical().empty());
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
    auto arrr = MultiMirrorArray::create(array_cfg(5, 2, shifted));
    ASSERT_TRUE(arrr.is_ok());
    auto& arr = arrr.value();
    arr.initialize();
    arr.fail_physical(0);
    auto report = arr.reconstruct();
    ASSERT_TRUE(report.is_ok());
    mbps[shifted ? 1 : 0] = report.value().read_throughput_mbps();
  }
  EXPECT_GT(mbps[1], 1.3 * mbps[0]);
}

TEST(MultiArray, DegradedReadsCompleteWithTwoFailures) {
  auto arrr = MultiMirrorArray::create(array_cfg(5, 2, true));
  ASSERT_TRUE(arrr.is_ok());
  auto& arr = arrr.value();
  arr.initialize();
  arr.fail_physical(0);
  arr.fail_physical(7);
  auto report = arr.run_degraded_reads(1000, 3);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_GT(report.value().degraded_reads, 0u);
  EXPECT_GT(report.value().throughput_mbps(), 0.0);
  EXPECT_GE(report.value().load_imbalance, 1.0);
}

TEST(MultiArray, DegradedReadsHealthyArrayNoRedirects) {
  auto arrr = MultiMirrorArray::create(array_cfg(4, 2, true));
  ASSERT_TRUE(arrr.is_ok());
  arrr.value().initialize();
  auto report = arrr.value().run_degraded_reads(200, 9);
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report.value().degraded_reads, 0u);
}

TEST(MultiArray, DegradedReadsRejectOverTolerance) {
  auto arrr = MultiMirrorArray::create(array_cfg(3, 2, true));
  ASSERT_TRUE(arrr.is_ok());
  auto& arr = arrr.value();
  arr.initialize();
  arr.fail_physical(0);
  arr.fail_physical(1);
  arr.fail_physical(2);
  EXPECT_FALSE(arr.run_degraded_reads(10, 1).is_ok());
}

TEST(MultiArray, TraditionalThreeMirrorSplitsDegradedLoadAcrossCopies) {
  // With two identical replica arrays, redirected reads can alternate
  // between them — the three-mirror layout softens the RAID-1 hotspot
  // even without the shifted arrangement.
  auto cfg = array_cfg(4, 2, false);
  cfg.rotate = false;
  auto arrr = MultiMirrorArray::create(cfg);
  ASSERT_TRUE(arrr.is_ok());
  auto& arr = arrr.value();
  arr.initialize();
  arr.fail_physical(0);  // data disk 0 in every stripe
  auto report = arr.run_degraded_reads(2000, 5);
  ASSERT_TRUE(report.is_ok());
  // Redirected load (~500 reads) splits over the local-0 disks of both
  // replica arrays instead of hammering one partner.
  EXPECT_GT(report.value().degraded_reads, 400u);
  const auto copy1 = arr.physical(arr.layout().replica_disk(1, 0))
                         .counters().reads;
  const auto copy2 = arr.physical(arr.layout().replica_disk(2, 0))
                         .counters().reads;
  EXPECT_EQ(copy1 + copy2, report.value().degraded_reads);
  EXPECT_LT(copy1, 0.65 * static_cast<double>(report.value().degraded_reads));
  EXPECT_LT(copy2, 0.65 * static_cast<double>(report.value().degraded_reads));
}

TEST(MultiOnline, CompletesAndCollectsLatencies) {
  auto arrr = MultiMirrorArray::create(array_cfg(4, 2, true));
  ASSERT_TRUE(arrr.is_ok());
  auto& arr = arrr.value();
  arr.initialize();
  arr.fail_physical(0);
  MmOnlineConfig cfg;
  cfg.arrival.max_requests = 150;
  auto report = run_online_reconstruction(arr, cfg);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_GT(report.value().rebuild_done_s, 0.0);
  EXPECT_EQ(report.value().user_reads, 150u);
  EXPECT_GT(report.value().mean_latency_s, 0.0);
  EXPECT_GE(report.value().p99_latency_s, report.value().p50_latency_s);
}

TEST(MultiOnline, HandlesDoubleFailure) {
  auto arrr = MultiMirrorArray::create(array_cfg(4, 2, true));
  ASSERT_TRUE(arrr.is_ok());
  auto& arr = arrr.value();
  arr.initialize();
  arr.fail_physical(1);
  arr.fail_physical(6);
  MmOnlineConfig cfg;
  cfg.arrival.max_requests = 100;
  auto report = run_online_reconstruction(arr, cfg);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_GT(report.value().degraded_reads, 0u);
}

TEST(MultiOnline, RejectsNoFailureAndOverTolerance) {
  auto arrr = MultiMirrorArray::create(array_cfg(3, 2, true));
  ASSERT_TRUE(arrr.is_ok());
  auto& arr = arrr.value();
  arr.initialize();
  EXPECT_FALSE(run_online_reconstruction(arr).is_ok());
  arr.fail_physical(0);
  arr.fail_physical(1);
  arr.fail_physical(2);
  EXPECT_FALSE(run_online_reconstruction(arr).is_ok());
}

TEST(MultiOnline, ShiftedRebuildCompletesSoonerThanTraditional) {
  double done[2];
  for (const bool shifted : {false, true}) {
    auto arrr = MultiMirrorArray::create(array_cfg(5, 2, shifted));
    ASSERT_TRUE(arrr.is_ok());
    auto& arr = arrr.value();
    arr.initialize();
    arr.fail_physical(0);
    MmOnlineConfig cfg;
    cfg.arrival.max_requests = 200;
    cfg.arrival.seed = 77;
    auto report = run_online_reconstruction(arr, cfg);
    ASSERT_TRUE(report.is_ok());
    done[shifted ? 1 : 0] = report.value().rebuild_done_s;
  }
  EXPECT_LT(done[1], done[0]);
}

// Golden pins for the latency fields of the R = 3 (two replica arrays)
// engine under the adaptive throttle, recorded with the one-add-at-a-
// time statistics that the vector-built SampleSets replaced.
TEST(MultiOnline, AdaptiveLatenciesArePinned) {
  const struct {
    bool shifted;
    double mean, p50, p95, p99, p999, slo_violation_pct;
  } cases[] = {{true, 0.099210908378111723, 0.080392700729927213,
                0.1652348788130969, 0.22141155562953241, 0.28303853021048708,
                9.1666666666666661},
               {false, 0.097627707644307851, 0.080392700729927213,
                0.15897838202364273, 0.21181354050041329, 0.2530968946882004,
                8.5}};
  for (const auto& c : cases) {
    MultiArrayConfig acfg = array_cfg(4, 2, c.shifted);
    acfg.stripes = 2 * 12;  // two stacks of the 12-disk array
    auto arrr = MultiMirrorArray::create(acfg);
    ASSERT_TRUE(arrr.is_ok());
    auto& arr = arrr.value();
    arr.initialize();
    arr.fail_physical(0);
    MmOnlineConfig cfg;
    cfg.arrival.rate_hz = 40.0;
    cfg.arrival.max_requests = 600;
    cfg.arrival.seed = 2012;
    cfg.qos.policy = workload::RebuildPolicy::kAdaptive;
    cfg.qos.p99_target_s = 0.150;
    const auto r = run_online_reconstruction(arr, cfg);
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    const MmOnlineReport& rep = r.value();
    SCOPED_TRACE(testing::Message() << "shifted=" << c.shifted);
    EXPECT_EQ(rep.requests_completed, 600u);
    EXPECT_GT(rep.throttle_adjustments, 0);
    EXPECT_EQ(rep.mean_latency_s, c.mean);
    EXPECT_EQ(rep.p50_latency_s, c.p50);
    EXPECT_EQ(rep.p95_latency_s, c.p95);
    EXPECT_EQ(rep.p99_latency_s, c.p99);
    EXPECT_EQ(rep.p999_latency_s, c.p999);
    EXPECT_EQ(rep.slo_violation_pct, c.slo_violation_pct);
  }
}

TEST(MultiArray, NoFailureTrivialReport) {
  auto arrr = MultiMirrorArray::create(array_cfg(3, 2, true));
  ASSERT_TRUE(arrr.is_ok());
  arrr.value().initialize();
  auto report = arrr.value().reconstruct();
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report.value().logical_bytes_read, 0u);
}

}  // namespace
}  // namespace sma::mm
