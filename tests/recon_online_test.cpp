#include "recon/online.hpp"

#include <bit>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "obs/trace_sink.hpp"
#include "recon/executor.hpp"
#include "recon/failure.hpp"
#include "util/stats.hpp"

namespace sma::recon {
namespace {

array::ArrayConfig cfg_for(layout::Architecture arch, int stacks = 2) {
  array::ArrayConfig cfg;
  cfg.arch = arch;
  cfg.stripes = stacks * arch.total_disks();
  cfg.content_bytes = 64;
  cfg.logical_element_bytes = 4'000'000;
  cfg.seed = 5;
  return cfg;
}

TEST(Online, RequiresMirrorArchitecture) {
  array::DiskArray arr(cfg_for(layout::Architecture::raid5(3)));
  arr.initialize();
  arr.fail_physical(0);
  auto report = run_online_reconstruction(arr);
  EXPECT_FALSE(report.is_ok());
  EXPECT_EQ(report.status().code(), ErrorCode::kInvalidArgument);
}

TEST(Online, AcceptsHealthyRejectsDoubleFailure) {
  array::DiskArray arr(cfg_for(layout::Architecture::mirror(3, true)));
  arr.initialize();
  // Zero failures is a valid healthy-array serve (no rebuild traffic):
  // the fleet layer runs non-failed arrays through the same engine.
  auto none = run_online_reconstruction(arr);
  ASSERT_TRUE(none.is_ok()) << none.status().to_string();
  EXPECT_EQ(none.value().rebuild_done_s, 0.0);
  arr.fail_physical(0);
  arr.fail_physical(1);
  // Two failures exceed the mirror method's tolerance anyway.
  auto two = run_online_reconstruction(arr);
  EXPECT_FALSE(two.is_ok());
}

TEST(Online, TimingOnlyRebuildLeavesEveryDiskUnmaterialized) {
  // A rebuild with a write mix and the adaptive throttle, on an array
  // that was never initialized: the engine times element accesses but
  // never touches their bytes, so no disk allocates its store.
  array::ArrayConfig acfg = cfg_for(layout::Architecture::mirror(5, true), 64);
  acfg.content_bytes = 256;
  array::DiskArray arr(acfg);
  arr.fail_physical(0);
  OnlineConfig cfg;
  cfg.arrival.rate_hz = 30.0;
  cfg.arrival.max_requests = 2000;
  cfg.mix.write_fraction = 0.3;
  cfg.qos.policy = workload::RebuildPolicy::kAdaptive;
  cfg.qos.p99_target_s = 0.12;
  auto report = run_online_reconstruction(arr, cfg);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_GT(report.value().user_writes, 0u);
  EXPECT_GT(report.value().rebuild_done_s, 0.0);
  for (int d = 0; d < arr.physical_count(); ++d)
    EXPECT_FALSE(arr.physical(d).content_materialized()) << "disk " << d;
}

TEST(Online, ZeroLoadRebuildEqualsTheBatchExecutorsReadMakespan) {
  // The batch executor and the online engine agree exactly at zero
  // arrival rate: with no user request to yield to, the engine's rebuild
  // queues drain each disk's reads back to back from t = 0, which is the
  // barrier executor's read phase. So rebuild_done_s equals
  // reconstruct()'s read_makespan_s bit for bit (docs/SERVING.md).
  auto check = [](const layout::Architecture& arch,
                  const std::vector<int>& failed) {
    array::DiskArray batch(cfg_for(arch));
    batch.initialize();
    array::DiskArray online(cfg_for(arch));
    for (const int d : failed) {
      batch.fail_physical(d);
      online.fail_physical(d);
    }
    auto rebuilt = reconstruct(batch);
    ASSERT_TRUE(rebuilt.is_ok()) << rebuilt.status().to_string();
    OnlineConfig cfg;
    cfg.arrival.max_requests = 0;
    auto served = run_online_reconstruction(online, cfg);
    ASSERT_TRUE(served.is_ok()) << served.status().to_string();
    EXPECT_EQ(served.value().requests_issued, 0u);
    EXPECT_GT(served.value().rebuild_done_s, 0.0);
    std::string failed_list = std::to_string(failed[0]);
    if (failed.size() > 1) {
      failed_list += ',';
      failed_list += std::to_string(failed[1]);
    }
    EXPECT_EQ(served.value().rebuild_done_s, rebuilt.value().read_makespan_s)
        << arch.name() << " n=" << arch.n() << " R=" << arch.replicas()
        << " failed " << failed_list;
  };
  std::size_t cases = 0;
  for (int n = 3; n <= 7; ++n) {
    for (const bool shifted : {false, true}) {
      const auto mirror = layout::Architecture::mirror(n, shifted);
      const auto parity = layout::Architecture::mirror_with_parity(n, shifted);
      auto r2 = layout::Architecture::mirror_named(
          n, shifted ? "shifted" : "traditional", 2);
      ASSERT_TRUE(r2.is_ok());
      const layout::Architecture& replicated = r2.value();
      for (const auto* arch : {&mirror, &parity})
        for (int d = 0; d < arch->total_disks(); d += 2, ++cases)
          check(*arch, {d});
      // Every third double failure of the two tolerance-2 kinds.
      for (const auto* arch : {&parity, &replicated}) {
        const auto pairs = enumerate_double_failures(*arch);
        for (std::size_t k = 0; k < pairs.size(); k += 3, ++cases)
          check(*arch, pairs[k]);
      }
    }
  }
  EXPECT_EQ(cases, 688u);
}

TEST(Online, CompletesRebuildAndCollectsLatencies) {
  array::DiskArray arr(cfg_for(layout::Architecture::mirror(3, true)));
  arr.initialize();
  arr.fail_physical(0);
  OnlineConfig cfg;
  cfg.arrival.max_requests = 100;
  cfg.arrival.rate_hz = 20;
  auto report = run_online_reconstruction(arr, cfg);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_GT(report.value().rebuild_done_s, 0.0);
  EXPECT_EQ(report.value().user_reads, 100u);
  EXPECT_GT(report.value().mean_latency_s, 0.0);
  EXPECT_GE(report.value().p99_latency_s, report.value().p50_latency_s);
  EXPECT_GE(report.value().max_latency_s, report.value().p99_latency_s);
}

// The report's read statistics are one SampleSet over the completed
// reads; a set built from the per-request record must agree bit for
// bit. Read-only runs, so every completed entry is a read. Two cases
// stress the bookkeeping: a second failure reroutes orphaned reads
// (marking some degraded after arrival), and hedging without copy
// affinity (HedgeOnline.HedgedReadsFireWithoutCopyAffinity's setup)
// completes pairs whose losers must not count again.
TEST(Online, StatisticsMatchTheRecordedLatencies) {
  struct Case {
    const char* name;
    array::ArrayConfig array;
    OnlineConfig online;
  };
  std::vector<Case> cases;
  for (const bool shifted : {true, false}) {
    Case c{shifted ? "shifted" : "traditional",
           cfg_for(layout::Architecture::mirror(4, shifted), 4), {}};
    c.online.arrival.rate_hz = 60;
    c.online.arrival.max_requests = 800;
    cases.push_back(c);
  }
  {
    const auto r2 = layout::Architecture::mirror_named(4, "shifted", 2);
    Case c{"adaptive R=2", cfg_for(r2.value()), {}};
    c.online.arrival.max_requests = 400;
    c.online.qos.policy = workload::RebuildPolicy::kAdaptive;
    c.online.qos.p99_target_s = 0.1;
    cases.push_back(c);
  }
  {
    Case c{"second failure",
           cfg_for(layout::Architecture::mirror_with_parity(4, true)), {}};
    c.online.arrival.rate_hz = 40;
    c.online.arrival.max_requests = 300;
    c.online.arrival.seed = 33;
    c.online.second_failure_at_s = 1.0;
    c.online.second_failure_disk = 5;
    cases.push_back(c);
  }
  {
    Case c{"hedged without affinity",
           cfg_for(layout::Architecture::mirror(4, true), 4), {}};
    c.array.fault_overrides[2].slow_factor = 8.0;
    c.online.arrival.rate_hz = 150;
    c.online.arrival.max_requests = 1500;
    c.online.arrival.seed = 11;
    c.online.hedge.enabled = true;
    c.online.hedge.warmup_samples = 8;
    c.online.hedge.affinity_routing = false;
    cases.push_back(c);
  }
  for (Case& c : cases) {
    SCOPED_TRACE(c.name);
    c.online.record_latencies = true;
    array::DiskArray arr(c.array);
    arr.fail_physical(0);
    const auto r = run_online_reconstruction(arr, c.online);
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    const OnlineReport& rep = r.value();
    std::vector<double> completed;
    for (const double lat : rep.latencies)
      if (lat >= 0.0) completed.push_back(lat);
    const SampleSet set(std::move(completed));
    ASSERT_FALSE(set.empty());
    EXPECT_EQ(set.count(), rep.requests_completed);
    EXPECT_EQ(set.mean(), rep.mean_latency_s);
    EXPECT_EQ(set.percentile(50), rep.p50_latency_s);
    EXPECT_EQ(set.percentile(95), rep.p95_latency_s);
    EXPECT_EQ(set.percentile(99), rep.p99_latency_s);
    EXPECT_EQ(set.percentile(99.9), rep.p999_latency_s);
    EXPECT_EQ(set.max(), rep.max_latency_s);
    if (c.online.second_failure_disk >= 0) {
      EXPECT_TRUE(rep.second_failure_injected);
      EXPECT_GT(rep.degraded_reads, 0u);
    }
    if (c.online.hedge.enabled) {
      EXPECT_GT(rep.hedged_reads, 0u);
    }
  }
}

TEST(Online, DeterministicForFixedSeed) {
  auto run = [] {
    array::DiskArray arr(cfg_for(layout::Architecture::mirror(3, true)));
    arr.initialize();
    arr.fail_physical(2);
    OnlineConfig cfg;
    cfg.arrival.max_requests = 50;
    cfg.arrival.seed = 99;
    return run_online_reconstruction(arr, cfg);
  };
  auto a = run();
  auto b = run();
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_DOUBLE_EQ(a.value().mean_latency_s, b.value().mean_latency_s);
  EXPECT_DOUBLE_EQ(a.value().rebuild_done_s, b.value().rebuild_done_s);
  EXPECT_EQ(a.value().degraded_reads, b.value().degraded_reads);
}

TEST(Online, DegradedReadsServedFromReplica) {
  // Fail a data-array disk; roughly 1/n of user reads should target it
  // and be redirected, and all of them must complete.
  array::DiskArray arr(cfg_for(layout::Architecture::mirror(4, true)));
  arr.initialize();
  arr.fail_physical(1);
  OnlineConfig cfg;
  cfg.arrival.max_requests = 400;
  cfg.arrival.seed = 3;
  auto report = run_online_reconstruction(arr, cfg);
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report.value().user_reads, 400u);
  EXPECT_GT(report.value().degraded_reads, 0u);
  EXPECT_LT(report.value().degraded_reads, 200u);
  EXPECT_GT(report.value().mean_degraded_latency_s, 0.0);
}

TEST(Online, WriteMixProducesWriteLatencies) {
  array::DiskArray arr(cfg_for(layout::Architecture::mirror_with_parity(4, true)));
  arr.initialize();
  arr.fail_physical(0);
  OnlineConfig cfg;
  cfg.arrival.max_requests = 300;
  cfg.mix.write_fraction = 0.5;
  cfg.arrival.seed = 41;
  auto report = run_online_reconstruction(arr, cfg);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  const auto& r = report.value();
  EXPECT_EQ(r.user_reads + r.user_writes, 300u);
  EXPECT_GT(r.user_writes, 90u);  // ~150 expected
  EXPECT_LT(r.user_writes, 210u);
  EXPECT_GT(r.mean_write_latency_s, 0.0);
  EXPECT_GE(r.p99_write_latency_s, r.mean_write_latency_s);
}

TEST(Online, PureWriteWorkload) {
  array::DiskArray arr(cfg_for(layout::Architecture::mirror(3, true)));
  arr.initialize();
  arr.fail_physical(1);
  OnlineConfig cfg;
  cfg.arrival.max_requests = 100;
  cfg.mix.write_fraction = 1.0;
  auto report = run_online_reconstruction(arr, cfg);
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report.value().user_writes, 100u);
  EXPECT_EQ(report.value().user_reads, 0u);
  EXPECT_DOUBLE_EQ(report.value().mean_latency_s, 0.0);  // no reads
  EXPECT_GT(report.value().mean_write_latency_s, 0.0);
}

TEST(Online, WriteLatencyBoundedBelowByServiceTime) {
  // A write completes only when its slowest piece does; even unqueued
  // it cannot beat one positioning + one element transfer at the write
  // rate. (It CAN beat reads on this disk: writes stream at 130 MB/s
  // vs 54.8 MB/s reads — the paper's spec-sheet asymmetry.)
  array::DiskArray arr(cfg_for(layout::Architecture::mirror_with_parity(4, true)));
  arr.initialize();
  arr.fail_physical(2);
  OnlineConfig cfg;
  cfg.arrival.max_requests = 400;
  cfg.mix.write_fraction = 0.5;
  cfg.arrival.rate_hz = 10;  // light load isolates service times
  auto report = run_online_reconstruction(arr, cfg);
  ASSERT_TRUE(report.is_ok());
  const auto& spec = arr.physical(0).spec();
  const double min_service =
      spec.positioning_s() + spec.write_transfer_s(4'000'000);
  EXPECT_GE(report.value().mean_write_latency_s, min_service);
  // Reads are slower per element on this disk model.
  EXPECT_GT(report.value().mean_latency_s,
            report.value().mean_write_latency_s * 0.8);
}

TEST(Online, RejectsBadWriteFraction) {
  array::DiskArray arr(cfg_for(layout::Architecture::mirror(3, true)));
  arr.initialize();
  arr.fail_physical(0);
  OnlineConfig cfg;
  cfg.mix.write_fraction = 1.5;
  EXPECT_FALSE(run_online_reconstruction(arr, cfg).is_ok());
}

TEST(Online, SecondFailureMidRebuildAbsorbedWithParity) {
  array::DiskArray arr(cfg_for(layout::Architecture::mirror_with_parity(4, true)));
  arr.initialize();
  arr.fail_physical(0);
  OnlineConfig cfg;
  cfg.arrival.max_requests = 300;
  cfg.arrival.rate_hz = 40;
  cfg.second_failure_at_s = 1.0;
  cfg.second_failure_disk = 5;
  cfg.arrival.seed = 33;
  auto report = run_online_reconstruction(arr, cfg);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_TRUE(report.value().second_failure_injected);
  EXPECT_GT(report.value().rebuild_done_s, 1.0);  // work continued past it
  EXPECT_EQ(report.value().user_reads + report.value().user_writes, 300u);
}

TEST(Online, SecondFailureCostsRebuildTime) {
  auto run = [](bool inject) {
    array::DiskArray arr(
        cfg_for(layout::Architecture::mirror_with_parity(4, true)));
    arr.initialize();
    arr.fail_physical(0);
    OnlineConfig cfg;
    cfg.arrival.max_requests = 100;
    cfg.arrival.seed = 12;
    if (inject) {
      cfg.second_failure_at_s = 0.5;
      cfg.second_failure_disk = 2;
    }
    auto r = run_online_reconstruction(arr, cfg);
    EXPECT_TRUE(r.is_ok()) << r.status().to_string();
    return r.value().rebuild_done_s;
  };
  EXPECT_GT(run(true), run(false));
}

TEST(Online, SecondFailureRejectedWithoutParity) {
  array::DiskArray arr(cfg_for(layout::Architecture::mirror(3, true)));
  arr.initialize();
  arr.fail_physical(0);
  OnlineConfig cfg;
  cfg.second_failure_at_s = 1.0;
  cfg.second_failure_disk = 1;
  auto report = run_online_reconstruction(arr, cfg);
  EXPECT_FALSE(report.is_ok());
  EXPECT_EQ(report.status().code(), ErrorCode::kInvalidArgument);
}

TEST(Online, SecondFailureValidation) {
  array::DiskArray arr(cfg_for(layout::Architecture::mirror_with_parity(3, true)));
  arr.initialize();
  arr.fail_physical(0);
  OnlineConfig cfg;
  cfg.second_failure_at_s = 1.0;
  cfg.second_failure_disk = 0;  // same disk as the first failure
  EXPECT_FALSE(run_online_reconstruction(arr, cfg).is_ok());
  cfg.second_failure_disk = 99;
  EXPECT_FALSE(run_online_reconstruction(arr, cfg).is_ok());
}

TEST(Online, SecondFailureLateIsHarmless) {
  // Injection far after the rebuild drains: the dead disk's own rebuild
  // restarts and completes; everything stays consistent.
  array::DiskArray arr(cfg_for(layout::Architecture::mirror_with_parity(3, true)));
  arr.initialize();
  arr.fail_physical(0);
  OnlineConfig cfg;
  cfg.arrival.max_requests = 20;
  cfg.arrival.rate_hz = 200;  // arrivals finish early
  cfg.second_failure_at_s = 500.0;
  cfg.second_failure_disk = 4;
  auto report = run_online_reconstruction(arr, cfg);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_GE(report.value().rebuild_done_s, 500.0);
}

TEST(Online, ShiftedKeepsUserLatencyLowerUnderRebuildPressure) {
  // With rebuild traffic concentrated on one partner disk, traditional
  // user reads hitting that disk queue badly. Same seed & workload.
  auto run = [](bool shifted) {
    array::DiskArray arr(cfg_for(layout::Architecture::mirror(5, shifted), 4));
    arr.initialize();
    arr.fail_physical(0);
    OnlineConfig cfg;
    cfg.arrival.max_requests = 300;
    cfg.arrival.rate_hz = 30;
    cfg.arrival.seed = 17;
    auto r = run_online_reconstruction(arr, cfg);
    EXPECT_TRUE(r.is_ok());
    return r.value();
  };
  const auto trad = run(false);
  const auto shift = run(true);
  EXPECT_LT(shift.p99_latency_s, trad.p99_latency_s);
}

TEST(Online, SecondFailureThenOfflineRebuildVerifies) {
  // The replanned double-failure rebuild must leave the array in a
  // state the byte-level rebuild can complete and verify.
  array::DiskArray arr(
      cfg_for(layout::Architecture::mirror_with_parity(4, true)));
  arr.initialize();
  arr.fail_physical(0);
  OnlineConfig cfg;
  cfg.arrival.max_requests = 200;
  cfg.arrival.rate_hz = 40;
  cfg.second_failure_at_s = 1.0;
  cfg.second_failure_disk = 5;
  cfg.arrival.seed = 21;
  auto online = run_online_reconstruction(arr, cfg);
  ASSERT_TRUE(online.is_ok()) << online.status().to_string();
  ASSERT_TRUE(online.value().second_failure_injected);
  ASSERT_EQ(arr.failed_physical().size(), 2u);
  auto rebuild = reconstruct(arr);
  ASSERT_TRUE(rebuild.is_ok()) << rebuild.status().to_string();
  EXPECT_EQ(rebuild.value().unrecoverable_elements, 0u);
  EXPECT_TRUE(arr.verify_all().is_ok());
}

TEST(Online, ScheduledFailStopAbsorbedLikeSecondFailure) {
  auto acfg = cfg_for(layout::Architecture::mirror_with_parity(4, true));
  acfg.fault_overrides[5].fail_at_s = 1.0;  // dies when next addressed
  array::DiskArray arr(acfg);
  arr.initialize();
  arr.fail_physical(0);
  OnlineConfig cfg;
  cfg.arrival.max_requests = 300;
  cfg.arrival.rate_hz = 40;
  cfg.arrival.seed = 33;
  auto report = run_online_reconstruction(arr, cfg);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(report.value().fail_stops_absorbed, 1);
  EXPECT_TRUE(arr.physical(5).failed());
  EXPECT_GT(report.value().rebuild_done_s, 1.0);  // rebuild continued
  // The fail-stopped disk is a real second failure: the offline rebuild
  // recovers both disks through the parity architecture.
  auto rebuild = reconstruct(arr);
  ASSERT_TRUE(rebuild.is_ok()) << rebuild.status().to_string();
  EXPECT_TRUE(arr.verify_all().is_ok());
}

TEST(Online, ScheduledFailStopBeyondToleranceIsUnrecoverable) {
  auto acfg = cfg_for(layout::Architecture::mirror(3, true));  // tolerance 1
  acfg.fault_overrides[3].fail_at_s = 0.5;
  array::DiskArray arr(acfg);
  arr.initialize();
  arr.fail_physical(0);
  OnlineConfig cfg;
  cfg.arrival.max_requests = 200;
  cfg.arrival.rate_hz = 40;
  auto report = run_online_reconstruction(arr, cfg);
  ASSERT_FALSE(report.is_ok());
  EXPECT_EQ(report.status().code(), ErrorCode::kUnrecoverable);
}

TEST(Online, TransientErrorsRetriedInPlace) {
  auto acfg = cfg_for(layout::Architecture::mirror(3, true));
  acfg.fault.transient_read_error_p = 0.05;
  acfg.fault.seed = 9;
  array::DiskArray arr(acfg);
  arr.initialize();
  arr.fail_physical(0);
  OnlineConfig cfg;
  cfg.arrival.max_requests = 200;
  cfg.arrival.rate_hz = 40;
  auto report = run_online_reconstruction(arr, cfg);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_GT(report.value().io_retries, 0u);
  EXPECT_EQ(report.value().user_reads + report.value().user_writes, 200u);
}

// The observability layer must be a pure observer: running the same
// simulation with full tracing + metrics attached has to produce a
// bit-identical OnlineReport to the null-observer run.
TEST(Online, TracingOnAndOffYieldIdenticalReports) {
  auto run = [](obs::Observer* observer) {
    auto acfg = cfg_for(layout::Architecture::mirror_with_parity(3, true));
    acfg.fault.transient_read_error_p = 0.02;  // exercise the retry path
    acfg.fault.seed = 11;
    array::DiskArray arr(acfg);
    arr.initialize();
    arr.fail_physical(0);
    OnlineConfig cfg;
    cfg.arrival.max_requests = 150;
    cfg.arrival.rate_hz = 30;
    cfg.mix.write_fraction = 0.2;
    cfg.second_failure_at_s = 1.0;
    cfg.second_failure_disk = 3;
    cfg.arrival.seed = 42;
    cfg.observer = observer;
    return run_online_reconstruction(arr, cfg);
  };

  obs::TraceSink trace;
  obs::MetricsRegistry metrics;
  metrics.set_sample_interval(0.25);
  obs::Observer ob;
  ob.trace = &trace;
  ob.metrics = &metrics;

  auto off = run(nullptr);
  auto on = run(&ob);
  ASSERT_TRUE(off.is_ok()) << off.status().to_string();
  ASSERT_TRUE(on.is_ok()) << on.status().to_string();

  const auto& a = off.value();
  const auto& b = on.value();
  EXPECT_EQ(a.rebuild_done_s, b.rebuild_done_s);  // bit-exact on purpose
  EXPECT_EQ(a.mean_latency_s, b.mean_latency_s);
  EXPECT_EQ(a.p50_latency_s, b.p50_latency_s);
  EXPECT_EQ(a.p95_latency_s, b.p95_latency_s);
  EXPECT_EQ(a.p99_latency_s, b.p99_latency_s);
  EXPECT_EQ(a.max_latency_s, b.max_latency_s);
  EXPECT_EQ(a.mean_degraded_latency_s, b.mean_degraded_latency_s);
  EXPECT_EQ(a.mean_write_latency_s, b.mean_write_latency_s);
  EXPECT_EQ(a.p99_write_latency_s, b.p99_write_latency_s);
  EXPECT_EQ(a.user_reads, b.user_reads);
  EXPECT_EQ(a.user_writes, b.user_writes);
  EXPECT_EQ(a.degraded_reads, b.degraded_reads);
  EXPECT_EQ(a.io_retries, b.io_retries);
  EXPECT_EQ(a.io_failures, b.io_failures);
  EXPECT_EQ(a.second_failure_injected, b.second_failure_injected);

  // And the instrumented run actually observed the simulation.
  EXPECT_GT(trace.count(obs::EventKind::kRequestArrive), 0u);
  EXPECT_GT(trace.count(obs::EventKind::kServiceStart), 0u);
  EXPECT_GT(trace.count(obs::EventKind::kRebuildIssue), 0u);
  EXPECT_GT(trace.count(obs::EventKind::kRebuildComplete), 0u);
  EXPECT_EQ(trace.count(obs::EventKind::kFailure), 2u);  // initial + injected
  EXPECT_GT(trace.count(obs::EventKind::kRetry), 0u);
  EXPECT_FALSE(metrics.timeline().empty());
  EXPECT_EQ(metrics.probe_count(), 0u);  // probes cleared before returning
}

// Service spans recorded by the disks must tile each disk's busy time:
// per-disk spans are non-overlapping and ordered.
TEST(Online, ServiceSpansAreOrderedPerDisk) {
  array::DiskArray arr(cfg_for(layout::Architecture::mirror(3, true)));
  arr.initialize();
  arr.fail_physical(0);

  obs::TraceSink trace;
  obs::Observer ob;
  ob.trace = &trace;
  OnlineConfig cfg;
  cfg.arrival.max_requests = 80;
  cfg.observer = &ob;
  auto report = run_online_reconstruction(arr, cfg);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();

  std::map<int, double> last_end;
  std::size_t spans = 0;
  for (const auto& ev : trace.events()) {
    if (ev.kind != obs::EventKind::kServiceStart) continue;
    ++spans;
    ASSERT_GE(ev.disk, 0);
    EXPECT_GT(ev.dur_s, 0.0);
    auto [it, fresh] = last_end.try_emplace(ev.disk, 0.0);
    if (!fresh) {
      EXPECT_GE(ev.t_s, it->second);
    }
    it->second = ev.t_s + ev.dur_s;
  }
  EXPECT_GT(spans, 0u);
}

// The event-batched rebuild drain (OnlineConfig::batch_drains, default
// on) must reproduce the one-event-per-element schedule bit for bit:
// batching changes how many kernel events the drain costs, never what
// the simulated array does. Swept across arrangements, scales, and
// read/write mixes; every report field that is not a wall-clock
// artifact must be exactly equal.
TEST(Online, BatchedDrainsMatchPerEventSchedule) {
  struct Case {
    int n;
    bool shifted;
    int stacks;
    double rate_hz;
    int max_requests;
    double write_fraction;
    std::uint64_t seed;
  };
  const Case cases[] = {
      {5, true, 4, 40, 300, 0.0, 7},
      {5, false, 4, 40, 300, 0.0, 7},
      {3, true, 32, 400, 1500, 0.5, 99},
      {7, true, 64, 30, 200, 0.2, 2012},
  };
  for (const Case& c : cases) {
    auto run = [&](bool batch) {
      array::DiskArray arr(
          cfg_for(layout::Architecture::mirror(c.n, c.shifted), c.stacks));
      arr.fail_physical(1);
      OnlineConfig cfg;
      cfg.arrival.rate_hz = c.rate_hz;
      cfg.arrival.max_requests = c.max_requests;
      cfg.arrival.seed = c.seed;
      cfg.mix.write_fraction = c.write_fraction;
      cfg.batch_drains = batch;
      auto report = run_online_reconstruction(arr, cfg);
      EXPECT_TRUE(report.is_ok()) << report.status().to_string();
      return report.is_ok() ? report.value() : OnlineReport{};
    };
    const OnlineReport a = run(true);
    const OnlineReport b = run(false);
    EXPECT_EQ(a.rebuild_done_s, b.rebuild_done_s);  // bit-exact on purpose
    EXPECT_EQ(a.requests_issued, b.requests_issued);
    EXPECT_EQ(a.requests_completed, b.requests_completed);
    EXPECT_EQ(a.user_reads, b.user_reads);
    EXPECT_EQ(a.user_writes, b.user_writes);
    EXPECT_EQ(a.degraded_reads, b.degraded_reads);
    EXPECT_EQ(a.mean_latency_s, b.mean_latency_s);
    EXPECT_EQ(a.p50_latency_s, b.p50_latency_s);
    EXPECT_EQ(a.p95_latency_s, b.p95_latency_s);
    EXPECT_EQ(a.p99_latency_s, b.p99_latency_s);
    EXPECT_EQ(a.p999_latency_s, b.p999_latency_s);
    EXPECT_EQ(a.max_latency_s, b.max_latency_s);
    EXPECT_EQ(a.mean_degraded_latency_s, b.mean_degraded_latency_s);
    EXPECT_EQ(a.mean_write_latency_s, b.mean_write_latency_s);
    EXPECT_EQ(a.p99_write_latency_s, b.p99_write_latency_s);
    EXPECT_EQ(a.state_changes, b.state_changes);
    EXPECT_EQ(a.final_state, b.final_state);
  }
}

// Configurations outside the batch gate — a throttle policy, a second
// failure, fault profiles able to fire mid-run — must take the
// per-event path and still produce identical results with the flag on
// or off (the flag is then inert, not merely harmless).
TEST(Online, BatchGateDisablesUnderThrottleAndSecondFailure) {
  auto run = [&](bool batch) {
    auto acfg = cfg_for(layout::Architecture::mirror_with_parity(3, true), 8);
    array::DiskArray arr(acfg);
    arr.fail_physical(0);
    OnlineConfig cfg;
    cfg.arrival.max_requests = 200;
    cfg.arrival.rate_hz = 60;
    cfg.arrival.seed = 42;
    cfg.qos.policy = workload::RebuildPolicy::kFixedBudget;
    cfg.qos.rebuild_budget = 2;
    cfg.second_failure_at_s = 1.0;
    cfg.second_failure_disk = 3;
    cfg.batch_drains = batch;
    auto report = run_online_reconstruction(arr, cfg);
    EXPECT_TRUE(report.is_ok()) << report.status().to_string();
    return report.is_ok() ? report.value() : OnlineReport{};
  };
  const OnlineReport a = run(true);
  const OnlineReport b = run(false);
  EXPECT_TRUE(a.second_failure_injected);
  EXPECT_EQ(a.rebuild_done_s, b.rebuild_done_s);
  EXPECT_EQ(a.requests_completed, b.requests_completed);
  EXPECT_EQ(a.p99_latency_s, b.p99_latency_s);
  EXPECT_EQ(a.final_rebuild_budget, b.final_rebuild_budget);
}

// Golden pins for every latency field of the report: 30 % writes under
// the adaptive throttle (which also exercises the control-tick window
// p99), recorded while every set was still filled one add at a time;
// the window's set is now built from a vector. record_latencies must
// not matter.
TEST(OnlineGolden, AdaptiveWriteMixLatenciesArePinned) {
  const struct {
    bool shifted;
    double mean, p50, p95, p99, p999, max, mean_degraded, mean_write,
        p99_write, slo_violation_pct;
  } cases[] = {
      {true, 0.087170455500386379, 0.080392700729927213,
       0.13384661625058669, 0.15506495960860944, 0.19433213535979449,
       0.21398595119704789, 0.088314019689154033, 0.050527688196371962,
       0.12848717071760882, 7.1428571428571432},
      {false, 0.091794835546620268, 0.080392700729927213,
       0.15258127301088464, 0.21213635206504086, 0.23464829443856675,
       0.24378468113124718, 0.11263859046421977, 0.051300101716331238,
       0.13499646187346029, 11.576354679802956}};
  for (const auto& c : cases) {
    for (const bool record : {false, true}) {
      array::DiskArray arr(cfg_for(layout::Architecture::mirror(5, c.shifted)));
      arr.initialize();
      arr.fail_physical(0);
      OnlineConfig cfg;
      cfg.arrival.rate_hz = 20.0;
      cfg.arrival.max_requests = 600;
      cfg.arrival.seed = 2012;
      cfg.mix.write_fraction = 0.3;
      cfg.qos.policy = workload::RebuildPolicy::kAdaptive;
      cfg.qos.p99_target_s = 0.120;
      cfg.record_latencies = record;
      const auto r = run_online_reconstruction(arr, cfg);
      ASSERT_TRUE(r.is_ok()) << r.status().to_string();
      const OnlineReport& rep = r.value();
      SCOPED_TRACE(testing::Message()
                   << "shifted=" << c.shifted << " record=" << record);
      EXPECT_EQ(rep.requests_completed, 600u);
      EXPECT_GT(rep.throttle_adjustments, 0);
      EXPECT_EQ(rep.mean_latency_s, c.mean);
      EXPECT_EQ(rep.p50_latency_s, c.p50);
      EXPECT_EQ(rep.p95_latency_s, c.p95);
      EXPECT_EQ(rep.p99_latency_s, c.p99);
      EXPECT_EQ(rep.p999_latency_s, c.p999);
      EXPECT_EQ(rep.max_latency_s, c.max);
      EXPECT_EQ(rep.mean_degraded_latency_s, c.mean_degraded);
      EXPECT_EQ(rep.mean_write_latency_s, c.mean_write);
      EXPECT_EQ(rep.p99_write_latency_s, c.p99_write);
      EXPECT_EQ(rep.slo_violation_pct, c.slo_violation_pct);
    }
  }
}

// Golden pins for the latency fields of the R = 2 (three-mirror) array
// under the adaptive throttle. The values are those the former
// multi-mirror engine gave once it drew the read/write mix per arrival
// as this engine does (one rng.next_bool per request after the row
// draw); with that draw the two engines agreed bit for bit.
TEST(OnlineGolden, ThreeMirrorAdaptiveLatenciesArePinned) {
  const struct {
    bool shifted;
    double mean, p50, p95, p99, p999, slo_violation_pct;
    std::size_t degraded_reads;
  } cases[] = {{true, 0.098458092378493553, 0.080392700729927213,
                0.16411530983903108, 0.24538312681455149, 0.31851644142940533,
                9.1666666666666661, 41},
               {false, 0.10006758243910503, 0.080392700729927213,
                0.17662281712829991, 0.2436057736616046, 0.2858605645476745,
                10, 41}};
  for (const auto& c : cases) {
    const auto arch =
        layout::Architecture::mirror_named(
            4, c.shifted ? "shifted" : "traditional", /*replicas=*/2)
            .take();
    array::ArrayConfig acfg = cfg_for(arch);  // two stacks: 24 stripes
    array::DiskArray arr(acfg);
    arr.initialize();
    arr.fail_physical(0);
    OnlineConfig cfg;
    cfg.arrival.rate_hz = 40.0;
    cfg.arrival.max_requests = 600;
    cfg.arrival.seed = 2012;
    cfg.qos.policy = workload::RebuildPolicy::kAdaptive;
    cfg.qos.p99_target_s = 0.150;
    const auto r = run_online_reconstruction(arr, cfg);
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    const OnlineReport& rep = r.value();
    SCOPED_TRACE(testing::Message() << "shifted=" << c.shifted);
    EXPECT_EQ(rep.requests_completed, 600u);
    EXPECT_GT(rep.throttle_adjustments, 0);
    EXPECT_EQ(rep.mean_latency_s, c.mean);
    EXPECT_EQ(rep.p50_latency_s, c.p50);
    EXPECT_EQ(rep.p95_latency_s, c.p95);
    EXPECT_EQ(rep.p99_latency_s, c.p99);
    EXPECT_EQ(rep.p999_latency_s, c.p999);
    EXPECT_EQ(rep.slo_violation_pct, c.slo_violation_pct);
    EXPECT_EQ(rep.degraded_reads, c.degraded_reads);
  }
}

// --- engine stage digests --------------------------------------------------

// One engine run of a stage family: the array, the disks failed before
// the run, and the serving config.
struct StageRun {
  array::ArrayConfig array;
  std::vector<int> failed;
  OnlineConfig online;
};

// FNV-1a over everything one run produces: the status code, every
// OnlineReport field, the array's failed set and per-disk counters
// afterwards, and for an observed run the JSONL trace bytes, the
// metrics timeline and the counters.
class StageDigest {
 public:
  void fold(std::uint64_t v) { h_ = (h_ ^ v) * 0x100000001b3ull; }
  void fold_s(double v) { fold(std::bit_cast<std::uint64_t>(v)); }
  void fold_str(const std::string& s) {
    fold(s.size());
    for (const char c : s) fold(static_cast<unsigned char>(c));
  }
  std::uint64_t value() const { return h_; }

  void run(const StageRun& run, bool observe) {
    array::DiskArray arr(run.array);
    for (const int d : run.failed) arr.fail_physical(d);
    obs::TraceSink sink;
    obs::MetricsRegistry metrics;
    metrics.set_sample_interval(0.25);
    obs::Observer ob{&sink, &metrics};
    OnlineConfig online = run.online;
    if (observe) online.observer = &ob;
    const auto r = run_online_reconstruction(arr, online);
    fold(static_cast<std::uint64_t>(r.status().code()));
    if (r.is_ok()) report(r.value());
    const std::vector<int> failed = arr.failed_physical();
    fold(failed.size());
    for (const int d : failed) fold(static_cast<std::uint64_t>(d));
    for (int d = 0; d < arr.total_disks(); ++d) {
      const disk::DiskCounters& c = arr.physical(d).counters();
      fold(c.reads);
      fold(c.writes);
      fold(c.sequential);
      fold(c.transient_errors);
      fold(c.unreadable_errors);
      fold_s(c.busy_s);
    }
    if (!observe) return;
    std::ostringstream jsonl;
    EXPECT_TRUE(sink.write_jsonl(jsonl).is_ok());
    fold_str(jsonl.str());
    for (const std::string& column : metrics.columns()) fold_str(column);
    for (const auto& row : metrics.timeline()) {
      fold_s(row.t_s);
      for (const double v : row.values) fold_s(v);
    }
    for (const auto& [name, value] : metrics.counters()) {
      fold_str(name);
      fold(value);
    }
  }

 private:
  void report(const OnlineReport& r) {
    fold_s(r.rebuild_done_s);
    fold(r.user_reads);
    fold(r.user_writes);
    fold(r.requests_issued);
    fold(r.requests_completed);
    fold(r.degraded_reads);
    for (const double v :
         {r.mean_latency_s, r.p50_latency_s, r.p95_latency_s, r.p99_latency_s,
          r.p999_latency_s, r.max_latency_s, r.mean_degraded_latency_s,
          r.mean_write_latency_s, r.p99_write_latency_s, r.slo_violation_pct})
      fold_s(v);
    fold(r.second_failure_injected ? 1 : 0);
    fold(r.slo_violations);
    fold(static_cast<std::uint64_t>(r.final_rebuild_budget));
    fold(static_cast<std::uint64_t>(r.throttle_adjustments));
    fold(r.io_retries);
    fold(r.io_failures);
    fold(static_cast<std::uint64_t>(r.fail_stops_absorbed));
    fold(static_cast<std::uint64_t>(r.fail_slow_flagged));
    fold(r.affinity_reroutes);
    fold(r.hedged_reads);
    fold(r.hedge_wins);
    fold(r.hedge_wasted);
    fold(static_cast<std::uint64_t>(r.final_state));
    fold(static_cast<std::uint64_t>(r.state_changes));
    fold(r.latencies.size());
    for (const double v : r.latencies) fold_s(v);
  }

  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

StageRun stage_run(layout::Architecture arch, std::vector<int> failed,
                   int stacks = 2) {
  StageRun run;
  run.array = cfg_for(std::move(arch), stacks);
  run.failed = std::move(failed);
  run.online.arrival.rate_hz = 60.0;
  run.online.arrival.max_requests = 150;
  run.online.arrival.seed = 2026;
  return run;
}

layout::Architecture mirror_r(int n, const char* layout, int replicas) {
  return layout::Architecture::mirror_named(n, layout, replicas).take();
}

// Every run of a family once without and once with an observer.
std::uint64_t family_digest(const std::vector<StageRun>& runs) {
  StageDigest d;
  for (const StageRun& run : runs)
    for (const bool observe : {false, true}) d.run(run, observe);
  return d.value();
}

// Arrival: the four arrival processes, one with a write mix and
// latency recording.
std::vector<StageRun> arrival_family() {
  const auto arch = layout::Architecture::mirror(4, true);
  std::vector<StageRun> runs;
  StageRun poisson = stage_run(arch, {0});
  poisson.online.mix.write_fraction = 0.2;
  poisson.online.record_latencies = true;
  runs.push_back(poisson);
  StageRun closed = stage_run(arch, {0});
  closed.online.arrival.kind = workload::ArrivalKind::kClosedLoop;
  closed.online.arrival.clients = 3;
  closed.online.arrival.think_time_s = 0.05;
  runs.push_back(closed);
  StageRun bursty = stage_run(arch, {0});
  bursty.online.arrival.kind = workload::ArrivalKind::kBursty;
  bursty.online.arrival.rate_hz = 10.0;
  bursty.online.arrival.burst_rate_hz = 150.0;
  bursty.online.arrival.mean_burst_s = 0.3;
  bursty.online.arrival.mean_idle_s = 1.0;
  runs.push_back(bursty);
  StageRun trace = stage_run(arch, {0});
  trace.online.arrival.kind = workload::ArrivalKind::kTrace;
  for (int k = 0; k < 150; ++k)
    trace.online.arrival.trace.push_back({0.02 * k, k % 4 == 3});
  runs.push_back(trace);
  return runs;
}

// Routing: R = 1..3 replica arrays with writes, the mirror+parity
// parity path (an element whose data copy and replica both failed), and
// copy affinity away from a fail-slow primary.
std::vector<StageRun> routing_family() {
  std::vector<StageRun> runs;
  for (const auto& [n, replicas] : {std::pair{5, 1}, {4, 2}, {5, 3}}) {
    StageRun run = stage_run(mirror_r(n, "shifted", replicas), {0});
    run.online.mix.write_fraction = 0.25;
    runs.push_back(run);
  }
  runs.push_back(stage_run(mirror_r(5, "traditional", 3), {1, 7}));
  StageRun parity =
      stage_run(layout::Architecture::mirror_with_parity(4, true), {0, 4});
  parity.online.mix.write_fraction = 0.25;
  runs.push_back(parity);
  for (const int replicas : {1, 2}) {
    StageRun affinity = stage_run(mirror_r(4, "shifted", replicas), {0});
    affinity.array.fault_overrides[2].slow_factor = 8.0;
    affinity.online.arrival.max_requests = 400;
    affinity.online.hedge.enabled = true;
    affinity.online.hedge.warmup_samples = 4;
    affinity.online.hedge.hedge_reads = false;
    runs.push_back(affinity);
  }
  return runs;
}

// QoS admission: strict, fixed and adaptive, with an SLO target and a
// write mix, on both arrangements.
std::vector<StageRun> qos_family() {
  std::vector<StageRun> runs;
  for (const bool shifted : {true, false}) {
    for (const auto policy :
         {workload::RebuildPolicy::kStrictPriority,
          workload::RebuildPolicy::kFixedBudget,
          workload::RebuildPolicy::kAdaptive}) {
      StageRun run = stage_run(layout::Architecture::mirror(4, shifted), {0});
      run.online.arrival.rate_hz = 40.0;
      run.online.arrival.max_requests = 200;
      run.online.mix.write_fraction = 0.3;
      run.online.qos.policy = policy;
      run.online.qos.p99_target_s = 0.1;
      run.online.qos.rebuild_budget =
          policy == workload::RebuildPolicy::kFixedBudget ? 2 : 0;
      runs.push_back(run);
    }
  }
  return runs;
}

// Batched vs per-event drains: the same open-loop runs with the flag on
// and off, and a transient-fault array that refuses batching per disk.
// Only the unobserved runs can batch.
std::vector<StageRun> drain_family() {
  std::vector<StageRun> runs;
  for (const bool batch : {true, false}) {
    for (const bool shifted : {true, false}) {
      StageRun run =
          stage_run(layout::Architecture::mirror(5, shifted), {1}, 4);
      run.online.batch_drains = batch;
      runs.push_back(run);
    }
    StageRun trace = stage_run(layout::Architecture::mirror(4, true), {0}, 4);
    trace.online.batch_drains = batch;
    trace.online.arrival.kind = workload::ArrivalKind::kTrace;
    for (int k = 0; k < 60; ++k)
      trace.online.arrival.trace.push_back({0.5 + 0.05 * k, false});
    runs.push_back(trace);
    StageRun faulty =
        stage_run(layout::Architecture::mirror(4, true), {0}, 4);
    faulty.array.fault_overrides[3].transient_read_error_p = 0.1;
    faulty.array.fault_overrides[3].seed = 4;
    faulty.online.batch_drains = batch;
    runs.push_back(faulty);
  }
  return runs;
}

// Hedging: deadline-budgeted duplicates for reads queued to a fail-slow
// data disk, at R = 1 and R = 2, with and without copy affinity, a
// tight hedge budget, a milder limp (the original piece can win), and
// the slow disk dying with hedged pieces still queued on it.
std::vector<StageRun> hedge_family() {
  std::vector<StageRun> runs;
  auto hedged = [](layout::Architecture arch, std::vector<int> failed,
                   double slow) {
    StageRun run = stage_run(std::move(arch), std::move(failed));
    run.array.fault_overrides[2].slow_factor = slow;
    run.online.arrival.max_requests = 400;
    run.online.hedge.enabled = true;
    run.online.hedge.warmup_samples = 4;
    run.online.hedge.affinity_routing = false;
    return run;
  };
  for (const int replicas : {1, 2})
    runs.push_back(hedged(mirror_r(4, "shifted", replicas), {0}, 8.0));
  StageRun affinity = hedged(mirror_r(4, "shifted", 2), {0}, 8.0);
  affinity.online.hedge.affinity_routing = true;
  runs.push_back(affinity);
  StageRun budget = hedged(mirror_r(4, "shifted", 1), {0}, 8.0);
  budget.online.hedge.max_outstanding_hedges = 1;
  runs.push_back(budget);
  runs.push_back(hedged(mirror_r(4, "traditional", 1), {0}, 3.0));
  StageRun dies =
      hedged(layout::Architecture::mirror_with_parity(4, true), {0}, 8.0);
  dies.online.second_failure_at_s = 3.0;
  dies.online.second_failure_disk = 2;
  runs.push_back(dies);
  return runs;
}

// Failure handling: configured second failures (mirror+parity, R = 2),
// scheduled fail-stops within and beyond tolerance, a third failure that
// leaves the rebuild unplannable, latent sectors, and transient errors
// on a disk that dies mid-attempt.
std::vector<StageRun> failure_family() {
  std::vector<StageRun> runs;
  StageRun second =
      stage_run(layout::Architecture::mirror_with_parity(4, true), {0});
  second.online.second_failure_at_s = 1.0;
  second.online.second_failure_disk = 5;
  second.online.mix.write_fraction = 0.2;
  runs.push_back(second);
  StageRun second_r2 = stage_run(mirror_r(4, "shifted", 2), {0});
  second_r2.online.second_failure_at_s = 0.8;
  second_r2.online.second_failure_disk = 3;
  runs.push_back(second_r2);
  StageRun fail_stop =
      stage_run(layout::Architecture::mirror_with_parity(4, true), {0});
  fail_stop.array.fault_overrides[5].fail_at_s = 1.0;
  runs.push_back(fail_stop);
  // Under light load the fail-stop lands on a rebuild read instead.
  fail_stop.array.fault_overrides[5].fail_at_s = 0.3;
  fail_stop.online.arrival.rate_hz = 5.0;
  runs.push_back(fail_stop);
  StageRun beyond = stage_run(layout::Architecture::mirror(3, true), {0});
  beyond.array.fault_overrides[3].fail_at_s = 0.5;
  runs.push_back(beyond);
  StageRun third = second;
  third.array.fault_overrides[2].fail_at_s = 1.5;
  runs.push_back(third);
  StageRun latent =
      stage_run(layout::Architecture::mirror_with_parity(4, true), {0});
  latent.array.fault.latent_error_rate = 0.05;
  latent.array.fault.transient_read_error_p = 0.05;
  latent.array.fault.seed = 6;
  runs.push_back(latent);
  // The serving phase of the two chaos scenarios whose transient retry
  // fires after its disk died mid-attempt: a rebuild job (seed
  // 17185907742160080638, transients on d0 until it dies at t = 1) and
  // a user read (seed 1687788257818005432, d2 dies at t = 1.2).
  const struct {
    std::uint64_t seed;
    int primary, transient_disk;
    double from_s, until_s, second_at_s;
    int latent_disk;
  } retries[] = {{17185907742160080638ULL, 8, 0, 0.8, 3.4, 1.0, -1},
                 {1687788257818005432ULL, 1, 2, 0.1, 1.6, 1.2, 7}};
  for (const auto& c : retries) {
    StageRun retry = stage_run(
        layout::Architecture::mirror_with_parity(4, true), {c.primary}, 4);
    retry.array.seed = c.seed;
    retry.array.logical_element_bytes =
        array::ArrayConfig{}.logical_element_bytes;
    disk::FaultProfile& p = retry.array.fault_overrides[c.transient_disk];
    p.transient_read_error_p = 0.3;
    p.transient_write_error_p = 0.3;
    p.transient_from_s = c.from_s;
    p.transient_until_s = c.until_s;
    p.seed = c.seed;
    if (c.latent_disk >= 0) {
      retry.array.fault_overrides[c.latent_disk].latent_error_rate = 0.01;
      retry.array.fault_overrides[c.latent_disk].seed = c.seed;
    }
    retry.online.arrival.rate_hz = 120.0;
    retry.online.arrival.max_requests = 800;
    retry.online.arrival.seed = c.seed;
    retry.online.second_failure_at_s = c.second_at_s;
    retry.online.second_failure_disk = c.transient_disk;
    runs.push_back(retry);
  }
  return runs;
}

// One digest per engine stage family, recorded from the engine as one
// function body before it became a class. A family whose digest moves
// names the stage whose behaviour changed (docs/SERVING.md, "Engine
// stages").
TEST(OnlineGolden, EngineStageDigestsArePinned) {
  const struct {
    const char* family;
    std::vector<StageRun> (*runs)();
    std::uint64_t digest;
  } families[] = {
      {"arrival", arrival_family, 0x73e78963a0cebb35ull},
      {"routing", routing_family, 0x74115feb33eb109eull},
      {"qos", qos_family, 0xec053585094d0478ull},
      {"drains", drain_family, 0xd05c20bc9f0ec8d9ull},
      {"hedging", hedge_family, 0x9b41be8f205e3a39ull},
      {"failure", failure_family, 0xfa83faae9d15f175ull},
  };
  for (const auto& f : families) {
    const std::uint64_t digest = family_digest(f.runs());
    EXPECT_EQ(digest, f.digest) << f.family << " = 0x" << std::hex << digest;
  }
}

}  // namespace
}  // namespace sma::recon
