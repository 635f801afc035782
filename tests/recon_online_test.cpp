#include "recon/online.hpp"

#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "obs/trace_sink.hpp"
#include "recon/executor.hpp"
#include "recon/failure.hpp"

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
    EXPECT_EQ(served.value().rebuild_done_s, rebuilt.value().read_makespan_s)
        << arch.name() << " n=" << arch.n() << " R=" << arch.replicas()
        << " failed " << failed[0]
        << (failed.size() > 1 ? "," + std::to_string(failed[1]) : "");
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

}  // namespace
}  // namespace sma::recon
