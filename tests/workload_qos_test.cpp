// QoS serving engine: arrival processes, rebuild throttling policies,
// trace replay, and the config-surface migration (deprecated aliases,
// issued/completed accounting).
#include "workload/qos.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "array/disk_array.hpp"
#include "obs/observer.hpp"
#include "obs/trace_sink.hpp"
#include "recon/online.hpp"
#include "workload/arrival.hpp"

namespace sma::workload {
namespace {

array::ArrayConfig array_cfg(layout::Architecture arch, int stacks = 2) {
  array::ArrayConfig cfg;
  cfg.arch = arch;
  cfg.stripes = stacks * arch.total_disks();
  cfg.content_bytes = 64;
  cfg.logical_element_bytes = 4'000'000;
  cfg.seed = 5;
  return cfg;
}

Result<recon::OnlineReport> run_online(const recon::OnlineConfig& cfg,
                                       bool shifted = true) {
  array::DiskArray arr(array_cfg(layout::Architecture::mirror(5, shifted)));
  arr.initialize();
  arr.fail_physical(0);
  return recon::run_online_reconstruction(arr, cfg);
}

void expect_reports_equal(const recon::OnlineReport& a,
                          const recon::OnlineReport& b) {
  EXPECT_DOUBLE_EQ(a.rebuild_done_s, b.rebuild_done_s);
  EXPECT_DOUBLE_EQ(a.mean_latency_s, b.mean_latency_s);
  EXPECT_DOUBLE_EQ(a.p50_latency_s, b.p50_latency_s);
  EXPECT_DOUBLE_EQ(a.p99_latency_s, b.p99_latency_s);
  EXPECT_DOUBLE_EQ(a.p999_latency_s, b.p999_latency_s);
  EXPECT_DOUBLE_EQ(a.max_latency_s, b.max_latency_s);
  EXPECT_EQ(a.user_reads, b.user_reads);
  EXPECT_EQ(a.requests_issued, b.requests_issued);
  EXPECT_EQ(a.requests_completed, b.requests_completed);
  EXPECT_EQ(a.degraded_reads, b.degraded_reads);
  EXPECT_EQ(a.slo_violations, b.slo_violations);
  EXPECT_EQ(a.final_rebuild_budget, b.final_rebuild_budget);
  EXPECT_EQ(a.throttle_adjustments, b.throttle_adjustments);
}

// --- arrival process determinism --------------------------------------

TEST(ArrivalProcess, EachKindIsDeterministicBySeed) {
  for (const ArrivalKind kind :
       {ArrivalKind::kPoisson, ArrivalKind::kClosedLoop,
        ArrivalKind::kBursty}) {
    auto run = [&] {
      recon::OnlineConfig cfg;
      cfg.arrival.kind = kind;
      cfg.arrival.max_requests = 120;
      cfg.arrival.seed = 99;
      cfg.arrival.clients = 6;
      cfg.arrival.rate_hz = 25.0;
      return run_online(cfg);
    };
    auto a = run();
    auto b = run();
    ASSERT_TRUE(a.is_ok()) << to_string(kind);
    ASSERT_TRUE(b.is_ok()) << to_string(kind);
    expect_reports_equal(a.value(), b.value());
    EXPECT_EQ(a.value().requests_issued, 120u) << to_string(kind);
  }
}

TEST(ArrivalProcess, KindNamesRoundTrip) {
  for (const ArrivalKind kind :
       {ArrivalKind::kPoisson, ArrivalKind::kClosedLoop, ArrivalKind::kBursty,
        ArrivalKind::kTrace}) {
    auto parsed = arrival_kind_from(to_string(kind));
    ASSERT_TRUE(parsed.is_ok());
    EXPECT_EQ(parsed.value(), kind);
  }
  EXPECT_FALSE(arrival_kind_from("uniform").is_ok());
}

TEST(ArrivalProcess, RejectsBadConfigs) {
  ArrivalConfig cfg;
  cfg.rate_hz = 0.0;
  EXPECT_FALSE(make_arrival_process(cfg).is_ok());
  cfg = {};
  cfg.kind = ArrivalKind::kClosedLoop;
  cfg.clients = 0;
  EXPECT_FALSE(make_arrival_process(cfg).is_ok());
  cfg = {};
  cfg.kind = ArrivalKind::kTrace;  // empty trace
  EXPECT_FALSE(make_arrival_process(cfg).is_ok());
  cfg.trace = {{1.0, false}, {0.5, false}};  // decreasing instants
  EXPECT_FALSE(make_arrival_process(cfg).is_ok());
}

// Every rate and holding time becomes an exponential mean, so NaN (which
// a `<= 0` test lets through) and infinity (whose inverse is 0) would
// reach Rng::next_exponential's assert; they are refused instead.
TEST(ArrivalProcess, RejectsNonFiniteRatesAndTimes) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {kNan, kInf, -kInf}) {
    ArrivalConfig poisson;
    poisson.rate_hz = bad;
    EXPECT_EQ(make_arrival_process(poisson).status().code(),
              ErrorCode::kInvalidArgument);
    for (double ArrivalConfig::*field :
         {&ArrivalConfig::rate_hz, &ArrivalConfig::burst_rate_hz,
          &ArrivalConfig::mean_burst_s, &ArrivalConfig::mean_idle_s}) {
      ArrivalConfig bursty;
      bursty.kind = ArrivalKind::kBursty;
      bursty.*field = bad;
      EXPECT_EQ(make_arrival_process(bursty).status().code(),
                ErrorCode::kInvalidArgument);
    }
    ArrivalConfig closed;
    closed.kind = ArrivalKind::kClosedLoop;
    closed.think_time_s = bad;
    EXPECT_EQ(make_arrival_process(closed).status().code(),
              ErrorCode::kInvalidArgument);
  }
  ArrivalConfig closed;
  closed.kind = ArrivalKind::kClosedLoop;
  closed.think_time_s = 0.0;  // no think time at all is still valid
  EXPECT_TRUE(make_arrival_process(closed).is_ok());
}

// A trace built in code gets the loader's checks: every instant finite.
TEST(ArrivalProcess, RejectsNonFiniteTraceInstants) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    ArrivalConfig cfg;
    cfg.kind = ArrivalKind::kTrace;
    cfg.trace = {{0.5, false}, {bad, false}, {2.0, false}};
    EXPECT_EQ(make_arrival_process(cfg).status().code(),
              ErrorCode::kInvalidArgument);
    cfg.trace = {{0.5, false}, {bad, false}};
    EXPECT_EQ(make_arrival_process(cfg).status().code(),
              ErrorCode::kInvalidArgument);
  }
}

// --- rebuild throttle unit behavior -----------------------------------

TEST(RebuildThrottle, StrictPriorityIsDisabled) {
  QosConfig qos;
  RebuildThrottle t(qos, 8);
  EXPECT_FALSE(t.enabled());
  EXPECT_FALSE(t.adaptive());
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(t.allow());
    t.on_issue();
  }
}

TEST(RebuildThrottle, FixedBudgetCapsInflight) {
  QosConfig qos;
  qos.policy = RebuildPolicy::kFixedBudget;
  qos.rebuild_budget = 3;
  RebuildThrottle t(qos, 8);
  EXPECT_TRUE(t.enabled());
  int issued = 0;
  while (t.allow()) {
    t.on_issue();
    ++issued;
  }
  EXPECT_EQ(issued, 3);
  t.on_complete();
  EXPECT_TRUE(t.allow());
}

TEST(RebuildThrottle, FixedBudgetZeroIsInert) {
  QosConfig qos;
  qos.policy = RebuildPolicy::kFixedBudget;
  qos.rebuild_budget = 0;  // documented: unlimited == strict behavior
  RebuildThrottle t(qos, 8);
  EXPECT_FALSE(t.enabled());
  EXPECT_TRUE(t.allow());
}

TEST(RebuildThrottle, AdaptiveAimdRaisesAndHalves) {
  QosConfig qos;
  qos.policy = RebuildPolicy::kAdaptive;
  qos.p99_target_s = 0.1;
  qos.min_budget = 1;
  RebuildThrottle t(qos, 8);
  EXPECT_TRUE(t.adaptive());
  EXPECT_EQ(t.budget(), 8);  // starts at the structural ceiling
  // Violation: multiplicative decrease toward the floor.
  EXPECT_EQ(t.control(0.2), -4);
  EXPECT_EQ(t.budget(), 4);
  EXPECT_EQ(t.control(0.2), -2);
  EXPECT_EQ(t.control(0.2), -1);
  EXPECT_EQ(t.budget(), 1);
  EXPECT_EQ(t.control(0.2), 0);  // floored at min_budget
  // Under raise_headroom * target: additive increase.
  EXPECT_EQ(t.control(0.05), 1);
  EXPECT_EQ(t.budget(), 2);
  // In the dead band (between headroom and target): hold.
  EXPECT_EQ(t.control(0.095), 0);
  // Empty window (no reads completed) also raises.
  EXPECT_EQ(t.control(-1.0), 1);
  EXPECT_EQ(t.budget(), 3);
  // Ceiling: never exceeds the disk count.
  for (int i = 0; i < 20; ++i) t.control(-1.0);
  EXPECT_EQ(t.budget(), 8);
}

TEST(RebuildThrottle, PolicyNamesRoundTrip) {
  for (const RebuildPolicy p :
       {RebuildPolicy::kStrictPriority, RebuildPolicy::kFixedBudget,
        RebuildPolicy::kAdaptive}) {
    auto parsed = rebuild_policy_from(to_string(p));
    ASSERT_TRUE(parsed.is_ok());
    EXPECT_EQ(parsed.value(), p);
  }
  EXPECT_FALSE(rebuild_policy_from("greedy").is_ok());
}

// --- adaptive throttle end to end -------------------------------------

TEST(AdaptiveThrottle, ConvergesTowardTarget) {
  // Contended strict baseline vs. adaptive at a target between the
  // un-contended service latency and the strict p99.
  recon::OnlineConfig strict;
  strict.arrival.rate_hz = 25.0;
  strict.arrival.max_requests = 400;
  strict.arrival.seed = 2012;
  auto base = run_online(strict, /*shifted=*/false);
  ASSERT_TRUE(base.is_ok());

  obs::TraceSink sink;
  obs::Observer ob;
  ob.trace = &sink;
  recon::OnlineConfig cfg = strict;
  cfg.qos.policy = RebuildPolicy::kAdaptive;
  cfg.qos.p99_target_s = 0.120;
  cfg.observer = &ob;
  auto adaptive = run_online(cfg, /*shifted=*/false);
  ASSERT_TRUE(adaptive.is_ok());

  // The throttle actually acted and improved the foreground tail.
  EXPECT_GT(adaptive.value().throttle_adjustments, 0);
  EXPECT_LT(adaptive.value().p99_latency_s, base.value().p99_latency_s);
  EXPECT_LE(adaptive.value().slo_violations, adaptive.value().user_reads);
  EXPECT_GE(adaptive.value().final_rebuild_budget, cfg.qos.min_budget);

  // Controller telemetry: every decision was recorded, budgets stay in
  // [min_budget, disk count], and the controller reacts to violations —
  // any window p99 above target is followed by a budget at or below the
  // previous one (AIMD decrease, or already at the floor).
  std::vector<obs::TraceEvent> ticks;
  for (const auto& ev : sink.events())
    if (ev.kind == obs::EventKind::kThrottle) ticks.push_back(ev);
  ASSERT_GT(ticks.size(), 4u);
  int prev_budget = -1;
  for (const auto& ev : ticks) {
    const int budget = static_cast<int>(ev.slot);
    EXPECT_GE(budget, cfg.qos.min_budget);
    EXPECT_LE(budget, 10);  // n = 5 mirror: 10 physical disks
    if (prev_budget >= 0 && ev.dur_s > cfg.qos.p99_target_s) {
      EXPECT_LE(budget, prev_budget);
    }
    prev_budget = budget;
  }
}

TEST(AdaptiveThrottle, ShiftedRebuildsFasterAtSameTarget) {
  // The headline claim: at one p99 target and arrival rate, the shifted
  // arrangement sustains a larger rebuild budget, so its rebuild
  // finishes well ahead of the traditional arrangement's.
  recon::OnlineConfig cfg;
  cfg.arrival.rate_hz = 20.0;
  cfg.arrival.max_requests = 400;
  cfg.arrival.seed = 2012;
  cfg.qos.policy = RebuildPolicy::kAdaptive;
  cfg.qos.p99_target_s = 0.120;
  auto trad = run_online(cfg, /*shifted=*/false);
  auto shift = run_online(cfg, /*shifted=*/true);
  ASSERT_TRUE(trad.is_ok());
  ASSERT_TRUE(shift.is_ok());
  EXPECT_LT(shift.value().rebuild_done_s, trad.value().rebuild_done_s);
}

TEST(AdaptiveThrottle, ValidatesControllerParameters) {
  recon::OnlineConfig cfg;
  cfg.qos.policy = RebuildPolicy::kAdaptive;
  cfg.qos.p99_target_s = 0.0;  // adaptive needs a setpoint
  EXPECT_FALSE(run_online(cfg).is_ok());
  cfg.qos.p99_target_s = 0.1;
  cfg.qos.control_interval_s = 0.0;
  EXPECT_FALSE(run_online(cfg).is_ok());
  cfg.qos.control_interval_s = 0.25;
  cfg.qos.raise_headroom = 1.5;
  EXPECT_FALSE(run_online(cfg).is_ok());
  cfg.qos.raise_headroom = 0.9;
  cfg.qos.rebuild_budget = -1;
  EXPECT_FALSE(run_online(cfg).is_ok());
  cfg.qos.rebuild_budget = 0;
  // NaN fails every guard, the write fraction's included.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double QosConfig::*field :
       {&QosConfig::p99_target_s, &QosConfig::control_interval_s,
        &QosConfig::raise_headroom}) {
    recon::OnlineConfig bad = cfg;
    bad.qos.*field = nan;
    EXPECT_EQ(run_online(bad).status().code(), ErrorCode::kInvalidArgument);
  }
  cfg.mix.write_fraction = nan;
  EXPECT_EQ(run_online(cfg).status().code(), ErrorCode::kInvalidArgument);
}

// --- inert defaults: the QoS surface must not perturb the baseline ----

TEST(QosDefaults, StrictAndUnlimitedFixedMatchDefaultRun) {
  recon::OnlineConfig base;
  base.arrival.max_requests = 150;
  auto plain = run_online(base);
  ASSERT_TRUE(plain.is_ok());

  recon::OnlineConfig strict = base;
  strict.qos.policy = RebuildPolicy::kStrictPriority;
  auto s = run_online(strict);
  ASSERT_TRUE(s.is_ok());
  expect_reports_equal(plain.value(), s.value());

  recon::OnlineConfig fixed = base;
  fixed.qos.policy = RebuildPolicy::kFixedBudget;
  fixed.qos.rebuild_budget = 0;  // unlimited — documented inert setting
  auto f = run_online(fixed);
  ASSERT_TRUE(f.is_ok());
  expect_reports_equal(plain.value(), f.value());
  EXPECT_EQ(f.value().final_rebuild_budget, -1);
}

// --- composed config surface ------------------------------------------

// The PR 4 deprecated aliases (user_read_rate_hz, max_user_reads, ...)
// are gone; the composed arrival/mix fields are the only spelling and
// drive the run directly.
TEST(ConfigSurface, ComposedArrivalFieldsDriveTheRun) {
  recon::OnlineConfig cfg;
  cfg.arrival.rate_hz = 33.0;
  cfg.arrival.max_requests = 90;
  cfg.arrival.seed = 17;
  cfg.mix.write_fraction = 0.0;

  auto a = run_online(cfg);
  ASSERT_TRUE(a.is_ok());
  EXPECT_EQ(a.value().requests_issued, 90u);

  auto b = run_online(cfg);
  ASSERT_TRUE(b.is_ok());
  expect_reports_equal(a.value(), b.value());
}

// --- issued vs completed accounting -----------------------------------

TEST(Accounting, IssuedEqualsCompletedWhenAllReadsServable) {
  recon::OnlineConfig cfg;
  cfg.arrival.max_requests = 130;
  auto r = run_online(cfg);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().requests_issued, 130u);
  EXPECT_EQ(r.value().requests_completed, 130u);
  EXPECT_EQ(r.value().user_reads, r.value().requests_issued);
}

// --- arrival-trace export / replay round trip -------------------------

TEST(ArrivalTraceReplay, RoundTripsThroughCsv) {
  // Record a Poisson run's arrivals...
  obs::TraceSink sink;
  obs::Observer ob;
  ob.trace = &sink;
  recon::OnlineConfig cfg;
  cfg.arrival.max_requests = 80;
  cfg.arrival.seed = 31;
  cfg.observer = &ob;
  auto recorded = run_online(cfg);
  ASSERT_TRUE(recorded.is_ok());

  const auto points = arrival_trace_from_events(sink.events());
  ASSERT_EQ(points.size(), 80u);
  for (std::size_t i = 1; i < points.size(); ++i)
    EXPECT_GE(points[i].t_s, points[i - 1].t_s);

  // ...through the CSV schema losslessly...
  const std::string path = testing::TempDir() + "sma_arrival_trace_test.csv";
  ASSERT_TRUE(write_arrival_trace_csv(path, points).ok());
  auto loaded = load_arrival_trace_csv(path);
  ASSERT_TRUE(loaded.is_ok());
  ASSERT_EQ(loaded.value().size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded.value()[i].t_s, points[i].t_s);
    EXPECT_EQ(loaded.value()[i].write, points[i].write);
  }

  // ...and back into the simulator: the replay injects the same stream.
  recon::OnlineConfig replay;
  replay.arrival.kind = ArrivalKind::kTrace;
  replay.arrival.trace = std::move(loaded).take();
  replay.arrival.max_requests = 80;
  auto replayed = run_online(replay);
  ASSERT_TRUE(replayed.is_ok());
  EXPECT_EQ(replayed.value().requests_issued, 80u);
  EXPECT_EQ(replayed.value().requests_completed, 80u);
}

// Load a trace CSV holding `body` after the header.
Result<std::vector<TracePoint>> load_trace(const std::string& name,
                                           const std::string& body) {
  const std::string path = testing::TempDir() + name;
  {
    std::ofstream out(path);
    out << "t_s,write\n" << body;
  }
  return load_arrival_trace_csv(path);
}

// An instant must parse in full as a finite number. An infinite last
// instant used to reach SampleSet's NaN assert, a NaN middle one passed
// the non-decreasing check and replayed, and a word read as 0.
TEST(ArrivalTraceReplay, LoaderRefusesAnInfiniteInstant) {
  const auto r = load_trace("sma_trace_inf.csv", "0.5,0\ninf,0\n");
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(r.status().to_string().find("line 3"), std::string::npos)
      << r.status().to_string();
}

TEST(ArrivalTraceReplay, LoaderRefusesANanInstant) {
  const auto r = load_trace("sma_trace_nan.csv", "0.5,0\nnan,0\n1.5,0\n");
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(r.status().to_string().find("line 3"), std::string::npos)
      << r.status().to_string();
}

TEST(ArrivalTraceReplay, LoaderRefusesANonNumericInstant) {
  for (const char* body :
       {"0.5,0\nabc,0\n", "0.5,0\n1.5s,0\n", "0.5,0\n,1\n"}) {
    const auto r = load_trace("sma_trace_word.csv", body);
    ASSERT_FALSE(r.is_ok()) << body;
    EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument) << body;
  }
  const auto ok = load_trace("sma_trace_ok.csv", "0.5,0\n1.5,1\n");
  ASSERT_TRUE(ok.is_ok()) << ok.status().to_string();
  EXPECT_EQ(ok.value().size(), 2u);
}

// The write flag is exactly 0 or 1, as save_arrival_trace_csv writes it.
// A word, a 2, a blank or a padded flag used to read through atoi: "abc"
// and "yes" replayed as reads and "2" as a write.
TEST(ArrivalTraceReplay, LoaderRefusesAWriteFlagThatIsNot0Or1) {
  for (const char* flag : {"abc", "yes", "2", "-1", "", " 1", "1 ", "01",
                           "1.0", "0x1"}) {
    const std::string body = "0.5,0\n1.0,1\n1.5," + std::string(flag) + "\n";
    const auto r = load_trace("sma_trace_flag.csv", body);
    ASSERT_FALSE(r.is_ok()) << '"' << flag << '"';
    EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument) << flag;
    EXPECT_NE(r.status().to_string().find("line 4"), std::string::npos)
        << r.status().to_string();
  }
  // CRLF line ends, which the atoi read passed over, still load.
  for (const char* body :
       {"0.5,1\n1.0,0\n1.5,1\n", "0.5,1\r\n1.0,0\r\n1.5,1\r\n"}) {
    const auto ok = load_trace("sma_trace_flags.csv", body);
    ASSERT_TRUE(ok.is_ok()) << ok.status().to_string();
    ASSERT_EQ(ok.value().size(), 3u);
    EXPECT_TRUE(ok.value()[0].write);
    EXPECT_FALSE(ok.value()[1].write);
    EXPECT_TRUE(ok.value()[2].write);
  }
}

}  // namespace
}  // namespace sma::workload
