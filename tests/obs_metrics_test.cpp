#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include "obs/observer.hpp"
#include "obs/trace_sink.hpp"

namespace sma::obs {
namespace {

TEST(Metrics, ScalarsCreatedOnFirstUse) {
  MetricsRegistry m;
  m.counter("a") += 3;
  m.counter("a") += 2;
  EXPECT_EQ(m.counters().at("a"), 5u);
}

TEST(Metrics, CadenceSamplesEveryInterval) {
  MetricsRegistry m;
  m.set_sample_interval(1.0);
  int calls = 0;
  m.add_probe("x", [&calls](double, double) {
    ++calls;
    return static_cast<double>(calls);
  });
  m.advance_to(3.5);  // boundaries 0, 1, 2, 3
  ASSERT_EQ(m.timeline().size(), 4u);
  EXPECT_EQ(calls, 4);
  EXPECT_DOUBLE_EQ(m.timeline()[0].t_s, 0.0);
  EXPECT_DOUBLE_EQ(m.timeline()[3].t_s, 3.0);
  m.advance_to(3.9);  // no boundary crossed
  EXPECT_EQ(m.timeline().size(), 4u);
  m.advance_to(4.0);
  EXPECT_EQ(m.timeline().size(), 5u);
}

TEST(Metrics, ProbeDtIsWindowSinceLastSample) {
  MetricsRegistry m;
  m.set_sample_interval(0.5);
  std::vector<double> dts;
  m.add_probe("dt", [&dts](double, double dt) {
    dts.push_back(dt);
    return dt;
  });
  m.advance_to(1.0);
  ASSERT_EQ(dts.size(), 3u);  // t = 0, 0.5, 1.0
  EXPECT_DOUBLE_EQ(dts[0], 0.0);  // first tick: no prior window
  EXPECT_DOUBLE_EQ(dts[1], 0.5);
  EXPECT_DOUBLE_EQ(dts[2], 0.5);
}

TEST(Metrics, DisabledByDefault) {
  MetricsRegistry m;
  int calls = 0;
  m.add_probe("x", [&calls](double, double) {
    ++calls;
    return 0.0;
  });
  m.advance_to(100.0);  // interval is 0: sampling off
  EXPECT_TRUE(m.timeline().empty());
  EXPECT_EQ(calls, 0);
}

TEST(Metrics, NoProbesMeansNoRows) {
  MetricsRegistry m;
  m.set_sample_interval(1.0);
  m.advance_to(10.0);
  EXPECT_TRUE(m.timeline().empty());
}

TEST(Metrics, ColumnsSurviveClearProbes) {
  MetricsRegistry m;
  m.set_sample_interval(1.0);
  m.add_probe("a", [](double, double) { return 1.0; });
  m.add_probe("b", [](double, double) { return 2.0; });
  m.advance_to(0.0);
  m.clear_probes();  // what an experiment does before returning
  EXPECT_EQ(m.probe_count(), 0u);
  ASSERT_EQ(m.timeline().size(), 1u);
  ASSERT_EQ(m.columns().size(), 2u);  // still describes the rows
  EXPECT_EQ(m.columns()[0], "a");
  EXPECT_EQ(m.columns()[1], "b");
  EXPECT_DOUBLE_EQ(m.timeline()[0].values[1], 2.0);
}

TEST(Metrics, SampleNowTakesOffCadenceRow) {
  MetricsRegistry m;
  m.add_probe("x", [](double now, double) { return now; });
  m.sample_now(2.25);  // works even with sampling disabled
  ASSERT_EQ(m.timeline().size(), 1u);
  EXPECT_DOUBLE_EQ(m.timeline()[0].t_s, 2.25);
  EXPECT_DOUBLE_EQ(m.timeline()[0].values[0], 2.25);
}

TEST(Observer, InactiveWithoutSinks) {
  Observer ob;
  EXPECT_FALSE(ob.active());
  // All hooks are safe no-ops on an inactive observer.
  TraceEvent ev;
  ob.emit(ev);
  ob.count("x");
  ob.advance_time(1.0);
}

TEST(Observer, RoutesToAttachedSinks) {
  TraceSink trace;
  MetricsRegistry metrics;
  metrics.set_sample_interval(1.0);
  metrics.add_probe("p", [](double, double) { return 1.0; });

  Observer ob;
  ob.trace = &trace;
  EXPECT_TRUE(ob.active());
  ob.metrics = &metrics;

  TraceEvent ev;
  ev.kind = EventKind::kRetry;
  ob.emit(ev);
  ob.count("c", 2);
  ob.count("c");
  ob.advance_time(2.0);

  EXPECT_EQ(trace.count(EventKind::kRetry), 1u);
  EXPECT_EQ(metrics.counters().at("c"), 3u);
  EXPECT_EQ(metrics.timeline().size(), 3u);  // t = 0, 1, 2
}

}  // namespace
}  // namespace sma::obs
