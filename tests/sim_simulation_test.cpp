#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "obs/observer.hpp"

namespace sma::sim {
namespace {

constexpr std::array<QueueBackend, 3> kAllBackends = {
    QueueBackend::kCalendar, QueueBackend::kHeap, QueueBackend::kLegacy};

TEST(Simulation, RunsEventsInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  EXPECT_DOUBLE_EQ(sim.run(), 3.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.executed_events(), 3u);
}

TEST(Simulation, SameTimeEventsFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulation, ClockAdvancesDuringHandlers) {
  Simulation sim;
  double seen = -1;
  sim.schedule_at(2.5, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 2.5);
}

TEST(Simulation, HandlersCanScheduleMoreEvents) {
  Simulation sim;
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    if (ticks < 10) sim.schedule_in(1.0, tick);
  };
  sim.schedule_at(0.0, tick);
  EXPECT_DOUBLE_EQ(sim.run(), 9.0);
  EXPECT_EQ(ticks, 10);
}

TEST(Simulation, ScheduleInIsRelative) {
  Simulation sim;
  double when = -1;
  sim.schedule_at(5.0, [&] {
    sim.schedule_in(2.0, [&] { when = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(when, 7.0);
}

TEST(Simulation, RunUntilStopsAtDeadline) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(5.0, [&] { ++fired; });
  EXPECT_DOUBLE_EQ(sim.run_until(3.0), 3.0);
  EXPECT_EQ(fired, 1);
  // Remaining event still fires on full run.
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, RunOnEmptyQueueReturnsCurrentTime) {
  Simulation sim;
  EXPECT_DOUBLE_EQ(sim.run(), 0.0);
}

TEST(Simulation, AllBackendsProduceIdenticalRuns) {
  // Same workload on every backend: self-rescheduling ticker plus
  // same-instant ties. Order, clocks, and counters must match exactly.
  auto drive = [](QueueBackend backend) {
    Simulation sim(backend);
    std::vector<std::pair<int, double>> trace;
    std::function<void()> tick = [&] {
      trace.emplace_back(-1, sim.now());
      if (trace.size() < 20) sim.schedule_in(0.75, tick);
    };
    sim.schedule_at(0.0, tick);
    for (int i = 0; i < 4; ++i)
      sim.schedule_at(3.0,
                      [&trace, i, &sim] { trace.emplace_back(i, sim.now()); });
    const double end = sim.run();
    trace.emplace_back(-2, end);
    return trace;
  };
  const auto reference = drive(QueueBackend::kCalendar);
  for (const QueueBackend backend :
       {QueueBackend::kHeap, QueueBackend::kLegacy})
    EXPECT_EQ(drive(backend), reference);
}

TEST(Simulation, PendingEventsTracksEveryBackend) {
  for (const QueueBackend backend : kAllBackends) {
    Simulation sim(backend);
    for (int i = 0; i < 3; ++i) sim.schedule_at(1.0 + i, [] {});
    EXPECT_EQ(sim.pending_events(), 3u);
    sim.run_until(1.5);
    EXPECT_EQ(sim.pending_events(), 2u);
    sim.run();
    EXPECT_EQ(sim.pending_events(), 0u);
  }
}

// Regression for the end-of-run observer contract: when run_until stops
// at the deadline with events still pending, the observer's sampling
// clock is advanced to the deadline itself — metrics keep their cadence
// through quiet tails instead of freezing at the last event.
TEST(Simulation, RunUntilAdvancesObserverToDeadline) {
  for (const QueueBackend backend : kAllBackends) {
    obs::MetricsRegistry reg;
    reg.set_sample_interval(1.0);
    std::vector<double> samples;
    reg.add_probe("t", [&samples](double now, double) {
      samples.push_back(now);
      return now;
    });
    obs::Observer ob;
    ob.metrics = &reg;
    Simulation sim(backend);
    sim.set_observer(&ob);
    sim.schedule_at(2.5, [] {});
    sim.schedule_at(7.5, [] {});
    EXPECT_DOUBLE_EQ(sim.run_until(5.0), 5.0);
    // advance_time(2.5) before the event samples t = 0, 1, 2; the
    // deadline epilogue samples t = 3, 4, 5.
    EXPECT_EQ(samples, (std::vector<double>{0, 1, 2, 3, 4, 5}));
    reg.clear_probes();
  }
}

TEST(Simulation, RunUntilDrainedEarlyDoesNotAdvanceToDeadline) {
  // The complementary case: the queue drains before the deadline, so
  // run_until returns the drain time and must NOT sample past it.
  for (const QueueBackend backend : kAllBackends) {
    obs::MetricsRegistry reg;
    reg.set_sample_interval(1.0);
    std::vector<double> samples;
    reg.add_probe("t", [&samples](double now, double) {
      samples.push_back(now);
      return now;
    });
    obs::Observer ob;
    ob.metrics = &reg;
    Simulation sim(backend);
    sim.set_observer(&ob);
    sim.schedule_at(2.5, [] {});
    EXPECT_DOUBLE_EQ(sim.run_until(5.0), 2.5);
    EXPECT_EQ(samples, (std::vector<double>{0, 1, 2}));
    reg.clear_probes();
  }
}

}  // namespace
}  // namespace sma::sim
