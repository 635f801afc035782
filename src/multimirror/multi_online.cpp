#include "multimirror/multi_online.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/simulation.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace sma::mm {

namespace {

struct Job {
  std::int64_t slot = 0;
  double arrival = 0.0;
  bool is_user = false;
  bool is_degraded = false;
};

struct DiskQueue {
  std::deque<Job> user;
  std::deque<Job> rebuild;
  bool busy = false;
};

/// Detach the per-disk observers on every exit path.
struct ObsGuard {
  MultiMirrorArray* arr = nullptr;
  ~ObsGuard() {
    if (arr == nullptr) return;
    for (int d = 0; d < arr->total_disks(); ++d)
      arr->physical(d).set_observer(nullptr);
  }
};

}  // namespace

Result<MmOnlineReport> run_online_reconstruction(MultiMirrorArray& arr,
                                                 const MmOnlineConfig& cfg) {
  const auto& layout = arr.layout();
  const auto failed = arr.failed_physical();
  if (failed.empty())
    return invalid_argument("no failed disks to rebuild on-line");
  if (static_cast<int>(failed.size()) > layout.fault_tolerance())
    return unrecoverable("failures exceed the layout's tolerance");
  const workload::ArrivalConfig& acfg = cfg.arrival;
  if (cfg.qos.rebuild_budget < 0 || cfg.qos.min_budget < 0)
    return invalid_argument("rebuild budgets must be non-negative");
  if (cfg.qos.policy == workload::RebuildPolicy::kAdaptive &&
      (cfg.qos.p99_target_s <= 0 || cfg.qos.control_interval_s <= 0 ||
       cfg.qos.raise_headroom <= 0 || cfg.qos.raise_headroom > 1))
    return invalid_argument(
        "adaptive throttle needs p99_target_s > 0, control_interval_s > 0 "
        "and raise_headroom in (0, 1]");
  auto proc_r = workload::make_arrival_process(acfg);
  if (!proc_r.is_ok()) return proc_r.status();
  const std::unique_ptr<workload::ArrivalProcess> proc =
      std::move(proc_r).take();

  obs::Observer* const ob = cfg.observer.get();
  ObsGuard obs_guard;
  if (ob != nullptr) {
    obs_guard.arr = &arr;
    for (int d = 0; d < arr.total_disks(); ++d)
      arr.physical(d).set_observer(ob);
    for (const int p : failed) {
      obs::TraceEvent ev;
      ev.kind = obs::EventKind::kFailure;
      ev.t_s = 0.0;
      ev.disk = p;
      ob->emit(ev);
    }
  }

  std::vector<DiskQueue> queues(static_cast<std::size_t>(arr.total_disks()));
  std::size_t rebuild_jobs = 0;
  for (int s = 0; s < arr.stripes(); ++s) {
    std::vector<int> failed_logical;
    for (const int p : failed) {
      const int l = arr.logical_disk(p, s);
      failed_logical.insert(
          std::upper_bound(failed_logical.begin(), failed_logical.end(), l),
          l);
    }
    auto plan = layout.plan(failed_logical);
    if (!plan.is_ok()) return plan.status();
    for (const auto& read : plan.value().unique_reads) {
      const int phys = arr.physical_disk(read.disk, s);
      queues[static_cast<std::size_t>(phys)].rebuild.push_back(
          {arr.slot(s, read.row), 0.0, false, false});
      ++rebuild_jobs;
      if (ob != nullptr) {
        obs::TraceEvent ev;
        ev.kind = obs::EventKind::kRebuildIssue;
        ev.t_s = 0.0;
        ev.disk = phys;
        ev.stripe = s;
        ev.slot = arr.slot(s, read.row);
        ev.rebuild = true;
        ob->emit(ev);
      }
    }
  }

  for (int d = 0; d < arr.total_disks(); ++d)
    if (!arr.physical(d).failed()) arr.physical(d).reset_timeline();
  sim::Simulation sim;
  Rng rng(acfg.seed);
  workload::RebuildThrottle throttle(cfg.qos, arr.total_disks());
  const double slo_target = cfg.qos.p99_target_s;
  std::vector<double> window;  // adaptive: latencies since the last tick

  MmOnlineReport report;
  std::vector<double> samples;  // completed user-read latencies
  std::size_t rebuild_remaining = rebuild_jobs;
  std::vector<int> user_load(static_cast<std::size_t>(arr.total_disks()), 0);

  std::function<void()> arrive;       // defined below
  std::function<void(int)> dispatch;  // defined below

  auto kick_waiting = [&] {
    if (!throttle.enabled()) return;
    for (int d = 0; d < arr.total_disks(); ++d) {
      if (!throttle.allow()) return;
      const DiskQueue& q = queues[static_cast<std::size_t>(d)];
      if (!q.busy && !q.rebuild.empty()) dispatch(d);
    }
  };

  dispatch = [&](int disk) {
    auto& q = queues[static_cast<std::size_t>(disk)];
    if (q.busy) return;
    Job job;
    if (!q.user.empty()) {
      job = q.user.front();
      q.user.pop_front();
    } else if (!q.rebuild.empty() && throttle.allow()) {
      job = q.rebuild.front();
      q.rebuild.pop_front();
      throttle.on_issue();
    } else {
      return;
    }
    q.busy = true;
    const double done =
        arr.physical(disk).submit_ok(disk::IoKind::kRead, job.slot, sim.now());
    sim.schedule_at(done, [&, disk, job] {
      queues[static_cast<std::size_t>(disk)].busy = false;
      if (job.is_user) {
        const double latency = sim.now() - job.arrival;
        samples.push_back(latency);
        ++report.requests_completed;
        if (slo_target > 0.0 && latency > slo_target) ++report.slo_violations;
        if (throttle.adaptive()) window.push_back(latency);
        if (proc->closed_loop())
          sim.schedule_in(proc->think_delay(rng), [&arrive] { arrive(); });
      } else {
        --rebuild_remaining;
        throttle.on_complete();
        if (ob != nullptr) {
          obs::TraceEvent ev;
          ev.kind = obs::EventKind::kRebuildComplete;
          ev.t_s = sim.now();
          ev.disk = disk;
          ev.slot = job.slot;
          ev.rebuild = true;
          ob->emit(ev);
        }
        if (rebuild_remaining == 0) report.rebuild_done_s = sim.now();
        kick_waiting();
      }
      dispatch(disk);
    });
  };

  int injected = 0;
  arrive = [&] {
    if (injected >= acfg.max_requests) return;
    ++injected;
    ++report.user_reads;
    ++report.requests_issued;
    const int i = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(layout.n())));
    const int stripe = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(arr.stripes())));
    const int row = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(layout.rows())));
    if (ob != nullptr) {
      obs::TraceEvent ev;
      ev.kind = obs::EventKind::kRequestArrive;
      ev.t_s = sim.now();
      ev.request_id = injected - 1;
      ob->emit(ev);
      ob->count("mm_online.user_reads");
    }

    // Data copy if live, else the least-user-loaded surviving replica.
    const auto copies = layout.copies_of(i, row);
    int best_phys = -1;
    int best_row = 0;
    bool degraded = false;
    for (std::size_t c = 0; c < copies.size(); ++c) {
      const int phys = arr.physical_disk(copies[c].disk, stripe);
      if (arr.physical(phys).failed()) continue;
      if (c == 0) {
        best_phys = phys;
        best_row = copies[c].row;
        break;
      }
      degraded = true;
      if (best_phys < 0 || user_load[static_cast<std::size_t>(phys)] <
                               user_load[static_cast<std::size_t>(best_phys)]) {
        best_phys = phys;
        best_row = copies[c].row;
      }
    }
    if (best_phys >= 0) {
      if (degraded) ++report.degraded_reads;
      ++user_load[static_cast<std::size_t>(best_phys)];
      queues[static_cast<std::size_t>(best_phys)].user.push_back(
          {arr.slot(stripe, best_row), sim.now(), true, degraded});
      dispatch(best_phys);
    }
    if (!proc->closed_loop()) {
      const double delay = proc->next_delay(rng);
      if (delay >= 0.0) sim.schedule_in(delay, [&arrive] { arrive(); });
    }
  };

  // Adaptive control loop (see recon::online — same controller).
  std::function<void()> control_tick = [&] {
    if (rebuild_remaining == 0) return;
    double window_p99 = -1.0;
    if (!window.empty()) {
      // Copied, not moved: `window` keeps its capacity for the next
      // interval.
      window_p99 = SampleSet(window).percentile(99);
      window.clear();
    }
    const int delta = throttle.control(window_p99);
    if (delta != 0) ++report.throttle_adjustments;
    if (ob != nullptr) {
      obs::TraceEvent ev;
      ev.kind = obs::EventKind::kThrottle;
      ev.t_s = sim.now();
      ev.slot = throttle.budget();
      ev.dur_s = window_p99 >= 0.0 ? window_p99 : 0.0;
      ev.rebuild = true;
      ob->emit(ev);
    }
    if (delta > 0) kick_waiting();
    sim.schedule_in(cfg.qos.control_interval_s,
                    [&control_tick] { control_tick(); });
  };
  if (throttle.adaptive())
    sim.schedule_in(cfg.qos.control_interval_s,
                    [&control_tick] { control_tick(); });

  if (proc->closed_loop()) {
    for (int c = 0; c < proc->clients(); ++c)
      sim.schedule_at(0.0, [&arrive] { arrive(); });
  } else {
    sim.schedule_at(proc->first_arrival_s(), [&arrive] { arrive(); });
  }
  for (int d = 0; d < arr.total_disks(); ++d)
    if (!arr.physical(d).failed()) sim.schedule_at(0.0, [&, d] { dispatch(d); });
  sim.run();

  if (rebuild_remaining != 0)
    return internal_error("rebuild jobs left undispatched");
  const SampleSet latencies(std::move(samples));
  if (!latencies.empty()) {
    report.mean_latency_s = latencies.mean();
    report.p50_latency_s = latencies.percentile(50);
    report.p95_latency_s = latencies.percentile(95);
    report.p99_latency_s = latencies.percentile(99);
    report.p999_latency_s = latencies.percentile(99.9);
  }
  if (slo_target > 0.0 && !latencies.empty())
    report.slo_violation_pct = 100.0 *
                               static_cast<double>(report.slo_violations) /
                               static_cast<double>(latencies.count());
  if (throttle.enabled()) report.final_rebuild_budget = throttle.budget();
  return report;
}

}  // namespace sma::mm
