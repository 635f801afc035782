#include "recon/online.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "recon/plan.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace sma::recon {

namespace {

struct Job {
  std::int64_t slot = 0;
  disk::IoKind kind = disk::IoKind::kRead;
  int request_id = -1;  // -1: rebuild I/O
  int stripe = -1;      // rebuild jobs: owning stripe
  // User read identity, for rerouting if the serving disk dies while
  // the job is still queued.
  int data_disk = -1;
  int row = -1;
  // Transient-error re-submissions consumed so far (bounded retry).
  int attempts = 0;
  // Hedged-pair membership: index into the run's hedge groups (-1 =
  // not hedged). The duplicate carries is_hedge; first completion wins.
  int hedge_group = -1;
  bool is_hedge = false;
};

struct DiskQueue {
  std::deque<Job> user;
  std::deque<Job> rebuild;
  bool busy = false;
};

struct Request {
  double arrival = 0.0;
  int pieces_left = 0;
  bool degraded = false;
  bool is_write = false;
  double latency = -1.0;  // set at completion (record_latencies)
};

/// Detach observation on every exit path: probes registered below
/// capture this stack frame, so they must not outlive it.
struct ObsGuard {
  array::DiskArray* arr = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  ~ObsGuard() {
    if (metrics != nullptr) metrics->clear_probes();
    if (arr != nullptr) arr->set_observer(nullptr);
  }
};

}  // namespace

Result<OnlineReport> run_online_reconstruction(array::DiskArray& arr,
                                               const OnlineConfig& cfg) {
  const auto& arch = arr.arch();
  if (!arch.is_mirror())
    return invalid_argument("online reconstruction models mirror kinds only");
  const auto initial_failed = arr.failed_physical();
  if (static_cast<int>(initial_failed.size()) > arch.fault_tolerance())
    return invalid_argument(
        "online reconstruction expects at most " +
        std::to_string(arch.fault_tolerance()) + " failed disk(s), got " +
        std::to_string(initial_failed.size()));
  const workload::ArrivalConfig& acfg = cfg.arrival;
  const workload::MixConfig& mcfg = cfg.mix;
  if (mcfg.write_fraction < 0 || mcfg.write_fraction > 1)
    return invalid_argument("write_fraction must lie in [0, 1]");
  if (cfg.qos.rebuild_budget < 0 || cfg.qos.min_budget < 0)
    return invalid_argument("rebuild budgets must be non-negative");
  if (cfg.qos.policy == workload::RebuildPolicy::kAdaptive &&
      (cfg.qos.p99_target_s <= 0 || cfg.qos.control_interval_s <= 0 ||
       cfg.qos.raise_headroom <= 0 || cfg.qos.raise_headroom > 1))
    return invalid_argument(
        "adaptive throttle needs p99_target_s > 0, control_interval_s > 0 "
        "and raise_headroom in (0, 1]");
  {
    const Status hedge_ok = workload::validate_hedge(cfg.hedge);
    if (!hedge_ok.is_ok()) return hedge_ok;
  }
  auto proc_r = workload::make_arrival_process(acfg);
  if (!proc_r.is_ok()) return proc_r.status();
  const std::unique_ptr<workload::ArrivalProcess> proc =
      std::move(proc_r).take();
  const bool inject_second =
      cfg.second_failure_at_s >= 0 && cfg.second_failure_disk >= 0;
  if (inject_second) {
    if (arch.fault_tolerance() < 2)
      return invalid_argument(
          "second-failure injection needs fault tolerance 2 (mirror with "
          "parity, or two replica arrays)");
    if (cfg.second_failure_disk >= arr.total_disks() ||
        std::find(initial_failed.begin(), initial_failed.end(),
                  cfg.second_failure_disk) != initial_failed.end())
      return invalid_argument("invalid second failure disk");
  }

  arr.reset_timelines();
  sim::Simulation sim;
  Rng rng(acfg.seed);
  workload::RebuildThrottle throttle(cfg.qos, arr.total_disks());
  // Fail-slow detection + hedging (inert unless cfg.hedge.enabled: no
  // flag is consulted and no deadline armed, so the default engine is
  // bit-identical). The detector consumes no randomness.
  const workload::HedgeConfig& hcfg = cfg.hedge;
  const bool hedging = hcfg.enabled;
  workload::FailSlowDetector fail_slow(hcfg, arr.total_disks());
  struct HedgeGroup {
    bool done = false;  // the piece has been accounted (first completion)
  };
  std::vector<HedgeGroup> hedge_groups;
  int outstanding_hedges = 0;
  const double slo_target = cfg.qos.p99_target_s;
  // Foreground read latencies completed since the last control tick
  // (adaptive policy only).
  std::vector<double> window;

  // Observability (null = disabled, the default): the array and the
  // event kernel get the observer for service spans and metric cadence;
  // everything else is emitted inline below. The guard detaches on
  // every return path.
  obs::Observer* const ob = cfg.observer.get();
  obs::MetricsRegistry* const metrics = ob != nullptr ? ob->metrics : nullptr;
  ObsGuard obs_guard;
  const std::size_t ndisks = static_cast<std::size_t>(arr.total_disks());
  // Per-disk service tallies backing the timeline probes (only
  // maintained while observing).
  std::vector<double> rebuild_bytes_served;
  std::vector<double> user_bytes_served;
  std::vector<double> retries_seen;

  std::vector<DiskQueue> queues(ndisks);
  // Read pieces routed to each disk: a degraded read takes the least
  // user-loaded live replica. Only R >= 2 has a choice to make.
  std::vector<int> user_load;
  if (arch.replicas() >= 2) user_load.assign(ndisks, 0);
  std::vector<int> stripe_pending(static_cast<std::size_t>(arr.stripes()), 0);
  std::size_t rebuild_remaining = 0;

  // Event-batched rebuild drains (OnlineConfig::batch_drains): legal
  // only when nothing can preempt, reshape, or observe a run mid-flight.
  // Closed-loop arrivals depend on completions, a throttle meters
  // rebuild admission per op, an observer samples per-op events, and a
  // second failure — configured or armed in any disk's fault profile —
  // drops rebuild queues array-wide when it lands. Per-disk fault
  // machinery (transients, latent sectors) is re-checked at each drain
  // via SimDisk::can_batch().
  // Hedging also disables batching: a hedge deadline can preempt a
  // queued piece mid-run.
  const double kNever = std::numeric_limits<double>::infinity();
  bool batching = cfg.batch_drains && !proc->closed_loop() &&
                  !throttle.enabled() && ob == nullptr && !inject_second &&
                  !hedging;
  for (std::size_t d = 0; batching && d < ndisks; ++d)
    if (arr.physical(static_cast<int>(d)).fail_stop_armed()) batching = false;
  // When the next user request arrives — the preemption horizon that
  // bounds every batched drain. Open loop only ever has one pending
  // arrival event, so the horizon is a single scalar.
  double next_arrival = kNever;
  std::vector<disk::RunAccess> batch_run;  // scratch, reused per drain

  if (ob != nullptr) {
    arr.set_observer(ob);
    sim.set_observer(ob);
    obs_guard.arr = &arr;
    obs_guard.metrics = metrics;
    for (const int p : initial_failed) {
      obs::TraceEvent ev;
      ev.kind = obs::EventKind::kFailure;
      ev.t_s = 0.0;
      ev.disk = p;
      ob->emit(ev);
    }
    if (metrics != nullptr) {
      rebuild_bytes_served.assign(ndisks, 0.0);
      user_bytes_served.assign(ndisks, 0.0);
      retries_seen.assign(ndisks, 0.0);
      for (std::size_t d = 0; d < ndisks; ++d) {
        const std::string prefix = "d" + std::to_string(d) + ".";
        metrics->add_probe(
            prefix + "util",
            [&arr, d, last = 0.0](double, double dt) mutable {
              const double busy =
                  arr.physical(static_cast<int>(d)).counters().busy_s;
              const double util = dt > 0.0 ? (busy - last) / dt : 0.0;
              last = busy;
              return util;
            });
        metrics->add_probe(prefix + "qdepth",
                           [&queues, d](double, double) {
                             const DiskQueue& q = queues[d];
                             return static_cast<double>(q.user.size() +
                                                        q.rebuild.size()) +
                                    (q.busy ? 1.0 : 0.0);
                           });
        metrics->add_probe(
            prefix + "rebuild_mbps",
            [&rebuild_bytes_served, d, last = 0.0](double, double dt) mutable {
              const double b = rebuild_bytes_served[d];
              const double rate = dt > 0.0 ? (b - last) / dt / 1e6 : 0.0;
              last = b;
              return rate;
            });
        metrics->add_probe(
            prefix + "user_mbps",
            [&user_bytes_served, d, last = 0.0](double, double dt) mutable {
              const double b = user_bytes_served[d];
              const double rate = dt > 0.0 ? (b - last) / dt / 1e6 : 0.0;
              last = b;
              return rate;
            });
        metrics->add_probe(prefix + "retries",
                           [&retries_seen, d](double, double) {
                             return retries_seen[d];
                           });
        // Only with a throttling policy, so the columns of existing
        // timeline experiments stay exactly disks x 5.
        if (throttle.enabled())
          metrics->add_probe(prefix + "rebuild_budget",
                             [&throttle](double, double) {
                               return static_cast<double>(throttle.budget());
                             });
      }
    }
  }

  // (Re)plan the rebuild reads of one stripe against the current failed
  // set and enqueue them. Returns false on planning failure.
  //
  // Stack rotation makes stripe geometry periodic: stripe s's failed
  // *logical* set — and therefore its plan and the physical placement
  // of every planned read — depends only on s mod total_disks. A
  // planning wave over the whole array compiles one template per
  // rotation class (the (physical disk, row) pairs of its rebuild
  // reads) and stamps it out per stripe at the stripe's slot base,
  // instead of re-running the planner thousands of times. Templates are
  // invalidated when the failed set changes (handle_disk_death). The
  // physical failed set is likewise invariant within a wave; callers
  // pass it in instead of re-materializing it per stripe.
  struct StripeTemplate {
    bool compiled = false;
    std::vector<std::pair<int, int>> reads;  // (physical disk, row)
  };
  const int total_disks = arr.total_disks();
  std::vector<StripeTemplate> plan_cache(
      static_cast<std::size_t>(total_disks));
  std::vector<int> failed_logical;  // scratch, reused per compile
  auto plan_stripe = [&](int s, const std::vector<int>& failed_phys) -> bool {
    StripeTemplate& tpl =
        plan_cache[static_cast<std::size_t>(s % total_disks)];
    if (!tpl.compiled) {
      tpl.reads.clear();
      failed_logical.clear();
      for (const int p : failed_phys) {
        const int l = arr.logical_disk(p, s);
        failed_logical.insert(
            std::upper_bound(failed_logical.begin(), failed_logical.end(), l),
            l);
      }
      auto planned = plan_reconstruction(arch, failed_logical);
      if (!planned.is_ok()) return false;
      for (const auto& read : planned.value().availability_reads)
        tpl.reads.emplace_back(arr.physical_disk(read.logical_disk, s),
                               read.row);
      tpl.compiled = true;
    }
    // arr.slot(s, row) is row-major: s * rows + row (asserted by the
    // array's own accessor, which the trace path below still uses).
    const std::int64_t slot_base =
        static_cast<std::int64_t>(s) * arch.rows();
    for (const auto& [phys, row] : tpl.reads) {
      Job job;
      job.slot = slot_base + row;
      job.kind = disk::IoKind::kRead;
      job.stripe = s;
      queues[static_cast<std::size_t>(phys)].rebuild.push_back(job);
      if (ob != nullptr) {
        obs::TraceEvent ev;
        ev.kind = obs::EventKind::kRebuildIssue;
        ev.t_s = sim.now();
        ev.disk = phys;
        ev.stripe = s;
        ev.slot = arr.slot(s, row);
        ev.rebuild = true;
        ob->emit(ev);
      }
    }
    stripe_pending[static_cast<std::size_t>(s)] +=
        static_cast<int>(tpl.reads.size());
    rebuild_remaining += tpl.reads.size();
    return true;
  };
  for (int s = 0; s < arr.stripes(); ++s)
    if (!plan_stripe(s, initial_failed))
      return internal_error("initial rebuild plan failed");

  OnlineReport report;

  // Lifecycle tracking, derived through the header-inline
  // repair::classify (sma_recon does not link sma_repair): transitions
  // become typed kStateChange events and the report's final_state.
  std::vector<int> lc_failed = initial_failed;
  auto lc_update = [&](double t, bool rebuilding) {
    const repair::ArrayState next =
        repair::classify(arch, lc_failed, rebuilding, false);
    if (next == report.final_state) return;
    if (ob != nullptr) {
      obs::TraceEvent ev;
      ev.kind = obs::EventKind::kStateChange;
      ev.t_s = t;
      ev.state_from = static_cast<int>(report.final_state);
      ev.state_to = static_cast<int>(next);
      ob->emit(ev);
    }
    report.final_state = next;
    ++report.state_changes;
  };
  lc_update(0.0, true);  // the initial failure, rebuild about to start

  SampleSet read_latencies;
  SampleSet degraded_latencies;
  SampleSet write_latencies;
  std::vector<Request> requests;

  bool injection_failed = false;
  std::function<void()> arrive;                // defined below
  std::function<void(int)> handle_disk_death;  // defined below dispatch
  std::function<void(int)> dispatch;           // defined below
  std::function<void(int, Job)> enqueue_user;  // defined below dispatch
  std::function<void(const Job&)> reroute_orphan;  // defined below dispatch

  // Record a detector flag flip: report accounting plus a typed
  // kFailSlow event when an observer is attached.
  auto note_flip = [&](int disk, int flip) {
    if (flip == 0) return;
    if (flip > 0) ++report.fail_slow_flagged;
    if (ob != nullptr) {
      obs::TraceEvent ev;
      ev.kind = obs::EventKind::kFailSlow;
      ev.t_s = sim.now();
      ev.disk = disk;
      ev.slot = flip > 0 ? 1 : 0;
      ev.dur_s = fail_slow.ewma(disk);
      ob->emit(ev);
    }
  };

  // A throttled rebuild job may be waiting on an idle disk for budget;
  // whenever budget frees up or rises, hand it out. No-op (and never
  // reached) under strict priority.
  auto kick_waiting = [&] {
    if (!throttle.enabled()) return;
    for (int d = 0; d < arr.total_disks(); ++d) {
      if (!throttle.allow()) return;
      const DiskQueue& q = queues[static_cast<std::size_t>(d)];
      if (!q.busy && !q.rebuild.empty()) dispatch(d);
    }
  };

  // A user request fully completed: latency + SLO accounting (over
  // completed requests, per the report contract) and, closed loop, the
  // think-time re-arm of the issuing client.
  auto finish_request = [&](Request& rq) {
    const double latency = sim.now() - rq.arrival;
    if (cfg.record_latencies) rq.latency = latency;
    ++report.requests_completed;
    if (rq.is_write) {
      write_latencies.add(latency);
    } else {
      read_latencies.add(latency);
      if (rq.degraded) degraded_latencies.add(latency);
      if (slo_target > 0.0 && latency > slo_target) ++report.slo_violations;
      if (throttle.adaptive()) window.push_back(latency);
    }
    if (proc->closed_loop()) sim.schedule_in(proc->think_delay(rng), [&arrive] { arrive(); });
  };

  // Retire one job — user piece (request accounting on the last piece)
  // or rebuild read (stripe bookkeeping + budget release). Shared by the
  // success path and the abandoned-op path, so a failed op still lets
  // its request finish. `disk` is the serving disk (trace labeling only).
  auto complete_job = [&](const Job& job, int disk) {
    if (job.request_id >= 0) {
      if (job.hedge_group >= 0) {
        // First completion of a hedged pair wins; the loser's service
        // was wasted and must not decrement the request again.
        HedgeGroup& g =
            hedge_groups[static_cast<std::size_t>(job.hedge_group)];
        if (g.done) {
          ++report.hedge_wasted;
          return;
        }
        g.done = true;
        if (job.is_hedge) ++report.hedge_wins;
      }
      Request& rq = requests[static_cast<std::size_t>(job.request_id)];
      if (--rq.pieces_left == 0) finish_request(rq);
    } else {
      --stripe_pending[static_cast<std::size_t>(job.stripe)];
      --rebuild_remaining;
      throttle.on_complete();
      if (ob != nullptr) {
        obs::TraceEvent ev;
        ev.kind = obs::EventKind::kRebuildComplete;
        ev.t_s = sim.now();
        ev.disk = disk;
        ev.stripe = job.stripe;
        ev.slot = job.slot;
        ev.rebuild = true;
        ob->emit(ev);
      }
      if (rebuild_remaining == 0) {
        report.rebuild_done_s = sim.now();
        lc_failed.clear();  // every lost element has a recovered copy
        lc_update(sim.now(), false);
        if (ob != nullptr) {
          // Aggregate marker: the whole rebuild drained.
          obs::TraceEvent done;
          done.kind = obs::EventKind::kRebuildComplete;
          done.t_s = sim.now();
          done.rebuild = true;
          ob->emit(done);
        }
      }
      kick_waiting();
    }
  };

  dispatch = [&](int disk) {
    if (arr.physical(disk).failed()) return;
    auto& q = queues[static_cast<std::size_t>(disk)];
    if (q.busy) return;
    // Batched drain: an idle disk holding only rebuild work commits a
    // whole run in one pass and schedules a single completion event at
    // the run's end, instead of one event per element. The run is
    // bounded by the next arrival: an access enters service only while
    // the previous completion lands strictly *before* it — exactly when
    // the per-event path would have dispatched it (at a tie the arrival
    // event carries the earlier sequence number in both worlds, so the
    // user job is already queued when the completion fires). The first
    // access is forced: this dispatch call commits it regardless.
    // Completions are retired at the run's end; that can only move a
    // *global* milestone (rebuild_remaining hitting zero) if the
    // milestone op is the run's own last element, whose end time the
    // event carries exactly.
    if (batching && q.user.empty() && q.rebuild.size() > 1 &&
        arr.physical(disk).can_batch()) {
      disk::SimDisk& d = arr.physical(disk);
      // Chunked scan so a drain bounded by a near arrival never walks
      // the whole queue to take a short prefix.
      constexpr std::size_t kChunk = 64;
      std::size_t taken = 0;
      double end = 0.0;
      bool force_first = true;
      for (;;) {
        const std::size_t chunk = std::min(kChunk, q.rebuild.size() - taken);
        if (chunk == 0) break;
        batch_run.clear();
        for (std::size_t i = 0; i < chunk; ++i) {
          const Job& j = q.rebuild[taken + i];
          batch_run.push_back({j.kind, j.slot});
        }
        const disk::SimDisk::RunWhile rw =
            d.submit_run_while(batch_run, sim.now(), next_arrival, force_first);
        if (rw.submitted > 0) end = rw.end;
        taken += rw.submitted;
        if (rw.submitted < chunk) break;
        force_first = false;
      }
      // The taken prefix stays in the deque until the run completes:
      // under the batch gate nothing can touch it meanwhile (this disk
      // is busy, planning waves only happen at start and on a disk
      // death, kick_waiting is throttle-only), so the completion event
      // needs just the count — no per-job capture.
      for (std::size_t i = 0; i < taken; ++i) throttle.on_issue();
      q.busy = true;
      sim.schedule_at(end, [&, disk, taken] {
        auto& dq = queues[static_cast<std::size_t>(disk)];
        dq.busy = false;
        for (std::size_t i = 0; i < taken; ++i) {
          complete_job(dq.rebuild.front(), disk);
          dq.rebuild.pop_front();
        }
        dispatch(disk);
      });
      return;
    }
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
    if (ob != nullptr) {
      obs::TraceEvent ev;
      ev.kind = obs::EventKind::kQueueLeave;
      ev.t_s = sim.now();
      ev.disk = disk;
      ev.slot = job.slot;
      ev.request_id = job.request_id;
      ev.stripe = job.stripe;
      ev.rebuild = job.request_id < 0;
      ev.write = job.kind == disk::IoKind::kWrite;
      ob->emit(ev);
    }
    disk::SimDisk& d = arr.physical(disk);
    const disk::IoResult res = d.submit(job.kind, job.slot, sim.now());
    if (!res.is_ok()) {
      if (d.failed()) {
        // A FaultProfile-scheduled fail-stop manifested: absorb it like
        // a configured second failure. The unserved job goes back in
        // front so the death handling replans / reroutes it with the
        // rest of the queue.
        q.busy = false;
        if (job.request_id >= 0) {
          q.user.push_front(job);
        } else {
          throttle.on_complete();  // left service without completing
          q.rebuild.push_front(job);
        }
        ++report.fail_stops_absorbed;
        handle_disk_death(disk);
        return;
      }
      // Transient error or unreadable sector: the attempt occupied the
      // disk for its full service time. Retry transients in place
      // (bounded); abandon the op otherwise so the request completes.
      const bool transient = res.status().code() == ErrorCode::kIoError;
      sim.schedule_at(d.busy_until(), [&, disk, job, transient]() mutable {
        auto& dq = queues[static_cast<std::size_t>(disk)];
        dq.busy = false;
        const bool retry =
            transient && job.attempts < arr.config().io_max_retries;
        if (retry && arr.physical(disk).failed()) {
          // The disk died during the attempt, and handle_disk_death has
          // swept its queue and replanned every stripe since: a retry
          // queued here would never dispatch. A rebuild job retires
          // like an abandoned op; a user piece gets the dead queue's
          // treatment.
          if (job.request_id < 0)
            complete_job(job, disk);
          else
            reroute_orphan(job);
        } else if (retry) {
          ++job.attempts;
          ++report.io_retries;
          if (ob != nullptr) {
            obs::TraceEvent ev;
            ev.kind = obs::EventKind::kRetry;
            ev.t_s = sim.now();
            ev.disk = disk;
            ev.slot = job.slot;
            ev.request_id = job.request_id;
            ev.stripe = job.stripe;
            ev.rebuild = job.request_id < 0;
            ev.write = job.kind == disk::IoKind::kWrite;
            ob->emit(ev);
            ob->count("online.io_retries");
            if (metrics != nullptr)
              retries_seen[static_cast<std::size_t>(disk)] += 1.0;
          }
          if (job.request_id >= 0) {
            dq.user.push_front(job);
          } else {
            throttle.on_complete();  // re-queued: budget frees meanwhile
            dq.rebuild.push_front(job);
          }
        } else {
          ++report.io_failures;
          if (ob != nullptr) ob->count("online.io_failures");
          complete_job(job, disk);
        }
        dispatch(disk);
      });
      return;
    }
    // Feed the fail-slow detector the observed service duration (the
    // disk was idle at dispatch, so completion - now is exactly it).
    if (hedging) note_flip(disk, fail_slow.observe(disk, res.value() - sim.now()));
    sim.schedule_at(res.value(), [&, disk, job] {
      queues[static_cast<std::size_t>(disk)].busy = false;
      if (metrics != nullptr) {
        const double bytes =
            static_cast<double>(arr.config().logical_element_bytes);
        auto& tally = job.request_id < 0 ? rebuild_bytes_served
                                         : user_bytes_served;
        tally[static_cast<std::size_t>(disk)] += bytes;
      }
      complete_job(job, disk);
      dispatch(disk);
    });
  };

  enqueue_user = [&](int phys, Job job) {
    // Hedged reads: a user read piece queued to a flagged disk arms a
    // deadline; if the piece is still incomplete when it expires, a
    // duplicate is issued to the partner copy and the first completion
    // wins. Parity-path pieces (serving disk is neither the data copy
    // nor the replica) and writes are never hedged.
    if (hedging && hcfg.hedge_reads && job.request_id >= 0 &&
        job.kind == disk::IoKind::kRead && !job.is_hedge &&
        job.hedge_group < 0 && job.data_disk >= 0 && fail_slow.slow(phys) &&
        outstanding_hedges < hcfg.max_outstanding_hedges) {
      // The alternate: the first other copy of the element that is live
      // and unflagged, when `phys` serves one of its copies at all.
      bool serves_copy = false;
      int alt = -1;
      std::int64_t alt_slot = -1;
      for (int c = 0; c <= arch.replicas(); ++c) {
        const layout::Pos copy = arch.copy_of(c, job.data_disk, job.row);
        const int copy_phys = arr.physical_disk(copy.disk, job.stripe);
        if (copy_phys == phys) {
          serves_copy = true;
        } else if (alt < 0 && !arr.physical(copy_phys).failed() &&
                   !fail_slow.slow(copy_phys)) {
          alt = copy_phys;
          alt_slot = arr.slot(job.stripe, copy.row);
        }
      }
      const double median = fail_slow.peer_median(phys);
      if (serves_copy && alt >= 0 && median > 0.0) {
        const int g = static_cast<int>(hedge_groups.size());
        hedge_groups.push_back({});
        job.hedge_group = g;
        Job dup = job;
        dup.slot = alt_slot;
        dup.is_hedge = true;
        dup.attempts = 0;
        ++outstanding_hedges;
        sim.schedule_in(hcfg.hedge_deadline_factor * median,
                        [&, dup, alt, g] {
                          --outstanding_hedges;
                          if (hedge_groups[static_cast<std::size_t>(g)].done)
                            return;
                          if (arr.physical(alt).failed()) return;
                          ++report.hedged_reads;
                          if (ob != nullptr) {
                            obs::TraceEvent ev;
                            ev.kind = obs::EventKind::kHedge;
                            ev.t_s = sim.now();
                            ev.disk = alt;
                            ev.slot = dup.slot;
                            ev.stripe = dup.stripe;
                            ev.request_id = dup.request_id;
                            ob->emit(ev);
                          }
                          enqueue_user(alt, dup);
                        });
      }
    }
    queues[static_cast<std::size_t>(phys)].user.push_back(job);
    if (ob != nullptr) {
      obs::TraceEvent ev;
      ev.kind = obs::EventKind::kQueueEnter;
      ev.t_s = sim.now();
      ev.disk = phys;
      ev.slot = job.slot;
      ev.request_id = job.request_id;
      ev.write = job.kind == disk::IoKind::kWrite;
      ob->emit(ev);
    }
    dispatch(phys);
  };

  // Pieces needed to serve a read of data element (i, stripe, row)
  // under the current failure set: the data copy, else the least
  // user-loaded live replica (ties to the earlier array), else the
  // parity row. Empty means unreadable (beyond tolerance).
  auto read_pieces = [&](int i, int stripe, int row, bool& degraded)
      -> std::vector<std::pair<int, Job>> {
    std::vector<std::pair<int, Job>> out;
    auto piece = [&](int logical, int prow) {
      Job job;
      job.slot = arr.slot(stripe, prow);
      job.kind = disk::IoKind::kRead;
      job.data_disk = i;
      job.row = row;
      job.stripe = stripe;
      const int phys = arr.physical_disk(logical, stripe);
      if (!user_load.empty()) ++user_load[static_cast<std::size_t>(phys)];
      out.push_back({phys, job});
    };
    const int data_phys = arr.physical_disk(arch.data_disk(i), stripe);
    if (!arr.physical(data_phys).failed()) {
      // Copy-affinity routing: a live-but-flagged primary loses the
      // read to a healthy replica (not counted degraded — the data is
      // fully redundant, we just prefer the healthy disk).
      if (hedging && hcfg.affinity_routing && fail_slow.slow(data_phys)) {
        for (int r = 1; r <= arch.replicas(); ++r) {
          const layout::Pos rep = arch.replica_of(r, i, row);
          const int rep_phys = arr.physical_disk(rep.disk, stripe);
          if (!arr.physical(rep_phys).failed() && !fail_slow.slow(rep_phys)) {
            ++report.affinity_reroutes;
            piece(rep.disk, rep.row);
            return out;
          }
        }
      }
      piece(arch.data_disk(i), row);
      return out;
    }
    degraded = true;
    layout::Pos best{-1, -1};
    int best_phys = -1;
    for (int r = 1; r <= arch.replicas(); ++r) {
      const layout::Pos rep = arch.replica_of(r, i, row);
      const int rep_phys = arr.physical_disk(rep.disk, stripe);
      if (arr.physical(rep_phys).failed()) continue;
      if (best_phys < 0 || user_load[static_cast<std::size_t>(rep_phys)] <
                               user_load[static_cast<std::size_t>(best_phys)]) {
        best = rep;
        best_phys = rep_phys;
      }
    }
    if (best_phys >= 0) {
      piece(best.disk, best.row);
      return out;
    }
    // Parity path: every other data element of the row + parity cell.
    if (!arch.has_parity() ||
        arr.physical(arr.physical_disk(arch.parity_disk(), stripe)).failed())
      return {};
    for (int other = 0; other < arch.n(); ++other) {
      if (other == i) continue;
      if (arr.physical(arr.physical_disk(arch.data_disk(other), stripe))
              .failed())
        return {};
      piece(arch.data_disk(other), row);
    }
    piece(arch.parity_disk(), row);
    return out;
  };

  // User-request injection over random data elements, paced by the
  // arrival process (open loop schedules the successor; closed loop
  // re-arms from finish_request).
  int injected = 0;
  arrive = [&] {
    if (injected >= acfg.max_requests) {
      next_arrival = kNever;
      return;
    }
    ++injected;
    const int data_disk =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(arch.n())));
    const int stripe = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(arr.stripes())));
    const int row = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(arch.rows())));
    // The mix draw happens unconditionally so the default open-loop
    // stream consumes the RNG exactly like the pre-QoS engine.
    const bool mix_write = rng.next_bool(mcfg.write_fraction);
    const int forced = proc->write_override();
    const bool is_write = forced < 0 ? mix_write : forced > 0;

    const int rid = static_cast<int>(requests.size());
    requests.push_back({sim.now(), 0, false, is_write});
    ++report.requests_issued;
    if (ob != nullptr) {
      obs::TraceEvent ev;
      ev.kind = obs::EventKind::kRequestArrive;
      ev.t_s = sim.now();
      ev.request_id = rid;
      ev.write = is_write;
      ob->emit(ev);
      ob->count(is_write ? "online.user_writes" : "online.user_reads");
    }

    if (is_write) {
      ++report.user_writes;
      std::vector<std::pair<int, Job>> pieces;
      auto piece = [&](int logical, int prow) {
        const int phys = arr.physical_disk(logical, stripe);
        if (arr.physical(phys).failed()) return;
        Job job;
        job.slot = arr.slot(stripe, prow);
        job.kind = disk::IoKind::kWrite;
        job.request_id = rid;
        pieces.push_back({phys, job});
      };
      for (int c = 0; c <= arch.replicas(); ++c) {
        const layout::Pos copy = arch.copy_of(c, data_disk, row);
        piece(copy.disk, copy.row);
      }
      if (arch.has_parity()) piece(arch.parity_disk(), row);
      requests[static_cast<std::size_t>(rid)].pieces_left =
          static_cast<int>(pieces.size());
      for (auto& [phys, job] : pieces) enqueue_user(phys, job);
    } else {
      ++report.user_reads;
      bool degraded = false;
      auto pieces = read_pieces(data_disk, stripe, row, degraded);
      if (pieces.empty()) {
        // Unreadable under the current failures; the issued request dies
        // without completing (requests_issued > requests_completed).
        // Should not happen within the architecture's tolerance.
        requests.pop_back();
      } else {
        if (degraded) {
          requests[static_cast<std::size_t>(rid)].degraded = true;
          ++report.degraded_reads;
          if (ob != nullptr) ob->count("online.degraded_reads");
        }
        requests[static_cast<std::size_t>(rid)].pieces_left =
            static_cast<int>(pieces.size());
        for (auto& [phys, job] : pieces) {
          job.request_id = rid;
          enqueue_user(phys, job);
        }
      }
    }
    if (!proc->closed_loop()) {
      const double delay = proc->next_delay(rng);
      if (delay >= 0.0) {
        // schedule_in(delay) resolves to exactly now + delay; computing
        // the horizon here keeps it bit-equal to the event's time.
        next_arrival = sim.now() + delay;
        sim.schedule_at(next_arrival, [&arrive] { arrive(); });
      } else {
        next_arrival = kNever;
      }
    }
  };

  // A user piece its disk died before serving: a read is re-issued
  // against the surviving copies and a write piece completes as skipped
  // (the write lands on the remaining copies). Shared by
  // handle_disk_death's sweep of the dead disk's queue and the retry of
  // a transient error whose disk died during the attempt.
  reroute_orphan = [&](const Job& job) {
    Request& rq = requests[static_cast<std::size_t>(job.request_id)];
    if (job.hedge_group >= 0) {
      HedgeGroup& g = hedge_groups[static_cast<std::size_t>(job.hedge_group)];
      // Partner already served the piece: nothing left to carry.
      if (g.done) return;
      // Cancel the pair: the surviving half completes as wasted, and
      // the reroute below re-issues this piece plain — exactly one
      // decrement for the pair's one pieces_left unit, whichever half
      // died.
      g.done = true;
    }
    if (job.kind == disk::IoKind::kWrite) {
      if (--rq.pieces_left == 0) finish_request(rq);
      return;
    }
    bool degraded = false;
    auto pieces = read_pieces(job.data_disk, job.stripe, job.row, degraded);
    if (pieces.empty()) {
      if (--rq.pieces_left == 0) finish_request(rq);
      return;
    }
    rq.pieces_left += static_cast<int>(pieces.size()) - 1;
    if (degraded && !rq.degraded) {
      rq.degraded = true;
      ++report.degraded_reads;
    }
    for (auto& [phys, piece_job] : pieces) {
      piece_job.request_id = job.request_id;
      enqueue_user(phys, piece_job);
    }
  };

  // Absorb the death of `dead` (already marked failed): drop every
  // queued rebuild job, replan all stripes against the full current
  // failure set, and hand the dead disk's queued user pieces to
  // reroute_orphan. Used by both the configured second-failure
  // injection and FaultProfile-scheduled fail-stops that manifest in
  // dispatch.
  handle_disk_death = [&](int dead) {
    lc_failed.push_back(dead);
    lc_update(sim.now(), true);
    // Forget every queued rebuild job (their stripes get replanned).
    for (auto& q : queues) {
      for (const auto& job : q.rebuild) {
        --stripe_pending[static_cast<std::size_t>(job.stripe)];
        --rebuild_remaining;
      }
      q.rebuild.clear();
    }
    // Replan ALL stripes for the full current failure set. This is
    // conservative: stripes whose first-failure reads had completed
    // are read again, a bounded overestimate of rebuild work that
    // keeps the planner the single source of truth for what the
    // double-failure rebuild needs.
    for (auto& tpl : plan_cache) tpl.compiled = false;
    const std::vector<int> failed_phys = arr.failed_physical();
    for (int s = 0; s < arr.stripes(); ++s) {
      if (!plan_stripe(s, failed_phys)) {
        injection_failed = true;
        return;
      }
    }
    // Reroute queued user jobs of the dead disk.
    auto& dq = queues[static_cast<std::size_t>(dead)];
    std::deque<Job> orphans = std::move(dq.user);
    dq.user.clear();
    for (const Job& job : orphans) reroute_orphan(job);
    // Kick all survivors (new rebuild work everywhere).
    for (int d = 0; d < arr.total_disks(); ++d) dispatch(d);
  };

  if (inject_second) {
    sim.schedule_at(cfg.second_failure_at_s, [&] {
      const int dead = cfg.second_failure_disk;
      if (arr.physical(dead).failed()) return;
      report.second_failure_injected = true;
      arr.fail_physical(dead);
      if (ob != nullptr) {
        obs::TraceEvent ev;
        ev.kind = obs::EventKind::kFailure;
        ev.t_s = sim.now();
        ev.disk = dead;
        ob->emit(ev);
      }
      handle_disk_death(dead);
    });
  }

  // Adaptive control loop: every interval, fold the window's foreground
  // p99 into the budget. Ticks stop once the rebuild drains so they
  // never keep the simulation alive on their own.
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
    next_arrival = proc->first_arrival_s();
    sim.schedule_at(next_arrival, [&arrive] { arrive(); });
  }
  for (int d = 0; d < arr.total_disks(); ++d)
    if (!arr.physical(d).failed()) sim.schedule_at(0.0, [&, d] { dispatch(d); });
  sim.run();

  if (injection_failed)
    return unrecoverable("second failure made the rebuild unplannable");
  if (rebuild_remaining != 0)
    return internal_error("rebuild jobs left undispatched");

  if (!read_latencies.empty()) {
    report.mean_latency_s = read_latencies.mean();
    report.p50_latency_s = read_latencies.percentile(50);
    report.p95_latency_s = read_latencies.percentile(95);
    report.p99_latency_s = read_latencies.percentile(99);
    report.p999_latency_s = read_latencies.percentile(99.9);
    report.max_latency_s = read_latencies.max();
  }
  if (!degraded_latencies.empty())
    report.mean_degraded_latency_s = degraded_latencies.mean();
  if (!write_latencies.empty()) {
    report.mean_write_latency_s = write_latencies.mean();
    report.p99_write_latency_s = write_latencies.percentile(99);
  }
  if (slo_target > 0.0 && !read_latencies.empty())
    report.slo_violation_pct = 100.0 *
                               static_cast<double>(report.slo_violations) /
                               static_cast<double>(read_latencies.count());
  if (throttle.enabled()) report.final_rebuild_budget = throttle.budget();
  if (cfg.record_latencies) {
    report.latencies.reserve(requests.size());
    for (const Request& rq : requests) report.latencies.push_back(rq.latency);
  }
  return report;
}

}  // namespace sma::recon
