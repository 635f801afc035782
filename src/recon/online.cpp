#include "recon/online.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <memory>
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
  double latency = -1.0;  // set at completion; < 0 while outstanding
};

/// The (physical disk, job) pieces one user request fans out to.
using Pieces = std::vector<std::pair<int, Job>>;

/// The compiled rebuild reads of one stack-rotation class (plan_stripe).
struct StripeTemplate {
  bool compiled = false;
  std::vector<std::pair<int, int>> reads;  // (physical disk, row)
};

constexpr double kNever = std::numeric_limits<double>::infinity();

/// Timeline probe of a windowed rate: the growth of a cumulative tally
/// since the previous sample, per simulated second, in `unit`s.
class WindowedRate {
 public:
  WindowedRate(const double* tally, double unit) : tally_(tally), unit_(unit) {}
  double operator()(double /*now*/, double dt) {
    const double rate = dt > 0.0 ? (*tally_ - last_) / dt / unit_ : 0.0;
    last_ = *tally_;
    return rate;
  }

 private:
  const double* tally_;
  double unit_;
  double last_ = 0.0;
};

/// One on-line rebuild run. Each member function is one stage of the
/// serving engine (docs/SERVING.md, "Engine stages"); events on the
/// kernel capture `this` and their values. The destructor detaches
/// observation on every return path: the probes registered by observe()
/// capture `this`, so they must not outlive the run.
class Engine {
 public:
  Engine(array::DiskArray& arr, const OnlineConfig& cfg,
         std::unique_ptr<workload::ArrivalProcess> proc,
         std::vector<int> initial_failed)
      : arr_(arr),
        arch_(arr.arch()),
        cfg_(cfg),
        proc_(std::move(proc)),
        initial_failed_(std::move(initial_failed)),
        inject_second_(cfg.second_failure_at_s >= 0 &&
                       cfg.second_failure_disk >= 0),
        // Fail-slow detection and hedging are inert unless enabled: no
        // flag is consulted and no deadline armed. The detector consumes
        // no randomness.
        hedging_(cfg.hedge.enabled),
        ob_(cfg.observer.get()),
        metrics_(ob_ != nullptr ? ob_->metrics : nullptr),
        rng_(cfg.arrival.seed),
        throttle_(cfg.qos, arr.total_disks()),
        fail_slow_(cfg.hedge, arr.total_disks()),
        queues_(static_cast<std::size_t>(arr.total_disks())),
        plan_cache_(queues_.size()),
        lc_failed_(initial_failed_) {
    arr_.reset_timelines();
    if (arch_.replicas() >= 2) user_load_.assign(queues_.size(), 0);
    // Batched drains are legal only when nothing can preempt, reshape,
    // or observe a run mid-flight. Closed-loop arrivals depend on
    // completions, a throttle meters rebuild admission per op, an
    // observer samples per-op events, a hedge deadline can preempt a
    // queued piece, and a second failure — configured or armed in any
    // disk's fault profile — drops rebuild queues array-wide when it
    // lands. Per-disk fault machinery (transients, latent sectors) is
    // re-checked at each drain via SimDisk::can_batch().
    batching_ = cfg_.batch_drains && !proc_->closed_loop() &&
                !throttle_.enabled() && ob_ == nullptr && !inject_second_ &&
                !hedging_;
    for (int d = 0; batching_ && d < arr_.total_disks(); ++d)
      if (arr_.physical(d).fail_stop_armed()) batching_ = false;
    if (ob_ != nullptr) observe();
  }

  ~Engine() {
    if (metrics_ != nullptr) metrics_->clear_probes();
    if (ob_ != nullptr) arr_.set_observer(nullptr);
  }
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Result<OnlineReport> run();

 private:
  // --- rebuild planning ---------------------------------------------------

  // (Re)plan the rebuild reads of one stripe against the failed set and
  // enqueue them. Returns false on planning failure.
  //
  // Stack rotation makes stripe geometry periodic: stripe s's failed
  // *logical* set — and therefore its plan and the physical placement of
  // every planned read — depends only on s mod total_disks. A planning
  // wave over the whole array compiles one template per rotation class
  // (the (physical disk, row) pairs of its rebuild reads) and stamps it
  // out per stripe at the stripe's slot base, instead of re-running the
  // planner thousands of times. Templates are invalidated when the
  // failed set changes (handle_disk_death). The physical failed set is
  // likewise invariant within a wave; callers pass it in instead of
  // re-materializing it per stripe.
  bool plan_stripe(int s, const std::vector<int>& failed_phys) {
    StripeTemplate& tpl = plan_cache_[static_cast<std::size_t>(s) %
                                      plan_cache_.size()];
    if (!tpl.compiled) {
      tpl.reads.clear();
      failed_logical_.clear();
      for (const int p : failed_phys) {
        const int l = arr_.logical_disk(p, s);
        failed_logical_.insert(std::upper_bound(failed_logical_.begin(),
                                                failed_logical_.end(), l),
                               l);
      }
      auto planned = plan_reconstruction(arch_, failed_logical_);
      if (!planned.is_ok()) return false;
      for (const auto& read : planned.value().availability_reads)
        tpl.reads.emplace_back(arr_.physical_disk(read.logical_disk, s),
                               read.row);
      tpl.compiled = true;
    }
    // arr.slot(s, row) is row-major: s * rows + row.
    const std::int64_t slot_base = static_cast<std::int64_t>(s) * arch_.rows();
    for (const auto& [phys, row] : tpl.reads) {
      Job job;
      job.slot = slot_base + row;
      job.stripe = s;
      queue(phys).rebuild.push_back(job);
      if (ob_ != nullptr) trace_job(obs::EventKind::kRebuildIssue, phys, job);
    }
    rebuild_remaining_ += tpl.reads.size();
    return true;
  }

  // Lifecycle tracking, derived through the header-inline
  // repair::classify (sma_recon does not link sma_repair): transitions
  // become typed kStateChange events and the report's final_state.
  void set_state(bool rebuilding) {
    const repair::ArrayState next =
        repair::classify(arch_, lc_failed_, rebuilding, false);
    if (next == report_.final_state) return;
    if (ob_ != nullptr) {
      obs::TraceEvent ev = event(obs::EventKind::kStateChange);
      ev.state_from = static_cast<int>(report_.final_state);
      ev.state_to = static_cast<int>(next);
      trace(ev);
    }
    report_.final_state = next;
    ++report_.state_changes;
  }

  // --- arrival -------------------------------------------------------------

  // User-request injection over random data elements, paced by the
  // arrival process (open loop schedules the successor; closed loop
  // re-arms from finish_request).
  void arrive() {
    if (report_.requests_issued >=
        static_cast<std::size_t>(cfg_.arrival.max_requests)) {
      next_arrival_ = kNever;
      return;
    }
    const int data_disk = static_cast<int>(
        rng_.next_below(static_cast<std::uint64_t>(arch_.n())));
    const int stripe = static_cast<int>(
        rng_.next_below(static_cast<std::uint64_t>(arr_.stripes())));
    const int row = static_cast<int>(
        rng_.next_below(static_cast<std::uint64_t>(arch_.rows())));
    // The mix draw happens unconditionally so the default open-loop
    // stream consumes the RNG exactly like the pre-QoS engine.
    const bool mix_write = rng_.next_bool(cfg_.mix.write_fraction);
    const int forced = proc_->write_override();
    const bool is_write = forced < 0 ? mix_write : forced > 0;

    const int rid = static_cast<int>(requests_.size());
    requests_.push_back({sim_.now(), 0, false, is_write});
    ++report_.requests_issued;
    if (ob_ != nullptr) {
      obs::TraceEvent ev = event(obs::EventKind::kRequestArrive);
      ev.request_id = rid;
      ev.write = is_write;
      trace(ev);
      ob_->count(is_write ? "online.user_writes" : "online.user_reads");
    }

    bool degraded = false;
    Pieces pieces;
    if (is_write) {
      ++report_.user_writes;
      pieces = write_pieces(data_disk, stripe, row);
    } else {
      ++report_.user_reads;
      pieces = read_pieces(data_disk, stripe, row, degraded);
    }
    if (!is_write && pieces.empty()) {
      // Unreadable under the current failures; the issued request dies
      // without completing (requests_issued > requests_completed).
      // Should not happen within the architecture's tolerance.
      requests_.pop_back();
    } else {
      if (degraded) {
        requests_.back().degraded = true;
        ++report_.degraded_reads;
        if (ob_ != nullptr) ob_->count("online.degraded_reads");
      }
      requests_.back().pieces_left = static_cast<int>(pieces.size());
      for (auto& [phys, job] : pieces) {
        job.request_id = rid;
        enqueue_user(phys, job);
      }
    }
    if (!proc_->closed_loop()) {
      const double delay = proc_->next_delay(rng_);
      if (delay >= 0.0) {
        // schedule_in(delay) resolves to exactly now + delay; computing
        // the horizon here keeps it bit-equal to the event's time.
        next_arrival_ = sim_.now() + delay;
        sim_.schedule_at(next_arrival_, [this] { arrive(); });
      } else {
        next_arrival_ = kNever;
      }
    }
  }

  // --- routing -------------------------------------------------------------

  // Pieces needed to serve a read of data element (i, stripe, row) under
  // the current failure set: the data copy, else the least user-loaded
  // live replica (ties to the earlier array), else the parity row. Empty
  // means unreadable (beyond tolerance).
  Pieces read_pieces(int i, int stripe, int row, bool& degraded) {
    Pieces out;
    auto piece = [&](int logical, int prow) {
      Job job;
      job.slot = arr_.slot(stripe, prow);
      job.data_disk = i;
      job.row = row;
      job.stripe = stripe;
      const int phys = arr_.physical_disk(logical, stripe);
      if (!user_load_.empty()) ++load(phys);
      out.push_back({phys, job});
    };
    const int data_phys = arr_.physical_disk(arch_.data_disk(i), stripe);
    if (!arr_.physical(data_phys).failed()) {
      // Copy-affinity routing: a live-but-flagged primary loses the read
      // to a healthy replica (not counted degraded — the data is fully
      // redundant, we just prefer the healthy disk).
      if (hedging_ && cfg_.hedge.affinity_routing &&
          fail_slow_.slow(data_phys)) {
        for (int r = 1; r <= arch_.replicas(); ++r) {
          const layout::Pos rep = arch_.replica_of(r, i, row);
          const int rep_phys = arr_.physical_disk(rep.disk, stripe);
          if (!arr_.physical(rep_phys).failed() &&
              !fail_slow_.slow(rep_phys)) {
            ++report_.affinity_reroutes;
            piece(rep.disk, rep.row);
            return out;
          }
        }
      }
      piece(arch_.data_disk(i), row);
      return out;
    }
    degraded = true;
    layout::Pos best{-1, -1};
    int best_phys = -1;
    for (int r = 1; r <= arch_.replicas(); ++r) {
      const layout::Pos rep = arch_.replica_of(r, i, row);
      const int rep_phys = arr_.physical_disk(rep.disk, stripe);
      if (arr_.physical(rep_phys).failed()) continue;
      if (best_phys < 0 || load(rep_phys) < load(best_phys)) {
        best = rep;
        best_phys = rep_phys;
      }
    }
    if (best_phys >= 0) {
      piece(best.disk, best.row);
      return out;
    }
    // Parity path: every other data element of the row + parity cell.
    if (!arch_.has_parity() ||
        arr_.physical(arr_.physical_disk(arch_.parity_disk(), stripe)).failed())
      return {};
    for (int other = 0; other < arch_.n(); ++other) {
      if (other == i) continue;
      if (arr_.physical(arr_.physical_disk(arch_.data_disk(other), stripe))
              .failed())
        return {};
      piece(arch_.data_disk(other), row);
    }
    piece(arch_.parity_disk(), row);
    return out;
  }

  // A write lands on every live copy of the element and, with parity, on
  // the row's parity cell.
  Pieces write_pieces(int i, int stripe, int row) {
    Pieces out;
    auto piece = [&](int logical, int prow) {
      const int phys = arr_.physical_disk(logical, stripe);
      if (arr_.physical(phys).failed()) return;
      Job job;
      job.slot = arr_.slot(stripe, prow);
      job.kind = disk::IoKind::kWrite;
      out.push_back({phys, job});
    };
    for (int c = 0; c <= arch_.replicas(); ++c) {
      const layout::Pos copy = arch_.copy_of(c, i, row);
      piece(copy.disk, copy.row);
    }
    if (arch_.has_parity()) piece(arch_.parity_disk(), row);
    return out;
  }

  void enqueue_user(int phys, Job job) {
    arm_hedge(phys, job);
    queue(phys).user.push_back(job);
    if (ob_ != nullptr) {
      obs::TraceEvent ev = event(obs::EventKind::kQueueEnter, phys);
      ev.slot = job.slot;
      ev.request_id = job.request_id;
      ev.write = job.kind == disk::IoKind::kWrite;
      trace(ev);
    }
    dispatch(phys);
  }

  // --- hedging -------------------------------------------------------------

  // Hedged reads: a user read piece queued to a flagged disk arms a
  // deadline; if the piece is still incomplete when it expires, a
  // duplicate is issued to the partner copy and the first completion
  // wins. Parity-path pieces (serving disk is neither the data copy nor
  // a replica) and writes are never hedged.
  void arm_hedge(int phys, Job& job) {
    const workload::HedgeConfig& hcfg = cfg_.hedge;
    if (!hedging_ || !hcfg.hedge_reads || job.request_id < 0 ||
        job.kind != disk::IoKind::kRead || job.is_hedge ||
        job.hedge_group >= 0 || job.data_disk < 0 || !fail_slow_.slow(phys) ||
        outstanding_hedges_ >= hcfg.max_outstanding_hedges)
      return;
    // The alternate: the first other copy of the element that is live
    // and unflagged, when `phys` serves one of its copies at all.
    bool serves_copy = false;
    int alt = -1;
    std::int64_t alt_slot = -1;
    for (int c = 0; c <= arch_.replicas(); ++c) {
      const layout::Pos copy = arch_.copy_of(c, job.data_disk, job.row);
      const int copy_phys = arr_.physical_disk(copy.disk, job.stripe);
      if (copy_phys == phys) {
        serves_copy = true;
      } else if (alt < 0 && !arr_.physical(copy_phys).failed() &&
                 !fail_slow_.slow(copy_phys)) {
        alt = copy_phys;
        alt_slot = arr_.slot(job.stripe, copy.row);
      }
    }
    const double median = fail_slow_.peer_median(phys);
    if (serves_copy && alt >= 0 && median > 0.0) {
      job.hedge_group = static_cast<int>(hedge_done_.size());
      hedge_done_.push_back(false);
      Job dup = job;
      dup.slot = alt_slot;
      dup.is_hedge = true;
      dup.attempts = 0;
      ++outstanding_hedges_;
      sim_.schedule_in(hcfg.hedge_deadline_factor * median, [this, dup, alt] {
        --outstanding_hedges_;
        if (hedge_done_[static_cast<std::size_t>(dup.hedge_group)]) return;
        if (arr_.physical(alt).failed()) return;
        ++report_.hedged_reads;
        if (ob_ != nullptr) trace_job(obs::EventKind::kHedge, alt, dup);
        enqueue_user(alt, dup);
      });
    }
  }

  // Record a detector flag flip: report accounting plus a typed
  // kFailSlow event when an observer is attached.
  void note_flip(int disk, int flip) {
    if (flip == 0) return;
    if (flip > 0) ++report_.fail_slow_flagged;
    if (ob_ != nullptr) {
      obs::TraceEvent ev = event(obs::EventKind::kFailSlow, disk);
      ev.slot = flip > 0 ? 1 : 0;
      ev.dur_s = fail_slow_.ewma(disk);
      trace(ev);
    }
  }

  // --- disk queue and QoS admission ----------------------------------------

  // Start the next job on an idle disk: user work first, then rebuild
  // work the throttle admits — or, under the batch gate, a rebuild run.
  void dispatch(int disk) {
    if (arr_.physical(disk).failed()) return;
    DiskQueue& q = queue(disk);
    if (q.busy) return;
    if (batching_ && q.user.empty() && q.rebuild.size() > 1 &&
        arr_.physical(disk).can_batch()) {
      drain_run(disk);
      return;
    }
    Job job;
    if (!q.user.empty()) {
      job = q.user.front();
      q.user.pop_front();
    } else if (!q.rebuild.empty() && throttle_.allow()) {
      job = q.rebuild.front();
      q.rebuild.pop_front();
      throttle_.on_issue();
    } else {
      return;
    }
    q.busy = true;
    if (ob_ != nullptr) trace_job(obs::EventKind::kQueueLeave, disk, job);
    disk::SimDisk& d = arr_.physical(disk);
    const disk::IoResult res = d.submit(job.kind, job.slot, sim_.now());
    if (!res.is_ok()) {
      if (d.failed()) {
        // A FaultProfile-scheduled fail-stop manifested: absorb it like a
        // configured second failure. The unserved job goes back in front
        // so the death handling replans / reroutes it with the rest of
        // the queue.
        q.busy = false;
        if (job.request_id >= 0) {
          q.user.push_front(job);
        } else {
          throttle_.on_complete();  // left service without completing
          q.rebuild.push_front(job);
        }
        ++report_.fail_stops_absorbed;
        handle_disk_death(disk);
        return;
      }
      // Transient error or unreadable sector: the attempt occupied the
      // disk for its full service time.
      const bool transient = res.status().code() == ErrorCode::kIoError;
      sim_.schedule_at(d.busy_until(), [this, disk, job, transient] {
        on_io_error(disk, job, transient);
      });
      return;
    }
    // Feed the fail-slow detector the observed service duration (the
    // disk was idle at dispatch, so completion - now is exactly it).
    if (hedging_)
      note_flip(disk, fail_slow_.observe(disk, res.value() - sim_.now()));
    sim_.schedule_at(res.value(), [this, disk, job] {
      queue(disk).busy = false;
      if (metrics_ != nullptr) {
        auto& tally =
            job.request_id < 0 ? rebuild_bytes_served_ : user_bytes_served_;
        tally[static_cast<std::size_t>(disk)] +=
            static_cast<double>(arr_.config().logical_element_bytes);
      }
      complete_job(job, disk);
      dispatch(disk);
    });
  }

  // Batched drain: an idle disk holding only rebuild work commits a
  // whole run in one pass and schedules a single completion event at the
  // run's end, instead of one event per element. The run is bounded by
  // the next arrival: an access enters service only while the previous
  // completion lands strictly *before* it — exactly when the per-event
  // path would have dispatched it (at a tie the arrival event carries
  // the earlier sequence number in both worlds, so the user job is
  // already queued when the completion fires). The first access is
  // forced: this dispatch commits it regardless. Completions are retired
  // at the run's end; that can only move a *global* milestone
  // (rebuild_remaining_ hitting zero) if the milestone op is the run's
  // own last element, whose end time the event carries exactly.
  void drain_run(int disk) {
    DiskQueue& q = queue(disk);
    disk::SimDisk& d = arr_.physical(disk);
    // Chunked scan so a drain bounded by a near arrival never walks the
    // whole queue to take a short prefix.
    constexpr std::size_t kChunk = 64;
    std::size_t taken = 0;
    double end = 0.0;
    bool force_first = true;
    for (;;) {
      const std::size_t chunk = std::min(kChunk, q.rebuild.size() - taken);
      if (chunk == 0) break;
      batch_run_.clear();
      for (std::size_t i = 0; i < chunk; ++i) {
        const Job& j = q.rebuild[taken + i];
        batch_run_.push_back({j.kind, j.slot});
      }
      const disk::SimDisk::RunWhile rw = d.submit_run_while(
          batch_run_, sim_.now(), next_arrival_, force_first);
      if (rw.submitted > 0) end = rw.end;
      taken += rw.submitted;
      if (rw.submitted < chunk) break;
      force_first = false;
    }
    // The taken prefix stays in the deque until the run completes: under
    // the batch gate nothing can touch it meanwhile (this disk is busy,
    // planning waves only happen at start and on a disk death,
    // kick_waiting is throttle-only), so the completion event needs just
    // the count — no per-job capture.
    for (std::size_t i = 0; i < taken; ++i) throttle_.on_issue();
    q.busy = true;
    sim_.schedule_at(end, [this, disk, taken] {
      DiskQueue& dq = queue(disk);
      dq.busy = false;
      for (std::size_t i = 0; i < taken; ++i) {
        complete_job(dq.rebuild.front(), disk);
        dq.rebuild.pop_front();
      }
      dispatch(disk);
    });
  }

  // A failed attempt drained: retry a transient error in place
  // (bounded), abandon the op otherwise so its request still completes.
  void on_io_error(int disk, Job job, bool transient) {
    DiskQueue& q = queue(disk);
    q.busy = false;
    const bool retry =
        transient && job.attempts < arr_.config().io_max_retries;
    if (retry && arr_.physical(disk).failed()) {
      // The disk died during the attempt, and handle_disk_death has
      // swept its queue and replanned every stripe since: a retry queued
      // here would never dispatch. A rebuild job retires like an
      // abandoned op; a user piece gets the dead queue's treatment.
      if (job.request_id < 0)
        complete_job(job, disk);
      else
        reroute_orphan(job);
    } else if (retry) {
      ++job.attempts;
      ++report_.io_retries;
      if (ob_ != nullptr) {
        trace_job(obs::EventKind::kRetry, disk, job);
        ob_->count("online.io_retries");
        if (metrics_ != nullptr)
          retries_seen_[static_cast<std::size_t>(disk)] += 1.0;
      }
      if (job.request_id >= 0) {
        q.user.push_front(job);
      } else {
        throttle_.on_complete();  // re-queued: budget frees meanwhile
        q.rebuild.push_front(job);
      }
    } else {
      ++report_.io_failures;
      if (ob_ != nullptr) ob_->count("online.io_failures");
      complete_job(job, disk);
    }
    dispatch(disk);
  }

  // A throttled rebuild job may be waiting on an idle disk for budget;
  // whenever budget frees up or rises, hand it out. No-op (and never
  // reached) under strict priority.
  void kick_waiting() {
    if (!throttle_.enabled()) return;
    for (int d = 0; d < arr_.total_disks(); ++d) {
      if (!throttle_.allow()) return;
      const DiskQueue& q = queue(d);
      if (!q.busy && !q.rebuild.empty()) dispatch(d);
    }
  }

  // Adaptive control loop: every interval, fold the window's foreground
  // p99 into the budget. Ticks stop once the rebuild drains so they
  // never keep the simulation alive on their own.
  void control_tick() {
    if (rebuild_remaining_ == 0) return;
    double window_p99 = -1.0;
    if (!window_.empty()) {
      // Copied, not moved: `window_` keeps its capacity for the next
      // interval.
      window_p99 = SampleSet(window_).percentile(99);
      window_.clear();
    }
    const int delta = throttle_.control(window_p99);
    if (delta != 0) ++report_.throttle_adjustments;
    if (ob_ != nullptr) {
      obs::TraceEvent ev = event(obs::EventKind::kThrottle);
      ev.slot = throttle_.budget();
      ev.dur_s = window_p99 >= 0.0 ? window_p99 : 0.0;
      ev.rebuild = true;
      trace(ev);
    }
    if (delta > 0) kick_waiting();
    sim_.schedule_in(cfg_.qos.control_interval_s, [this] { control_tick(); });
  }

  // --- completion accounting -----------------------------------------------

  // Retire one job — user piece (request accounting on the last piece)
  // or rebuild read (rebuild bookkeeping + budget release). Shared by
  // the success path and the abandoned-op path, so a failed op still
  // lets its request finish. `disk` is the serving disk (trace labeling
  // only).
  void complete_job(const Job& job, int disk) {
    if (job.request_id >= 0) {
      if (job.hedge_group >= 0) {
        // First completion of a hedged pair wins; the loser's service
        // was wasted and must not decrement the request again.
        const auto g = static_cast<std::size_t>(job.hedge_group);
        if (hedge_done_[g]) {
          ++report_.hedge_wasted;
          return;
        }
        hedge_done_[g] = true;
        if (job.is_hedge) ++report_.hedge_wins;
      }
      Request& rq = requests_[static_cast<std::size_t>(job.request_id)];
      if (--rq.pieces_left == 0) finish_request(rq);
      return;
    }
    --rebuild_remaining_;
    throttle_.on_complete();
    if (ob_ != nullptr) trace_job(obs::EventKind::kRebuildComplete, disk, job);
    if (rebuild_remaining_ == 0) {
      report_.rebuild_done_s = sim_.now();
      lc_failed_.clear();  // every lost element has a recovered copy
      set_state(false);
      if (ob_ != nullptr) {
        // Aggregate marker: the whole rebuild drained.
        obs::TraceEvent done = event(obs::EventKind::kRebuildComplete);
        done.rebuild = true;
        trace(done);
      }
    }
    kick_waiting();
  }

  // A user request fully completed: its latency stamp, the SLO count
  // (over completed requests, per the report contract), the adaptive
  // window and, closed loop, the think-time re-arm of the issuing
  // client. The latency sets are built from the stamps after the run.
  void finish_request(Request& rq) {
    const double latency = sim_.now() - rq.arrival;
    rq.latency = latency;
    ++report_.requests_completed;
    if (!rq.is_write) {
      const double slo_target = cfg_.qos.p99_target_s;
      if (slo_target > 0.0 && latency > slo_target) ++report_.slo_violations;
      if (throttle_.adaptive()) window_.push_back(latency);
    }
    if (proc_->closed_loop())
      sim_.schedule_in(proc_->think_delay(rng_), [this] { arrive(); });
  }

  // --- failure handling ----------------------------------------------------

  // Absorb the death of `dead` (already marked failed): drop every
  // queued rebuild job, replan all stripes against the full current
  // failure set, and hand the dead disk's queued user pieces to
  // reroute_orphan. Used by both the configured second-failure injection
  // and FaultProfile-scheduled fail-stops that manifest in dispatch.
  void handle_disk_death(int dead) {
    lc_failed_.push_back(dead);
    set_state(true);
    // Forget every queued rebuild job (their stripes get replanned).
    for (DiskQueue& q : queues_) {
      rebuild_remaining_ -= q.rebuild.size();
      q.rebuild.clear();
    }
    // Replan ALL stripes for the full current failure set. This is
    // conservative: stripes whose first-failure reads had completed are
    // read again, a bounded overestimate of rebuild work that keeps the
    // planner the single source of truth for what the double-failure
    // rebuild needs.
    for (StripeTemplate& tpl : plan_cache_) tpl.compiled = false;
    const std::vector<int> failed_phys = arr_.failed_physical();
    for (int s = 0; s < arr_.stripes(); ++s) {
      if (!plan_stripe(s, failed_phys)) {
        injection_failed_ = true;
        return;
      }
    }
    // Reroute queued user jobs of the dead disk.
    const std::deque<Job> orphans = std::move(queue(dead).user);
    queue(dead).user.clear();
    for (const Job& job : orphans) reroute_orphan(job);
    // Kick all survivors (new rebuild work everywhere).
    for (int d = 0; d < arr_.total_disks(); ++d) dispatch(d);
  }

  // A user piece its disk died before serving: a read is re-issued
  // against the surviving copies and a write piece completes as skipped
  // (the write lands on the remaining copies). Shared by
  // handle_disk_death's sweep of the dead disk's queue and the retry of
  // a transient error whose disk died during the attempt.
  void reroute_orphan(const Job& job) {
    Request& rq = requests_[static_cast<std::size_t>(job.request_id)];
    if (job.hedge_group >= 0) {
      const auto g = static_cast<std::size_t>(job.hedge_group);
      // Partner already served the piece: nothing left to carry.
      if (hedge_done_[g]) return;
      // Cancel the pair: the surviving half completes as wasted, and the
      // reroute below re-issues this piece plain — exactly one decrement
      // for the pair's one pieces_left unit, whichever half died.
      hedge_done_[g] = true;
    }
    if (job.kind == disk::IoKind::kWrite) {
      if (--rq.pieces_left == 0) finish_request(rq);
      return;
    }
    bool degraded = false;
    Pieces pieces = read_pieces(job.data_disk, job.stripe, job.row, degraded);
    if (pieces.empty()) {
      if (--rq.pieces_left == 0) finish_request(rq);
      return;
    }
    rq.pieces_left += static_cast<int>(pieces.size()) - 1;
    if (degraded && !rq.degraded) {
      rq.degraded = true;
      ++report_.degraded_reads;
    }
    for (auto& [phys, piece_job] : pieces) {
      piece_job.request_id = job.request_id;
      enqueue_user(phys, piece_job);
    }
  }

  // --- observation ---------------------------------------------------------

  // The array and the event kernel get the observer for service spans
  // and metric cadence; everything else is emitted by the stages.
  void observe() {
    arr_.set_observer(ob_);
    sim_.set_observer(ob_);
    for (const int p : initial_failed_)
      trace(event(obs::EventKind::kFailure, p));
    if (metrics_ == nullptr) return;
    const std::size_t ndisks = queues_.size();
    rebuild_bytes_served_.assign(ndisks, 0.0);
    user_bytes_served_.assign(ndisks, 0.0);
    retries_seen_.assign(ndisks, 0.0);
    for (std::size_t d = 0; d < ndisks; ++d) {
      // Appended: GCC 12's -O3 -Wrestrict misfires on "d" + std::string.
      std::string prefix = "d";
      prefix += std::to_string(d);
      prefix += '.';
      const disk::SimDisk& sd = arr_.physical(static_cast<int>(d));
      metrics_->add_probe(prefix + "util",
                          WindowedRate(&sd.counters().busy_s, 1.0));
      metrics_->add_probe(prefix + "qdepth", [this, d](double, double) {
        const DiskQueue& q = queues_[d];
        return static_cast<double>(q.user.size() + q.rebuild.size()) +
               (q.busy ? 1.0 : 0.0);
      });
      metrics_->add_probe(prefix + "rebuild_mbps",
                          WindowedRate(&rebuild_bytes_served_[d], 1e6));
      metrics_->add_probe(prefix + "user_mbps",
                          WindowedRate(&user_bytes_served_[d], 1e6));
      metrics_->add_probe(prefix + "retries", [this, d](double, double) {
        return retries_seen_[d];
      });
      // Only with a throttling policy, so the columns of existing
      // timeline experiments stay exactly disks x 5.
      if (throttle_.enabled())
        metrics_->add_probe(prefix + "rebuild_budget", [this](double, double) {
          return static_cast<double>(throttle_.budget());
        });
    }
  }

  /// An event of `kind` on `disk` (-1: not disk-scoped).
  static obs::TraceEvent event(obs::EventKind kind, int disk = -1) {
    obs::TraceEvent ev;
    ev.kind = kind;
    ev.disk = disk;
    return ev;
  }
  /// Stamp `ev` with the simulated time and emit it (callers test ob_).
  void trace(obs::TraceEvent ev) {
    ev.t_s = sim_.now();
    ob_->emit(ev);
  }
  /// The job-scoped events: rebuild issue and complete, queue leave,
  /// retry and hedge.
  void trace_job(obs::EventKind kind, int disk, const Job& job) {
    obs::TraceEvent ev = event(kind, disk);
    ev.slot = job.slot;
    ev.request_id = job.request_id;
    ev.stripe = job.stripe;
    ev.rebuild = job.request_id < 0;
    ev.write = job.kind == disk::IoKind::kWrite;
    trace(ev);
  }

  DiskQueue& queue(int disk) { return queues_[static_cast<std::size_t>(disk)]; }
  int& load(int disk) { return user_load_[static_cast<std::size_t>(disk)]; }

  array::DiskArray& arr_;
  const layout::Architecture& arch_;
  const OnlineConfig& cfg_;
  const std::unique_ptr<workload::ArrivalProcess> proc_;
  const std::vector<int> initial_failed_;
  const bool inject_second_;
  const bool hedging_;
  obs::Observer* const ob_;
  obs::MetricsRegistry* const metrics_;

  sim::Simulation sim_;
  Rng rng_;
  workload::RebuildThrottle throttle_;
  workload::FailSlowDetector fail_slow_;
  OnlineReport report_;

  std::vector<DiskQueue> queues_;
  // Read pieces routed to each disk: a degraded read takes the least
  // user-loaded live replica. Only R >= 2 has a choice to make.
  std::vector<int> user_load_;
  std::size_t rebuild_remaining_ = 0;
  std::vector<StripeTemplate> plan_cache_;  // one per rotation class
  std::vector<int> failed_logical_;         // scratch, reused per compile
  std::vector<int> lc_failed_;              // the lifecycle's failed set
  bool injection_failed_ = false;

  // Event-batched drains (drain_run) and their preemption horizon: when
  // the next user request arrives. Open loop only ever has one pending
  // arrival event, so the horizon is a single scalar.
  bool batching_ = false;
  double next_arrival_ = kNever;
  std::vector<disk::RunAccess> batch_run_;  // scratch, reused per drain

  std::vector<Request> requests_;
  // Foreground read latencies completed since the last control tick
  // (adaptive policy only).
  std::vector<double> window_;

  std::vector<bool> hedge_done_;  // per hedge group: first completion seen
  int outstanding_hedges_ = 0;

  // Per-disk service tallies backing the timeline probes (only
  // maintained while observing).
  std::vector<double> rebuild_bytes_served_;
  std::vector<double> user_bytes_served_;
  std::vector<double> retries_seen_;
};

Result<OnlineReport> Engine::run() {
  for (int s = 0; s < arr_.stripes(); ++s)
    if (!plan_stripe(s, initial_failed_))
      return internal_error("initial rebuild plan failed");
  set_state(true);  // the initial failure, rebuild about to start

  if (inject_second_) {
    sim_.schedule_at(cfg_.second_failure_at_s, [this] {
      const int dead = cfg_.second_failure_disk;
      if (arr_.physical(dead).failed()) return;
      report_.second_failure_injected = true;
      arr_.fail_physical(dead);
      if (ob_ != nullptr) trace(event(obs::EventKind::kFailure, dead));
      handle_disk_death(dead);
    });
  }
  if (throttle_.adaptive())
    sim_.schedule_in(cfg_.qos.control_interval_s, [this] { control_tick(); });
  if (proc_->closed_loop()) {
    for (int c = 0; c < proc_->clients(); ++c)
      sim_.schedule_at(0.0, [this] { arrive(); });
  } else {
    next_arrival_ = proc_->first_arrival_s();
    sim_.schedule_at(next_arrival_, [this] { arrive(); });
  }
  for (int d = 0; d < arr_.total_disks(); ++d)
    if (!arr_.physical(d).failed())
      sim_.schedule_at(0.0, [this, d] { dispatch(d); });
  sim_.run();

  if (injection_failed_)
    return unrecoverable("second failure made the rebuild unplannable");
  if (rebuild_remaining_ != 0)
    return internal_error("rebuild jobs left undispatched");

  // Each set is sorted once from its completed requests' stamps. A
  // sorted set depends only on its values, and a request's degraded
  // flag never changes once it completes, so this equals adding each
  // latency as it completed (docs/PERFORMANCE.md, "Latency statistics").
  std::vector<double> reads, degraded, writes;
  for (const Request& rq : requests_) {
    if (rq.latency < 0.0) continue;  // never completed
    if (rq.is_write) {
      writes.push_back(rq.latency);
    } else {
      reads.push_back(rq.latency);
      if (rq.degraded) degraded.push_back(rq.latency);
    }
  }
  const SampleSet read_latencies(std::move(reads));
  const SampleSet degraded_latencies(std::move(degraded));
  const SampleSet write_latencies(std::move(writes));
  if (!read_latencies.empty()) {
    report_.mean_latency_s = read_latencies.mean();
    report_.p50_latency_s = read_latencies.percentile(50);
    report_.p95_latency_s = read_latencies.percentile(95);
    report_.p99_latency_s = read_latencies.percentile(99);
    report_.p999_latency_s = read_latencies.percentile(99.9);
    report_.max_latency_s = read_latencies.max();
  }
  if (!degraded_latencies.empty())
    report_.mean_degraded_latency_s = degraded_latencies.mean();
  if (!write_latencies.empty()) {
    report_.mean_write_latency_s = write_latencies.mean();
    report_.p99_write_latency_s = write_latencies.percentile(99);
  }
  if (cfg_.qos.p99_target_s > 0.0 && !read_latencies.empty())
    report_.slo_violation_pct = 100.0 *
                                static_cast<double>(report_.slo_violations) /
                                static_cast<double>(read_latencies.count());
  if (throttle_.enabled()) report_.final_rebuild_budget = throttle_.budget();
  if (cfg_.record_latencies) {
    report_.latencies.reserve(requests_.size());
    for (const Request& rq : requests_) report_.latencies.push_back(rq.latency);
  }
  return std::move(report_);
}

}  // namespace

Result<OnlineReport> run_online_reconstruction(array::DiskArray& arr,
                                               const OnlineConfig& cfg) {
  const auto& arch = arr.arch();
  if (!arch.is_mirror())
    return invalid_argument("online reconstruction models mirror kinds only");
  std::vector<int> initial_failed = arr.failed_physical();
  if (static_cast<int>(initial_failed.size()) > arch.fault_tolerance())
    return invalid_argument(
        "online reconstruction expects at most " +
        std::to_string(arch.fault_tolerance()) + " failed disk(s), got " +
        std::to_string(initial_failed.size()));
  if (cfg.mix.write_fraction < 0 || cfg.mix.write_fraction > 1)
    return invalid_argument("write_fraction must lie in [0, 1]");
  if (cfg.qos.rebuild_budget < 0 || cfg.qos.min_budget < 0)
    return invalid_argument("rebuild budgets must be non-negative");
  if (cfg.qos.policy == workload::RebuildPolicy::kAdaptive &&
      (cfg.qos.p99_target_s <= 0 || cfg.qos.control_interval_s <= 0 ||
       cfg.qos.raise_headroom <= 0 || cfg.qos.raise_headroom > 1))
    return invalid_argument(
        "adaptive throttle needs p99_target_s > 0, control_interval_s > 0 "
        "and raise_headroom in (0, 1]");
  if (const Status hedge_ok = workload::validate_hedge(cfg.hedge);
      !hedge_ok.is_ok())
    return hedge_ok;
  auto proc = workload::make_arrival_process(cfg.arrival);
  if (!proc.is_ok()) return proc.status();
  if (cfg.second_failure_at_s >= 0 && cfg.second_failure_disk >= 0) {
    if (arch.fault_tolerance() < 2)
      return invalid_argument(
          "second-failure injection needs fault tolerance 2 (mirror with "
          "parity, or two replica arrays)");
    if (cfg.second_failure_disk >= arr.total_disks() ||
        std::find(initial_failed.begin(), initial_failed.end(),
                  cfg.second_failure_disk) != initial_failed.end())
      return invalid_argument("invalid second failure disk");
  }
  Engine engine(arr, cfg, std::move(proc).take(), std::move(initial_failed));
  return engine.run();
}

}  // namespace sma::recon
