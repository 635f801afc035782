#include "fleet/timeline.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "fleet/digest.hpp"
#include "repair/lifecycle.hpp"
#include "util/rng.hpp"

namespace sma::fleet {

namespace {

constexpr double kNever = std::numeric_limits<double>::infinity();

/// A pending event: its instant and its scheduling sequence number,
/// which orders same-instant events first scheduled, first fired.
struct Pending {
  double when = kNever;
  std::uint64_t seq = 0;
};

bool earlier(const Pending& a, const Pending& b) {
  return a.when < b.when || (a.when == b.when && a.seq < b.seq);
}

/// Per-array state. An array holds at most one pending failure (the
/// latest draw; a redraw overwrites it) and one pending repair or
/// restore completion. The lifecycle is replaced wholesale after a
/// data loss (kDataLoss is terminal by design).
struct ArrayActor {
  Rng rng{0};
  std::unique_ptr<repair::Lifecycle> lc;
  std::vector<int> failed;
  bool in_repair = false;
  bool restoring = false;
  Pending fail;
  Pending done;
};

/// Tournament tree over the arrays' earliest pending events: leaf a
/// holds min(fail, done) of array a, each internal node the leaf that
/// wins its subtree, so the root is the next event and a changed leaf
/// replays one root path.
class NextEventTree {
 public:
  explicit NextEventTree(int arrays)
      : leaves_(std::bit_ceil(static_cast<std::size_t>(arrays))),
        keys_(leaves_),
        winner_(2 * leaves_) {
    for (std::size_t i = 0; i < leaves_; ++i)
      winner_[leaves_ + i] = static_cast<int>(i);
    for (std::size_t k = leaves_ - 1; k >= 1; --k) replay(k);
  }

  /// The array whose pending event fires next.
  int top() const { return winner_[1]; }
  const Pending& key(int a) const {
    return keys_[static_cast<std::size_t>(a)];
  }

  void set(int a, const Pending& pending) {
    keys_[static_cast<std::size_t>(a)] = pending;
    for (std::size_t k = (leaves_ + static_cast<std::size_t>(a)) / 2; k >= 1;
         k /= 2)
      replay(k);
  }

 private:
  void replay(std::size_t k) {
    const int l = winner_[2 * k];
    const int r = winner_[2 * k + 1];
    winner_[k] = earlier(key(r), key(l)) ? r : l;
  }

  std::size_t leaves_;
  std::vector<Pending> keys_;
  std::vector<int> winner_;
};

}  // namespace

Result<TimelineReport> run_failure_timeline(const layout::Architecture& arch,
                                            const TimelineConfig& cfg) {
  if (cfg.arrays <= 0) return invalid_argument("timeline needs arrays > 0");
  if (!(cfg.horizon_hours > 0.0) || !(cfg.disk_mttf_hours > 0.0) ||
      !(cfg.repair_hours > 0.0))
    return invalid_argument(
        "timeline horizon, disk MTTF and repair time must be positive");
  if (cfg.domain_size < 0)
    return invalid_argument("timeline domain_size must be >= 0");
  if (cfg.domain_size > 0 && !(std::isfinite(cfg.domain_hazard_factor) &&
                               cfg.domain_hazard_factor >= 1.0))
    return invalid_argument(
        "timeline domain_hazard_factor must be finite and >= 1 with domains "
        "enabled");

  const int disks = arch.total_disks();
  obs::Observer* const ob = cfg.observer.get();

  std::vector<ArrayActor> actors(static_cast<std::size_t>(cfg.arrays));
  std::uint64_t seed_state = cfg.seed;
  for (auto& actor : actors) {
    actor.rng = Rng(splitmix64(seed_state));
    actor.lc = std::make_unique<repair::Lifecycle>(arch, cfg.observer);
  }

  TimelineReport report;
  report.arrays = cfg.arrays;
  report.horizon_hours = cfg.horizon_hours;

  // Time-weighted concurrency accounting, advanced at every event.
  int active = 0;  // arrays with an in-flight repair or restore
  double now = 0.0;
  double last_t = 0.0;
  double active_integral = 0.0;
  double time_ge1 = 0.0;
  double time_ge2 = 0.0;
  auto account_to = [&](double t) {
    const double dt = t - last_t;
    if (dt <= 0.0) return;
    active_integral += static_cast<double>(active) * dt;
    if (active >= 1) time_ge1 += dt;
    if (active >= 2) time_ge2 += dt;
    last_t = t;
  };

  if (ob != nullptr && ob->metrics != nullptr)
    ob->metrics->add_probe("fleet.concurrent_rebuilds",
                           [&active](double, double) {
                             return static_cast<double>(active);
                           });

  // Pending events, stamped in scheduling order. `last_drawn` is the
  // latest instant ever scheduled within the horizon, overwritten draws
  // included: the observer's sampling clock ends there.
  NextEventTree next(cfg.arrays);
  std::uint64_t seq = 0;
  double last_drawn = -kNever;
  auto stamp = [&](double when) {
    if (when > cfg.horizon_hours) return Pending{};
    last_drawn = std::max(last_drawn, when);
    return Pending{when, seq++};
  };
  auto refresh = [&](int a) {
    const ArrayActor& actor = actors[static_cast<std::size_t>(a)];
    next.set(a, earlier(actor.done, actor.fail) ? actor.done : actor.fail);
  };

  // Failure-domain stress: per-domain count of members holding an
  // in-flight repair or restore. A stressed member's hazard is boosted,
  // and every status flip redraws the pending failure of the domain's
  // other members (in index order, each from its own RNG, so the
  // timeline stays a pure function of the config). Exponential
  // memorylessness makes every redraw distribution-exact.
  const int dsize = cfg.domain_size;
  const bool domains = dsize > 0 && cfg.domain_hazard_factor > 1.0;
  std::vector<int> domain_active(
      domains ? static_cast<std::size_t>((cfg.arrays + dsize - 1) / dsize)
              : 0,
      0);

  // Draws array a's next failure under its current hazard, replacing
  // any pending one. The caller refreshes a's leaf.
  auto draw_failure = [&](int a) {
    ArrayActor& actor = actors[static_cast<std::size_t>(a)];
    actor.fail = Pending{};
    const int live = disks - static_cast<int>(actor.failed.size());
    if (live <= 0) return;
    double mean = cfg.disk_mttf_hours / static_cast<double>(live);
    if (domains) {
      const int self = (actor.in_repair || actor.restoring) ? 1 : 0;
      if (domain_active[static_cast<std::size_t>(a / dsize)] > self)
        mean /= cfg.domain_hazard_factor;
    }
    actor.fail = stamp(now + actor.rng.next_exponential(mean));
  };
  // Array a starts (+1) or ends (-1) a repair or restore, which
  // changes its domain's stress.
  auto set_active = [&](int a, int delta) {
    active += delta;
    if (!domains) return;
    domain_active[static_cast<std::size_t>(a / dsize)] += delta;
    const int lo = (a / dsize) * dsize;
    const int hi = std::min(cfg.arrays, lo + dsize);
    for (int m = lo; m < hi; ++m) {
      if (m == a || actors[static_cast<std::size_t>(m)].restoring)
        continue;  // itself, or offline: no pending draw
      draw_failure(m);
      refresh(m);
    }
  };

  // Event handlers; the main loop refreshes the array's leaf after.
  auto on_failure = [&](int a) {
    ArrayActor& act = actors[static_cast<std::size_t>(a)];
    act.fail = Pending{};
    ++report.failures;
    if (ob != nullptr) ob->count("fleet.failures");
    // Draw the victim uniformly among live disks.
    const int nlive = disks - static_cast<int>(act.failed.size());
    int pick = static_cast<int>(
        act.rng.next_below(static_cast<std::uint64_t>(nlive)));
    int victim = -1;
    for (int d = 0; d < disks; ++d) {
      if (std::find(act.failed.begin(), act.failed.end(), d) !=
          act.failed.end())
        continue;
      if (pick-- == 0) {
        victim = d;
        break;
      }
    }
    act.failed.push_back(victim);
    (void)act.lc->on_failure(now, victim);
    if (act.lc->state() == repair::ArrayState::kDataLoss) {
      // The exact recoverability oracle says this set lost data. The
      // array restores from backup; it is offline (cannot fail again)
      // until the restore completes.
      ++report.data_loss_events;
      if (ob != nullptr) ob->count("fleet.data_loss_events");
      report.transitions += act.lc->history().size();
      act.lc = std::make_unique<repair::Lifecycle>(arch, cfg.observer);
      act.failed.clear();
      const bool was_active = act.in_repair;
      act.in_repair = false;
      act.restoring = true;
      if (!was_active) set_active(a, +1);
      act.done = stamp(now + cfg.repair_hours);
      report.max_concurrent_rebuilds =
          std::max(report.max_concurrent_rebuilds, active);
      return;
    }
    (void)act.lc->on_repair_start(now, victim);
    if (!act.in_repair) {
      act.in_repair = true;
      set_active(a, +1);
      report.max_concurrent_rebuilds =
          std::max(report.max_concurrent_rebuilds, active);
    }
    // (Re)arm the rebuild: an additional failure mid-rebuild restarts
    // the clock (the executor replans the whole stripe set).
    act.done = stamp(now + cfg.repair_hours);
    // One fewer live disk changes the hazard: redraw under the new rate.
    draw_failure(a);
  };

  auto on_done = [&](int a) {
    ArrayActor& act = actors[static_cast<std::size_t>(a)];
    act.done = Pending{};
    if (act.in_repair) {
      for (const int d : act.failed) (void)act.lc->on_repair_complete(now, d);
      act.failed.clear();
      act.in_repair = false;
      ++report.repairs_completed;
    } else {
      act.restoring = false;
    }
    set_active(a, -1);
    draw_failure(a);
  };

  for (int a = 0; a < cfg.arrays; ++a) {
    draw_failure(a);
    refresh(a);
  }
  for (;;) {
    const int a = next.top();
    const double when = next.key(a).when;
    if (when == kNever) break;
    // Sample metric timelines at every cadence boundary up to the
    // event, before it changes any state.
    if (ob != nullptr) ob->advance_time(when);
    now = when;
    account_to(now);
    const ArrayActor& act = actors[static_cast<std::size_t>(a)];
    if (earlier(act.fail, act.done))
      on_failure(a);
    else
      on_done(a);
    refresh(a);
  }
  if (ob != nullptr && last_drawn >= 0.0) ob->advance_time(last_drawn);
  account_to(cfg.horizon_hours);

  for (const auto& actor : actors)
    report.transitions += actor.lc->history().size();
  report.mean_concurrent_rebuilds = active_integral / cfg.horizon_hours;
  report.frac_time_rebuilding = time_ge1 / cfg.horizon_hours;
  report.frac_time_ge2 = time_ge2 / cfg.horizon_hours;
  report.array_hours_degraded = active_integral;

  std::uint64_t d = kDigestSeed;
  d = mix(d, static_cast<std::uint64_t>(report.failures));
  d = mix(d, static_cast<std::uint64_t>(report.repairs_completed));
  d = mix(d, static_cast<std::uint64_t>(report.data_loss_events));
  d = mix(d, static_cast<std::uint64_t>(report.max_concurrent_rebuilds));
  d = mix(d, report.mean_concurrent_rebuilds);
  d = mix(d, report.frac_time_rebuilding);
  d = mix(d, report.frac_time_ge2);
  d = mix(d, report.transitions);
  report.digest = d;

  if (ob != nullptr && ob->metrics != nullptr) ob->metrics->clear_probes();
  return report;
}

}  // namespace sma::fleet
