#include "fleet/timeline.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "fleet/digest.hpp"
#include "repair/lifecycle.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace sma::fleet {

namespace {

/// Per-array actor state. The lifecycle is replaced wholesale after a
/// data loss (kDataLoss is terminal by design); `fail_epoch` /
/// `repair_epoch` invalidate events scheduled under a stale hazard —
/// the kernel has no cancellation, so superseded events no-op instead.
struct ArrayActor {
  Rng rng{0};
  std::unique_ptr<repair::Lifecycle> lc;
  std::vector<int> failed;
  bool in_repair = false;
  bool restoring = false;
  int fail_epoch = 0;
  int repair_epoch = 0;
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
  sim::Simulation sim;
  if (ob != nullptr) sim.set_observer(ob);

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

  // Failure-domain stress: per-domain count of members holding an
  // in-flight repair or restore. A stressed member's hazard is boosted,
  // and every status flip redraws the pending failure draws of the
  // domain's other members (in index order, each from its own RNG, so
  // the timeline stays a pure function of the config).
  const int dsize = cfg.domain_size;
  const bool domains = dsize > 0 && cfg.domain_hazard_factor > 1.0;
  std::vector<int> domain_active(
      domains ? static_cast<std::size_t>((cfg.arrays + dsize - 1) / dsize)
              : 0,
      0);

  std::function<void(int)> schedule_failure;
  auto redraw_domain = [&](int a) {
    if (!domains) return;
    const int lo = (a / dsize) * dsize;
    const int hi = std::min(cfg.arrays, lo + dsize);
    for (int m = lo; m < hi; ++m) {
      if (m == a) continue;
      ArrayActor& other = actors[static_cast<std::size_t>(m)];
      if (other.restoring) continue;  // offline: no pending draw
      ++other.fail_epoch;
      schedule_failure(m);
    }
  };

  schedule_failure = [&](int a) {
    ArrayActor& actor = actors[static_cast<std::size_t>(a)];
    const int live = disks - static_cast<int>(actor.failed.size());
    if (live <= 0) return;
    double mean = cfg.disk_mttf_hours / static_cast<double>(live);
    if (domains) {
      const int self = (actor.in_repair || actor.restoring) ? 1 : 0;
      if (domain_active[static_cast<std::size_t>(a / dsize)] > self)
        mean /= cfg.domain_hazard_factor;
    }
    const double dt = actor.rng.next_exponential(mean);
    const double when = sim.now() + dt;
    if (when > cfg.horizon_hours) return;
    const int epoch = actor.fail_epoch;
    sim.schedule_at(when, [&, a, epoch] {
      ArrayActor& act = actors[static_cast<std::size_t>(a)];
      if (epoch != act.fail_epoch || act.restoring) return;
      account_to(sim.now());
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
      (void)act.lc->on_failure(sim.now(), victim);
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
        if (!was_active) ++active;
        act.in_repair = false;
        act.restoring = true;
        if (domains && !was_active) {
          ++domain_active[static_cast<std::size_t>(a / dsize)];
          redraw_domain(a);
        }
        ++act.fail_epoch;
        ++act.repair_epoch;
        const int repoch = act.repair_epoch;
        const double done = sim.now() + cfg.repair_hours;
        if (done <= cfg.horizon_hours) {
          sim.schedule_at(done, [&, a, repoch] {
            ArrayActor& ra = actors[static_cast<std::size_t>(a)];
            if (repoch != ra.repair_epoch || !ra.restoring) return;
            account_to(sim.now());
            ra.restoring = false;
            --active;
            if (domains) {
              --domain_active[static_cast<std::size_t>(a / dsize)];
              redraw_domain(a);
            }
            ++ra.fail_epoch;
            schedule_failure(a);
          });
        }
        report.max_concurrent_rebuilds =
            std::max(report.max_concurrent_rebuilds, active);
        return;
      }
      (void)act.lc->on_repair_start(sim.now(), victim);
      if (!act.in_repair) {
        act.in_repair = true;
        ++active;
        report.max_concurrent_rebuilds =
            std::max(report.max_concurrent_rebuilds, active);
        if (domains) {
          ++domain_active[static_cast<std::size_t>(a / dsize)];
          redraw_domain(a);
        }
      }
      // (Re)arm the rebuild: an additional failure mid-rebuild restarts
      // the clock (the executor replans the whole stripe set).
      ++act.repair_epoch;
      const int repoch = act.repair_epoch;
      const double done = sim.now() + cfg.repair_hours;
      if (done <= cfg.horizon_hours) {
        sim.schedule_at(done, [&, a, repoch] {
          ArrayActor& ra = actors[static_cast<std::size_t>(a)];
          if (repoch != ra.repair_epoch || !ra.in_repair) return;
          account_to(sim.now());
          for (const int d : ra.failed)
            (void)ra.lc->on_repair_complete(sim.now(), d);
          ra.failed.clear();
          ra.in_repair = false;
          --active;
          ++report.repairs_completed;
          if (domains) {
            --domain_active[static_cast<std::size_t>(a / dsize)];
            redraw_domain(a);
          }
          ++ra.fail_epoch;
          schedule_failure(a);
        });
      }
      // The hazard changed (one fewer live disk): redraw the next
      // failure under the new rate. Exponential memorylessness makes
      // the redraw distribution-exact.
      ++act.fail_epoch;
      schedule_failure(a);
    });
  };

  for (int a = 0; a < cfg.arrays; ++a) schedule_failure(a);
  sim.run();
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
