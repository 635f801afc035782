// Simulation-kernel throughput: calendar queue + arena Tasks vs the
// seed std::priority_queue + std::function kernel (the "legacy"
// backend), plus deterministic parallel scaling via sim::MultiKernel.
//
// Three workloads:
//  * fleet   — an online-reconstruction-shaped event mix at kernel
//    scale: thousands of disk-service chains in one Simulation, with
//    Poisson-ish handoffs and same-instant ties. Per-event work is a
//    digest update, so the measurement isolates scheduler + event
//    storage cost. This is the events/sec number the speed overhaul is
//    judged by.
//  * e2e     — the real recon::run_online_reconstruction acceptance
//    workload: a rebuild-heavy online reconstruction timed under the
//    seed kernel (legacy backend, one event per disk op — what the
//    seed binary executed) and under the new kernel (calendar queue +
//    event-batched rebuild drains), whole-program cost included. Both
//    variants compute bit-identical reports; events/sec normalizes
//    both walls by the *seed* kernel's event count, so the ratio is
//    exactly the end-to-end speedup.
//  * scaling — sim::MultiKernel over independent online-recon cases at
//    1/2/4/8 threads, with the parallel reports checked bit-identical
//    to the serial ones.
//
// The emitted sma_sim_kernel.csv holds only deterministic values
// (event counts, simulated times, digests) so the CI drift gate can
// require it bit-identical; wall-clock numbers go to stdout, or to a
// JSON object with --json (consumed by scripts/bench_sim_kernel.py).
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "recon/online.hpp"
#include "sim/multi_kernel.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace {

using namespace sma;

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t mix(std::uint64_t digest, std::uint64_t v) {
  return (digest ^ v) * kFnvPrime;
}

std::uint64_t mix(std::uint64_t digest, double v) {
  return mix(digest, std::bit_cast<std::uint64_t>(v));
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

double now_wall() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* backend_name(sim::QueueBackend b) {
  switch (b) {
    case sim::QueueBackend::kCalendar:
      return "calendar";
    case sim::QueueBackend::kHeap:
      return "heap";
    case sim::QueueBackend::kLegacy:
      return "legacy";
  }
  return "?";
}

constexpr sim::QueueBackend kBackends[] = {sim::QueueBackend::kCalendar,
                                           sim::QueueBackend::kHeap,
                                           sim::QueueBackend::kLegacy};

// --- fleet workload ---------------------------------------------------

struct FleetResult {
  std::uint64_t events = 0;
  double sim_end_s = 0.0;
  std::uint64_t digest = kFnvOffset;
  double wall_s = 0.0;
};

/// The by-value state a real completion closure carries (a Job struct
/// plus surrounding context, ~80 bytes): big enough that std::function
/// heap-allocates it per event while sim::Task stores it inline.
struct Payload {
  std::uint64_t v[8];
};

/// One Simulation hosting `disks` service chains. Every completion
/// digests its payload and the clock, then hands off to a random chain
/// after a service delay — or at the same instant (the tie-heavy
/// pattern the online simulators produce when a completion and a
/// dispatch coincide).
FleetResult run_fleet(sim::QueueBackend backend, int disks,
                      std::uint64_t total_events) {
  sim::Simulation sim(backend);
  Rng rng(2012);
  FleetResult r;
  std::uint64_t remaining = total_events;
  std::function<void(int, const Payload&)> complete = [&](int d,
                                                          const Payload& p) {
    r.digest =
        mix(r.digest, mix(p.v[0] + static_cast<std::uint64_t>(d), sim.now()));
    if (remaining == 0) return;
    --remaining;
    const double u = rng.next_double();
    const int next = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(disks)));
    Payload np;
    for (int j = 0; j < 8; ++j)
      np.v[j] = r.digest + static_cast<std::uint64_t>(j);
    if (u < 0.1)
      sim.schedule_at(sim.now(),
                      [&complete, next, np] { complete(next, np); });
    else
      sim.schedule_in(0.0005 + 0.02 * u,
                      [&complete, next, np] { complete(next, np); });
  };
  for (int d = 0; d < disks; ++d)
    sim.schedule_at(0.0, [&complete, d] { complete(d, Payload{}); });
  const double t0 = now_wall();
  sim.run();
  r.wall_s = now_wall() - t0;
  r.events = sim.executed_events();
  r.sim_end_s = sim.now();
  return r;
}

// --- end-to-end online reconstruction ---------------------------------

// The acceptance scenario: a wide array (mirror(5, shifted), 2048
// stacks -> 20480 stripes, ~102k rebuild reads) serving a short burst
// of user requests while the rebuild drains. Arrivals end ~20 s into a
// ~1700 s simulated rebuild, so the long tail is pure rebuild — the
// regime the seed kernel paid one heap event per element for and the
// new kernel drains in batched runs.
constexpr int kE2eStacks = 2048;
constexpr int kE2eDisks = 10;  // mirror(5): n data + n replica disks

struct E2eVariant {
  const char* name;
  sim::QueueBackend backend;
  bool batch_drains;
};

/// "seed" replicates the seed binary's kernel cost: the std::function
/// binary heap plus one completion event per disk op. "calendar"
/// isolates the queue swap; "batched" is the shipping configuration.
constexpr E2eVariant kE2eVariants[] = {
    {"seed", sim::QueueBackend::kLegacy, false},
    {"calendar", sim::QueueBackend::kCalendar, false},
    {"batched", sim::QueueBackend::kCalendar, true},
};

struct E2eResult {
  recon::OnlineReport report;
  std::uint64_t ops = 0;  // disk ops executed (identical across variants)
  std::uint64_t digest = kFnvOffset;
  double wall_s = 0.0;
};

E2eResult run_e2e(const E2eVariant& variant) {
  sim::set_default_queue_backend(variant.backend);
  E2eResult r;
  const auto arch = layout::Architecture::mirror(5, true);
  // Timing-only run; contents are never read, so skip initialize().
  array::DiskArray arr(bench::experiment_config(arch, kE2eStacks));
  arr.fail_physical(0);
  recon::OnlineConfig cfg;
  cfg.arrival.rate_hz = 30.0;
  cfg.arrival.max_requests = 600;
  cfg.arrival.seed = 2012;
  cfg.batch_drains = variant.batch_drains;
  const double t0 = now_wall();
  auto report = recon::run_online_reconstruction(arr, cfg);
  r.wall_s = now_wall() - t0;
  if (!report.is_ok()) {
    std::fprintf(stderr, "online recon failed: %s\n",
                 report.status().to_string().c_str());
    std::exit(1);
  }
  r.report = report.value();
  for (int d = 0; d < arr.total_disks(); ++d) {
    const auto& c = arr.physical(d).counters();
    r.ops += c.reads + c.writes;
  }
  r.digest = mix(r.digest, r.report.rebuild_done_s);
  r.digest = mix(r.digest, r.report.mean_latency_s);
  r.digest = mix(r.digest, r.report.p99_latency_s);
  r.digest = mix(r.digest, static_cast<std::uint64_t>(r.report.degraded_reads));
  r.digest = mix(r.digest, r.ops);
  return r;
}

/// Kernel events the *seed* executor processes for this scenario: one
/// completion per disk op, one arrival event per issued request (plus
/// the cutoff firing), and one kickoff per live disk. Both variants'
/// events/sec use this count, so their ratio equals the wall ratio.
std::uint64_t seed_events(const E2eResult& r, int ndisks) {
  return r.ops + r.report.requests_issued + 1 +
         static_cast<std::uint64_t>(ndisks - 1);
}

// --- MultiKernel scaling ----------------------------------------------

std::uint64_t report_digest(const std::vector<recon::OnlineReport>& reports) {
  std::uint64_t d = kFnvOffset;
  for (const auto& r : reports) {
    d = mix(d, r.rebuild_done_s);
    d = mix(d, r.mean_latency_s);
    d = mix(d, r.p99_latency_s);
    d = mix(d, static_cast<std::uint64_t>(r.requests_completed));
  }
  return d;
}

struct ScalingResult {
  std::size_t threads = 0;
  double wall_s = 0.0;
  std::uint64_t digest = 0;
};

ScalingResult run_scaling(std::size_t threads) {
  struct Case {
    int n;
    bool shifted;
  };
  std::vector<Case> cases;
  for (int rep = 0; rep < 2; ++rep)
    for (int n = 3; n <= 7; n += 2)
      for (const bool shifted : {false, true}) cases.push_back({n, shifted});

  sim::MultiKernel kernel({threads});
  const double t0 = now_wall();
  const auto reports = kernel.map(cases.size(), [&](std::size_t i) {
    const auto arch =
        layout::Architecture::mirror(cases[i].n, cases[i].shifted);
    array::DiskArray arr(bench::experiment_config(arch, /*stacks=*/4));
    arr.initialize();
    arr.fail_physical(0);
    recon::OnlineConfig cfg;
    // Heavier than the e2e case so each of the 12 cases carries enough
    // work for the thread-scaling measurement to mean something.
    cfg.arrival.rate_hz = 120.0;
    cfg.arrival.max_requests = 20000;
    cfg.arrival.seed = 2012;
    auto report = recon::run_online_reconstruction(arr, cfg);
    if (!report.is_ok()) {
      std::fprintf(stderr, "online recon failed: %s\n",
                   report.status().to_string().c_str());
      std::exit(1);
    }
    return report.value();
  });
  ScalingResult r;
  r.threads = threads;
  r.wall_s = now_wall() - t0;
  r.digest = report_digest(reports);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--json") json = true;

  constexpr int kFleetDisks = 4096;
  constexpr std::uint64_t kFleetEvents = 1500000;

  // Best-of-N wall times; the deterministic fields are identical
  // across repetitions (asserted below via the digest). The fleet and
  // e2e loops stay separate so the fleet's multi-megabyte event
  // population doesn't sit between two e2e variants being compared.
  FleetResult fleet[3];
  for (int b = 0; b < 3; ++b) {
    for (int rep = 0; rep < 3; ++rep) {
      FleetResult f = run_fleet(kBackends[b], kFleetDisks, kFleetEvents);
      if (rep == 0 || f.wall_s < fleet[b].wall_s) fleet[b] = f;
    }
  }
  E2eResult e2e[3];
  for (int rep = 0; rep < 5; ++rep) {
    for (int b = 0; b < 3; ++b) {
      E2eResult e = run_e2e(kE2eVariants[b]);
      if (rep == 0 || e.wall_s < e2e[b].wall_s) e2e[b] = e;
    }
  }
  sim::set_default_queue_backend(sim::QueueBackend::kCalendar);

  // All variants must agree exactly — the speedup is only meaningful
  // if the kernels compute the same simulation.
  for (int b = 1; b < 3; ++b) {
    if (fleet[b].digest != fleet[0].digest ||
        fleet[b].events != fleet[0].events ||
        fleet[b].sim_end_s != fleet[0].sim_end_s) {
      std::fprintf(stderr, "backend %s diverged from calendar\n",
                   backend_name(kBackends[b]));
      return 1;
    }
    if (e2e[b].digest != e2e[0].digest) {
      std::fprintf(stderr, "e2e variant %s diverged from %s\n",
                   kE2eVariants[b].name, kE2eVariants[0].name);
      return 1;
    }
  }

  const std::size_t thread_counts[] = {1, 2, 4, 8};
  ScalingResult scaling[4];
  for (int t = 0; t < 4; ++t) scaling[t] = run_scaling(thread_counts[t]);
  for (int t = 1; t < 4; ++t) {
    if (scaling[t].digest != scaling[0].digest) {
      std::fprintf(stderr, "parallel run (%zu threads) diverged from serial\n",
                   scaling[t].threads);
      return 1;
    }
  }

  // Deterministic table -> sma_sim_kernel.csv (drift-gated).
  Table table("Simulation kernel — deterministic cross-backend digests");
  table.set_header({"workload", "variant", "events", "sim time (s)",
                    "digest"});
  for (int b = 0; b < 3; ++b)
    table.add_row({"fleet", backend_name(kBackends[b]),
                   Table::num(fleet[b].events),
                   Table::num(fleet[b].sim_end_s, 6),
                   hex(fleet[b].digest)});
  for (int b = 0; b < 3; ++b)
    table.add_row({"online_recon_e2e", kE2eVariants[b].name,
                   Table::num(e2e[b].ops),
                   Table::num(e2e[b].report.rebuild_done_s, 6),
                   hex(e2e[b].digest)});
  for (int t = 0; t < 4; ++t)
    table.add_row({"multi_kernel",
                   "threads=" + std::to_string(scaling[t].threads),
                   Table::num(static_cast<std::uint64_t>(12)), "-",
                   hex(scaling[t].digest)});

  if (json) {
    table.write_csv("sma_sim_kernel.csv");
    std::printf("{\n  \"host\": %s,\n  \"fleet\": {\n    \"disks\": %d,\n"
                "    \"events\": %llu",
                bench::host_json(thread_counts[3]).c_str(), kFleetDisks,
                static_cast<unsigned long long>(fleet[0].events));
    for (int b = 0; b < 3; ++b)
      std::printf(",\n    \"%s\": {\"wall_s\": %.6f, \"events_per_s\": %.0f, "
                  "\"sim_hours_per_s\": %.2f}",
                  backend_name(kBackends[b]), fleet[b].wall_s,
                  static_cast<double>(fleet[b].events) / fleet[b].wall_s,
                  fleet[b].sim_end_s / 3600.0 / fleet[b].wall_s);
    std::printf(",\n    \"speedup_vs_legacy\": %.2f,\n"
                "    \"speedup_vs_heap\": %.2f\n  }",
                fleet[2].wall_s / fleet[0].wall_s,
                fleet[1].wall_s / fleet[0].wall_s);
    const std::uint64_t ev = seed_events(e2e[0], kE2eDisks);
    std::printf(",\n  \"online_recon_e2e\": {\n"
                "    \"stacks\": %d,\n    \"disk_ops\": %llu,\n"
                "    \"seed_kernel_events\": %llu,\n"
                "    \"rebuild_done_s\": %.6f",
                kE2eStacks, static_cast<unsigned long long>(e2e[0].ops),
                static_cast<unsigned long long>(ev),
                e2e[0].report.rebuild_done_s);
    for (int b = 0; b < 3; ++b)
      std::printf(",\n    \"%s\": {\"wall_s\": %.6f, \"events_per_s\": %.0f, "
                  "\"sim_hours_per_s\": %.2f}",
                  kE2eVariants[b].name, e2e[b].wall_s,
                  static_cast<double>(ev) / e2e[b].wall_s,
                  e2e[b].report.rebuild_done_s / 3600.0 / e2e[b].wall_s);
    std::printf(",\n    \"speedup_new_vs_seed\": %.2f\n  }",
                e2e[0].wall_s / e2e[2].wall_s);
    std::printf(",\n  \"multi_kernel\": {\n    \"cases\": 12,\n"
                "    \"bit_identical\": true,\n"
                "    \"hardware_concurrency\": %u",
                std::thread::hardware_concurrency());
    for (int t = 0; t < 4; ++t)
      std::printf(",\n    \"threads_%zu\": {\"wall_s\": %.6f, "
                  "\"speedup\": %.2f}",
                  scaling[t].threads, scaling[t].wall_s,
                  scaling[0].wall_s / scaling[t].wall_s);
    std::printf("\n  }\n}\n");
    return 0;
  }

  bench::emit(table, "sma_sim_kernel.csv");

  Table timing("Simulation kernel — throughput (wall clock, best of 3)");
  // "speedup" is vs the legacy backend for the fleet rows, vs the seed
  // variant for the e2e rows, and vs one thread for multi_kernel rows.
  timing.set_header({"workload", "variant", "wall (s)", "events/s",
                     "sim hours/s", "speedup"});
  for (int b = 0; b < 3; ++b)
    timing.add_row(
        {"fleet", backend_name(kBackends[b]), Table::num(fleet[b].wall_s, 4),
         Table::num(static_cast<double>(fleet[b].events) / fleet[b].wall_s, 0),
         Table::num(fleet[b].sim_end_s / 3600.0 / fleet[b].wall_s, 2),
         Table::num(fleet[2].wall_s / fleet[b].wall_s, 2)});
  for (int b = 0; b < 3; ++b)
    timing.add_row(
        {"online_recon_e2e", kE2eVariants[b].name, Table::num(e2e[b].wall_s, 4),
         Table::num(static_cast<double>(seed_events(e2e[0], kE2eDisks)) /
                        e2e[b].wall_s,
                    0),
         Table::num(e2e[b].report.rebuild_done_s / 3600.0 / e2e[b].wall_s, 2),
         Table::num(e2e[0].wall_s / e2e[b].wall_s, 2)});
  for (int t = 0; t < 4; ++t)
    timing.add_row({"multi_kernel",
                    "threads=" + std::to_string(scaling[t].threads),
                    Table::num(scaling[t].wall_s, 4), "-", "-",
                    Table::num(scaling[0].wall_s / scaling[t].wall_s, 2)});
  std::fputs(timing.render().c_str(), stdout);
  return 0;
}
