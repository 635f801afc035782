// Chaos experiment: the reference compound scenario (fail-slow peer +
// crash mid-rebuild + second failure + silent corruption) driven
// through the four-phase chaos engine, across the paper's arrangement
// axis and the hedging axis.
//
// Four cells — {shifted, traditional} x {hedge off, hedge on} — each
// run chaos::reference_scenario end to end with the invariant oracle
// live. Two claims are enforced in-bench, not just printed:
//
//  * shifted beats traditional on the degraded serving p99 under the
//    compound scenario (hedging off on both sides): the arrangement's
//    spread rebuild keeps the tail down even while a peer limps and a
//    second disk dies mid-rebuild;
//  * hedging beats no hedging on the same arrangement: the fail-slow
//    detector's affinity reroutes plus deadline hedges cut the tail a
//    layout change alone cannot reach.
//
// A seeded multi-scenario soak then runs on sim::MultiKernel threads
// and must complete with zero oracle violations; its serial replay
// must match the parallel digest bit for bit, or the bench exits
// non-zero. The emitted sma_chaos.csv holds only deterministic values
// (counts, simulated times, digests), so the CI drift gate can require
// it bit-identical; wall-clock numbers go to stdout, or to JSON with
// --json.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>

#include "chaos/engine.hpp"
#include "chaos/scenario.hpp"
#include "common.hpp"
#include "util/flags.hpp"

namespace {

using namespace sma;

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

struct Cell {
  const char* name;
  bool shifted;
  bool hedge;
};

constexpr Cell kCells[] = {
    {"shifted", true, false},
    {"shifted+hedge", true, true},
    {"traditional", false, false},
    {"traditional+hedge", false, true},
};

struct CellResult {
  chaos::ChaosReport report;
  double wall_s = 0.0;
};

chaos::ChaosConfig cell_config(const Cell& cell, int stacks, int requests,
                               double rate_hz) {
  chaos::ChaosConfig cfg;
  cfg.shifted = cell.shifted;
  cfg.stacks = stacks;
  cfg.requests = requests;
  cfg.arrival_rate_hz = rate_hz;
  cfg.hedge.enabled = cell.hedge;
  const int disks =
      layout::Architecture::mirror_with_parity(cfg.n, cfg.shifted)
          .total_disks();
  cfg.scenario = chaos::reference_scenario(disks);
  return cfg;
}

CellResult run_cell(const Cell& cell, int stacks, int requests,
                    double rate_hz) {
  CellResult r;
  const double t0 = now_wall();
  auto res = chaos::run_scenario(cell_config(cell, stacks, requests, rate_hz));
  r.wall_s = now_wall() - t0;
  if (!res.is_ok()) {
    std::fprintf(stderr, "chaos cell %s failed: %s\n", cell.name,
                 res.status().to_string().c_str());
    std::exit(1);
  }
  r.report = std::move(res).take();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool json = flags.get_bool("json", false);
  const int stacks = flags.get_int("stacks", 8);
  const int requests = flags.get_int("requests", 3000);
  // Open-loop arrival rate, chosen inside degraded capacity: the tail
  // must be rebuild- and fail-slow-induced, not saturation collapse.
  const double rate_hz = flags.get_double("rate", 20.0);
  const int scenarios = flags.get_int("scenarios", 48);
  const std::size_t threads =
      static_cast<std::size_t>(flags.get_int("threads", 4));
  const std::string csv = flags.get("out", "sma_chaos.csv");
  for (const auto& e : flags.errors())
    std::fprintf(stderr, "bench_chaos: bad flag value: %s\n", e.c_str());

  CellResult cells[4];
  for (int c = 0; c < 4; ++c)
    cells[c] = run_cell(kCells[c], stacks, requests, rate_hz);

  // --- determinism: every cell must replay bit-identically -------------
  for (int c = 0; c < 4; ++c) {
    const CellResult replay = run_cell(kCells[c], stacks, requests, rate_hz);
    if (replay.report.digest != cells[c].report.digest) {
      std::fprintf(stderr,
                   "bench_chaos: cell %s diverged on replay: %s vs %s\n",
                   kCells[c].name, hex(replay.report.digest).c_str(),
                   hex(cells[c].report.digest).c_str());
      return 1;
    }
  }

  // --- seeded soak: zero violations, thread-count-invariant digest -----
  chaos::SoakConfig scfg;
  scfg.scenarios = scenarios;
  scfg.threads = threads;
  const double soak_t0 = now_wall();
  auto soak = chaos::run_soak(scfg);
  const double soak_wall = now_wall() - soak_t0;
  if (!soak.is_ok()) {
    std::fprintf(stderr, "bench_chaos: soak failed: %s\n",
                 soak.status().to_string().c_str());
    return 1;
  }
  if (soak.value().violations != 0) {
    std::fprintf(stderr, "bench_chaos: soak hit %d oracle violation(s):\n",
                 soak.value().violations);
    for (const std::string& m : soak.value().violation_messages)
      std::fprintf(stderr, "  %s\n", m.c_str());
    return 1;
  }
  scfg.threads = 1;
  const double serial_t0 = now_wall();
  auto serial = chaos::run_soak(scfg);
  const double serial_wall = now_wall() - serial_t0;
  if (!serial.is_ok() || serial.value().digest != soak.value().digest) {
    std::fprintf(stderr,
                 "bench_chaos: serial soak diverged from parallel "
                 "(threads=%zu)\n",
                 threads);
    return 1;
  }

  // Deterministic table -> sma_chaos.csv (drift-gated at defaults).
  const chaos::Scenario ref = chaos::reference_scenario(
      layout::Architecture::mirror_with_parity(4, true).total_disks());
  Table table("Chaos — reference scenario " + ref.spec() + " (" +
              std::to_string(requests) + " requests/cell, " +
              std::to_string(scenarios) + "-scenario soak)");
  table.set_header({"cell", "completed", "degr p99 (s)", "flagged", "hedged",
                    "wins", "reroutes", "resync regions", "scrub repairs",
                    "repairs", "digest"});
  for (int c = 0; c < 4; ++c) {
    const chaos::ChaosReport& r = cells[c].report;
    table.add_row(
        {kCells[c].name,
         Table::num(static_cast<std::uint64_t>(r.serving.requests_completed)),
         Table::num(r.degraded_p99_s, 6),
         Table::num(static_cast<std::uint64_t>(r.serving.fail_slow_flagged)),
         Table::num(static_cast<std::uint64_t>(r.serving.hedged_reads)),
         Table::num(static_cast<std::uint64_t>(r.serving.hedge_wins)),
         Table::num(static_cast<std::uint64_t>(r.serving.affinity_reroutes)),
         Table::num(static_cast<std::uint64_t>(r.resync.regions_scanned)),
         Table::num(r.crash_scrub.repaired_by_checksum +
                    r.scrub.repaired_by_checksum),
         Table::num(static_cast<std::uint64_t>(r.repairs_started)),
         hex(r.digest)});
  }
  table.add_row({"soak", Table::num(static_cast<std::uint64_t>(
                             soak.value().scenarios_run)),
                 "-", "-", "-", "-", "-", "-", "-",
                 Table::num(static_cast<std::uint64_t>(
                     soak.value().violations)),
                 hex(soak.value().digest)});

  // --- the two enforced claims (after the table: a failing claim still
  // leaves the full diagnostics on stdout) ------------------------------
  const chaos::ChaosReport& sh = cells[0].report;   // shifted, no hedge
  const chaos::ChaosReport& shh = cells[1].report;  // shifted + hedge
  const chaos::ChaosReport& tr = cells[2].report;   // traditional, no hedge
  auto enforce_claims = [&]() -> int {
    if (!(sh.degraded_p99_s < tr.degraded_p99_s)) {
      std::fprintf(stderr,
                   "bench_chaos: shifted did not beat traditional on degraded "
                   "p99 under the reference scenario (%.6f vs %.6f s)\n",
                   sh.degraded_p99_s, tr.degraded_p99_s);
      return 1;
    }
    if (!(shh.degraded_p99_s < sh.degraded_p99_s)) {
      std::fprintf(stderr,
                   "bench_chaos: hedging did not beat no-hedging on degraded "
                   "p99 under the fail-slow scenario (%.6f vs %.6f s)\n",
                   shh.degraded_p99_s, sh.degraded_p99_s);
      return 1;
    }
    return 0;
  };

  if (json) {
    table.write_csv(csv);
    std::printf("{\n");
    for (int c = 0; c < 4; ++c) {
      const chaos::ChaosReport& r = cells[c].report;
      std::printf("  \"%s\": {\"wall_s\": %.6f, \"degraded_p99_s\": %.6f, "
                  "\"hedged\": %llu, \"digest\": \"%s\"},\n",
                  kCells[c].name, cells[c].wall_s, r.degraded_p99_s,
                  static_cast<unsigned long long>(r.serving.hedged_reads),
                  hex(r.digest).c_str());
    }
    std::printf("  \"soak\": {\"scenarios\": %d, \"violations\": %d, "
                "\"wall_s\": %.6f, \"serial_wall_s\": %.6f, "
                "\"bit_identical\": true, \"digest\": \"%s\"}\n}\n",
                soak.value().scenarios_run, soak.value().violations,
                soak_wall, serial_wall, hex(soak.value().digest).c_str());
    return enforce_claims();
  }

  bench::emit(table, csv);

  double wall = soak_wall + serial_wall;
  for (int c = 0; c < 4; ++c) wall += 2.0 * cells[c].wall_s;
  std::printf("claims: shifted %.6f < traditional %.6f s degraded p99; "
              "hedge %.6f < %.6f s\n",
              sh.degraded_p99_s, tr.degraded_p99_s, shh.degraded_p99_s,
              sh.degraded_p99_s);
  std::printf("soak: %d scenarios, 0 violations, %.3f s parallel / %.3f s "
              "serial\ntotal: %.3f s wall\n",
              soak.value().scenarios_run, soak_wall, serial_wall, wall);
  return enforce_claims();
}
