// Chaos engine: drive a Scenario through the full stack with the
// invariant oracle run after every phase.
//
// A scenario run is four phases over two arrays of the same
// architecture:
//
//  1. serving — a timing-only array serves an open-loop stream while
//     rebuilding the primary failure, with the scenario's fail-slow /
//     transient / latent profiles installed and the second failure
//     injected mid-rebuild; the fail-slow detector + hedged-read
//     failover (workload::HedgeConfig) run here when enabled.
//  2. crash / resync — a content-ful array (checksums + dirty-region
//     log) runs the crash workload with the scenario's crash point
//     armed, power-cycles, resyncs, and runs the verifying scrub that
//     catches crash damage outside the logged regions (a misdirected
//     power-loss write lands on a neighbor slot the DRL never saw);
//     the oracle then requires a clean write-intent log, internal
//     consistency and a truthful checksum store.
//  3. corruption / scrub — silent corruptions are injected and the
//     verifying scrub must find and repair every one.
//  4. failure / rebuild — the scenario's fail-stop set is applied to
//     the content-ful array, spares are allocated, and the rebuild
//     must restore byte-exact content — unless recon::is_recoverable
//     says the set is fatal, in which case the lifecycle must declare
//     data loss and nothing else is owed.
//
// Every failing scenario — an oracle violation or an engine error — is
// a Status whose message embeds the (seed, spec) replay pair. Phase 1
// requires every issued request to complete. run_soak composes seeded
// scenarios in bulk (optionally on sim::MultiKernel threads) and
// requires zero violations. See docs/CHAOS.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/scenario.hpp"
#include "fleet/timeline.hpp"
#include "integrity/resync.hpp"
#include "recon/executor.hpp"
#include "recon/online.hpp"
#include "recon/scrub.hpp"
#include "repair/lifecycle.hpp"
#include "util/status.hpp"
#include "workload/hedge.hpp"

namespace sma::chaos {

struct ChaosConfig {
  /// Mirror arrangement under test (the paper's axis).
  bool shifted = true;
  int n = 4;
  bool parity = true;
  /// Stacks of stripes in the serving-phase array.
  int stacks = 4;
  Scenario scenario;
  /// Serving-phase open-loop load.
  double arrival_rate_hz = 120.0;
  int requests = 800;
  /// Fail-slow detection + hedged reads on the serving path (inert by
  /// default, like everywhere else).
  workload::HedgeConfig hedge;
  /// Hot spares provisioned for the rebuild phase (accounting checked
  /// by the oracle). Covers a primary plus a second failure.
  int spare_disks = 2;
  /// Deliberately broken injectors, for tests that prove the oracle
  /// catches them: kSkipResync power-cycles but "forgets" the resync;
  /// kLeakCorruption injects silent corruption and skips the scrub.
  enum class Sabotage : std::uint8_t {
    kNone = 0,
    kSkipResync,
    kLeakCorruption,
  };
  Sabotage sabotage = Sabotage::kNone;
  obs::Attach observer;
};

struct ChaosReport {
  /// Phase 1: the serving run (hedge counters included).
  recon::OnlineReport serving;
  /// Foreground p99 while the array was degraded — the scenario's
  /// headline availability number (bench_chaos compares arrangements
  /// and hedging on it).
  double degraded_p99_s = 0.0;
  /// Phase 2 (zeroed when the scenario arms no crash).
  bool crashed = false;
  integrity::ResyncReport resync;
  /// The verifying scrub that follows the resync: a misdirected crash
  /// write clobbers a neighbor slot whose region the DRL never logged,
  /// so the write-intent log alone cannot restore consistency — the
  /// checksum pass can, and the oracle's durability check runs only
  /// after both halves of the recovery.
  recon::ScrubReport crash_scrub;
  /// Phase 3 (zeroed when the scenario injects no corruption).
  int corruptions_injected = 0;
  bool scrubbed = false;
  recon::ScrubReport scrub;
  /// Phase 4 (zeroed when the failure set was fatal — data loss is the
  /// sanctioned outcome and the lifecycle declares it).
  bool rebuilt = false;
  recon::ReconReport rebuild;
  int repairs_started = 0;
  /// Oracle checks that ran (each would have failed the run loudly).
  int oracle_checks = 0;
  repair::ArrayState final_state = repair::ArrayState::kHealthy;
  /// FNV-1a fold of every deterministic field above: the determinism
  /// contract (serial == parallel == replay) compares this.
  std::uint64_t digest = 0;
};

Result<ChaosReport> run_scenario(const ChaosConfig& cfg);

struct SoakConfig {
  int scenarios = 200;
  std::uint64_t base_seed = 20120901;
  /// sim::MultiKernel workers; 1 = serial reference order.
  std::size_t threads = 1;
  /// Mirror arrangement of every array scenario (the paper's axis); the
  /// fleet scenarios keep their shifted timeline.
  bool shifted = true;
  int n = 4;
  /// Every k-th scenario exercises the fleet timeline with failure
  /// domains instead of a single array; 0 disables.
  int fleet_every = 8;
};

struct SoakReport {
  int scenarios_run = 0;
  int violations = 0;
  /// One replay-stamped message per violation (empty on a clean soak).
  std::vector<std::string> violation_messages;
  /// Fold of every scenario digest in index order; thread-count
  /// invariant.
  std::uint64_t digest = 0;
};

Result<SoakReport> run_soak(const SoakConfig& cfg);

/// A fleet-scale chaos scenario: the failure/repair timeline with
/// correlated failure domains, run twice — the replay digest must
/// match — with the oracle checking the report's internal consistency.
struct FleetScenarioConfig {
  int arrays = 32;
  int n = 4;
  double horizon_hours = 24.0 * 365.0;
  double disk_mttf_hours = 2.0e4;
  double repair_hours = 48.0;
  int domain_size = 8;
  double domain_hazard_factor = 8.0;
  std::uint64_t seed = 2012;
};

Result<fleet::TimelineReport> run_fleet_scenario(
    const FleetScenarioConfig& cfg);

}  // namespace sma::chaos
