// Content-ful mirrored write workload + silent-corruption injectors.
//
// The timing-only workload executors (workload/) never touch stored
// bytes, but crash experiments need content honesty: the crash victim's
// torn/lost/misdirected bytes must be *observable* afterward. Each
// request here applies the new bytes to every copy of one data element
// (the data copy and one per replica array) and the parity delta
// (checksums maintained when enabled), then issues the timed writes —
// copies in order, parity last — through DiskArray::execute, so an
// armed crash point garbles exactly the slots whose writes were in
// flight, and the dirty-region log records exactly the regions with
// outstanding intent.
//
// The injectors model the three classic silent-corruption modes on an
// otherwise healthy array; recon::scrub with checksums is expected to
// detect and repair all of them.
#pragma once

#include <cstdint>
#include <vector>

#include "array/disk_array.hpp"
#include "obs/observer.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace sma::integrity {

struct CrashWorkloadConfig {
  /// Element-write requests to issue (each touches every copy + parity
  /// when present).
  int requests = 100;
  std::uint64_t seed = 1;
  /// Clear the dirty-region log every k requests, modeling a quiesce
  /// point where all in-flight writes drained (md clears intent bits
  /// lazily). 0 = never. This is what makes the post-crash log
  /// *partially* dirty instead of accumulating every region ever
  /// touched.
  int quiesce_every = 0;
};

struct CrashWorkloadReport {
  int requests_issued = 0;
  std::uint64_t element_writes = 0;
  /// Writes whose bytes never fully reached media (crash victim +
  /// powered-off tail of its batch).
  std::uint64_t lost_writes = 0;
  bool crashed = false;
  double crash_t_s = 0.0;
  /// Dirty regions left in the log when the workload stopped.
  int dirty_regions = 0;
  double makespan_s = 0.0;
};

/// Run the workload until `requests` are issued or the array crashes.
/// Mirror architectures, any replica count. The array is left exactly
/// as the crash (if any) left it: powered off, divergent copies in
/// dirty regions.
Result<CrashWorkloadReport> run_crash_workload(array::DiskArray& arr,
                                               const CrashWorkloadConfig& cfg);

/// The three silent-corruption modes a checksum scrub exists to catch.
enum class SilentCorruption {
  kBitRot,            // media rot: content changed under a valid checksum
  kLostWrite,         // write acked (checksum updated) but never hit media
  kMisdirectedWrite,  // write landed on the adjacent slot, clobbering it
};

struct InjectedCorruption {
  SilentCorruption kind = SilentCorruption::kBitRot;
  /// The element whose content no longer matches its checksum. A
  /// misdirected write reports two entries: the starved target and the
  /// clobbered neighbor.
  int logical_disk = 0;
  int stripe = 0;
  int row = 0;
};

/// Inject `count` corruptions of `kind`, one per distinct stripe (so
/// redundancy partners stay intact and every injection is repairable).
/// kLostWrite / kMisdirectedWrite require checksums enabled — they
/// *are* checksum-vs-content divergences by definition: an acked write
/// reaches every other copy, the parity and the checksums, but not the
/// data copy. count must not exceed the stripe count.
Result<std::vector<InjectedCorruption>> inject_silent_corruption(
    array::DiskArray& arr, Rng& rng, int count, SilentCorruption kind);

}  // namespace sma::integrity
