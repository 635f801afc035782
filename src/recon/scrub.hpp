// Scrubbing against latent sector errors.
//
// The paper motivates mirror redundancy with the rising rate of latent
// sector errors ([3-6] in its bibliography): corruption that sits
// undetected until the sector is read — at which point, during a
// reconstruction, it is too late. Production arrays therefore scrub:
// periodically read everything and cross-check the redundancy.
//
// For the (shifted) mirror methods a scrub compares the R + 1 copies
// of each data element. When they disagree, a strict majority of the
// copies decides, else the parity row arbitrates (XOR of the other data
// elements and the parity element equals the true value under a
// single-bad-copy-per-row assumption). At R = 1 a split has no
// majority, so without a parity disk it is detectable but not
// attributable; at R >= 2 the majority repairs a lone bad copy.
//
// On arrays that keep per-element checksums (ArrayConfig::checksums)
// the scrub is *verifying*: a pass 0 recomputes every element's
// fingerprint against the out-of-band store, which catches the silent
// corruptions copy comparison cannot attribute — bit rot, lost writes
// (stale content under a fresh checksum) and misdirected writes — and
// repairs each from a copy whose checksum matches its content. See
// docs/INTEGRITY.md.
#pragma once

#include <cstdint>
#include <vector>

#include "array/disk_array.hpp"
#include "obs/observer.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace sma::recon {

struct ScrubReport {
  std::uint64_t elements_scanned = 0;
  /// Elements whose readable copies disagreed.
  std::uint64_t mismatches = 0;
  /// Copies the mismatch arbitration rewrote: data copies, and copies
  /// in any replica array.
  std::uint64_t repaired_data = 0;
  std::uint64_t repaired_mirror = 0;
  std::uint64_t repaired_parity = 0;
  /// Elements no arbitration could decide: no majority and no parity
  /// row (or none that a surviving copy confirms).
  std::uint64_t undecidable = 0;
  /// Latent unreadable sectors (FaultProfile) discovered by the scan.
  std::uint64_t unreadable_sectors = 0;
  /// Unreadable elements rewritten in place from a surviving redundancy
  /// path (remapping the latent sector); the rest become undecidable.
  std::uint64_t remapped = 0;
  /// Pass-0 verifying scrub: elements whose stored checksum disagreed
  /// with their content (0 when the array keeps no checksums).
  std::uint64_t checksum_mismatches = 0;
  /// Checksum-flagged elements rewritten from a checksum-verified
  /// source (another copy, or the parity row when every copy is bad).
  std::uint64_t repaired_by_checksum = 0;
  /// Full-scan timing on the disk model (all disks stream in parallel).
  double makespan_s = 0.0;
  std::uint64_t logical_bytes_read = 0;

  bool clean() const {
    return mismatches == 0 && repaired_parity == 0 &&
           checksum_mismatches == 0;
  }
};

/// The checksum verification pass (pass 0) runs whenever the array
/// keeps per-element checksums (ArrayConfig::checksums); without them
/// the scrub is the plain copy/parity comparison.
struct ScrubOptions {
  /// Borrowed observer: emits a kCorruption trace event per checksum
  /// mismatch.
  obs::Attach observer;
};

/// Scrub a mirror-architecture array (any replica count): detect and
/// (where arbitration is possible) repair latent element corruption in
/// place. Elements whose slots carry FaultProfile latent *unreadable*
/// sectors participate as arbitration input: an unreadable copy is
/// rewritten (remapped) from the readable copies while those agree, or
/// from the parity row when every copy is unreadable; arbitration paths
/// that would read through an unreadable element are treated as
/// unavailable. Requires all disks healthy — scrub a degraded array
/// after rebuilding it.
Result<ScrubReport> scrub(array::DiskArray& arr, const ScrubOptions& opts);

/// scrub(arr, {}) — plain scrub, verifying when the array keeps
/// checksums.
Result<ScrubReport> scrub(array::DiskArray& arr);

/// Corrupt `count` distinct random elements (any role) by flipping
/// bytes in their stored contents — the latent-error injector used by
/// tests and the scrub bench. Returns the coordinates corrupted;
/// kInvalidArgument for a count outside [0, element count].
struct InjectedError {
  int logical_disk = 0;
  int stripe = 0;
  int row = 0;
};
Result<std::vector<InjectedError>> inject_latent_errors(array::DiskArray& arr,
                                                        Rng& rng, int count);

}  // namespace sma::recon
