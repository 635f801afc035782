// Per-disk fault-injection profile.
//
// The paper's argument is about what happens to a mirror array while it
// is degraded, and it motivates mirroring with the rising rate of
// latent sector errors. A FaultProfile lets experiments inject exactly
// those hazards into a SimDisk: a scheduled fail-stop, latent
// unreadable sectors (discovered only when the slot is read), transient
// per-I/O errors (retryable), and a slow-disk service-time multiplier.
//
// The default-constructed profile is *inert*: every probability is
// zero, no fail-stop is scheduled, and the latency multiplier is
// exactly 1.0, so the error-aware I/O path reproduces the calibrated
// timing model bit for bit.
#pragma once

#include <cstdint>

namespace sma::disk {

struct FaultProfile {
  /// Fail-stop the disk at this simulated time; < 0 disables. The disk
  /// fails when the first I/O that would *start* at or after this time
  /// is submitted (a queue-aware interpretation: the failure manifests
  /// when the disk is next addressed).
  double fail_at_s = -1.0;

  /// Per-slot probability that the slot carries a latent unreadable
  /// sector. Latent slots are sampled once, deterministically from
  /// `seed` and the disk id, when the profile is installed. A read of a
  /// latent slot spends its full service time and then fails with
  /// kUnreadableSector; a successful write remaps (clears) the slot.
  double latent_error_rate = 0.0;

  /// Per-read / per-write probability of a transient error: the access
  /// spends its service time, fails with kIoError, and succeeds when
  /// retried (fresh Bernoulli draw per attempt).
  double transient_read_error_p = 0.0;
  double transient_write_error_p = 0.0;

  /// Transient errors only fire while the access *starts* inside
  /// [transient_from_s, transient_until_s). The defaults (0, negative =
  /// unbounded) keep every access inside the window, reproducing the
  /// windowless behavior draw for draw. Models a bounded interference
  /// episode — a vibration burst, a controller brown-out — so tests can
  /// place a retry inside or outside the episode deterministically.
  double transient_from_s = 0.0;
  double transient_until_s = -1.0;

  /// True when `t` falls inside the transient-error window.
  bool transient_active(double t) const {
    return t >= transient_from_s &&
           (transient_until_s < 0.0 || t < transient_until_s);
  }

  /// Whole-array power loss at this simulated time; < 0 disables. Only
  /// the array-wide ArrayConfig::fault profile arms a crash (a per-disk
  /// override cannot power off the array); the crash manifests on the
  /// first *write* op DiskArray::execute would start at or after this
  /// time. The in-flight victim write is truncated per the outcome
  /// probabilities below and every later op in the batch fails with
  /// kIoError until power_cycle().
  double crash_at_s = -1.0;

  /// Op-indexed crash point: the k-th write op (0-based, counted across
  /// every execute() call since construction / the last power_cycle())
  /// becomes the crash victim; < 0 disables. Exact op indexing makes
  /// crash-mid-rebuild and crash-mid-checkpoint scenarios reproducible
  /// independent of timing-model changes.
  std::int64_t crash_after_writes = -1;

  /// Victim-write outcome mix at the crash point, drawn once from
  /// `seed`: torn (a prefix of the new bytes reached media, the rest is
  /// garbage), misdirected (the bytes landed on an adjacent slot,
  /// clobbering it, while the target kept stale data), else lost (the
  /// write never reached media at all). Remainder = lost.
  double torn_write_p = 0.5;
  double misdirected_write_p = 0.25;

  /// True when a crash point is armed.
  bool crash_armed() const {
    return crash_at_s >= 0.0 || crash_after_writes >= 0;
  }

  /// Multiplies every service time (positioning + transfer). 1.0 means
  /// nominal speed; > 1 models a degraded ("limping") disk.
  double slow_factor = 1.0;

  /// Seed for latent-slot placement and transient draws; mixed with the
  /// disk id so disks sharing one profile fault independently.
  std::uint64_t seed = 0;

  /// True when the profile cannot change any observable behavior. The
  /// window bounds and outcome probabilities only modulate hazards that
  /// are themselves disabled by default, so they do not participate.
  bool inert() const {
    return fail_at_s < 0.0 && latent_error_rate <= 0.0 &&
           transient_read_error_p <= 0.0 && transient_write_error_p <= 0.0 &&
           slow_factor == 1.0 && !crash_armed();
  }
};

}  // namespace sma::disk
