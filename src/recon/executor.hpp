// Reconstruction executor: performs an actual rebuild on a DiskArray —
// contents recovered byte-for-byte, reads and replacement writes timed
// on the disk model — and verifies the result, mirroring the paper's
// Section VII methodology ("after each reconstruction process, we also
// compared the original data ... and the recovered data").
//
// One loop serves every option: stripe by stripe it plans, recovers the
// contents, installs them on the still-failed disks, and either times
// that stripe's reads and writes at once or appends them to one global
// barrier batch. The timed reads are exactly the reads recovery
// consumed. Disks are healed and the array verified only after every
// write has been timed.
//
// The rebuild is error-aware: under fault injection, sources that turn
// out unreadable (latent sectors) are replaced by an alternate
// redundancy path — the mirror copy, the parity-XOR equation, or a
// codec decode with the latent column added to the erasure set — and
// elements with no surviving path are zero-filled and counted instead
// of aborting the rebuild.
#pragma once

#include <cstdint>
#include <vector>

#include "array/disk_array.hpp"
#include "repair/checkpoint.hpp"
#include "util/status.hpp"

namespace sma::recon {

struct ReconOptions {
  /// Also time/count the reads needed to recompute a lost parity disk.
  /// The paper's availability metric excludes them (no user data lives
  /// on the parity disk), so the default is off.
  bool include_parity_rebuild = false;
  /// Verify mirror/parity internal consistency of the whole array after
  /// the rebuild (valid even after user writes; tests that populated the
  /// array with the deterministic pattern additionally call
  /// DiskArray::verify_all for byte-exact checking). Elements that lost
  /// every redundancy path are excluded from the check and reported in
  /// unrecoverable_elements instead.
  bool verify = true;
  /// Pipeline the rebuild per stripe: each stripe's replacement writes
  /// start as soon as that stripe's reads complete, overlapping the
  /// next stripe's reads — instead of a global read barrier before any
  /// write. Shortens total_makespan_s; read_makespan_s and the access
  /// counts are unaffected. A checkpoint or an active spare placement
  /// times per stripe too: both work stripe by stripe.
  bool pipelined = false;
  /// Optional observability hooks (borrowed, caller-owned; see
  /// obs::Attach for the uniform semantics). When set, the timing phase
  /// emits rebuild batch issue/complete events, every disk emits its
  /// service spans, and each healed disk emits kHeal at the rebuild end.
  obs::Attach observer;

  // --- repair orchestration (all inert by default) ---------------------
  /// Progress watermark (borrowed, caller-owned). When set, the rebuild
  /// resumes from the checkpoint instead of restarting (see
  /// repair::RebuildCheckpoint for the per-stripe skip/partial/dirty
  /// rules) and, if interrupted by `max_stripes` or a crash, records
  /// where it stopped instead of healing. nullptr = every call rebuilds
  /// from scratch.
  repair::RebuildCheckpoint* checkpoint = nullptr;
  /// Stripe budget for this call: stop after rebuilding this many
  /// stripes (skipped checkpoint-covered stripes are free). Requires
  /// `checkpoint`; -1 = unbounded.
  int max_stripes = -1;
  /// Spare placement redirecting replacement writes (and resumed-rebuild
  /// reads) onto spare targets (borrowed, caller-owned). nullptr or an
  /// inactive placement = rebuild in place.
  const repair::SparePlacement* spare_placement = nullptr;
};

struct ReconReport {
  /// Makespan of the (availability) read phase.
  double read_makespan_s = 0.0;
  /// Read phase plus replacement-write phase.
  double total_makespan_s = 0.0;
  std::uint64_t logical_bytes_read = 0;
  std::uint64_t logical_bytes_recovered = 0;
  /// Paper metric, max over stripes (uniform across stripes in fact).
  int read_accesses_per_stripe = 0;
  /// Filled whenever timing runs per stripe (pipelined, checkpointed or
  /// spare-redirected): when each stripe's availability reads completed
  /// — i.e. when that stripe's lost data became servable from recovered
  /// state. The recovery-time CDF of the rebuild. Empty under the
  /// default global barrier.
  std::vector<double> stripe_read_done_s;

  // --- fault accounting (all zero on a fault-free rebuild) -------------
  /// Timing-phase re-submissions after transient errors.
  std::uint64_t retried_ops = 0;
  /// Timing-phase ops that never completed (retries exhausted or hard).
  std::uint64_t hard_errors = 0;
  /// Recovery sources that turned out to be latent unreadable sectors.
  std::uint64_t latent_sectors_hit = 0;
  /// Elements whose primary source was unreadable and whose value came
  /// from the surviving mirror copy instead.
  std::uint64_t fallback_to_mirror = 0;
  /// Elements recovered through the parity-XOR equation because both
  /// the element and its copy were unavailable.
  std::uint64_t fallback_to_parity = 0;
  /// RAID stripes where a latent element on a *live* column forced the
  /// codec to treat that column as an additional erasure.
  std::uint64_t fallback_to_codec = 0;
  /// Elements with no surviving redundancy path: zero-filled, excluded
  /// from verification, reported instead of aborting the rebuild.
  std::uint64_t unrecoverable_elements = 0;

  // --- orchestration accounting ----------------------------------------
  /// Stripes this call actually rebuilt (full or partial).
  int stripes_processed = 0;
  /// Checkpoint-covered stripes skipped outright on resume.
  int stripes_skipped = 0;
  /// Element reads / replacement writes this call issued to the timing
  /// model. On a checkpoint resume these are strictly smaller than a
  /// from-scratch restart's — the measurable win of checkpointing.
  std::uint64_t elements_read = 0;
  std::uint64_t elements_written = 0;
  /// False when `max_stripes` or a crash interrupted the rebuild: disks
  /// are still failed, the checkpoint (if any) holds the watermark,
  /// verification is deferred. Stripes whose writes a crash may have
  /// torn count in neither stripes_processed nor elements_written.
  bool completed = true;

  /// True when at least one element could not be recovered.
  bool degraded() const { return unrecoverable_elements > 0; }

  /// The paper's "data availability during reconstruction": read
  /// throughput of the reconstruction read phase, MB/s.
  double read_throughput_mbps() const;
};

/// Rebuild every failed physical disk of `arr` in place: recover
/// contents, restore them, time the reads and replacement writes, heal
/// the disks, and (if opts.verify) check the whole array. Timing state
/// of the array is reset at the start so the report is self-contained.
///
/// Crash contract: when an armed crash point fires inside the timed
/// writes, the call returns completed = false with every failed disk
/// still failed (a checkpoint records the watermark). The caller then
/// power_cycle()s, resyncs and calls reconstruct() again;
/// kFailedPrecondition while the array is still powered off.
Result<ReconReport> reconstruct(array::DiskArray& arr,
                                const ReconOptions& opts = {});

}  // namespace sma::recon
