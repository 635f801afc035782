// DiskArray — a populated, addressable simulated disk array instance of
// one Architecture: contents + timing + stack rotation.
//
// Logical vs physical disks: the reconstruction math is defined over
// *logical* disks within a stripe; in practice the logical-to-physical
// assignment rotates stripe by stripe ("stack", paper Section II-A) for
// load balance. DiskArray stores data physically rotated (when enabled)
// and translates addresses, so experiments can fail *physical* disks —
// as the paper's testbed does — and still reason per-stripe logically.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <tuple>
#include <vector>

#include "disk/fault_profile.hpp"
#include "disk/sim_disk.hpp"
#include "ec/codec.hpp"
#include "integrity/checksum.hpp"
#include "integrity/dirty_region_log.hpp"
#include "obs/observer.hpp"
#include "layout/architecture.hpp"
#include "layout/stack.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace sma::array {

struct ArrayConfig {
  layout::Architecture arch = layout::Architecture::mirror(3, true);
  /// Stripe count; a full stack needs arch.total_disks() stripes.
  int stripes = 1;
  /// Rotate logical->physical per stripe (stack rotation).
  bool rotate = true;
  disk::DiskSpec spec = disk::DiskSpec::savvio_10k3();
  /// Per-physical-disk spec overrides (heterogeneous arrays /
  /// straggler experiments); disks absent from the map use `spec`.
  std::map<int, disk::DiskSpec> spec_overrides;
  /// Stored bytes per element (content correctness checks). A disk
  /// allocates its slots x content_bytes store on its first mutable
  /// content access (initialize(), a restore, any non-const content()),
  /// so a timing-only array holds one element per disk.
  std::size_t content_bytes = 4096;
  /// Timed bytes per element (the paper uses 4 MB).
  std::uint64_t logical_element_bytes = 4ull * 1024 * 1024;
  std::uint64_t seed = 1;
  /// Fault-injection profile applied to every disk. The default is
  /// inert: no observable behavior change anywhere in the stack.
  disk::FaultProfile fault;
  /// Per-physical-disk profile overrides (targeted experiments).
  std::map<int, disk::FaultProfile> fault_overrides;
  /// Bounded-retry policy of the batch executor: how many times an op
  /// that hit a *transient* error is re-submitted (each retry pays full
  /// re-service time). Hard errors are never retried.
  int io_max_retries = 2;
  /// Base delay of the capped-exponential retry backoff: attempt k's
  /// re-submission waits min(base * 2^(k-1), retry_backoff_cap_s) after
  /// the failed attempt drains, optionally shrunk by a deterministic
  /// seeded jitter (below). The default 0 is inert: retries re-submit
  /// immediately, reproducing the original timing bit for bit.
  double retry_backoff_base_s = 0.0;
  /// Ceiling on a single retry delay (0 = uncapped).
  double retry_backoff_cap_s = 0.0;
  /// Jitter fraction in [0, 1): each delay is scaled by a factor drawn
  /// deterministically in [1 - jitter, 1] from a per-disk SplitMix64
  /// stream seeded by ArrayConfig::seed and the disk id, so equal seeds
  /// replay equal delays whichever order disks are visited in.
  double retry_backoff_jitter = 0.0;
  /// Hot-spare disks appended after the architecture's disks (physical
  /// ids total_disks()..total_disks()+spare_disks-1). They hold no
  /// addressable elements; the repair orchestrator redirects
  /// replacement writes onto them (repair::SparePolicy::kDedicated).
  /// The default 0 is inert.
  int spare_disks = 0;
  /// Dirty-region log granularity: stripes per region. execute() logs
  /// write intent per region before issuing writes, so post-crash
  /// resync re-reads only dirty regions (integrity::resync). The
  /// default 0 disables the log entirely (inert).
  int drl_region_stripes = 0;
  /// Keep per-element checksums out-of-band (integrity::ChecksumStore):
  /// initialize() and restore_element() maintain them; content writers
  /// call update_element_checksum(). Enables silent-corruption
  /// detection in the verifying scrub. The default false is inert.
  bool checksums = false;
};

/// One element access for the batch executor.
struct Op {
  int logical_disk = 0;  // architecture-global logical disk index
  int stripe = 0;
  int row = 0;
  disk::IoKind kind = disk::IoKind::kRead;
  /// When >= 0, the op is served by this physical disk instead of the
  /// stripe's logical->physical mapping: spare-pool placements redirect
  /// replacement writes (and resumed-rebuild reads) to the disk that
  /// actually holds the rebuilt copy. -1 (default) = no redirection.
  int redirect_phys = -1;
};

/// Timing outcome of a parallel batch.
struct BatchStats {
  double start_s = 0.0;
  double end_s = 0.0;
  /// Max per-disk op count in the batch — the paper's "number of read
  /// (write) accesses" under the parallel I/O model.
  int max_ops_per_disk = 0;
  std::uint64_t logical_bytes_read = 0;
  std::uint64_t logical_bytes_written = 0;
  /// Re-submissions after transient errors (bounded by io_max_retries).
  std::uint64_t retried_ops = 0;
  /// Ops that never completed: unreadable sector, dead disk, or retries
  /// exhausted. Their attempts still occupied the disks.
  std::uint64_t failed_ops = 0;
  /// Subset of failed_ops that hit a latent unreadable sector.
  std::uint64_t unreadable_ops = 0;
  /// Deepest retry chain any single op in the batch needed (0 = every
  /// op succeeded or failed hard on its first attempt).
  int max_retry_depth = 0;
  /// Writes whose bytes never (fully) reached media: the crash victim
  /// plus every write submitted while the array was powered off.
  std::uint64_t lost_writes = 0;
  /// The armed crash point fired during (or before) this batch.
  bool crashed = false;

  double elapsed_s() const { return end_s - start_s; }
};

/// Logical element coordinates excluded from a consistency check (e.g.
/// elements that lost every redundancy path during a faulty rebuild),
/// as (logical, stripe, row).
using ElementSet = std::set<std::tuple<int, int, int>>;

class DiskArray {
 public:
  explicit DiskArray(ArrayConfig cfg);

  const layout::Architecture& arch() const { return cfg_.arch; }
  const ArrayConfig& config() const { return cfg_; }
  int stripes() const { return cfg_.stripes; }
  int total_disks() const { return cfg_.arch.total_disks(); }
  /// Architecture disks plus configured hot spares; physical(d) accepts
  /// ids in [0, physical_count()).
  int physical_count() const { return total_disks() + cfg_.spare_disks; }

  // --- address translation ---------------------------------------------
  int physical_disk(int logical, int stripe) const;
  int logical_disk(int physical, int stripe) const;
  std::int64_t slot(int stripe, int row) const;

  disk::SimDisk& physical(int disk);
  const disk::SimDisk& physical(int disk) const;

  /// Content of the element at (logical disk, stripe, row). The
  /// non-const overload materializes the disk's element store (see
  /// SimDisk::content); the const one never allocates.
  std::span<std::uint8_t> content(int logical, int stripe, int row);
  std::span<const std::uint8_t> content(int logical, int stripe, int row) const;

  // --- contents -----------------------------------------------------------
  /// Populate every element per the architecture: deterministic data
  /// patterns, arranged mirror copies, parity columns.
  void initialize();

  /// Expected bytes of the *data* element (data disk i, stripe, row).
  void expected_data(int data_disk, int stripe, int row,
                     std::span<std::uint8_t> out) const;

  /// Current bytes of data element a(i, j) of `stripe` on a mirror kind,
  /// degraded when disks failed: its first live copy (c = 0..R), else
  /// the XOR of its parity row. kUnrecoverable when neither path
  /// survives.
  Status read_data_element(int i, int stripe, int j,
                           std::span<std::uint8_t> out) const;
  /// Apply one acked write of `bytes` to data element a(i, j) of
  /// `stripe` on a mirror kind: when the parity disk is live, parity ^=
  /// old ^ new, the old value read as read_data_element does; every
  /// live copy then takes the bytes; checksums follow when enabled.
  /// Content only (no timed I/O). kUnrecoverable, with nothing written,
  /// when the write would be lost or the old value is unreadable.
  Status write_data_element(int i, int stripe, int j,
                            std::span<const std::uint8_t> bytes);

  /// Check every element on every non-failed disk against its
  /// definition. kCorruption with a precise location on mismatch.
  Status verify_all() const;

  /// Internal-consistency check against *current* contents: every
  /// mirror cell equals its data source and every parity element is the
  /// XOR of its data row (re-encode comparison for RAID kinds). Unlike
  /// verify_all() this stays valid after user writes. With `skip`,
  /// comparisons touching a listed element are omitted (elements that
  /// had no surviving redundancy path during a faulty rebuild).
  Status verify_consistency(const ElementSet* skip = nullptr) const;
  /// Check a single logical disk's elements across all stripes.
  Status verify_logical_disk(int logical) const;

  // --- failures ------------------------------------------------------------
  void fail_physical(int disk);
  std::vector<int> failed_physical() const;

  // --- fault layer ---------------------------------------------------------
  /// True when any disk carries a non-inert fault profile.
  bool faults_active() const;
  /// The element's slot carries a latent unreadable sector (disk live).
  bool element_latent(int logical, int stripe, int row) const;
  /// Remap the element's latent sector after rewriting it in place.
  void clear_element_latent(int logical, int stripe, int row);
  /// Install recovered bytes for an element of a failed disk (tracked;
  /// SimDisk::heal() requires every slot restored). Maintains the
  /// element's checksum when checksums are enabled.
  void restore_element(int logical, int stripe, int row,
                       std::span<const std::uint8_t> bytes);

  // --- crash consistency ---------------------------------------------------
  /// The armed crash point (ArrayConfig::fault.crash_at_s /
  /// crash_after_writes) fired: the array is powered off. Every
  /// subsequent op fails with kIoError and every subsequent write's
  /// bytes are lost until power_cycle().
  bool crashed() const { return crashed_; }
  /// Simulated time at which the crash fired (meaningful when
  /// crashed() or after power_cycle()).
  double crash_time_s() const { return crash_time_; }
  /// Power the array back on after a crash: timelines reset (cold
  /// start), the crash point stays consumed, contents stay exactly as
  /// the crash left them — divergent copies and all. The caller is
  /// expected to resync before trusting redundancy again.
  /// kFailedPrecondition when the array is not crashed.
  Status power_cycle();

  /// Dirty-region log (enabled via ArrayConfig::drl_region_stripes;
  /// disabled object otherwise). execute() marks write intent; resync
  /// clears regions; workloads may clear_all() at quiesce points.
  integrity::DirtyRegionLog& dirty_log() { return drl_; }
  const integrity::DirtyRegionLog& dirty_log() const { return drl_; }

  // --- checksums -----------------------------------------------------------
  bool checksums_enabled() const { return sums_.enabled(); }
  const integrity::ChecksumStore& checksums() const { return sums_; }
  /// Record the checksum of the element's *current* content (content
  /// writers call this right after mutating the bytes).
  void update_element_checksum(int logical, int stripe, int row);
  /// True when the stored checksum matches the current content.
  bool element_checksum_ok(int logical, int stripe, int row) const;
  /// Recompute every live element's fingerprint against the store.
  /// kCorruption with a precise location on the first mismatch;
  /// kFailedPrecondition when checksums are disabled.
  Status verify_checksums() const;

  // --- timing ---------------------------------------------------------------
  /// Execute ops concurrently across disks: per-disk FIFO order as
  /// listed, disks independent. Content is NOT touched (timing only).
  ///
  /// When no array-level instrumentation is attached (no observer, no
  /// crash/DRL hooks), ops are grouped per disk and each batchable
  /// disk's run is timed in one SimDisk::submit_run pass. Grouping is
  /// bit-identical to the interleaved per-op order because every
  /// mutable effect (busy window, head position, counters, fault RNG,
  /// retry jitter stream) is per-disk state touched in per-disk FIFO
  /// order, and the batch aggregates (max end time, byte/op sums) are
  /// order-independent.
  BatchStats execute(std::span<const Op> ops, double start_time);

  /// Forget all disk head positions / timelines (fresh experiment).
  void reset_timelines();
  void reset_counters();

  // --- observability ---------------------------------------------------
  /// Attach an observer to the array and every physical disk: disks
  /// emit service spans, execute() emits retry events and batch
  /// counters. Pass nullptr (the default state) to detach; the disabled
  /// path is a branch per access with no other cost.
  void set_observer(obs::Observer* observer);
  obs::Observer* observer() const { return observer_; }

  /// Codec backing RAID-5/6 kinds (nullptr for mirror kinds); used by
  /// the reconstruction executor to decode stripes.
  const ec::Codec* raid_codec() const { return raid_codec_.get(); }

 private:
  ArrayConfig cfg_;
  layout::StackMapper mapper_;
  std::vector<disk::SimDisk> disks_;
  obs::Observer* observer_ = nullptr;

  /// Codec used to materialize / verify parity for RAID-5/6 kinds.
  ec::CodecPtr raid_codec_;

  // Crash-consistency state. All of it stays inert (crash_armed_ false,
  // drl_/sums_ disabled) under the default config: execute() takes one
  // hoisted branch and nothing else changes.
  integrity::DirtyRegionLog drl_;
  integrity::ChecksumStore sums_;
  bool crash_armed_ = false;
  bool crashed_ = false;
  double crash_time_ = 0.0;
  std::int64_t writes_seen_ = 0;
  Rng crash_rng_{0};

  // Retry backoff jitter: one stream per physical disk, seeded from
  // ArrayConfig::seed and the disk id, advanced once per jittered delay.
  std::vector<std::uint64_t> retry_jitter_state_;

  /// Delay before attempt `attempt` (1-based retry number) on physical
  /// disk `phys` re-submits: capped exponential in the attempt, jittered
  /// from that disk's stream when configured.
  double retry_delay(int phys, int attempt);
  /// Submit `op` to physical disk `phys` no earlier than `start_time`,
  /// retrying transient errors (bounded, backed off), and fold the
  /// outcome into `stats`. The one per-op path of both executors.
  void submit_with_retry(const Op& op, int phys, double start_time,
                         BatchStats& stats);

  /// The physical disk holding `logical` in `stripe` has not failed.
  bool live(int logical, int stripe) const;
  void init_mirror_stripe(int stripe);
  void init_raid_stripe(int stripe);
  Status verify_mirror_stripe(int stripe) const;
  Status verify_raid_stripe(int stripe) const;
  /// Fire the armed crash on the victim write op at simulated time `t`.
  void apply_crash(const Op& op, double t);
  /// Garble a write that never (fully) reached media while powered off.
  void lose_write(const Op& op);

  /// The grouped-per-disk executor behind execute()'s fast path.
  BatchStats execute_batched(std::span<const Op> ops, double start_time);

  // Scratch for execute_batched (capacity persists across calls, so
  // steady-state batches do not allocate). DiskArray is single-threaded
  // per simulation case.
  std::vector<int> batch_count_;
  std::vector<int> batch_offset_;
  std::vector<std::uint32_t> batch_order_;
  std::vector<disk::RunAccess> batch_run_;
};

}  // namespace sma::array
