// SimDisk — one simulated disk: a timeline of element-granular I/O
// plus byte-accurate element contents.
//
// Timing and content are deliberately decoupled: timing uses the
// *logical* element size (the paper's 4 MB) while contents are stored
// at a smaller configurable size so whole-stack experiments stay cheap
// in RAM. Correctness checks (parity math, rebuild verification) run on
// the stored bytes; throughput math runs on the logical size.
//
// The element store is allocated on first use: a disk holds one
// element of fill bytes (zeros, or the fail() scramble) until the first
// mutable content access — non-const content() or restore_content() —
// grows it to slot_count() x content_bytes() bytes of that fill. Const
// reads never allocate and see the fill bytes in every slot, so a
// timing-only run, which never writes contents, costs no store at all.
//
// Addressing: elements live at integer slots; slot order is physical
// LBA order, so an access to slot s+1 immediately after slot s is
// sequential (no positioning charge).
//
// Fault model: an optional FaultProfile injects fail-stops, latent
// unreadable sectors, transient errors, and slow service. submit()
// therefore returns IoResult (completion time or an error Status) —
// including in release builds, where an assert would vanish.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "disk/disk_model.hpp"
#include "disk/fault_profile.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace sma::obs {
struct Observer;
}  // namespace sma::obs

namespace sma::disk {

enum class IoKind { kRead, kWrite };

struct DiskCounters {
  std::uint64_t reads = 0;   // attempts, including errored ones
  std::uint64_t writes = 0;  // attempts, including errored ones
  std::uint64_t sequential = 0;  // ops that paid no positioning
  std::uint64_t logical_bytes_read = 0;     // successful ops only
  std::uint64_t logical_bytes_written = 0;  // successful ops only
  std::uint64_t transient_errors = 0;
  std::uint64_t unreadable_errors = 0;
  double busy_s = 0.0;
};

/// Completion time of a submitted access, or why it failed:
/// kOutOfRange (bad slot), kIoError (failed disk, scheduled fail-stop,
/// transient error), kUnreadableSector (latent media error).
using IoResult = Result<double>;

/// One access of a batched run (submit_run()).
struct RunAccess {
  IoKind kind = IoKind::kRead;
  std::int64_t slot = 0;
};

class SimDisk {
 public:
  SimDisk(int id, DiskSpec spec, std::int64_t slot_count,
          std::size_t content_bytes, std::uint64_t logical_element_bytes);

  int id() const { return id_; }
  const DiskSpec& spec() const { return spec_; }
  std::int64_t slot_count() const { return slot_count_; }
  std::size_t content_bytes() const { return content_bytes_; }
  std::uint64_t logical_element_bytes() const { return logical_element_bytes_; }

  // --- timing ---------------------------------------------------------
  /// Enqueue one element access behind all prior traffic, starting no
  /// earlier than `earliest_start`. Returns the completion time, or an
  /// error Status; errored attempts (transient, unreadable) still
  /// occupy the disk for their service time — busy_until() reflects it.
  IoResult submit(IoKind kind, std::int64_t slot, double earliest_start);

  /// submit() for fault-free contexts (inert profile, caller already
  /// guards failed disks): asserts success and unwraps the time.
  double submit_ok(IoKind kind, std::int64_t slot, double earliest_start) {
    const IoResult r = submit(kind, slot, earliest_start);
    assert(r.is_ok() && "submit_ok used on a fallible path");
    return r.is_ok() ? r.value() : busy_until_;
  }

  /// True when a run of accesses can be timed in one batched pass
  /// (submit_run()) with results bit-identical to repeated submit():
  /// no fault machinery able to fire mid-run and no per-op
  /// instrumentation attached. Queried per run — installing a profile
  /// or attaching an observer flips consumers back to the per-op path.
  bool can_batch() const {
    return !failed_ && !fail_stop_armed_ && observer_ == nullptr &&
           latent_count_ == 0 && fault_.transient_read_error_p <= 0.0 &&
           fault_.transient_write_error_p <= 0.0;
  }

  /// True while a scheduled fail-stop has yet to manifest. Consumers
  /// whose batched fast paths assume the failure set cannot change
  /// mid-run (the disk's death replans work on *other* disks) check
  /// this across the whole array, not just the disk being batched.
  bool fail_stop_armed() const { return fail_stop_armed_; }

  /// Enqueue a run of accesses back to back, each starting no earlier
  /// than `earliest_start` — exactly equivalent to calling submit() for
  /// each access in order (every access succeeds under the can_batch()
  /// preconditions), but with the range checks, fault branches, and
  /// seek/transfer constants hoisted out of the loop. Returns the
  /// completion time of the last access. Precondition: can_batch().
  double submit_run(std::span<const RunAccess> run, double earliest_start);

  /// What submit_run_while committed: how many leading reads of the run
  /// entered service and when the last of them completes.
  struct RunWhile {
    std::size_t submitted = 0;
    double end = 0.0;
  };
  /// Conditional-prefix read run for event-batched queue drains: up to
  /// `count` reads back to back, each starting no earlier than
  /// `earliest_start`, whose slots `next_slot()` yields in order. The
  /// first read enters service unconditionally (its dispatch is already
  /// committed in the one-event-per-op world; a future arrival cannot
  /// preempt an access that has entered service); each later read only
  /// while the previous completion lands strictly before `stop_before`
  /// — the simulated moment something else (e.g. the next user arrival)
  /// could preempt the drain. `next_slot` is called once for each read
  /// that enters service and never for the rest, so a caller's cursor
  /// ends just past the submitted prefix. Timing, head movement, and
  /// counters are bit-identical to per-read submit() calls for that
  /// prefix. Precondition: can_batch().
  template <typename NextSlot>
  RunWhile submit_run_while(std::size_t count, NextSlot&& next_slot,
                            double earliest_start, double stop_before);

  /// Service time the next access to `slot` would incur (no state
  /// change); used by planners that want cost estimates.
  double peek_service_s(IoKind kind, std::int64_t slot) const;

  double busy_until() const { return busy_until_; }
  const DiskCounters& counters() const { return counters_; }

  /// Forget head position and timeline (new experiment), keep contents.
  void reset_timeline();
  /// Zero counters only.
  void reset_counters();

  /// Attach an observability sink: every submitted access emits a
  /// service_start/service_end event pair and a fail-stop that
  /// manifests in submit() emits a failure event. Null (the default)
  /// disables the hook — one branch per access, no other cost.
  void set_observer(obs::Observer* observer) { observer_ = observer; }
  obs::Observer* observer() const { return observer_; }

  // --- content ----------------------------------------------------------
  /// Mutable bytes of one slot. The first call on a disk allocates its
  /// whole store (see the header note), filled with what every slot
  /// held until then. A span from the const overload taken before that
  /// call points into the replaced fill element and must not be used
  /// after it.
  std::span<std::uint8_t> content(std::int64_t slot);
  /// Read-only bytes of one slot; never allocates. Before the store is
  /// materialized every slot reads the same fill bytes: zeros, or 0xDB
  /// after fail().
  std::span<const std::uint8_t> content(std::int64_t slot) const;
  /// True once the store holds every slot's bytes (always, for a
  /// one-slot disk).
  bool content_materialized() const {
    return store_.size() ==
           static_cast<std::size_t>(slot_count_) * content_bytes_;
  }

  // --- fault injection --------------------------------------------------
  /// Install a fault profile: samples the latent-slot set (from
  /// profile.seed mixed with the disk id) and arms the scheduled
  /// fail-stop. Replaces any prior profile.
  void set_fault_profile(const FaultProfile& profile);
  const FaultProfile& fault_profile() const { return fault_; }

  /// True when `slot` currently carries a latent unreadable sector.
  bool slot_unreadable(std::int64_t slot) const {
    return latent_count_ > 0 && latent_[static_cast<std::size_t>(slot)];
  }
  /// Remap (clear) a latent sector — what a successful write does; also
  /// used by scrub when it rewrites an unreadable copy in place.
  void clear_latent(std::int64_t slot);
  std::int64_t latent_slot_count() const { return latent_count_; }

  // --- failure ----------------------------------------------------------
  bool failed() const { return failed_; }
  /// Marks the disk failed and scrambles its contents (a failed disk's
  /// data must never be readable by accident). On a disk whose store is
  /// not yet materialized this scrambles only the fill element:
  /// O(content_bytes), and every slot then reads 0xDB.
  void fail();
  /// Install recovered bytes for one slot of a failed disk (a mutable
  /// access: materializes the store). heal()
  /// requires every slot restored first — a healed disk must never
  /// serve the post-fail() scramble pattern.
  void restore_content(std::int64_t slot, std::span<const std::uint8_t> bytes);
  /// True once every slot has been restored since the last fail().
  bool fully_restored() const { return restored_count_ == slot_count_; }
  /// True when `slot` has been restored since the last fail(); the
  /// replacement disk serves restored slots even before heal().
  bool slot_restored(std::int64_t slot) const {
    return restored_count_ > 0 && restored_[static_cast<std::size_t>(slot)];
  }
  /// Un-restore one slot of a failed disk: a crash garbled a rebuild
  /// write that restore_content() had already accounted, so the slot
  /// must be rebuilt again before heal() can succeed.
  void clear_restored(std::int64_t slot);
  /// Returns the (fully restored) disk to service, modeling a
  /// replacement: the latent-slot set is discarded and the scheduled
  /// fail-stop is disarmed. kFailedPrecondition when the disk never
  /// failed or is only partially restored — a misuse the repair
  /// orchestrator treats as a recoverable bug, not a process abort.
  Status heal();

 private:
  int id_;
  DiskSpec spec_;
  std::int64_t slot_count_;
  std::size_t content_bytes_;
  std::uint64_t logical_element_bytes_;

  double busy_until_ = 0.0;
  std::int64_t head_slot_ = -2;  // -2: unknown position (first op seeks)
  bool failed_ = false;
  obs::Observer* observer_ = nullptr;
  DiskCounters counters_;
  /// Every slot's bytes once materialized; before that, one element of
  /// fill bytes shared by all slots.
  std::vector<std::uint8_t> store_;

  // Fault state. All vectors stay empty (zero cost) until a non-inert
  // profile is installed / the disk first fails.
  FaultProfile fault_;
  Rng fault_rng_{0};
  bool fail_stop_armed_ = false;
  std::vector<bool> latent_;
  std::int64_t latent_count_ = 0;
  std::vector<bool> restored_;
  std::int64_t restored_count_ = 0;
};

template <typename NextSlot>
SimDisk::RunWhile SimDisk::submit_run_while(std::size_t count,
                                            NextSlot&& next_slot,
                                            double earliest_start,
                                            double stop_before) {
  assert(can_batch() && "submit_run_while requires the batchable fast path");
  if (count == 0) return {0, busy_until_};
  // The two read entries of submit_run()'s hoisted service table — see
  // the bit-identity note there.
  const double read_tr = spec_.read_transfer_s(logical_element_bytes_);
  const double svc[2] = {(spec_.positioning_s() + read_tr) * fault_.slow_factor,
                         read_tr * fault_.slow_factor};
  double busy = busy_until_;
  // One service at a time, in read order: floating-point addition is
  // not associative.
  double busy_s = counters_.busy_s;
  std::int64_t head = head_slot_;
  std::uint64_t sequential_ops = 0;
  std::size_t n = 0;
  do {
    const std::int64_t slot = next_slot();
    assert(slot >= 0 && slot < slot_count_);
    const bool sequential = slot == head + 1;
    const double service = svc[sequential];
    const double start = busy < earliest_start ? earliest_start : busy;
    busy = start + service;
    busy_s += service;
    head = slot;
    sequential_ops += sequential;
    ++n;
    // `busy` is now this read's completion: the next read enters service
    // only if the drain is still unpreempted at that moment.
  } while (n < count && busy < stop_before);
  busy_until_ = busy;
  head_slot_ = head;
  counters_.busy_s = busy_s;
  counters_.reads += n;
  counters_.sequential += sequential_ops;
  counters_.logical_bytes_read += n * logical_element_bytes_;
  return {n, busy};
}

}  // namespace sma::disk
