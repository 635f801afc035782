// Array lifecycle state machine — failures as a managed lifecycle.
//
// The paper's availability argument is about the window between a
// failure and the end of its rebuild; this module names the states of
// that window and polices the transitions between them:
//
//           +--> spare-exhausted --+
//           |                      v
//   healthy --> degraded --> rebuilding --> healthy
//       |           |            |
//       v           v            v
//       |        critical --> data-loss   (terminal)
//       +--> inconsistent --> resyncing --> healthy
//              (crash)         (resync)
//
// The state is *derived*, never set directly: classify() computes it
// from the failed-disk set (exact recoverability via the
// recon::is_recoverable oracle), whether a rebuild is in flight, and
// whether the spare pool can serve the next repair. "critical" means
// at least one further single-disk failure would lose data — for a
// plain mirror that is already the first failure (the paper's whole
// point); tolerance-2 architectures visit "degraded" first.
//
// Lifecycle wraps classify() with event bookkeeping: every transition
// is recorded in history() and emitted as a typed obs kStateChange
// trace event, and malformed event sequences (failing a failed disk,
// completing a repair that never started, any event after data loss)
// return a Status instead of corrupting the machine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "layout/architecture.hpp"
#include "obs/observer.hpp"
#include "recon/reliability.hpp"
#include "util/status.hpp"

namespace sma::repair {

enum class ArrayState : std::uint8_t {
  kHealthy = 0,
  kDegraded = 1,
  kRebuilding = 2,
  kCritical = 3,
  kSpareExhausted = 4,
  kDataLoss = 5,
  // Crash-consistency states (appended so the integer values carried by
  // existing kStateChange traces stay stable). "inconsistent" = a power
  // loss interrupted writes, so mirror copies may silently diverge
  // until a resync runs; "resyncing" = that resync is in flight.
  kInconsistent = 6,
  kResyncing = 7,
};

/// Stable lowercase name ("healthy", "data_loss", ...). Inline so the
/// recon layer can use it without linking sma_repair.
inline const char* to_string(ArrayState state) {
  switch (state) {
    case ArrayState::kHealthy: return "healthy";
    case ArrayState::kDegraded: return "degraded";
    case ArrayState::kRebuilding: return "rebuilding";
    case ArrayState::kCritical: return "critical";
    case ArrayState::kSpareExhausted: return "spare_exhausted";
    case ArrayState::kDataLoss: return "data_loss";
    case ArrayState::kInconsistent: return "inconsistent";
    case ArrayState::kResyncing: return "resyncing";
  }
  return "unknown";
}

/// Derive the lifecycle state from first principles. `failed` is the
/// physical failed-disk set (architecture numbering), `rebuilding` is
/// whether any repair is in flight, `spare_starved` whether a needed
/// repair is waiting on an empty spare pool, `inconsistent` whether a
/// crash left (potentially) divergent copies that have not been
/// resynced, `resyncing` whether that resync is running. Severity wins:
/// data loss over critical over the crash-consistency states over the
/// repair-progress states. The trailing parameters default to false so
/// pre-crash-model call sites keep compiling unchanged.
inline ArrayState classify(const layout::Architecture& arch,
                           const std::vector<int>& failed, bool rebuilding,
                           bool spare_starved, bool inconsistent = false,
                           bool resyncing = false) {
  if (failed.empty()) {
    if (resyncing) return ArrayState::kResyncing;
    if (inconsistent) return ArrayState::kInconsistent;
    return ArrayState::kHealthy;
  }
  // Any fault_tolerance() disks are recoverable for every kind (RAID-5/6
  // are MDS, R replica arrays keep R + 1 copies on distinct disks, and
  // a mirror with parity admits only layouts that survive every second
  // failure), so a set short of it is neither lost nor one failure
  // from loss, and needs no oracle call.
  if (static_cast<int>(failed.size()) >= arch.fault_tolerance()) {
    if (!recon::is_recoverable(arch, failed)) return ArrayState::kDataLoss;
    auto is_failed = [&](int d) {
      for (const int f : failed)
        if (f == d) return true;
      return false;
    };
    // One candidate set for every surviving disk: `failed` plus a last
    // slot that the loop overwrites.
    std::vector<int> next = failed;
    next.push_back(-1);
    for (int d = 0; d < arch.total_disks(); ++d) {
      if (is_failed(d)) continue;
      next.back() = d;
      if (!recon::is_recoverable(arch, next)) return ArrayState::kCritical;
    }
  }
  if (resyncing) return ArrayState::kResyncing;
  if (inconsistent) return ArrayState::kInconsistent;
  if (spare_starved) return ArrayState::kSpareExhausted;
  return rebuilding ? ArrayState::kRebuilding : ArrayState::kDegraded;
}

/// The lifecycle event behind a recorded transition.
enum class Cause : std::uint8_t {
  kFailure,
  kRepairStart,
  kRepairComplete,
  kSpareExhausted,
  kSpareAvailable,
  kCrash,
  kResyncStart,
  kResyncComplete,
};

/// One recorded lifecycle transition.
struct Transition {
  double t_s = 0.0;
  ArrayState from = ArrayState::kHealthy;
  ArrayState to = ArrayState::kHealthy;
  Cause cause = Cause::kFailure;
  /// The disk a failure or repair event names; -1 for the others.
  int disk = -1;
};

/// The transition's cause as text ("failure of disk 3", "resync
/// start"), formatted on demand.
std::string reason(const Transition& t);

class Lifecycle {
 public:
  explicit Lifecycle(layout::Architecture arch, obs::Attach observer = {});

  ArrayState state() const { return state_; }
  bool terminal() const { return state_ == ArrayState::kDataLoss; }
  const std::vector<int>& failed() const { return failed_; }
  const std::vector<int>& repairing() const { return repairing_; }
  const std::vector<Transition>& history() const { return history_; }

  // --- events (each reclassifies; invalid sequences return a Status) ---
  /// A disk died. Reaching an unrecoverable set transitions to the
  /// terminal kDataLoss state (and is itself a *valid* event).
  Status on_failure(double t_s, int disk);
  /// A repair of `disk` began (spare allocated, rebuild I/O running).
  Status on_repair_start(double t_s, int disk);
  /// The repair of `disk` finished: the disk rejoins the array.
  Status on_repair_complete(double t_s, int disk);
  /// A needed repair found the spare pool empty / replenished again.
  Status on_spare_exhausted(double t_s);
  Status on_spare_available(double t_s);
  /// A power loss interrupted in-flight writes: copies may silently
  /// diverge until a resync runs. Valid in any non-terminal state; a
  /// crash *during* a resync cancels that resync (the array is back to
  /// plain inconsistent).
  Status on_crash(double t_s);
  /// Resync began; requires a crash-inconsistent array.
  Status on_resync_start(double t_s);
  /// Resync finished: copies agree again; requires a resync in flight.
  Status on_resync_complete(double t_s);

 private:
  Status reclassify(double t_s, Cause cause, int disk = -1);

  layout::Architecture arch_;
  obs::Attach observer_;
  ArrayState state_ = ArrayState::kHealthy;
  std::vector<int> failed_;
  std::vector<int> repairing_;
  bool spare_starved_ = false;
  bool inconsistent_ = false;
  bool resyncing_ = false;
  std::vector<Transition> history_;
};

}  // namespace sma::repair
