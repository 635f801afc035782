// Property/fuzz test for the repair lifecycle state machine: seeded
// random event sequences — valid and malformed alike — are thrown at a
// Lifecycle while a shadow model tracks what each event *should* do.
// Invariants: a call is accepted exactly when its documented
// precondition holds, a rejected call never mutates the machine, the
// state always equals classify() over the shadow model, malformed
// sequences return a Status (never abort), and the recorded history is
// time-monotonic with its tail equal to the current state.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "repair/lifecycle.hpp"
#include "util/rng.hpp"

namespace sma::repair {
namespace {

/// The documented precondition/transition rules, restated independently
/// so the test fails if Lifecycle drifts from its contract.
struct ShadowModel {
  explicit ShadowModel(layout::Architecture a) : arch(std::move(a)) {}

  layout::Architecture arch;
  std::vector<int> failed;
  std::vector<int> repairing;
  bool spare_starved = false;
  bool inconsistent = false;
  bool resyncing = false;

  bool contains(const std::vector<int>& v, int x) const {
    for (const int e : v)
      if (e == x) return true;
    return false;
  }
  ArrayState state() const {
    return classify(arch, failed, !repairing.empty(), spare_starved,
                    inconsistent, resyncing);
  }
  bool terminal() const { return state() == ArrayState::kDataLoss; }
};

enum class Ev {
  kFailure,
  kRepairStart,
  kRepairComplete,
  kSpareExhausted,
  kSpareAvailable,
  kCrash,
  kResyncStart,
  kResyncComplete,
};

/// Whether the event is valid in the shadow state, per the contract.
bool expect_valid(const ShadowModel& m, Ev ev, int disk) {
  if (m.terminal()) return false;
  switch (ev) {
    case Ev::kFailure:
      return disk >= 0 && disk < m.arch.total_disks() &&
             !m.contains(m.failed, disk);
    case Ev::kRepairStart:
      return m.contains(m.failed, disk) && !m.contains(m.repairing, disk);
    case Ev::kRepairComplete:
      return m.contains(m.repairing, disk);
    case Ev::kSpareExhausted:
    case Ev::kSpareAvailable:
    case Ev::kCrash:
      return true;
    case Ev::kResyncStart:
      return m.inconsistent && !m.resyncing;
    case Ev::kResyncComplete:
      return m.resyncing;
  }
  return false;
}

/// Apply an accepted event to the shadow state.
void apply(ShadowModel& m, Ev ev, int disk) {
  switch (ev) {
    case Ev::kFailure:
      m.failed.push_back(disk);
      break;
    case Ev::kRepairStart:
      m.repairing.push_back(disk);
      m.spare_starved = false;
      break;
    case Ev::kRepairComplete:
      for (auto& v : {&m.failed, &m.repairing})
        v->erase(std::remove(v->begin(), v->end(), disk), v->end());
      break;
    case Ev::kSpareExhausted:
      m.spare_starved = true;
      break;
    case Ev::kSpareAvailable:
      m.spare_starved = false;
      break;
    case Ev::kCrash:
      m.inconsistent = true;
      m.resyncing = false;  // a crash mid-resync cancels that resync
      break;
    case Ev::kResyncStart:
      m.resyncing = true;
      break;
    case Ev::kResyncComplete:
      m.resyncing = false;
      m.inconsistent = false;
      break;
  }
}

Status fire(Lifecycle& lc, Ev ev, double t, int disk) {
  switch (ev) {
    case Ev::kFailure: return lc.on_failure(t, disk);
    case Ev::kRepairStart: return lc.on_repair_start(t, disk);
    case Ev::kRepairComplete: return lc.on_repair_complete(t, disk);
    case Ev::kSpareExhausted: return lc.on_spare_exhausted(t);
    case Ev::kSpareAvailable: return lc.on_spare_available(t);
    case Ev::kCrash: return lc.on_crash(t);
    case Ev::kResyncStart: return lc.on_resync_start(t);
    case Ev::kResyncComplete: return lc.on_resync_complete(t);
  }
  return internal_error("unknown event");
}

TEST(LifecycleFuzz, RandomSequencesMatchTheShadowModel) {
  const auto arch = layout::Architecture::mirror_with_parity(3, true);
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed * 977);
    Lifecycle lc(arch);
    ShadowModel shadow(arch);
    double t = 0.0;
    for (int step = 0; step < 80; ++step) {
      t += 0.5;
      const Ev ev = static_cast<Ev>(rng.next_below(8));
      // Mostly in-range disks (to reach deep states), occasionally a
      // nonsense id to probe the validation path.
      const int disk = rng.next_bool(0.9)
                           ? static_cast<int>(rng.next_below(
                                 static_cast<std::uint64_t>(
                                     arch.total_disks())))
                           : arch.total_disks() + 3;
      const bool want_ok = expect_valid(shadow, ev, disk);
      const Status st = fire(lc, ev, t, disk);
      ASSERT_EQ(st.is_ok(), want_ok)
          << "seed " << seed << " step " << step << " ev "
          << static_cast<int>(ev) << " disk " << disk << ": "
          << st.to_string();
      if (want_ok) apply(shadow, ev, disk);
      // A rejected event must not have mutated anything, an accepted
      // one must land exactly where the contract says.
      ASSERT_EQ(lc.state(), shadow.state())
          << "seed " << seed << " step " << step;
      ASSERT_EQ(lc.terminal(), shadow.terminal());
      ASSERT_EQ(lc.failed().size(), shadow.failed.size());
      ASSERT_EQ(lc.repairing().size(), shadow.repairing.size());
      // The state integer stays inside the enum's range.
      const int s = static_cast<int>(lc.state());
      ASSERT_GE(s, 0);
      ASSERT_LE(s, static_cast<int>(ArrayState::kResyncing));
    }
    // History invariants: time-monotonic, contiguous from->to chain
    // starting at healthy and ending at the current state.
    const auto& h = lc.history();
    ArrayState prev = ArrayState::kHealthy;
    double prev_t = 0.0;
    for (const Transition& tr : h) {
      EXPECT_GE(tr.t_s, prev_t);
      EXPECT_EQ(tr.from, prev);
      EXPECT_NE(tr.from, tr.to);  // only real changes are recorded
      EXPECT_FALSE(reason(tr).empty());
      prev = tr.to;
      prev_t = tr.t_s;
    }
    EXPECT_EQ(prev, lc.state());
  }
}

TEST(LifecycleFuzz, MalformedSequencesReturnStatusNeverAbort) {
  const auto arch = layout::Architecture::mirror_with_parity(3, true);
  Lifecycle lc(arch);
  // Every precondition violation is a Status, and none of them moves
  // the machine off healthy.
  EXPECT_EQ(lc.on_repair_start(1.0, 0).code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(lc.on_repair_complete(1.0, 0).code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(lc.on_resync_start(1.0).code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(lc.on_resync_complete(1.0).code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(lc.on_failure(1.0, -1).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(lc.on_failure(1.0, arch.total_disks()).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(lc.state(), ArrayState::kHealthy);
  EXPECT_TRUE(lc.history().empty());

  // Double-failure of one disk without an intervening repair.
  ASSERT_TRUE(lc.on_failure(2.0, 1).is_ok());
  EXPECT_EQ(lc.on_failure(2.5, 1).code(), ErrorCode::kFailedPrecondition);
  // Double-start of one repair.
  ASSERT_TRUE(lc.on_repair_start(3.0, 1).is_ok());
  EXPECT_EQ(lc.on_repair_start(3.5, 1).code(),
            ErrorCode::kFailedPrecondition);
  // Crash cancels an in-flight resync; completing it afterward is stale.
  ASSERT_TRUE(lc.on_crash(4.0).is_ok());
  ASSERT_TRUE(lc.on_resync_start(4.5).is_ok());
  ASSERT_TRUE(lc.on_crash(5.0).is_ok());
  EXPECT_EQ(lc.on_resync_complete(5.5).code(),
            ErrorCode::kFailedPrecondition);
}

}  // namespace
}  // namespace sma::repair
