// Death tests: the library's checked invariants must actually fire.
// These only run when asserts are active, which the build keeps on in
// every configuration (see the top-level CMakeLists).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "array/disk_array.hpp"
#include "disk/sim_disk.hpp"
#include "ec/buffer.hpp"
#include "layout/architecture.hpp"

namespace sma {
namespace {

#ifndef NDEBUG

// I/O to a failed disk and out-of-range slots are *not* invariant
// violations anymore: submit() reports them through IoResult so fault
// injection works in release builds too (see disk_sim_disk_test.cpp).

TEST(InvariantDeath, OutOfRangeContentAborts) {
  disk::SimDisk d(0, disk::DiskSpec::savvio_10k3(), 4, 16, 1000);
  EXPECT_DEATH(d.content(-1), "slot");
}

// heal() misuse is no longer a process abort either: it returns
// kFailedPrecondition so the repair orchestrator can treat a bad heal
// as a recoverable error (see disk_sim_disk_test.cpp,
// SimDisk.HealMisuseReturnsStatus).

TEST(InvariantDeath, RestoreContentOnHealthyDiskAborts) {
  disk::SimDisk d(0, disk::DiskSpec::savvio_10k3(), 2, 16, 1000);
  const std::vector<std::uint8_t> bytes(16, 0x5A);
  EXPECT_DEATH(d.restore_content(0, bytes), "failed disk");
}

TEST(InvariantDeath, ColumnSetOutOfRangeAborts) {
  ec::ColumnSet cs(2, 2, 8);
  EXPECT_DEATH(cs.element(2, 0), "col");
  EXPECT_DEATH(cs.element(0, 2), "row");
}

TEST(InvariantDeath, MirrorAccessorsOnRaidAbort) {
  const auto raid = layout::Architecture::raid5(3);
  EXPECT_DEATH(raid.replica_disk(1, 0), "is_mirror");
  EXPECT_DEATH(raid.replica_of(1, 0, 0), "is_mirror");
}

TEST(InvariantDeath, ParityAccessorWithoutParityAborts) {
  const auto mirror = layout::Architecture::mirror(3, true);
  EXPECT_DEATH(mirror.parity_disk(), "has_parity");
}

#else
TEST(InvariantDeath, SkippedWithoutAsserts) { GTEST_SKIP(); }
#endif

}  // namespace
}  // namespace sma
