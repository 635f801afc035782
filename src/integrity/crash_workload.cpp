#include "integrity/crash_workload.hpp"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "gf/region.hpp"

namespace sma::integrity {

namespace {

std::uint64_t request_seed(std::uint64_t base, int request) {
  std::uint64_t s =
      base ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(request) + 1));
  return splitmix64(s);
}

}  // namespace

Result<CrashWorkloadReport> run_crash_workload(array::DiskArray& arr,
                                               const CrashWorkloadConfig& cfg) {
  const auto& arch = arr.arch();
  if (!arch.is_mirror())
    return invalid_argument("crash workload supports the mirror architectures");
  // Each request writes the data copy and one replica (resync's pairs).
  if (arch.replicas() != 1)
    return invalid_argument(
        "crash workload writes pairs: one replica array only");
  if (cfg.requests <= 0) return invalid_argument("requests must be positive");
  if (arr.crashed())
    return failed_precondition("crash workload on a powered-off array");

  CrashWorkloadReport report;
  std::uint64_t seed_state = cfg.seed;
  Rng rng(splitmix64(seed_state));
  const std::size_t eb = arr.config().content_bytes;
  std::vector<std::uint8_t> fresh(eb);
  std::vector<std::uint8_t> delta(eb);

  for (int req = 0; req < cfg.requests; ++req) {
    const int i = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(arch.n())));
    const int s = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(arr.stripes())));
    const int j = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(arch.rows())));
    const int dd = arch.data_disk(i);
    const layout::Pos rp = arch.replica_of(1, i, j);

    fill_pattern(request_seed(cfg.seed, req), fresh.data(), fresh.size());

    // Apply the request's bytes to contents first, then time the writes:
    // if the crash fires inside this batch, execute() garbles exactly
    // the slots whose writes never completed.
    auto data = arr.content(dd, s, j);
    if (arch.has_parity()) {
      // Parity delta: parity ^= old ^ new.
      std::copy(data.begin(), data.end(), delta.begin());
      gf::region_xor(fresh, delta);
      gf::region_xor(delta, arr.content(arch.parity_disk(), s, j));
    }
    std::copy(fresh.begin(), fresh.end(), data.begin());
    auto mirror = arr.content(rp.disk, s, rp.row);
    std::copy(fresh.begin(), fresh.end(), mirror.begin());
    if (arr.checksums_enabled()) {
      arr.update_element_checksum(dd, s, j);
      arr.update_element_checksum(rp.disk, s, rp.row);
      if (arch.has_parity())
        arr.update_element_checksum(arch.parity_disk(), s, j);
    }

    std::vector<array::Op> ops;
    ops.push_back({dd, s, j, disk::IoKind::kWrite});
    ops.push_back({rp.disk, s, rp.row, disk::IoKind::kWrite});
    if (arch.has_parity())
      ops.push_back({arch.parity_disk(), s, j, disk::IoKind::kWrite});

    const auto stats = arr.execute(ops, 0.0);
    ++report.requests_issued;
    report.element_writes += ops.size();
    report.lost_writes += stats.lost_writes;
    report.makespan_s = std::max(report.makespan_s, stats.end_s);
    if (stats.crashed) {
      report.crashed = true;
      report.crash_t_s = arr.crash_time_s();
      break;
    }
    if (cfg.quiesce_every > 0 && (req + 1) % cfg.quiesce_every == 0)
      arr.dirty_log().clear_all();
  }
  report.dirty_regions = arr.dirty_log().dirty_count();
  return report;
}

Result<std::vector<InjectedCorruption>> inject_silent_corruption(
    array::DiskArray& arr, Rng& rng, int count, SilentCorruption kind) {
  const auto& arch = arr.arch();
  if (count < 0 || count > arr.stripes())
    return invalid_argument(
        "corruption count must be in [0, stripes]: one distinct stripe per "
        "injection keeps every corruption repairable");
  if (!arr.failed_physical().empty())
    return failed_precondition("inject_silent_corruption on a degraded array");
  if (kind != SilentCorruption::kBitRot) {
    if (!arch.is_mirror() || arch.replicas() != 1)
      return invalid_argument(
          "lost/misdirected writes need a mirror with one replica array");
    if (!arr.checksums_enabled())
      return failed_precondition(
          "lost/misdirected writes are checksum-vs-content divergences; "
          "enable ArrayConfig::checksums");
  }

  std::vector<InjectedCorruption> injected;
  std::set<int> used_stripes;
  const std::size_t eb = arr.config().content_bytes;
  std::vector<std::uint8_t> fresh(eb);
  std::vector<std::uint8_t> old(eb);
  std::vector<std::uint8_t> delta(eb);
  int guard = 0;
  while (static_cast<int>(injected.size()) <
             (kind == SilentCorruption::kMisdirectedWrite ? 2 * count : count) &&
         ++guard < 100000) {
    const int s = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(arr.stripes())));
    if (used_stripes.count(s) > 0) continue;
    const int j = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(arch.rows())));

    if (kind == SilentCorruption::kBitRot) {
      const int logical = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(arch.total_disks())));
      auto elem = arr.content(logical, s, j);
      const std::size_t at = static_cast<std::size_t>(rng.next_below(eb));
      elem[at] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
      used_stripes.insert(s);
      injected.push_back({kind, logical, s, j});
      continue;
    }

    const int i = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(arch.n())));
    const int dd = arch.data_disk(i);
    const layout::Pos rp = arch.replica_of(1, i, j);
    auto data = arr.content(dd, s, j);
    std::copy(data.begin(), data.end(), old.begin());
    fill_pattern(rng.next_u64(), fresh.data(), fresh.size());

    if (kind == SilentCorruption::kLostWrite) {
      // The request reached the replica and the parity, and was acked —
      // but the data-copy write never hit media. Stored checksum says
      // `fresh`, media still holds `old`.
      auto mirror = arr.content(rp.disk, s, rp.row);
      std::copy(fresh.begin(), fresh.end(), mirror.begin());
      arr.update_element_checksum(rp.disk, s, rp.row);
      if (arch.has_parity()) {
        std::copy(old.begin(), old.end(), delta.begin());
        gf::region_xor(fresh, delta);
        gf::region_xor(delta, arr.content(arch.parity_disk(), s, j));
        arr.update_element_checksum(arch.parity_disk(), s, j);
      }
      std::copy(fresh.begin(), fresh.end(), data.begin());
      arr.update_element_checksum(dd, s, j);  // the ack covers the intent
      std::copy(old.begin(), old.end(), data.begin());  // ...media disagrees
      used_stripes.insert(s);
      injected.push_back({kind, dd, s, j});
      continue;
    }

    // Misdirected: the data-copy write landed one slot over on the same
    // physical disk, clobbering whatever lived there. Two divergences:
    // the starved target (checksum=fresh, content=old) and the
    // clobbered neighbor (content=fresh under its own checksum).
    const int phys = arr.physical_disk(dd, s);
    const std::int64_t sl = arr.slot(s, j);
    const std::int64_t nsl =
        sl + 1 < arr.physical(phys).slot_count() ? sl + 1 : sl - 1;
    const int ns = static_cast<int>(nsl / arch.rows());
    const int nj = static_cast<int>(nsl % arch.rows());
    if (ns != s && used_stripes.count(ns) > 0) continue;
    const int nlogical = arr.logical_disk(phys, ns);
    // Keep each injection independently repairable: the neighbor must
    // not be the victim's own replica or parity input row mate.
    if (ns == s && (nlogical == rp.disk || nlogical == dd)) continue;

    auto mirror = arr.content(rp.disk, s, rp.row);
    std::copy(fresh.begin(), fresh.end(), mirror.begin());
    arr.update_element_checksum(rp.disk, s, rp.row);
    if (arch.has_parity()) {
      std::copy(old.begin(), old.end(), delta.begin());
      gf::region_xor(fresh, delta);
      gf::region_xor(delta, arr.content(arch.parity_disk(), s, j));
      arr.update_element_checksum(arch.parity_disk(), s, j);
    }
    std::copy(fresh.begin(), fresh.end(), data.begin());
    arr.update_element_checksum(dd, s, j);
    std::copy(old.begin(), old.end(), data.begin());
    auto neighbor = arr.physical(phys).content(nsl);
    std::copy(fresh.begin(), fresh.end(), neighbor.begin());
    used_stripes.insert(s);
    used_stripes.insert(ns);
    injected.push_back({kind, dd, s, j});
    injected.push_back({kind, nlogical, ns, nj});
  }
  if (static_cast<int>(injected.size()) <
      (kind == SilentCorruption::kMisdirectedWrite ? 2 * count : count))
    return internal_error("could not place the requested corruption count");
  return injected;
}

}  // namespace sma::integrity
