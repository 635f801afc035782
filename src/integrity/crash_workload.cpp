#include "integrity/crash_workload.hpp"

#include <algorithm>
#include <set>
#include <vector>

namespace sma::integrity {

namespace {

std::uint64_t request_seed(std::uint64_t base, int request) {
  std::uint64_t s =
      base ^
      (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(request) + 1));
  return splitmix64(s);
}

}  // namespace

Result<CrashWorkloadReport> run_crash_workload(array::DiskArray& arr,
                                               const CrashWorkloadConfig& cfg) {
  const auto& arch = arr.arch();
  if (!arch.is_mirror())
    return invalid_argument("crash workload supports the mirror architectures");
  if (cfg.requests <= 0) return invalid_argument("requests must be positive");
  if (arr.crashed())
    return failed_precondition("crash workload on a powered-off array");

  CrashWorkloadReport report;
  std::uint64_t seed_state = cfg.seed;
  Rng rng(splitmix64(seed_state));
  const std::size_t eb = arr.config().content_bytes;
  std::vector<std::uint8_t> fresh(eb);
  std::vector<array::Op> ops;

  for (int req = 0; req < cfg.requests; ++req) {
    const int i = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(arch.n())));
    const int s = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(arr.stripes())));
    const int j = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(arch.rows())));

    fill_pattern(request_seed(cfg.seed, req), fresh.data(), fresh.size());

    // Apply the request's bytes to contents first, then time the writes
    // (every copy, then parity): if the crash fires inside this batch,
    // execute() garbles exactly the slots whose writes never completed.
    SMA_RETURN_IF_ERROR(arr.write_data_element(i, s, j, fresh));
    ops.clear();
    for (int c = 0; c <= arch.replicas(); ++c) {
      const layout::Pos at = arch.copy_of(c, i, j);
      ops.push_back({at.disk, s, at.row, disk::IoKind::kWrite});
    }
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
    if (!arch.is_mirror())
      return invalid_argument("lost/misdirected writes need a mirror");
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
  int guard = 0;
  const int wanted =
      kind == SilentCorruption::kMisdirectedWrite ? 2 * count : count;
  while (static_cast<int>(injected.size()) < wanted && ++guard < 100000) {
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

    // Both modes ack a write of `fresh` to a(i, j) — every copy, the
    // parity delta and the checksums land — but the data-copy write
    // itself never reaches its slot: the media keeps `old` under the
    // fresh checksum.
    const int i = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(arch.n())));
    const int dd = arch.data_disk(i);
    auto data = arr.content(dd, s, j);
    std::copy(data.begin(), data.end(), old.begin());
    fill_pattern(rng.next_u64(), fresh.data(), fresh.size());

    if (kind == SilentCorruption::kLostWrite) {
      SMA_RETURN_IF_ERROR(arr.write_data_element(i, s, j, fresh));
      std::copy(old.begin(), old.end(), data.begin());
      used_stripes.insert(s);
      injected.push_back({kind, dd, s, j});
      continue;
    }

    // Misdirected: the data-copy write landed one slot over on the same
    // physical disk, clobbering whatever lived there. Two divergences:
    // the starved target (checksum=fresh, content=old) and the
    // clobbered neighbor (content=fresh under its own checksum). Keep
    // each injection independently repairable: the neighbor must lie
    // outside the victim's stripe, which holds every copy of the victim
    // and its parity row, and outside every stripe injected so far.
    const int phys = arr.physical_disk(dd, s);
    const std::int64_t sl = arr.slot(s, j);
    const std::int64_t nsl =
        sl + 1 < arr.physical(phys).slot_count() ? sl + 1 : sl - 1;
    const int ns = static_cast<int>(nsl / arch.rows());
    const int nj = static_cast<int>(nsl % arch.rows());
    if (ns == s || used_stripes.count(ns) > 0) continue;
    const int nlogical = arr.logical_disk(phys, ns);

    SMA_RETURN_IF_ERROR(arr.write_data_element(i, s, j, fresh));
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
