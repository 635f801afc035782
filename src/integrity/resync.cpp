#include "integrity/resync.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "gf/region.hpp"

namespace sma::integrity {

namespace {

bool equal_spans(std::span<const std::uint8_t> a,
                 std::span<const std::uint8_t> b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

}  // namespace

Result<ResyncReport> resync(array::DiskArray& arr, const ResyncOptions& opts) {
  const auto& arch = arr.arch();
  if (!arch.is_mirror())
    return invalid_argument("resync supports the mirror architectures");
  // Reconciliation compares the data copy with one replica.
  if (arch.replicas() != 1)
    return invalid_argument("resync reconciles pairs: one replica array only");
  if (arr.crashed())
    return failed_precondition("resync on a powered-off array; power_cycle() first");

  auto& drl = arr.dirty_log();
  ResyncReport report;

  // The stripe set to reconcile: dirty regions per the log, or every
  // stripe when the log is absent/distrusted (full resync). Without a
  // DRL the whole array is one implicit region.
  std::vector<std::pair<int, std::pair<int, int>>> regions;  // (id, [b,e))
  if (drl.enabled()) {
    report.regions_total = drl.regions();
    for (int r = 0; r < drl.regions(); ++r)
      if (opts.full || drl.dirty(r))
        regions.push_back({r, {drl.region_begin(r), drl.region_end(r)}});
  } else {
    report.regions_total = 1;
    regions.push_back({0, {0, arr.stripes()}});
  }
  report.regions_scanned = static_cast<int>(regions.size());

  obs::Observer* ob = opts.observer.get();
  const int n = arch.n();
  auto disk_live = [&](int logical, int s) {
    return !arr.physical(arr.physical_disk(logical, s)).failed();
  };

  // Phase 1 (timed): stream both copies of every pair — and the parity
  // element — of every suspect stripe.
  std::vector<array::Op> reads;
  for (const auto& [r, range] : regions) {
    (void)r;
    for (int s = range.first; s < range.second; ++s) {
      for (int i = 0; i < n; ++i) {
        const int dd = arch.data_disk(i);
        for (int j = 0; j < arch.rows(); ++j) {
          const layout::Pos rp = arch.replica_of(1, i, j);
          if (!disk_live(dd, s) || !disk_live(rp.disk, s)) continue;
          reads.push_back({dd, s, j, disk::IoKind::kRead});
          reads.push_back({rp.disk, s, rp.row, disk::IoKind::kRead});
        }
      }
      if (arch.has_parity() && disk_live(arch.parity_disk(), s))
        for (int j = 0; j < arch.rows(); ++j)
          reads.push_back({arch.parity_disk(), s, j, disk::IoKind::kRead});
    }
  }
  arr.reset_timelines();
  const auto read_stats = arr.execute(reads, 0.0);
  report.elements_read = reads.size();
  report.logical_bytes_read = read_stats.logical_bytes_read;
  report.makespan_s = read_stats.elapsed_s();

  // Phase 2: reconcile contents, collecting the repair writes to time.
  std::vector<array::Op> writes;
  const std::size_t eb = arr.config().content_bytes;
  std::vector<std::uint8_t> expect(eb);
  for (const auto& [r, range] : regions) {
    for (int s = range.first; s < range.second; ++s) {
      ++report.stripes_scanned;
      bool all_pairs_live = true;
      for (int i = 0; i < n; ++i) {
        const int dd = arch.data_disk(i);
        for (int j = 0; j < arch.rows(); ++j) {
          const layout::Pos rp = arch.replica_of(1, i, j);
          if (!disk_live(dd, s) || !disk_live(rp.disk, s)) {
            ++report.pairs_skipped;
            all_pairs_live = false;
            continue;
          }
          ++report.pairs_compared;
          auto data = arr.content(dd, s, j);
          auto mirror = arr.content(rp.disk, s, rp.row);
          if (equal_spans(data, mirror)) continue;
          ++report.diverged;
          if (ob != nullptr) {
            obs::TraceEvent ev;
            ev.kind = obs::EventKind::kCorruption;
            ev.t_s = read_stats.end_s;
            ev.disk = arr.physical_disk(dd, s);
            ev.stripe = s;
            ev.slot = arr.slot(s, j);
            ob->emit(ev);
          }
          // Arbitrate: checksum-consistent copy wins; data copy wins
          // the un-attributable cases (md's primary-copy rule).
          bool data_wins = true;
          if (arr.checksums_enabled()) {
            const bool d_ok = arr.element_checksum_ok(dd, s, j);
            const bool m_ok = arr.element_checksum_ok(rp.disk, s, rp.row);
            if (!d_ok && m_ok) data_wins = false;
          }
          if (data_wins) {
            std::copy(data.begin(), data.end(), mirror.begin());
            writes.push_back({rp.disk, s, rp.row, disk::IoKind::kWrite});
          } else {
            std::copy(mirror.begin(), mirror.end(), data.begin());
            writes.push_back({dd, s, j, disk::IoKind::kWrite});
          }
          ++report.copies_rewritten;
          if (arr.checksums_enabled()) {
            // Commit the survivor as the authoritative version: a
            // checksum recording an intent that never reached media
            // would otherwise fail verification forever.
            arr.update_element_checksum(dd, s, j);
            arr.update_element_checksum(rp.disk, s, rp.row);
          }
        }
      }
      // Parity of a suspect stripe is recomputed, never trusted: the
      // crash may have interrupted the parity write of the same
      // request that tore a copy.
      if (arch.has_parity() && disk_live(arch.parity_disk(), s) &&
          all_pairs_live) {
        bool data_live = true;
        for (int i = 0; i < n && data_live; ++i)
          data_live = disk_live(arch.data_disk(i), s);
        if (data_live) {
          for (int j = 0; j < arch.rows(); ++j) {
            gf::region_zero(expect);
            for (int i = 0; i < n; ++i)
              gf::region_xor(arr.content(arch.data_disk(i), s, j), expect);
            auto parity = arr.content(arch.parity_disk(), s, j);
            if (equal_spans(expect, parity)) continue;
            std::copy(expect.begin(), expect.end(), parity.begin());
            writes.push_back(
                {arch.parity_disk(), s, j, disk::IoKind::kWrite});
            ++report.parity_rewritten;
            if (arr.checksums_enabled())
              arr.update_element_checksum(arch.parity_disk(), s, j);
          }
        }
      }
    }
  }

  // Phase 3 (timed): the repair writes queue behind the scan reads.
  if (!writes.empty()) {
    const auto write_stats = arr.execute(writes, read_stats.end_s);
    report.logical_bytes_written = write_stats.logical_bytes_written;
    report.makespan_s = write_stats.end_s;
  }

  // Only now clear the intent bits: the repair writes above go through
  // execute(), which logs intent for them like any other write — a
  // region is clean only once nothing is in flight against it.
  for (const auto& [r, range] : regions) {
    (void)range;
    if (drl.enabled()) drl.clear(r);
    if (ob != nullptr) {
      obs::TraceEvent ev;
      ev.kind = obs::EventKind::kResync;
      ev.t_s = report.makespan_s;
      ev.slot = r;
      ob->emit(ev);
      ob->count("integrity.regions_resynced");
    }
  }
  return report;
}

}  // namespace sma::integrity
