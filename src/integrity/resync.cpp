#include "integrity/resync.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "gf/region.hpp"

namespace sma::integrity {

Result<ResyncReport> resync(array::DiskArray& arr, const ResyncOptions& opts) {
  const auto& arch = arr.arch();
  if (!arch.is_mirror())
    return invalid_argument("resync supports the mirror architectures");
  if (arr.crashed())
    return failed_precondition(
        "resync on a powered-off array; power_cycle() first");

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
  const int copies = arch.replicas() + 1;
  auto disk_live = [&](int logical, int s) {
    return !arr.physical(arr.physical_disk(logical, s)).failed();
  };
  // Where copy c of the element being reconciled lives (scratch sized
  // once: no allocation per element), and whether every copy is live.
  std::vector<layout::Pos> at(static_cast<std::size_t>(copies));
  auto locate_live = [&](int s, int i, int j) {
    bool live = true;
    for (int c = 0; c < copies; ++c) {
      at[c] = arch.copy_of(c, i, j);
      live = live && disk_live(at[c].disk, s);
    }
    return live;
  };
  auto copy_content = [&](int s, int c) {
    return arr.content(at[c].disk, s, at[c].row);
  };

  // Phase 1 (timed): stream every copy of every element whose copies
  // are all live — and the parity element — of every suspect stripe.
  std::vector<array::Op> reads;
  for (const auto& [r, range] : regions) {
    (void)r;
    for (int s = range.first; s < range.second; ++s) {
      for (int i = 0; i < n; ++i)
        for (int j = 0; j < arch.rows(); ++j)
          if (locate_live(s, i, j))
            for (int c = 0; c < copies; ++c)
              reads.push_back({at[c].disk, s, at[c].row, disk::IoKind::kRead});
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
      bool all_copies_live = true;
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < arch.rows(); ++j) {
          if (!locate_live(s, i, j)) {
            ++report.pairs_skipped;
            all_copies_live = false;
            continue;
          }
          ++report.pairs_compared;
          bool agree = true;
          for (int c = 1; c < copies && agree; ++c)
            agree = std::ranges::equal(copy_content(s, 0), copy_content(s, c));
          if (agree) continue;
          ++report.diverged;
          if (ob != nullptr) {
            obs::TraceEvent ev;
            ev.kind = obs::EventKind::kCorruption;
            ev.t_s = read_stats.end_s;
            ev.disk = arr.physical_disk(at[0].disk, s);
            ev.stripe = s;
            ev.slot = arr.slot(s, j);
            ob->emit(ev);
          }
          // Arbitrate: the first checksum-consistent copy wins; the data
          // copy wins the un-attributable cases (md's primary-copy rule).
          int winner = 0;
          if (arr.checksums_enabled())
            for (int c = 0; c < copies; ++c)
              if (arr.element_checksum_ok(at[c].disk, s, at[c].row)) {
                winner = c;
                break;
              }
          const auto value = copy_content(s, winner);
          for (int c = 0; c < copies; ++c) {
            auto dst = copy_content(s, c);
            if (c != winner && !std::ranges::equal(dst, value)) {
              std::copy(value.begin(), value.end(), dst.begin());
              writes.push_back(
                  {at[c].disk, s, at[c].row, disk::IoKind::kWrite});
              ++report.copies_rewritten;
            }
            // Commit the survivor as the authoritative version on every
            // copy: a checksum recording an intent that never reached
            // media would otherwise fail verification forever.
            if (arr.checksums_enabled())
              arr.update_element_checksum(at[c].disk, s, at[c].row);
          }
        }
      }
      // Parity of a suspect stripe is recomputed, never trusted: the
      // crash may have interrupted the parity write of the same
      // request that tore a copy. It needs every data copy, which a
      // stripe whose every element had all copies live has.
      if (arch.has_parity() && disk_live(arch.parity_disk(), s) &&
          all_copies_live) {
        for (int j = 0; j < arch.rows(); ++j) {
          gf::region_zero(expect);
          for (int i = 0; i < n; ++i)
            gf::region_xor(arr.content(arch.data_disk(i), s, j), expect);
          auto parity = arr.content(arch.parity_disk(), s, j);
          if (std::ranges::equal(expect, parity)) continue;
          std::copy(expect.begin(), expect.end(), parity.begin());
          writes.push_back({arch.parity_disk(), s, j, disk::IoKind::kWrite});
          ++report.parity_rewritten;
          if (arr.checksums_enabled())
            arr.update_element_checksum(arch.parity_disk(), s, j);
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
