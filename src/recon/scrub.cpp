#include "recon/scrub.hpp"

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "gf/region.hpp"

namespace sma::recon {

namespace {

/// XOR of all data elements of `row` except `skip_disk`, into `out`.
void row_xor_except(const array::DiskArray& arr, int stripe, int row,
                    int skip_disk, std::span<std::uint8_t> out) {
  gf::region_zero(out);
  for (int i = 0; i < arr.arch().n(); ++i) {
    if (i == skip_disk) continue;
    gf::region_xor(arr.content(arr.arch().data_disk(i), stripe, row), out);
  }
}

}  // namespace

Result<ScrubReport> scrub(array::DiskArray& arr) {
  return scrub(arr, ScrubOptions{});
}

Result<ScrubReport> scrub(array::DiskArray& arr, const ScrubOptions& opts) {
  const auto& arch = arr.arch();
  if (!arch.is_mirror())
    return invalid_argument("scrub supports the mirror architectures");
  if (!arr.failed_physical().empty())
    return failed_precondition("scrub requires all disks healthy");
  if (arr.crashed())
    return failed_precondition(
        "scrub on a powered-off array; power_cycle() first");

  ScrubReport report;
  const int copies = arch.replicas() + 1;
  std::vector<std::uint8_t> expect(arr.config().content_bytes);
  // Per-element scratch, sized once so the walk allocates nothing per
  // element: where copy c of the element under scrutiny lives, and
  // whether the current pass trusts it.
  std::vector<layout::Pos> at(static_cast<std::size_t>(copies));
  std::vector<char> good(static_cast<std::size_t>(copies));
  auto locate = [&](int i, int j) {
    for (int c = 0; c < copies; ++c) at[c] = arch.copy_of(c, i, j);
  };
  auto copy_content = [&](int s, int c) {
    return arr.content(at[c].disk, s, at[c].row);
  };
  // Copy `expect` over an element, keeping its checksum in step.
  auto write_expect = [&](int logical, int s, int row) {
    auto dst = arr.content(logical, s, row);
    std::copy(expect.begin(), expect.end(), dst.begin());
    if (arr.checksums_enabled()) arr.update_element_checksum(logical, s, row);
  };

  // Timing: every element of every disk read once, streaming per disk.
  // The verifying pass adds no timed I/O: checksums are out-of-band
  // metadata recomputed from the same streamed reads.
  std::vector<array::Op> ops;
  for (int logical = 0; logical < arch.total_disks(); ++logical)
    for (int s = 0; s < arr.stripes(); ++s)
      for (int j = 0; j < arch.rows(); ++j)
        ops.push_back({logical, s, j, disk::IoKind::kRead});
  arr.reset_timelines();
  const auto stats = arr.execute(ops, 0.0);
  report.makespan_s = stats.elapsed_s();
  report.logical_bytes_read = stats.logical_bytes_read;

  // The repair ladder both passes share, for the located copies of
  // a(i, j) in stripe s; `ok` is the pass's test of an element, `good`
  // holds it per copy. The value is the `trusted` copy's; with none, the
  // parity row's, if the row's other elements pass `ok` and no good copy
  // contradicts it (two corruptions in one row); else undecidable. Each
  // copy that is not good or differs is rewritten, then passed to `rewrote`.
  auto repair = [&](int s, int i, int j, int trusted, auto&& ok,
                    auto&& rewrote) {
    bool decided = trusted >= 0;
    if (decided) {
      auto src = copy_content(s, trusted);
      std::copy(src.begin(), src.end(), expect.begin());
    } else if (arch.has_parity() && ok(arch.parity_disk(), s, j)) {
      decided = true;
      for (int k = 0; k < arch.n() && decided; ++k)
        decided = k == i || ok(arch.data_disk(k), s, j);
      if (decided) {
        row_xor_except(arr, s, j, i, expect);
        gf::region_xor(arr.content(arch.parity_disk(), s, j), expect);
        for (int c = 0; c < copies; ++c) {
          if (!good[c]) continue;
          decided = std::ranges::equal(copy_content(s, c), expect);
          if (decided) break;
        }
      }
    }
    if (!decided) {
      ++report.undecidable;
      return;
    }
    for (int c = 0; c < copies; ++c) {
      if (good[c] && std::ranges::equal(copy_content(s, c), expect)) continue;
      write_expect(at[c].disk, s, at[c].row);
      rewrote(c);
    }
  };

  // Pass 0 (verifying scrub): recompute every element's fingerprint
  // against the out-of-band store. A checksum mismatch attributes the
  // corruption to a specific copy — which comparing copies alone cannot
  // — so the first copy whose checksum matches its content rewrites the
  // bad ones; with none, the parity row does, when every input element
  // is itself checksum-verified. Runs before pass 1: repaired copies
  // agree again and are not re-flagged as mismatches.
  obs::Observer* const ob = opts.observer.get();
  if (arr.checksums_enabled()) {
    auto verified = [&](int logical, int s, int row) {
      return arr.element_checksum_ok(logical, s, row);
    };
    auto flag = [&](int logical, int s, int row) {
      ++report.checksum_mismatches;
      if (ob != nullptr) {
        obs::TraceEvent ev;
        ev.kind = obs::EventKind::kCorruption;
        ev.t_s = report.makespan_s;
        ev.disk = arr.physical_disk(logical, s);
        ev.stripe = s;
        ev.slot = arr.slot(s, row);
        ob->emit(ev);
      }
    };
    for (int s = 0; s < arr.stripes(); ++s) {
      for (int i = 0; i < arch.n(); ++i) {
        for (int j = 0; j < arch.rows(); ++j) {
          locate(i, j);
          int trusted = -1;
          bool all_good = true;
          for (int c = 0; c < copies; ++c) {
            good[c] = verified(at[c].disk, s, at[c].row);
            if (!good[c]) flag(at[c].disk, s, at[c].row);
            if (good[c] && trusted < 0) trusted = c;
            all_good = all_good && good[c];
          }
          if (!all_good)
            repair(s, i, j, trusted, verified,
                   [&](int) { ++report.repaired_by_checksum; });
        }
      }
      if (arch.has_parity()) {
        const int pd = arch.parity_disk();
        for (int j = 0; j < arch.rows(); ++j) {
          if (verified(pd, s, j)) continue;
          flag(pd, s, j);
          bool row_ok = true;
          for (int k = 0; k < arch.n(); ++k)
            row_ok = row_ok && verified(arch.data_disk(k), s, j);
          if (row_ok) {
            row_xor_except(arr, s, j, /*skip_disk=*/-1, expect);
            write_expect(pd, s, j);
            ++report.repaired_by_checksum;
          } else {
            ++report.undecidable;
          }
        }
      }
    }
  }

  auto readable = [&](int logical, int s, int row) {
    return !arr.element_latent(logical, s, row);
  };
  for (int s = 0; s < arr.stripes(); ++s) {
    // Pass 1: the copies of each element against each other. Unreadable
    // sectors are arbitration input: while the readable copies agree,
    // the first of them rewrites (remaps) the unreadable ones. Copies
    // that disagree are a mismatch, decided by a strict majority of the
    // copies, else by the parity row. With one replica array a split
    // has no majority, so only parity decides; with every copy
    // unreadable the parity row rebuilds them all.
    for (int i = 0; i < arch.n(); ++i) {
      for (int j = 0; j < arch.rows(); ++j) {
        ++report.elements_scanned;
        locate(i, j);
        int first = -1;
        bool agree = true;
        bool all_readable = true;
        for (int c = 0; c < copies; ++c) {
          good[c] = readable(at[c].disk, s, at[c].row);
          if (!good[c]) {
            ++report.unreadable_sectors;
            all_readable = false;
          } else if (first < 0) {
            first = c;
          } else if (agree) {
            agree = std::ranges::equal(copy_content(s, first),
                                       copy_content(s, c));
          }
        }
        if (agree && all_readable) continue;
        int trusted = first;
        if (!agree) {
          ++report.mismatches;
          // The first copy of a strict majority: its equal copies all
          // come after it.
          trusted = -1;
          for (int c = 0; c < copies && trusted < 0; ++c) {
            int votes = good[c] ? 1 : 0;
            for (int o = c + 1; o < copies && votes > 0; ++o)
              if (good[o] &&
                  std::ranges::equal(copy_content(s, c), copy_content(s, o)))
                ++votes;
            if (2 * votes > copies) trusted = c;
          }
        }
        repair(s, i, j, trusted, readable, [&](int c) {
          if (!good[c]) {
            arr.clear_element_latent(at[c].disk, s, at[c].row);
            ++report.remapped;
          } else if (c == 0) {
            ++report.repaired_data;
          } else {
            ++report.repaired_mirror;
          }
        });
      }
    }
    // Pass 2: parity column against the (now repaired) data rows. Only
    // rewrite when every copy of every element of the row is readable
    // and agrees, so a lone corrupted parity element is distinguishable
    // from an undecidable data corruption. An unreadable parity element
    // is recomputed and its sector remapped; a readable one is rewritten
    // only when it disagrees.
    if (arch.has_parity()) {
      const int pd = arch.parity_disk();
      for (int j = 0; j < arch.rows(); ++j) {
        bool usable = true;
        for (int i = 0; i < arch.n() && usable; ++i) {
          locate(i, j);
          for (int c = 0; c < copies && usable; ++c)
            usable = readable(at[c].disk, s, at[c].row) &&
                     (c == 0 || std::ranges::equal(copy_content(s, 0),
                                                   copy_content(s, c)));
        }
        if (!usable) continue;
        row_xor_except(arr, s, j, /*skip_disk=*/-1, expect);
        if (!readable(pd, s, j)) {
          ++report.unreadable_sectors;
          arr.clear_element_latent(pd, s, j);
          ++report.remapped;
        } else if (std::ranges::equal(expect, arr.content(pd, s, j))) {
          continue;
        } else {
          ++report.repaired_parity;
        }
        write_expect(pd, s, j);
      }
    }
  }
  return report;
}

Result<std::vector<InjectedError>> inject_latent_errors(array::DiskArray& arr,
                                                        Rng& rng, int count) {
  const auto& arch = arr.arch();
  const std::int64_t elements = static_cast<std::int64_t>(arch.total_disks()) *
                                arr.stripes() * arch.rows();
  if (count < 0 || count > elements) {
    std::string msg = "latent error count must be in [0, ";
    msg += std::to_string(elements);
    msg += "]: one distinct element per error";
    return invalid_argument(msg);
  }
  std::vector<InjectedError> injected;
  std::set<std::tuple<int, int, int>> used;
  const std::size_t eb = arr.config().content_bytes;
  while (static_cast<int>(injected.size()) < count) {
    const int logical = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(arch.total_disks())));
    const int stripe = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(arr.stripes())));
    const int row = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(arch.rows())));
    if (!used.insert({logical, stripe, row}).second) continue;
    auto elem = arr.content(logical, stripe, row);
    // Flip a random byte (never a no-op flip).
    const std::size_t at = static_cast<std::size_t>(rng.next_below(eb));
    elem[at] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    injected.push_back({logical, stripe, row});
  }
  return injected;
}

}  // namespace sma::recon
