#include "recon/scrub.hpp"

#include <algorithm>
#include <set>
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

bool equal_spans(std::span<const std::uint8_t> a,
                 std::span<const std::uint8_t> b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

}  // namespace

Result<ScrubReport> scrub(array::DiskArray& arr) {
  return scrub(arr, ScrubOptions{});
}

Result<ScrubReport> scrub(array::DiskArray& arr, const ScrubOptions& opts) {
  const auto& arch = arr.arch();
  if (!arch.is_mirror())
    return invalid_argument("scrub supports the mirror architectures");
  // Arbitration compares the data copy with one replica (and parity).
  if (arch.replicas() != 1)
    return invalid_argument("scrub arbitrates pairs: one replica array only");
  if (!arr.failed_physical().empty())
    return failed_precondition("scrub requires all disks healthy");
  if (arr.crashed())
    return failed_precondition(
        "scrub on a powered-off array; power_cycle() first");

  ScrubReport report;
  const std::size_t eb = arr.config().content_bytes;
  std::vector<std::uint8_t> expect(eb);

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

  // Pass 0 (verifying scrub): recompute every element's fingerprint
  // against the out-of-band store. A checksum mismatch attributes the
  // corruption to a specific copy — which replica comparison alone
  // cannot — so repair copies from the partner whose checksum matches
  // its content, falling back to the parity row when both copies of a
  // pair are bad. Runs before pass 1: repaired pairs agree again and
  // are not re-flagged as mismatches.
  obs::Observer* const ob = opts.observer.get();
  if (arr.checksums_enabled()) {
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
          const int dd = arch.data_disk(i);
          const layout::Pos rp = arch.replica_of(1, i, j);
          const bool d_ok = arr.element_checksum_ok(dd, s, j);
          const bool m_ok = arr.element_checksum_ok(rp.disk, s, rp.row);
          if (d_ok && m_ok) continue;
          if (!d_ok) flag(dd, s, j);
          if (!m_ok) flag(rp.disk, s, rp.row);
          auto data = arr.content(dd, s, j);
          auto mirror = arr.content(rp.disk, s, rp.row);
          if (d_ok != m_ok) {
            // Exactly one checksum-verified copy: it is authoritative.
            if (d_ok) {
              std::copy(data.begin(), data.end(), mirror.begin());
              arr.update_element_checksum(rp.disk, s, rp.row);
            } else {
              std::copy(mirror.begin(), mirror.end(), data.begin());
              arr.update_element_checksum(dd, s, j);
            }
            ++report.repaired_by_checksum;
            continue;
          }
          // Both copies bad: rebuild the value through the parity row,
          // usable only when every input element is itself
          // checksum-verified.
          bool parity_path = arch.has_parity() &&
                             arr.element_checksum_ok(arch.parity_disk(), s, j);
          for (int k = 0; parity_path && k < arch.n(); ++k)
            if (k != i && !arr.element_checksum_ok(arch.data_disk(k), s, j))
              parity_path = false;
          if (parity_path) {
            row_xor_except(arr, s, j, i, expect);
            gf::region_xor(arr.content(arch.parity_disk(), s, j), expect);
            std::copy(expect.begin(), expect.end(), data.begin());
            std::copy(expect.begin(), expect.end(), mirror.begin());
            arr.update_element_checksum(dd, s, j);
            arr.update_element_checksum(rp.disk, s, rp.row);
            report.repaired_by_checksum += 2;
          } else {
            ++report.undecidable;
          }
        }
      }
      if (arch.has_parity()) {
        const int pd = arch.parity_disk();
        for (int j = 0; j < arch.rows(); ++j) {
          if (arr.element_checksum_ok(pd, s, j)) continue;
          flag(pd, s, j);
          bool row_ok = true;
          for (int k = 0; k < arch.n(); ++k)
            if (!arr.element_checksum_ok(arch.data_disk(k), s, j))
              row_ok = false;
          if (row_ok) {
            row_xor_except(arr, s, j, /*skip_disk=*/-1, expect);
            auto parity = arr.content(pd, s, j);
            std::copy(expect.begin(), expect.end(), parity.begin());
            arr.update_element_checksum(pd, s, j);
            ++report.repaired_by_checksum;
          } else {
            ++report.undecidable;
          }
        }
      }
    }
  }

  // Every pass-1/2 rewrite keeps the checksum store in step with the
  // new content (no-op on arrays without checksums).
  auto commit_sum = [&](int logical, int s, int row) {
    if (arr.checksums_enabled()) arr.update_element_checksum(logical, s, row);
  };

  for (int s = 0; s < arr.stripes(); ++s) {
    // Whether the parity arbitration of data element i in row j can be
    // evaluated: every other data element of the row — and the parity
    // element — must be readable. (Always true with inert profiles.)
    auto parity_path_readable = [&](int skip_i, int j) -> bool {
      if (arr.element_latent(arch.parity_disk(), s, j)) return false;
      for (int k = 0; k < arch.n(); ++k) {
        if (k == skip_i) continue;
        if (arr.element_latent(arch.data_disk(k), s, j)) return false;
      }
      return true;
    };

    // Pass 1: data vs replica, with parity arbitration. Unreadable
    // sectors are arbitration input: a pair with one unreadable copy is
    // decided by the readable one (rewrite + remap), a pair with both
    // copies unreadable falls back to the parity row.
    for (int i = 0; i < arch.n(); ++i) {
      for (int j = 0; j < arch.rows(); ++j) {
        ++report.elements_scanned;
        auto data = arr.content(arch.data_disk(i), s, j);
        const layout::Pos rp = arch.replica_of(1, i, j);
        auto mirror = arr.content(rp.disk, s, rp.row);

        const bool data_unreadable =
            arr.element_latent(arch.data_disk(i), s, j);
        const bool mirror_unreadable = arr.element_latent(rp.disk, s, rp.row);
        if (data_unreadable || mirror_unreadable) {
          report.unreadable_sectors +=
              static_cast<std::uint64_t>(data_unreadable) +
              static_cast<std::uint64_t>(mirror_unreadable);
          if (data_unreadable != mirror_unreadable) {
            // One readable copy survives: it is authoritative.
            if (data_unreadable) {
              std::copy(mirror.begin(), mirror.end(), data.begin());
              arr.clear_element_latent(arch.data_disk(i), s, j);
              commit_sum(arch.data_disk(i), s, j);
            } else {
              std::copy(data.begin(), data.end(), mirror.begin());
              arr.clear_element_latent(rp.disk, s, rp.row);
              commit_sum(rp.disk, s, rp.row);
            }
            ++report.remapped;
          } else if (arch.has_parity() && parity_path_readable(i, j)) {
            // Both copies unreadable: rebuild the value from the
            // parity row and rewrite both in place.
            row_xor_except(arr, s, j, i, expect);
            gf::region_xor(arr.content(arch.parity_disk(), s, j), expect);
            std::copy(expect.begin(), expect.end(), data.begin());
            std::copy(expect.begin(), expect.end(), mirror.begin());
            arr.clear_element_latent(arch.data_disk(i), s, j);
            arr.clear_element_latent(rp.disk, s, rp.row);
            commit_sum(arch.data_disk(i), s, j);
            commit_sum(rp.disk, s, rp.row);
            report.remapped += 2;
          } else {
            ++report.undecidable;
          }
          continue;
        }

        if (equal_spans(data, mirror)) continue;
        ++report.mismatches;

        if (!arch.has_parity() || !parity_path_readable(i, j)) {
          ++report.undecidable;
          continue;
        }
        // True value per the parity row (single bad copy per row
        // assumed): data(i) == row_xor_except(i) ^ parity.
        row_xor_except(arr, s, j, i, expect);
        gf::region_xor(arr.content(arch.parity_disk(), s, j), expect);
        if (equal_spans(expect, data)) {
          std::copy(data.begin(), data.end(), mirror.begin());
          commit_sum(rp.disk, s, rp.row);
          ++report.repaired_mirror;
        } else if (equal_spans(expect, mirror)) {
          std::copy(mirror.begin(), mirror.end(), data.begin());
          commit_sum(arch.data_disk(i), s, j);
          ++report.repaired_data;
        } else {
          // Neither copy matches the parity reconstruction: more than
          // one corruption interacts in this row.
          ++report.undecidable;
        }
      }
    }
    // Pass 2: parity column against the (now repaired) data rows. Only
    // rewrite when every data/mirror pair of the row agrees and is
    // readable, so a lone corrupted parity element is distinguishable
    // from an undecidable data corruption.
    if (arch.has_parity()) {
      for (int j = 0; j < arch.rows(); ++j) {
        bool row_pairs_usable = true;
        for (int i = 0; i < arch.n(); ++i) {
          const layout::Pos rp = arch.replica_of(1, i, j);
          if (arr.element_latent(arch.data_disk(i), s, j) ||
              arr.element_latent(rp.disk, s, rp.row) ||
              !equal_spans(arr.content(arch.data_disk(i), s, j),
                           arr.content(rp.disk, s, rp.row)))
            row_pairs_usable = false;
        }
        if (!row_pairs_usable) continue;
        auto parity = arr.content(arch.parity_disk(), s, j);
        if (arr.element_latent(arch.parity_disk(), s, j)) {
          // Unreadable parity element: recompute it from the (agreed,
          // readable) data row and remap the sector.
          ++report.unreadable_sectors;
          row_xor_except(arr, s, j, /*skip_disk=*/-1, expect);
          std::copy(expect.begin(), expect.end(), parity.begin());
          arr.clear_element_latent(arch.parity_disk(), s, j);
          commit_sum(arch.parity_disk(), s, j);
          ++report.remapped;
          continue;
        }
        row_xor_except(arr, s, j, /*skip_disk=*/-1, expect);
        if (!equal_spans(expect, parity)) {
          std::copy(expect.begin(), expect.end(), parity.begin());
          commit_sum(arch.parity_disk(), s, j);
          ++report.repaired_parity;
        }
      }
    }
  }
  return report;
}

std::vector<InjectedError> inject_latent_errors(array::DiskArray& arr,
                                                Rng& rng, int count) {
  std::vector<InjectedError> injected;
  std::set<std::tuple<int, int, int>> used;
  const auto& arch = arr.arch();
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
