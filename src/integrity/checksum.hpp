// ChecksumStore — per-element content fingerprints kept out-of-band.
//
// Models the checksum block a real array stores alongside (not inside)
// each element: silent media corruption changes the content but not the
// stored checksum, a lost write updates the checksum (the write was
// acked) but not the content, and a misdirected write leaves some other
// element's content under this element's checksum. The verifying scrub
// compares fingerprint(content) against the store to detect all three.
//
// The store is addressed by (physical disk, slot) — checksums describe
// media locations, so they survive logical remapping and disk failure
// (the metadata lives off the failed platters).
//
// Header-only for the same layering reason as dirty_region_log.hpp.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace sma::integrity {

/// Content fingerprint used for element checksums (util fingerprint():
/// FNV-1a's constants, one step per 8-byte word). Any change confined
/// to one word of the element, e.g. a flipped byte, changes the sum.
inline std::uint64_t element_checksum(std::span<const std::uint8_t> bytes) {
  return fingerprint(bytes.data(), bytes.size());
}

class ChecksumStore {
 public:
  /// Disabled store: enabled() false, no memory.
  ChecksumStore() = default;

  ChecksumStore(int disks, std::int64_t slots_per_disk)
      : disks_(disks),
        slots_(slots_per_disk),
        sums_(static_cast<std::size_t>(disks) *
              static_cast<std::size_t>(slots_per_disk)) {}

  bool enabled() const { return !sums_.empty(); }
  int disks() const { return disks_; }
  std::int64_t slots_per_disk() const { return slots_; }

  std::uint64_t get(int disk, std::int64_t slot) const {
    return sums_[index(disk, slot)];
  }
  void set(int disk, std::int64_t slot, std::uint64_t sum) {
    sums_[index(disk, slot)] = sum;
  }
  /// Record the checksum of the element's current content.
  void update(int disk, std::int64_t slot,
              std::span<const std::uint8_t> bytes) {
    set(disk, slot, element_checksum(bytes));
  }
  /// True when the stored checksum matches the content handed in.
  bool matches(int disk, std::int64_t slot,
               std::span<const std::uint8_t> bytes) const {
    return get(disk, slot) == element_checksum(bytes);
  }

 private:
  std::size_t index(int disk, std::int64_t slot) const {
    assert(enabled());
    assert(disk >= 0 && disk < disks_);
    assert(slot >= 0 && slot < slots_);
    return static_cast<std::size_t>(disk) * static_cast<std::size_t>(slots_) +
           static_cast<std::size_t>(slot);
  }

  int disks_ = 0;
  std::int64_t slots_ = 0;
  std::vector<std::uint64_t> sums_;
};

}  // namespace sma::integrity
