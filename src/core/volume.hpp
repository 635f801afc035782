// MirroredVolume — the user-facing facade over the whole library: a
// mirror (optionally parity-protected) volume with the traditional or
// the paper's shifted element arrangement, supporting degraded reads,
// consistent writes, disk failure injection, and verified rebuild.
//
// Quickstart:
//   sma::core::VolumeConfig cfg;
//   cfg.n = 5; cfg.arrangement = "shifted"; cfg.with_parity = true;
//   auto vol = sma::core::MirroredVolume::create(cfg).take();
//   vol.fail_disk(2);
//   auto report = vol.rebuild();            // verified rebuild
//   report.value().read_throughput_mbps();  // paper's Fig. 9 metric
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "array/disk_array.hpp"
#include "recon/executor.hpp"
#include "util/status.hpp"

namespace sma::core {

struct VolumeConfig {
  /// Data disks per array (the paper's n); also rows per stripe.
  int n = 3;
  /// Add the parity disk (fault tolerance 2, paper Section V).
  bool with_parity = false;
  /// Layout-registry spec: "shifted" (the paper's arrangement),
  /// "traditional" (RAID-1), "lrc:groups=2", "zigzag", ... Resolves
  /// through layout::AlgorithmRegistry::global().
  std::string arrangement = "shifted";
  /// Stacks of stripes; each stack holds total_disks stripes so the
  /// rotation covers every logical-to-physical assignment.
  int stacks = 1;
  bool rotate = true;
  disk::DiskSpec spec = disk::DiskSpec::savvio_10k3();
  std::size_t content_bytes = 4096;
  std::uint64_t logical_element_bytes = 4ull * 1024 * 1024;
  std::uint64_t seed = 1;
};

class MirroredVolume {
 public:
  /// Validates the config, builds and populates the array.
  static Result<MirroredVolume> create(const VolumeConfig& cfg);

  const layout::Architecture& arch() const { return array_.arch(); }
  array::DiskArray& array() { return array_; }
  const array::DiskArray& array() const { return array_; }
  int stripes() const { return array_.stripes(); }

  /// Read a data element; transparently degrades to the replica or the
  /// parity path when disks are failed. kUnrecoverable when no path
  /// survives.
  Status read_element(int data_disk, int stripe, int row,
                      std::span<std::uint8_t> out) const;

  /// Write a data element, updating every live copy and the parity
  /// element (delta update). kUnrecoverable when the old value cannot
  /// be obtained for the parity delta.
  Status write_element(int data_disk, int stripe, int row,
                       std::span<const std::uint8_t> bytes);

  /// Volume capacity in bytes: data elements only, at content size.
  /// The linear address space is row-major across the data array:
  /// offset 0 is (disk 0, stripe 0, row 0), then disk 1, ... — the
  /// same order the paper's "large write" strategy fills rows.
  std::uint64_t capacity_bytes() const;

  /// Read an arbitrary byte range [offset, offset + out.size()) of the
  /// linear address space; degrades like read_element. kOutOfRange if
  /// the range exceeds capacity.
  Status read_range(std::uint64_t offset, std::span<std::uint8_t> out) const;

  /// Write an arbitrary byte range; partial-element writes perform
  /// read-modify-write of the touched elements.
  Status write_range(std::uint64_t offset,
                     std::span<const std::uint8_t> bytes);

  void fail_disk(int physical) { array_.fail_physical(physical); }
  std::vector<int> failed_disks() const { return array_.failed_physical(); }

  /// Rebuild all failed disks (verified by default).
  Result<recon::ReconReport> rebuild(const recon::ReconOptions& opts = {}) {
    return recon::reconstruct(array_, opts);
  }

  /// Mirror/parity internal consistency of current contents.
  Status verify() const { return array_.verify_consistency(); }

 private:
  explicit MirroredVolume(array::ArrayConfig cfg) : array_(std::move(cfg)) {}

  bool live(int logical, int stripe) const;

  array::DiskArray array_;
};

}  // namespace sma::core
