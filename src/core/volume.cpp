#include "core/volume.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "gf/region.hpp"

namespace sma::core {

Result<MirroredVolume> MirroredVolume::create(const VolumeConfig& cfg) {
  if (cfg.n < 1) return invalid_argument("n must be >= 1");
  if (cfg.stacks < 1) return invalid_argument("stacks must be >= 1");
  if (cfg.content_bytes == 0 || cfg.logical_element_bytes == 0)
    return invalid_argument("element sizes must be positive");

  auto arch = cfg.with_parity
                  ? layout::Architecture::mirror_with_parity_named(
                        cfg.n, cfg.arrangement)
                  : layout::Architecture::mirror_named(cfg.n, cfg.arrangement);
  if (!arch.is_ok()) return arch.status();
  array::ArrayConfig ac;
  ac.arch = std::move(arch).take();
  ac.stripes = cfg.stacks * ac.arch.total_disks();
  ac.rotate = cfg.rotate;
  ac.spec = cfg.spec;
  ac.content_bytes = cfg.content_bytes;
  ac.logical_element_bytes = cfg.logical_element_bytes;
  ac.seed = cfg.seed;

  MirroredVolume vol(std::move(ac));
  vol.array_.initialize();
  return vol;
}

bool MirroredVolume::live(int logical, int stripe) const {
  return !array_.physical(array_.physical_disk(logical, stripe)).failed();
}

Status MirroredVolume::read_element(int data_disk, int stripe, int row,
                                    std::span<std::uint8_t> out) const {
  const auto& arch = array_.arch();
  if (data_disk < 0 || data_disk >= arch.n() || stripe < 0 ||
      stripe >= array_.stripes() || row < 0 || row >= arch.rows())
    return out_of_range("read_element coordinates out of range");
  if (out.size() != array_.config().content_bytes)
    return invalid_argument("read buffer size mismatch");

  if (live(arch.data_disk(data_disk), stripe)) {
    auto src = array_.content(arch.data_disk(data_disk), stripe, row);
    std::copy(src.begin(), src.end(), out.begin());
    return Status::ok();
  }
  // VolumeConfig builds one replica array.
  const layout::Pos replica = arch.replica_of(1, data_disk, row);
  if (live(replica.disk, stripe)) {
    auto src = array_.content(replica.disk, stripe, replica.row);
    std::copy(src.begin(), src.end(), out.begin());
    return Status::ok();
  }
  // Parity path: XOR the rest of the row with the parity element.
  if (arch.has_parity() && live(arch.parity_disk(), stripe)) {
    std::fill(out.begin(), out.end(), 0);
    for (int i = 0; i < arch.n(); ++i) {
      if (i == data_disk) continue;
      if (!live(arch.data_disk(i), stripe))
        return unrecoverable("row peer also failed; element unreadable");
      gf::region_xor(array_.content(arch.data_disk(i), stripe, row), out);
    }
    gf::region_xor(array_.content(arch.parity_disk(), stripe, row), out);
    return Status::ok();
  }
  return unrecoverable("element " + std::to_string(data_disk) + "/" +
                       std::to_string(stripe) + "/" + std::to_string(row) +
                       " has no surviving copy or parity path");
}

Status MirroredVolume::write_element(int data_disk, int stripe, int row,
                                     std::span<const std::uint8_t> bytes) {
  const auto& arch = array_.arch();
  if (data_disk < 0 || data_disk >= arch.n() || stripe < 0 ||
      stripe >= array_.stripes() || row < 0 || row >= arch.rows())
    return out_of_range("write_element coordinates out of range");
  if (bytes.size() != array_.config().content_bytes)
    return invalid_argument("write buffer size mismatch");

  const layout::Pos replica = arch.replica_of(1, data_disk, row);
  const bool data_live = live(arch.data_disk(data_disk), stripe);
  const bool mirror_live = live(replica.disk, stripe);
  const bool parity_live =
      arch.has_parity() && live(arch.parity_disk(), stripe);
  // With both copies gone the write can still be absorbed into the
  // parity delta (the element stays reconstructible via its row), the
  // same way a degraded RAID-5 write works.
  if (!data_live && !mirror_live && !parity_live)
    return unrecoverable("both copies failed; write would be lost");

  // Parity delta needs the old value before we overwrite anything.
  std::vector<std::uint8_t> old_value;
  if (parity_live) {
    old_value.resize(bytes.size());
    SMA_RETURN_IF_ERROR(read_element(data_disk, stripe, row, old_value));
  }

  if (data_live) {
    auto dst = array_.content(arch.data_disk(data_disk), stripe, row);
    std::copy(bytes.begin(), bytes.end(), dst.begin());
  }
  if (mirror_live) {
    auto dst = array_.content(replica.disk, stripe, replica.row);
    std::copy(bytes.begin(), bytes.end(), dst.begin());
  }
  if (parity_live) {
    auto parity = array_.content(arch.parity_disk(), stripe, row);
    gf::region_xor(old_value, parity);
    gf::region_xor(bytes, parity);
  }
  return Status::ok();
}

std::uint64_t MirroredVolume::capacity_bytes() const {
  const auto& arch = array_.arch();
  return static_cast<std::uint64_t>(array_.stripes()) * arch.rows() *
         arch.n() * array_.config().content_bytes;
}

namespace {
/// Decompose a linear element index into (data disk, stripe, row) under
/// the row-major order: index = (stripe * rows + row) * n + disk.
struct ElementCoord {
  int disk;
  int stripe;
  int row;
};
ElementCoord coord_of(std::uint64_t element_index, int n, int rows) {
  const auto per_row = static_cast<std::uint64_t>(n);
  const auto per_stripe = per_row * static_cast<std::uint64_t>(rows);
  ElementCoord c;
  c.stripe = static_cast<int>(element_index / per_stripe);
  const std::uint64_t within = element_index % per_stripe;
  c.row = static_cast<int>(within / per_row);
  c.disk = static_cast<int>(within % per_row);
  return c;
}
}  // namespace

Status MirroredVolume::read_range(std::uint64_t offset,
                                  std::span<std::uint8_t> out) const {
  if (offset + out.size() > capacity_bytes())
    return out_of_range("read_range beyond volume capacity");
  const std::size_t eb = array_.config().content_bytes;
  const auto& arch = array_.arch();
  std::vector<std::uint8_t> element(eb);
  std::size_t produced = 0;
  while (produced < out.size()) {
    const std::uint64_t at = offset + produced;
    const ElementCoord c =
        coord_of(at / eb, arch.n(), arch.rows());
    const std::size_t within = static_cast<std::size_t>(at % eb);
    const std::size_t take =
        std::min(eb - within, out.size() - produced);
    SMA_RETURN_IF_ERROR(read_element(c.disk, c.stripe, c.row, element));
    std::copy_n(element.begin() + static_cast<std::ptrdiff_t>(within), take,
                out.begin() + static_cast<std::ptrdiff_t>(produced));
    produced += take;
  }
  return Status::ok();
}

Status MirroredVolume::write_range(std::uint64_t offset,
                                   std::span<const std::uint8_t> bytes) {
  if (offset + bytes.size() > capacity_bytes())
    return out_of_range("write_range beyond volume capacity");
  const std::size_t eb = array_.config().content_bytes;
  const auto& arch = array_.arch();
  std::vector<std::uint8_t> element(eb);
  std::size_t consumed = 0;
  while (consumed < bytes.size()) {
    const std::uint64_t at = offset + consumed;
    const ElementCoord c = coord_of(at / eb, arch.n(), arch.rows());
    const std::size_t within = static_cast<std::size_t>(at % eb);
    const std::size_t put = std::min(eb - within, bytes.size() - consumed);
    if (put < eb) {
      // Partial element: read-modify-write.
      SMA_RETURN_IF_ERROR(read_element(c.disk, c.stripe, c.row, element));
    }
    std::copy_n(bytes.begin() + static_cast<std::ptrdiff_t>(consumed), put,
                element.begin() + static_cast<std::ptrdiff_t>(within));
    SMA_RETURN_IF_ERROR(write_element(c.disk, c.stripe, c.row, element));
    consumed += put;
  }
  return Status::ok();
}

}  // namespace sma::core
