#include "array/disk_array.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <string>

#include "ec/raid5.hpp"
#include "ec/rdp.hpp"
#include "gf/region.hpp"
#include "util/rng.hpp"

namespace sma::array {

namespace {
std::uint64_t element_seed(std::uint64_t volume_seed, int data_disk,
                           int stripe, int row) {
  // One SplitMix64 mix per coordinate gives independent streams for
  // every element.
  std::uint64_t s = volume_seed;
  s ^= 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(data_disk) + 1);
  s = splitmix64(s);
  s ^= 0xbf58476d1ce4e5b9ULL * (static_cast<std::uint64_t>(stripe) + 1);
  s = splitmix64(s);
  s ^= 0x94d049bb133111ebULL * (static_cast<std::uint64_t>(row) + 1);
  return splitmix64(s);
}
}  // namespace

DiskArray::DiskArray(ArrayConfig cfg)
    : cfg_(std::move(cfg)), mapper_(cfg_.arch.total_disks()) {
  assert(cfg_.stripes >= 1);
  assert(cfg_.spare_disks >= 0);
  const std::int64_t slots =
      static_cast<std::int64_t>(cfg_.stripes) * cfg_.arch.rows();
  disks_.reserve(static_cast<std::size_t>(physical_count()));
  for (int d = 0; d < physical_count(); ++d) {
    const auto it = cfg_.spec_overrides.find(d);
    const disk::DiskSpec& spec =
        it == cfg_.spec_overrides.end() ? cfg_.spec : it->second;
    disks_.emplace_back(d, spec, slots, cfg_.content_bytes,
                        cfg_.logical_element_bytes);
    const auto fit = cfg_.fault_overrides.find(d);
    const disk::FaultProfile& profile =
        fit == cfg_.fault_overrides.end() ? cfg_.fault : fit->second;
    if (!profile.inert()) disks_.back().set_fault_profile(profile);
  }
  if (!cfg_.arch.is_mirror()) {
    const int n = cfg_.arch.n();
    if (cfg_.arch.kind() == layout::ArchKind::kRaid5)
      raid_codec_ = std::make_unique<ec::Raid5Codec>(n, n);
    else
      raid_codec_ = std::make_unique<ec::RdpCodec>(n);
    assert(raid_codec_->rows() == cfg_.arch.rows());
    assert(raid_codec_->total_columns() == cfg_.arch.total_disks());
  }
  if (cfg_.drl_region_stripes > 0)
    drl_ = integrity::DirtyRegionLog(cfg_.stripes, cfg_.drl_region_stripes);
  if (cfg_.checksums) sums_ = integrity::ChecksumStore(physical_count(), slots);
  // One jitter stream per physical disk, so a disk's delays depend only
  // on its own retries, whatever order the executor visits disks in.
  retry_jitter_state_.resize(static_cast<std::size_t>(physical_count()));
  for (int d = 0; d < physical_count(); ++d) {
    std::uint64_t& state = retry_jitter_state_[static_cast<std::size_t>(d)];
    state = cfg_.seed ^ 0xa0761d6478bd642fULL ^
            (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(d) + 1));
    splitmix64(state);
  }
  // Only the array-wide profile arms a crash: a power loss takes out the
  // whole array, so a per-disk override cannot model it.
  crash_armed_ = cfg_.fault.crash_armed();
  if (crash_armed_) {
    std::uint64_t s = cfg_.fault.seed ^ 0xc2b2ae3d27d4eb4fULL;
    crash_rng_ = Rng(splitmix64(s));
  }
}

int DiskArray::physical_disk(int logical, int stripe) const {
  return cfg_.rotate ? mapper_.physical_of(logical, stripe) : logical;
}

int DiskArray::logical_disk(int physical, int stripe) const {
  return cfg_.rotate ? mapper_.logical_of(physical, stripe) : physical;
}

std::int64_t DiskArray::slot(int stripe, int row) const {
  assert(stripe >= 0 && stripe < cfg_.stripes);
  assert(row >= 0 && row < cfg_.arch.rows());
  return static_cast<std::int64_t>(stripe) * cfg_.arch.rows() + row;
}

disk::SimDisk& DiskArray::physical(int d) {
  assert(d >= 0 && d < physical_count());
  return disks_[static_cast<std::size_t>(d)];
}

const disk::SimDisk& DiskArray::physical(int d) const {
  assert(d >= 0 && d < physical_count());
  return disks_[static_cast<std::size_t>(d)];
}

std::span<std::uint8_t> DiskArray::content(int logical, int stripe, int row) {
  return physical(physical_disk(logical, stripe)).content(slot(stripe, row));
}

std::span<const std::uint8_t> DiskArray::content(int logical, int stripe,
                                                 int row) const {
  return physical(physical_disk(logical, stripe)).content(slot(stripe, row));
}

void DiskArray::expected_data(int data_disk, int stripe, int row,
                              std::span<std::uint8_t> out) const {
  fill_pattern(element_seed(cfg_.seed, data_disk, stripe, row), out.data(),
               out.size());
}

void DiskArray::init_mirror_stripe(int stripe) {
  const auto& arch = cfg_.arch;
  const int n = arch.n();
  // Data disks.
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < arch.rows(); ++j)
      expected_data(i, stripe, j, content(arch.data_disk(i), stripe, j));
  // Every replica array via its arrangement.
  for (int r = 1; r <= arch.replicas(); ++r) {
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < arch.rows(); ++j) {
        const layout::Pos replica = arch.replica_of(r, i, j);
        auto dst = content(replica.disk, stripe, replica.row);
        auto src = content(arch.data_disk(i), stripe, j);
        std::copy(src.begin(), src.end(), dst.begin());
      }
    }
  }
  // Parity disk: c_j = XOR_i a(i, j).
  if (arch.has_parity()) {
    for (int j = 0; j < arch.rows(); ++j) {
      auto parity = content(arch.parity_disk(), stripe, j);
      gf::region_zero(parity);
      for (int i = 0; i < n; ++i)
        gf::region_xor(content(arch.data_disk(i), stripe, j), parity);
    }
  }
}

void DiskArray::init_raid_stripe(int stripe) {
  ec::ColumnSet cs = raid_codec_->make_stripe(cfg_.content_bytes);
  for (int i = 0; i < cfg_.arch.n(); ++i) {
    for (int j = 0; j < cfg_.arch.rows(); ++j) {
      auto dst = cs.element(i, j);
      expected_data(i, stripe, j, dst);
    }
  }
  const auto st = raid_codec_->encode(cs);
  assert(st.is_ok());
  (void)st;
  for (int col = 0; col < cs.columns(); ++col) {
    for (int j = 0; j < cfg_.arch.rows(); ++j) {
      auto dst = content(col, stripe, j);
      auto src = cs.element(col, j);
      std::copy(src.begin(), src.end(), dst.begin());
    }
  }
}

void DiskArray::initialize() {
  for (int s = 0; s < cfg_.stripes; ++s) {
    if (cfg_.arch.is_mirror())
      init_mirror_stripe(s);
    else
      init_raid_stripe(s);
  }
  if (sums_.enabled()) {
    for (int d = 0; d < total_disks(); ++d) {
      const auto& disk = physical(d);
      for (std::int64_t sl = 0; sl < disk.slot_count(); ++sl)
        sums_.update(d, sl, disk.content(sl));
    }
  }
}

namespace {
Status mismatch(const char* what, int logical, int stripe, int row) {
  return corruption(std::string(what) + " mismatch at logical disk " +
                    std::to_string(logical) + ", stripe " +
                    std::to_string(stripe) + ", row " + std::to_string(row));
}
}  // namespace

Status DiskArray::verify_mirror_stripe(int stripe) const {
  const auto& arch = cfg_.arch;
  const int n = arch.n();
  std::vector<std::uint8_t> expect(cfg_.content_bytes);
  auto live = [&](int logical) {
    return !physical(physical_disk(logical, stripe)).failed();
  };

  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < arch.rows(); ++j) {
      expected_data(i, stripe, j, expect);
      if (live(arch.data_disk(i))) {
        auto got = content(arch.data_disk(i), stripe, j);
        if (!std::equal(got.begin(), got.end(), expect.begin()))
          return mismatch("data", arch.data_disk(i), stripe, j);
      }
      for (int r = 1; r <= arch.replicas(); ++r) {
        const layout::Pos replica = arch.replica_of(r, i, j);
        if (!live(replica.disk)) continue;
        auto got = content(replica.disk, stripe, replica.row);
        if (!std::equal(got.begin(), got.end(), expect.begin()))
          return mismatch("mirror", replica.disk, stripe, replica.row);
      }
    }
  }
  if (arch.has_parity() && live(arch.parity_disk())) {
    std::vector<std::uint8_t> parity(cfg_.content_bytes);
    for (int j = 0; j < arch.rows(); ++j) {
      std::fill(parity.begin(), parity.end(), 0);
      for (int i = 0; i < n; ++i) {
        expected_data(i, stripe, j, expect);
        gf::region_xor(expect, parity);
      }
      auto got = content(arch.parity_disk(), stripe, j);
      if (!std::equal(got.begin(), got.end(), parity.begin()))
        return mismatch("parity", arch.parity_disk(), stripe, j);
    }
  }
  return Status::ok();
}

Status DiskArray::verify_raid_stripe(int stripe) const {
  ec::ColumnSet cs = raid_codec_->make_stripe(cfg_.content_bytes);
  for (int i = 0; i < cfg_.arch.n(); ++i)
    for (int j = 0; j < cfg_.arch.rows(); ++j) {
      auto dst = cs.element(i, j);
      expected_data(i, stripe, j, dst);
    }
  SMA_RETURN_IF_ERROR(raid_codec_->encode(cs));
  for (int col = 0; col < cs.columns(); ++col) {
    if (physical(physical_disk(col, stripe)).failed()) continue;
    for (int j = 0; j < cfg_.arch.rows(); ++j) {
      auto got = content(col, stripe, j);
      auto want = cs.element(col, j);
      if (!std::equal(got.begin(), got.end(), want.begin()))
        return mismatch("raid", col, stripe, j);
    }
  }
  return Status::ok();
}

Status DiskArray::verify_all() const {
  for (int s = 0; s < cfg_.stripes; ++s) {
    if (cfg_.arch.is_mirror()) {
      SMA_RETURN_IF_ERROR(verify_mirror_stripe(s));
    } else {
      SMA_RETURN_IF_ERROR(verify_raid_stripe(s));
    }
  }
  return Status::ok();
}

Status DiskArray::verify_consistency(const ElementSet* skip) const {
  std::vector<std::uint8_t> expect(cfg_.content_bytes);
  const auto skipped = [&](int logical, int s, int row) {
    return skip != nullptr && skip->count({logical, s, row}) > 0;
  };
  for (int s = 0; s < cfg_.stripes; ++s) {
    auto live = [&](int logical) {
      return !physical(physical_disk(logical, s)).failed();
    };
    if (cfg_.arch.is_mirror()) {
      const int n = cfg_.arch.n();
      // Every live copy of an element against its first live copy
      // (the data copy unless its disk failed).
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < cfg_.arch.rows(); ++j) {
          layout::Pos first{-1, -1};
          for (int c = 0; c <= cfg_.arch.replicas(); ++c) {
            const layout::Pos copy = cfg_.arch.copy_of(c, i, j);
            if (!live(copy.disk) || skipped(copy.disk, s, copy.row)) continue;
            if (first.disk < 0) {
              first = copy;
              continue;
            }
            auto a = content(first.disk, s, first.row);
            auto b = content(copy.disk, s, copy.row);
            if (!std::equal(a.begin(), a.end(), b.begin()))
              return mismatch("mirror-consistency", copy.disk, s, copy.row);
          }
        }
      }
      if (cfg_.arch.has_parity() && live(cfg_.arch.parity_disk())) {
        bool all_data_live = true;
        for (int i = 0; i < n; ++i)
          if (!live(cfg_.arch.data_disk(i))) all_data_live = false;
        if (all_data_live) {
          for (int j = 0; j < cfg_.arch.rows(); ++j) {
            bool row_skipped = skipped(cfg_.arch.parity_disk(), s, j);
            for (int i = 0; i < n && !row_skipped; ++i)
              row_skipped = skipped(cfg_.arch.data_disk(i), s, j);
            if (row_skipped) continue;
            std::fill(expect.begin(), expect.end(), 0);
            for (int i = 0; i < n; ++i)
              gf::region_xor(content(cfg_.arch.data_disk(i), s, j), expect);
            auto got = content(cfg_.arch.parity_disk(), s, j);
            if (!std::equal(got.begin(), got.end(), expect.begin()))
              return mismatch("parity-consistency", cfg_.arch.parity_disk(),
                              s, j);
          }
        }
      }
    } else {
      bool all_data_live = true;
      for (int i = 0; i < cfg_.arch.n(); ++i)
        if (!live(i)) all_data_live = false;
      if (!all_data_live) continue;
      if (skip != nullptr) {
        bool stripe_skipped = false;
        for (int col = 0; col < cfg_.arch.total_disks() && !stripe_skipped;
             ++col)
          for (int j = 0; j < cfg_.arch.rows() && !stripe_skipped; ++j)
            stripe_skipped = skipped(col, s, j);
        if (stripe_skipped) continue;
      }
      ec::ColumnSet cs = raid_codec_->make_stripe(cfg_.content_bytes);
      for (int i = 0; i < cfg_.arch.n(); ++i)
        for (int j = 0; j < cfg_.arch.rows(); ++j) {
          auto src = content(i, s, j);
          auto dst = cs.element(i, j);
          std::copy(src.begin(), src.end(), dst.begin());
        }
      SMA_RETURN_IF_ERROR(raid_codec_->encode(cs));
      for (int col = cfg_.arch.n(); col < cs.columns(); ++col) {
        if (!live(col)) continue;
        for (int j = 0; j < cfg_.arch.rows(); ++j) {
          auto got = content(col, s, j);
          auto want = cs.element(col, j);
          if (!std::equal(got.begin(), got.end(), want.begin()))
            return mismatch("raid-consistency", col, s, j);
        }
      }
    }
  }
  return Status::ok();
}

Status DiskArray::verify_logical_disk(int logical) const {
  const auto& arch = cfg_.arch;
  std::vector<std::uint8_t> expect(cfg_.content_bytes);
  for (int s = 0; s < cfg_.stripes; ++s) {
    if (physical(physical_disk(logical, s)).failed())
      return failed_precondition("logical disk " + std::to_string(logical) +
                                 " is on a failed physical disk in stripe " +
                                 std::to_string(s));
    for (int j = 0; j < arch.rows(); ++j) {
      auto got = content(logical, s, j);
      switch (arch.role_of(logical)) {
        case layout::DiskRole::kData:
          expected_data(logical, s, j, expect);
          break;
        case layout::DiskRole::kMirror: {
          const layout::Pos src = arch.replicated_by(
              arch.array_of(logical), arch.role_index(logical), j);
          expected_data(src.disk, s, src.row, expect);
          break;
        }
        case layout::DiskRole::kParity: {
          std::fill(expect.begin(), expect.end(), 0);
          std::vector<std::uint8_t> tmp(cfg_.content_bytes);
          for (int i = 0; i < arch.n(); ++i) {
            expected_data(i, s, j, tmp);
            gf::region_xor(tmp, expect);
          }
          break;
        }
      }
      if (!std::equal(got.begin(), got.end(), expect.begin()))
        return mismatch("element", logical, s, j);
    }
  }
  return Status::ok();
}

void DiskArray::fail_physical(int d) { physical(d).fail(); }

bool DiskArray::faults_active() const {
  for (const auto& d : disks_)
    if (!d.fault_profile().inert()) return true;
  return false;
}

bool DiskArray::element_latent(int logical, int stripe, int row) const {
  const auto& d = physical(physical_disk(logical, stripe));
  return !d.failed() && d.slot_unreadable(slot(stripe, row));
}

void DiskArray::clear_element_latent(int logical, int stripe, int row) {
  physical(physical_disk(logical, stripe)).clear_latent(slot(stripe, row));
}

void DiskArray::restore_element(int logical, int stripe, int row,
                                std::span<const std::uint8_t> bytes) {
  const int phys = physical_disk(logical, stripe);
  const std::int64_t sl = slot(stripe, row);
  physical(phys).restore_content(sl, bytes);
  if (sums_.enabled()) sums_.update(phys, sl, bytes);
}

void DiskArray::update_element_checksum(int logical, int stripe, int row) {
  assert(sums_.enabled());
  const int phys = physical_disk(logical, stripe);
  const std::int64_t sl = slot(stripe, row);
  sums_.update(phys, sl, physical(phys).content(sl));
}

bool DiskArray::element_checksum_ok(int logical, int stripe, int row) const {
  assert(sums_.enabled());
  const int phys = physical_disk(logical, stripe);
  const std::int64_t sl = slot(stripe, row);
  return sums_.matches(phys, sl, physical(phys).content(sl));
}

Status DiskArray::verify_checksums() const {
  if (!sums_.enabled())
    return failed_precondition(
        "verify_checksums() on an array without checksums enabled");
  for (int s = 0; s < cfg_.stripes; ++s) {
    for (int logical = 0; logical < total_disks(); ++logical) {
      if (physical(physical_disk(logical, s)).failed()) continue;
      for (int j = 0; j < cfg_.arch.rows(); ++j) {
        if (!element_checksum_ok(logical, s, j))
          return corruption("checksum mismatch at logical disk " +
                            std::to_string(logical) + ", stripe " +
                            std::to_string(s) + ", row " + std::to_string(j));
      }
    }
  }
  return Status::ok();
}

Status DiskArray::power_cycle() {
  if (!crashed_)
    return failed_precondition(
        "power_cycle() on an array that is not powered off");
  crashed_ = false;  // the crash point stays consumed: crash_armed_ off
  reset_timelines();
  return Status::ok();
}

void DiskArray::apply_crash(const Op& op, double t) {
  crashed_ = true;
  crash_armed_ = false;
  crash_time_ = t;
  // Contents always live on the element's home disk (spare placements
  // redirect only the timed I/O), so the torn/lost/misdirected outcome
  // mutates the home slot even when the op was redirected.
  const int home = physical_disk(op.logical_disk, op.stripe);
  auto& hd = physical(home);
  const std::int64_t sl = slot(op.stripe, op.row);
  auto bytes = hd.content(sl);
  std::vector<std::uint8_t> garble(bytes.size());
  fill_pattern(crash_rng_.next_u64(), garble.data(), garble.size());
  const double u = crash_rng_.next_double();
  if (u < cfg_.fault.torn_write_p) {
    // Torn: a prefix of the new bytes reached media, the tail is junk.
    std::copy(garble.begin() + static_cast<std::ptrdiff_t>(garble.size() / 2),
              garble.end(),
              bytes.begin() + static_cast<std::ptrdiff_t>(bytes.size() / 2));
  } else if (u < cfg_.fault.torn_write_p + cfg_.fault.misdirected_write_p) {
    // Misdirected: the new bytes landed on an adjacent slot, clobbering
    // it; the intended target kept stale (unknown) data.
    const std::int64_t nsl = sl + 1 < hd.slot_count() ? sl + 1 : sl - 1;
    if (nsl >= 0) {
      auto neighbor = hd.content(nsl);
      std::copy(bytes.begin(), bytes.end(), neighbor.begin());
      if (hd.failed()) hd.clear_restored(nsl);
    }
    std::copy(garble.begin(), garble.end(), bytes.begin());
  } else {
    // Lost: nothing reached media; the slot holds stale (unknown) data.
    std::copy(garble.begin(), garble.end(), bytes.begin());
  }
  // If a rebuild had already accounted this slot as restored, the crash
  // un-restores it: heal() must wait for a re-rebuild.
  if (hd.failed()) hd.clear_restored(sl);
  if (observer_ != nullptr) {
    obs::TraceEvent ev;
    ev.kind = obs::EventKind::kCrash;
    ev.t_s = t;
    ev.disk = home;
    ev.slot = sl;
    ev.stripe = op.stripe;
    ev.write = true;
    observer_->emit(ev);
    observer_->count("array.crashes");
  }
}

void DiskArray::lose_write(const Op& op) {
  const int home = physical_disk(op.logical_disk, op.stripe);
  auto& hd = physical(home);
  const std::int64_t sl = slot(op.stripe, op.row);
  auto bytes = hd.content(sl);
  fill_pattern(crash_rng_.next_u64(), bytes.data(), bytes.size());
  if (hd.failed()) hd.clear_restored(sl);
}

double DiskArray::retry_delay(int phys, int attempt) {
  const int exp = std::min(attempt - 1, 62);
  double delay = cfg_.retry_backoff_base_s * static_cast<double>(1ULL << exp);
  if (cfg_.retry_backoff_cap_s > 0.0)
    delay = std::min(delay, cfg_.retry_backoff_cap_s);
  if (cfg_.retry_backoff_jitter > 0.0) {
    std::uint64_t& state = retry_jitter_state_[static_cast<std::size_t>(phys)];
    const double u = static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
    delay *= 1.0 - cfg_.retry_backoff_jitter * u;
  }
  return delay;
}

std::vector<int> DiskArray::failed_physical() const {
  std::vector<int> out;
  for (int d = 0; d < total_disks(); ++d)
    if (physical(d).failed()) out.push_back(d);
  return out;
}

void DiskArray::submit_with_retry(const Op& op, int phys, double start_time,
                                  BatchStats& stats) {
  auto& d = physical(phys);
  const std::int64_t sl = slot(op.stripe, op.row);
  int attempts = 0;
  double earliest = start_time;
  for (;;) {
    const disk::IoResult res = d.submit(op.kind, sl, earliest);
    if (res.is_ok()) {
      stats.end_s = std::max(stats.end_s, res.value());
      if (op.kind == disk::IoKind::kRead)
        stats.logical_bytes_read += d.logical_element_bytes();
      else
        stats.logical_bytes_written += d.logical_element_bytes();
      break;
    }
    // Errored attempts still occupied the disk for their service time.
    stats.end_s = std::max(stats.end_s, d.busy_until());
    // A restored slot of a still-failed disk serves like a live one (the
    // rebuild's replacement writes), so its transient errors retry too.
    const bool transient = res.status().code() == ErrorCode::kIoError &&
                           (!d.failed() || d.slot_restored(sl));
    if (transient && attempts < cfg_.io_max_retries) {
      ++attempts;
      ++stats.retried_ops;
      // Model the retry delay when configured: the re-submission backs
      // off (capped exponential, seeded jitter) after the failed attempt
      // drains. The guard keeps the default (0) path bit-identical.
      if (cfg_.retry_backoff_base_s > 0.0)
        earliest = d.busy_until() + retry_delay(phys, attempts);
      if (observer_ != nullptr) {
        obs::TraceEvent ev;
        ev.kind = obs::EventKind::kRetry;
        ev.t_s = d.busy_until();
        ev.disk = phys;
        ev.slot = sl;
        ev.stripe = op.stripe;
        ev.write = op.kind == disk::IoKind::kWrite;
        observer_->emit(ev);
        observer_->count("array.retried_ops");
      }
      continue;
    }
    if (res.status().code() == ErrorCode::kUnreadableSector)
      ++stats.unreadable_ops;
    ++stats.failed_ops;
    if (observer_ != nullptr) observer_->count("array.failed_ops");
    break;
  }
  stats.max_retry_depth = std::max(stats.max_retry_depth, attempts);
}

BatchStats DiskArray::execute(std::span<const Op> ops, double start_time) {
  // One hoisted branch keeps the default (no crash, no DRL) path
  // bit-identical to the pre-integrity executor.
  const bool integrity_hooks = crash_armed_ || crashed_ || drl_.enabled();
  // No array-level instrumentation: take the grouped-per-disk fast
  // path. Per-disk fault machinery (fail-stops, latent sectors,
  // transient errors, failed disks) is handled inside execute_batched
  // by falling back to per-op submission for just those disks.
  if (!integrity_hooks && observer_ == nullptr)
    return execute_batched(ops, start_time);
  BatchStats stats;
  stats.start_s = start_time;
  stats.end_s = start_time;
  // Write intent is logged at batch admission, before any op is issued
  // (md writes the bitmap bit before the data): a crash anywhere inside
  // the batch leaves every incomplete write's region dirty for resync.
  if (integrity_hooks && !crashed_ && drl_.enabled()) {
    for (const Op& op : ops)
      if (op.kind == disk::IoKind::kWrite) drl_.mark(op.stripe);
  }
  std::vector<int> per_disk(static_cast<std::size_t>(physical_count()), 0);
  for (const Op& op : ops) {
    const int phys = op.redirect_phys >= 0
                         ? op.redirect_phys
                         : physical_disk(op.logical_disk, op.stripe);
    ++per_disk[static_cast<std::size_t>(phys)];
    if (integrity_hooks) {
      const bool is_write = op.kind == disk::IoKind::kWrite;
      if (crashed_) {
        // Powered off: nothing serves; a write's bytes are lost.
        stats.crashed = true;
        ++stats.failed_ops;
        if (is_write) {
          ++stats.lost_writes;
          lose_write(op);
        }
        continue;
      }
      if (is_write) {
        if (crash_armed_) {
          const double would_start =
              std::max(start_time, physical(phys).busy_until());
          const bool fire =
              (cfg_.fault.crash_after_writes >= 0 &&
               writes_seen_ == cfg_.fault.crash_after_writes) ||
              (cfg_.fault.crash_at_s >= 0.0 &&
               would_start >= cfg_.fault.crash_at_s);
          ++writes_seen_;
          if (fire) {
            apply_crash(op, would_start);
            stats.crashed = true;
            ++stats.failed_ops;
            ++stats.lost_writes;
            continue;
          }
        }
      }
    }
    submit_with_retry(op, phys, start_time, stats);
  }
  stats.max_ops_per_disk = *std::max_element(per_disk.begin(), per_disk.end());
  return stats;
}

BatchStats DiskArray::execute_batched(std::span<const Op> ops,
                                      double start_time) {
  BatchStats stats;
  stats.start_s = start_time;
  stats.end_s = start_time;
  const std::size_t disk_count = static_cast<std::size_t>(physical_count());

  // Counting sort of op indices by physical disk — stable, so each
  // disk's slice of batch_order_ is its FIFO op order from `ops`.
  batch_count_.assign(disk_count, 0);
  for (const Op& op : ops) {
    const int phys = op.redirect_phys >= 0
                         ? op.redirect_phys
                         : physical_disk(op.logical_disk, op.stripe);
    ++batch_count_[static_cast<std::size_t>(phys)];
  }
  batch_offset_.resize(disk_count + 1);
  batch_offset_[0] = 0;
  for (std::size_t d = 0; d < disk_count; ++d) {
    batch_offset_[d + 1] = batch_offset_[d] + batch_count_[d];
    stats.max_ops_per_disk = std::max(stats.max_ops_per_disk, batch_count_[d]);
  }
  batch_order_.resize(ops.size());
  for (std::size_t d = 0; d < disk_count; ++d)
    batch_count_[d] = batch_offset_[d];
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const int phys = op.redirect_phys >= 0
                         ? op.redirect_phys
                         : physical_disk(op.logical_disk, op.stripe);
    batch_order_[static_cast<std::size_t>(
        batch_count_[static_cast<std::size_t>(phys)]++)] =
        static_cast<std::uint32_t>(i);
  }

  for (std::size_t dd = 0; dd < disk_count; ++dd) {
    const int begin = batch_offset_[dd];
    const int end = batch_offset_[dd + 1];
    if (begin == end) continue;
    auto& d = disks_[dd];
    if (d.can_batch()) {
      batch_run_.clear();
      std::uint64_t read_ops = 0;
      for (int k = begin; k < end; ++k) {
        const Op& op = ops[batch_order_[static_cast<std::size_t>(k)]];
        batch_run_.push_back({op.kind, slot(op.stripe, op.row)});
        read_ops += op.kind == disk::IoKind::kRead;
      }
      const double run_end = d.submit_run(batch_run_, start_time);
      stats.end_s = std::max(stats.end_s, run_end);
      stats.logical_bytes_read += read_ops * d.logical_element_bytes();
      stats.logical_bytes_written +=
          (static_cast<std::uint64_t>(end - begin) - read_ops) *
          d.logical_element_bytes();
      continue;
    }
    // This disk carries live fault machinery (or is failed): submit its
    // ops one at a time, exactly as the general executor does.
    for (int k = begin; k < end; ++k)
      submit_with_retry(ops[batch_order_[static_cast<std::size_t>(k)]],
                        static_cast<int>(dd), start_time, stats);
  }
  return stats;
}

void DiskArray::set_observer(obs::Observer* observer) {
  observer_ = observer;
  for (auto& d : disks_) d.set_observer(observer);
}

void DiskArray::reset_timelines() {
  for (auto& d : disks_) d.reset_timeline();
}

void DiskArray::reset_counters() {
  for (auto& d : disks_) d.reset_counters();
}

}  // namespace sma::array
