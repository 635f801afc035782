#include "disk/sim_disk.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <string>

#include "obs/observer.hpp"

namespace sma::disk {

SimDisk::SimDisk(int id, DiskSpec spec, std::int64_t slot_count,
                 std::size_t content_bytes,
                 std::uint64_t logical_element_bytes)
    : id_(id),
      spec_(spec),
      slot_count_(slot_count),
      content_bytes_(content_bytes),
      logical_element_bytes_(logical_element_bytes),
      store_(content_bytes) {
  assert(slot_count > 0);
  assert(content_bytes > 0);
  assert(logical_element_bytes > 0);
}

double SimDisk::peek_service_s(IoKind kind, std::int64_t slot) const {
  const bool sequential = slot == head_slot_ + 1;
  const double position = sequential ? 0.0 : spec_.positioning_s();
  const double transfer = kind == IoKind::kRead
                              ? spec_.read_transfer_s(logical_element_bytes_)
                              : spec_.write_transfer_s(logical_element_bytes_);
  // slow_factor is exactly 1.0 for the inert profile, so the default
  // timing model is reproduced bit for bit.
  return (position + transfer) * fault_.slow_factor;
}

IoResult SimDisk::submit(IoKind kind, std::int64_t slot,
                         double earliest_start) {
  if (slot < 0 || slot >= slot_count_)
    return out_of_range("slot " + std::to_string(slot) +
                        " out of range on disk " + std::to_string(id_));
  // A failed disk's replacement serves slots already rebuilt onto it:
  // mid-rebuild, restored slots are live data (reads for a resumed
  // rebuild, the replacement writes themselves). Everything else on a
  // failed disk is an error, as before.
  if (failed_ && !slot_restored(slot))
    return io_error("I/O submitted to failed disk " + std::to_string(id_));
  const double start = std::max(earliest_start, busy_until_);
  if (fail_stop_armed_ && !failed_ && start >= fault_.fail_at_s) {
    // The scheduled fail-stop manifests on the first access that would
    // start at or after it: the disk dies instead of serving.
    fail_stop_armed_ = false;
    fail();
    if (observer_ != nullptr) {
      obs::TraceEvent ev;
      ev.kind = obs::EventKind::kFailure;
      ev.t_s = fault_.fail_at_s;
      ev.disk = id_;
      observer_->emit(ev);
    }
    return io_error("disk " + std::to_string(id_) +
                    " fail-stopped at scheduled t=" +
                    std::to_string(fault_.fail_at_s));
  }
  const double service = peek_service_s(kind, slot);
  const bool sequential = slot == head_slot_ + 1;
  busy_until_ = start + service;
  head_slot_ = slot;

  if (kind == IoKind::kRead)
    ++counters_.reads;
  else
    ++counters_.writes;
  if (sequential) ++counters_.sequential;
  counters_.busy_s += service;
  if (observer_ != nullptr) {
    obs::TraceEvent ev;
    ev.kind = obs::EventKind::kServiceStart;
    ev.t_s = start;
    ev.dur_s = service;
    ev.disk = id_;
    ev.slot = slot;
    ev.write = kind == IoKind::kWrite;
    observer_->emit(ev);
    ev.kind = obs::EventKind::kServiceEnd;
    ev.t_s = busy_until_;
    ev.dur_s = 0.0;
    observer_->emit(ev);
  }

  // Error checks charge the full service time (above) first: the disk
  // was occupied attempting the access either way.
  if (kind == IoKind::kRead) {
    if (slot_unreadable(slot)) {
      ++counters_.unreadable_errors;
      return unreadable_sector("latent sector at slot " +
                               std::to_string(slot) + " on disk " +
                               std::to_string(id_));
    }
    if (fault_.transient_read_error_p > 0.0 && fault_.transient_active(start) &&
        fault_rng_.next_bool(fault_.transient_read_error_p)) {
      ++counters_.transient_errors;
      return io_error("transient read error on disk " + std::to_string(id_));
    }
    counters_.logical_bytes_read += logical_element_bytes_;
  } else {
    if (fault_.transient_write_error_p > 0.0 &&
        fault_.transient_active(start) &&
        fault_rng_.next_bool(fault_.transient_write_error_p)) {
      ++counters_.transient_errors;
      return io_error("transient write error on disk " + std::to_string(id_));
    }
    counters_.logical_bytes_written += logical_element_bytes_;
    clear_latent(slot);  // a successful write remaps the sector
  }
  return busy_until_;
}

void SimDisk::reset_timeline() {
  busy_until_ = 0.0;
  head_slot_ = -2;
}

void SimDisk::reset_counters() { counters_ = DiskCounters{}; }

std::span<std::uint8_t> SimDisk::content(std::int64_t slot) {
  assert(slot >= 0 && slot < slot_count_);
  if (!content_materialized()) {
    // Every byte of the fill element is equal: nothing can write to it
    // before the store grows here.
    const std::uint8_t fill = store_.front();
    store_.resize(static_cast<std::size_t>(slot_count_) * content_bytes_,
                  fill);
  }
  return {store_.data() + static_cast<std::size_t>(slot) * content_bytes_,
          content_bytes_};
}

std::span<const std::uint8_t> SimDisk::content(std::int64_t slot) const {
  assert(slot >= 0 && slot < slot_count_);
  const std::size_t offset =
      content_materialized() ? static_cast<std::size_t>(slot) * content_bytes_
                             : 0;
  return {store_.data() + offset, content_bytes_};
}

void SimDisk::set_fault_profile(const FaultProfile& profile) {
  fault_ = profile;
  fail_stop_armed_ = profile.fail_at_s >= 0.0;
  // Independent stream per (seed, disk): one SplitMix64 mix, same idiom
  // as the per-element content seeding.
  std::uint64_t s = profile.seed ^
                    (0x9e3779b97f4a7c15ULL *
                     (static_cast<std::uint64_t>(static_cast<unsigned>(id_)) +
                      1));
  fault_rng_ = Rng(splitmix64(s));
  latent_.assign(static_cast<std::size_t>(slot_count_), false);
  latent_count_ = 0;
  if (profile.latent_error_rate > 0.0) {
    for (std::int64_t i = 0; i < slot_count_; ++i) {
      if (fault_rng_.next_bool(profile.latent_error_rate)) {
        latent_[static_cast<std::size_t>(i)] = true;
        ++latent_count_;
      }
    }
  }
}

void SimDisk::clear_latent(std::int64_t slot) {
  assert(slot >= 0 && slot < slot_count_);
  if (latent_count_ > 0 && latent_[static_cast<std::size_t>(slot)]) {
    latent_[static_cast<std::size_t>(slot)] = false;
    --latent_count_;
  }
}

void SimDisk::fail() {
  failed_ = true;
  // Scramble rather than zero: zeroed contents can masquerade as valid
  // parity, hiding reconstruction bugs.
  std::memset(store_.data(), 0xDB, store_.size());
  restored_.assign(static_cast<std::size_t>(slot_count_), false);
  restored_count_ = 0;
}

void SimDisk::clear_restored(std::int64_t slot) {
  assert(slot >= 0 && slot < slot_count_);
  if (restored_count_ > 0 && restored_[static_cast<std::size_t>(slot)]) {
    restored_[static_cast<std::size_t>(slot)] = false;
    --restored_count_;
  }
}

void SimDisk::restore_content(std::int64_t slot,
                              std::span<const std::uint8_t> bytes) {
  assert(failed_ && "restore_content targets a failed disk");
  assert(bytes.size() == content_bytes_);
  auto dst = content(slot);
  std::copy(bytes.begin(), bytes.end(), dst.begin());
  // The restored slot lives on replacement media: any latent sector the
  // old platters carried there is gone (heal() would discard the whole
  // set anyway; clearing per-slot keeps mid-rebuild service honest).
  clear_latent(slot);
  if (!restored_[static_cast<std::size_t>(slot)]) {
    restored_[static_cast<std::size_t>(slot)] = true;
    ++restored_count_;
  }
}

Status SimDisk::heal() {
  if (!failed_)
    return failed_precondition("heal() on disk " + std::to_string(id_) +
                               " that is not failed");
  if (!fully_restored())
    return failed_precondition(
        "heal() on disk " + std::to_string(id_) +
        " without full content restoration (" +
        std::to_string(restored_count_) + "/" + std::to_string(slot_count_) +
        " slots restored) would serve the fail() scramble pattern");
  failed_ = false;
  // Replacement hardware: the old platters' latent sectors are gone and
  // the consumed fail-stop does not re-arm.
  if (latent_count_ > 0) {
    latent_.assign(static_cast<std::size_t>(slot_count_), false);
    latent_count_ = 0;
  }
  fail_stop_armed_ = false;
  return Status::ok();
}

}  // namespace sma::disk
