#include "recon/executor.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "gf/region.hpp"
#include "recon/plan.hpp"
#include "util/units.hpp"

namespace sma::recon {

namespace {

using Buffer = std::vector<std::uint8_t>;
using ElemPos = std::pair<int, int>;  // (logical disk, row)

bool contains(const std::vector<int>& v, int x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

/// Fault-path tallies accumulated across all stripes of one rebuild.
struct FaultCounts {
  std::uint64_t latent_sectors_hit = 0;
  std::uint64_t fallback_to_mirror = 0;
  std::uint64_t fallback_to_parity = 0;
  std::uint64_t fallback_to_codec = 0;
  std::uint64_t unrecoverable_elements = 0;
};

/// Per-stripe recovery state: staged contents for each failed logical
/// disk, which of those elements actually got recovered, and the exact
/// element reads recovery consumed (the reads the rebuild times, in
/// ascending (logical disk, row) order).
struct StripeRecovery {
  explicit StripeRecovery(const layout::Architecture& arch)
      : availability_reads(arch.total_disks(), arch.rows()),
        parity_rebuild_reads(arch.total_disks(), arch.rows()) {}

  std::map<int, std::vector<Buffer>> staged;
  std::map<int, std::vector<char>> staged_ok;
  ReadSet availability_reads;
  ReadSet parity_rebuild_reads;
  std::vector<ElemPos> unrecoverable;
};

/// Recover the contents of every failed logical disk of one mirror
/// stripe into `rec.staged[logical][row]`, falling back across
/// redundancy paths (the other live copies, then parity-XOR) when a
/// source element is unreadable. A lost cell tries the plan's chosen
/// copy first (R >= 2), then the element's other live copies in order.
/// Elements with no surviving path are zero-filled and listed in
/// rec.unrecoverable rather than failing the stripe.
Status recover_mirror_stripe(const array::DiskArray& arr, int stripe,
                             const std::vector<int>& failed,
                             const StripePlan& plan, StripeRecovery& rec,
                             FaultCounts& fc) {
  const auto& arch = arr.arch();
  const std::size_t eb = arr.config().content_bytes;
  const int n = arch.n();
  const int rows = arch.rows();
  const int replicas = arch.replicas();

  std::vector<int> lost;  // failed data and replica disks, `failed` order
  bool parity_failed = false;
  for (const int disk : failed) {
    if (arch.array_of(disk) < 0)
      parity_failed = true;
    else
      lost.push_back(disk);
  }
  for (const int disk : failed) {
    rec.staged.emplace(disk, std::vector<Buffer>(
                                 static_cast<std::size_t>(rows), Buffer(eb)));
    rec.staged_ok.emplace(
        disk, std::vector<char>(static_cast<std::size_t>(rows), 0));
  }

  auto mark_unrecoverable = [&](int disk, int j, Buffer& dst) {
    std::fill(dst.begin(), dst.end(), 0);
    rec.unrecoverable.push_back({disk, j});
    ++fc.unrecoverable_elements;
  };

  // XOR the value of data element (i, j) into `acc`, best source first:
  // the data copy, an already-staged recovery (in memory, no read), a
  // replica. Reads land in `local_reads` and replica fallbacks in
  // `local_mirror` so a caller whose chain aborts midway can discard
  // them instead of charging reads that were never consumed.
  auto xor_data_into = [&](int i, int j, Buffer& acc,
                           std::vector<ElemPos>& local_reads,
                           int& local_mirror) -> bool {
    const int dd = arch.data_disk(i);
    if (!contains(failed, dd)) {
      if (!arr.element_latent(dd, stripe, j)) {
        gf::region_xor(arr.content(dd, stripe, j), acc);
        local_reads.push_back({dd, j});
        return true;
      }
      ++fc.latent_sectors_hit;
    } else if (rec.staged_ok.at(dd)[static_cast<std::size_t>(j)]) {
      gf::region_xor(rec.staged.at(dd)[static_cast<std::size_t>(j)], acc);
      return true;
    }
    for (int r = 1; r <= replicas; ++r) {
      const layout::Pos rp = arch.replica_of(r, i, j);
      if (contains(failed, rp.disk)) continue;
      if (!arr.element_latent(rp.disk, stripe, rp.row)) {
        gf::region_xor(arr.content(rp.disk, stripe, rp.row), acc);
        local_reads.push_back({rp.disk, rp.row});
        ++local_mirror;
        return true;
      }
      ++fc.latent_sectors_hit;
    }
    return false;
  };

  // Recover data element (x, j) through the parity equation (paper
  // Section V-B case 4): XOR of the rest of row j with the parity
  // element. Reads are committed only if the whole chain succeeds.
  auto recover_via_parity = [&](int x, int j, Buffer& dst) -> bool {
    if (!arch.has_parity() || parity_failed) return false;
    const int pd = arch.parity_disk();
    if (arr.element_latent(pd, stripe, j)) {
      ++fc.latent_sectors_hit;
      return false;
    }
    std::vector<ElemPos> local_reads;
    int local_mirror = 0;
    std::fill(dst.begin(), dst.end(), 0);
    for (int i = 0; i < n; ++i) {
      if (i == x) continue;
      if (!xor_data_into(i, j, dst, local_reads, local_mirror)) {
        std::fill(dst.begin(), dst.end(), 0);
        return false;
      }
    }
    gf::region_xor(arr.content(pd, stripe, j), dst);
    local_reads.push_back({pd, j});
    for (const auto& [d, r] : local_reads) rec.availability_reads.insert(d, r);
    fc.fallback_to_mirror += static_cast<std::uint64_t>(local_mirror);
    return true;
  };

  // Copy lost cell (disk, j), which holds data element `src`, from its
  // first readable live copy: the plan's choice (R >= 2), then the other
  // copies 0..R in order. Taking a copy past a latent one is a fallback.
  auto recover_from_copies = [&](std::size_t lost_index, int disk, int j,
                                 layout::Pos src, Buffer& dst) -> bool {
    const int own = arch.array_of(disk);
    const int chosen =
        plan.sources.empty()
            ? -1
            : arch.array_of(
                  plan.sources[lost_index * static_cast<std::size_t>(rows) +
                               static_cast<std::size_t>(j)]
                      .from.logical_disk);
    int tried = 0;
    for (int k = -1; k <= replicas; ++k) {
      const int c = k < 0 ? chosen : k;
      if (c < 0 || c == own || (k >= 0 && c == chosen)) continue;
      const layout::Pos copy = arch.copy_of(c, src.disk, src.row);
      if (contains(failed, copy.disk)) continue;
      if (arr.element_latent(copy.disk, stripe, copy.row)) {
        ++fc.latent_sectors_hit;
        ++tried;
        continue;
      }
      auto bytes = arr.content(copy.disk, stripe, copy.row);
      std::copy(bytes.begin(), bytes.end(), dst.begin());
      rec.availability_reads.insert(copy.disk, copy.row);
      if (tried > 0) ++fc.fallback_to_mirror;
      return true;
    }
    return false;
  };

  // Data disks first: every later step may consult them.
  for (std::size_t k = 0; k < lost.size(); ++k) {
    const int xd = lost[k];
    if (arch.array_of(xd) != 0) continue;
    const int x = arch.role_index(xd);
    for (int j = 0; j < rows; ++j) {
      Buffer& dst = rec.staged.at(xd)[static_cast<std::size_t>(j)];
      if (recover_from_copies(k, xd, j, {x, j}, dst)) {
        rec.staged_ok.at(xd)[static_cast<std::size_t>(j)] = 1;
        continue;
      }
      if (recover_via_parity(x, j, dst)) {
        rec.staged_ok.at(xd)[static_cast<std::size_t>(j)] = 1;
        ++fc.fallback_to_parity;
        continue;
      }
      mark_unrecoverable(xd, j, dst);
    }
  }

  for (std::size_t k = 0; k < lost.size(); ++k) {
    const int yd = lost[k];
    const int array = arch.array_of(yd);
    if (array == 0) continue;
    const int y = arch.role_index(yd);
    for (int j = 0; j < rows; ++j) {
      Buffer& dst = rec.staged.at(yd)[static_cast<std::size_t>(j)];
      const layout::Pos src = arch.replicated_by(array, y, j);
      const int sd = arch.data_disk(src.disk);
      if (contains(failed, sd)) {
        // Source data disk failed too: its staged recovery (if any)
        // already tried every other copy.
        if (rec.staged_ok.at(sd)[static_cast<std::size_t>(src.row)]) {
          dst = rec.staged.at(sd)[static_cast<std::size_t>(src.row)];
          rec.staged_ok.at(yd)[static_cast<std::size_t>(j)] = 1;
        } else {
          mark_unrecoverable(yd, j, dst);
        }
        continue;
      }
      if (recover_from_copies(k, yd, j, src, dst)) {
        rec.staged_ok.at(yd)[static_cast<std::size_t>(j)] = 1;
        continue;
      }
      if (recover_via_parity(src.disk, src.row, dst)) {
        rec.staged_ok.at(yd)[static_cast<std::size_t>(j)] = 1;
        ++fc.fallback_to_parity;
        continue;
      }
      mark_unrecoverable(yd, j, dst);
    }
  }

  if (parity_failed) {
    const int pd = arch.parity_disk();
    for (int j = 0; j < rows; ++j) {
      Buffer& dst = rec.staged.at(pd)[static_cast<std::size_t>(j)];
      std::vector<ElemPos> local_reads;
      int local_mirror = 0;
      std::fill(dst.begin(), dst.end(), 0);
      bool ok = true;
      for (int i = 0; i < n; ++i) {
        if (!xor_data_into(i, j, dst, local_reads, local_mirror)) {
          ok = false;
          break;
        }
      }
      if (ok) {
        rec.staged_ok.at(pd)[static_cast<std::size_t>(j)] = 1;
        for (const auto& [d, r] : local_reads)
          rec.parity_rebuild_reads.insert(d, r);
        fc.fallback_to_mirror += static_cast<std::uint64_t>(local_mirror);
      } else {
        mark_unrecoverable(pd, j, dst);
      }
    }
  }
  return Status::ok();
}

Status recover_raid_stripe(const array::DiskArray& arr, int stripe,
                           const std::vector<int>& failed,
                           StripeRecovery& rec, FaultCounts& fc) {
  const auto* codec = arr.raid_codec();
  assert(codec != nullptr);
  const std::size_t eb = arr.config().content_bytes;
  ec::ColumnSet cs = codec->make_stripe(eb);

  for (const int disk : failed) {
    rec.staged.emplace(
        disk, std::vector<Buffer>(static_cast<std::size_t>(cs.rows()),
                                  Buffer(eb)));
    rec.staged_ok.emplace(
        disk, std::vector<char>(static_cast<std::size_t>(cs.rows()), 0));
  }

  // A latent element on a live column poisons the whole column for the
  // (column-granular) codec: add it to the erasure set and let decode
  // regenerate it alongside the failed columns.
  std::vector<int> erased = failed;
  for (int col = 0; col < cs.columns(); ++col) {
    if (contains(failed, col)) continue;
    bool latent_col = false;
    for (int j = 0; j < cs.rows(); ++j) {
      if (arr.element_latent(col, stripe, j)) {
        ++fc.latent_sectors_hit;
        latent_col = true;
      }
    }
    if (latent_col) {
      erased.push_back(col);
      ++fc.fallback_to_codec;
    }
  }
  std::sort(erased.begin(), erased.end());

  if (static_cast<int>(erased.size()) > codec->fault_tolerance()) {
    // Latent errors pushed the stripe past the code's tolerance: every
    // element of every failed column is lost (zero-filled staging).
    for (const int col : failed) {
      for (int j = 0; j < cs.rows(); ++j) {
        rec.unrecoverable.push_back({col, j});
        ++fc.unrecoverable_elements;
      }
    }
    return Status::ok();
  }

  // Reads are classified the way plan_raid classifies them, on the
  // erasure set: a stripe that erased only parity loses no data and
  // re-encodes from the data columns alone (parity-rebuild reads);
  // otherwise decode reads every intact column (availability reads).
  const auto& arch = arr.arch();
  const bool data_erased =
      std::any_of(erased.begin(), erased.end(), [&](int col) {
        return arch.role_of(col) == layout::DiskRole::kData;
      });
  auto& reads =
      data_erased ? rec.availability_reads : rec.parity_rebuild_reads;
  for (int col = 0; col < cs.columns(); ++col) {
    if (contains(erased, col)) continue;
    if (!data_erased && arch.role_of(col) != layout::DiskRole::kData) continue;
    for (int j = 0; j < cs.rows(); ++j) {
      auto src = arr.content(col, stripe, j);
      auto dst = cs.element(col, j);
      std::copy(src.begin(), src.end(), dst.begin());
      reads.insert(col, j);
    }
  }
  SMA_RETURN_IF_ERROR(data_erased ? codec->decode(cs, erased)
                                  : codec->encode(cs));
  for (const int col : failed) {
    auto& bufs = rec.staged.at(col);
    auto& oks = rec.staged_ok.at(col);
    for (int j = 0; j < cs.rows(); ++j) {
      auto e = cs.element(col, j);
      std::copy(e.begin(), e.end(),
                bufs[static_cast<std::size_t>(j)].begin());
      oks[static_cast<std::size_t>(j)] = 1;
    }
  }
  return Status::ok();
}

/// Detach the observer from the array on every exit path.
struct ObsGuard {
  array::DiskArray* arr = nullptr;
  ~ObsGuard() {
    if (arr != nullptr) arr->set_observer(nullptr);
  }
};

bool in_sorted(const std::vector<int>& v, int x) {
  return std::binary_search(v.begin(), v.end(), x);
}

/// A rebuild issue/complete marker; stripe -1 marks the barrier's
/// aggregate batch.
void emit_rebuild(obs::Observer* ob, obs::EventKind kind, double t,
                  int stripe) {
  if (ob == nullptr) return;
  obs::TraceEvent ev;
  ev.kind = kind;
  ev.t_s = t;
  ev.stripe = stripe;
  ev.rebuild = true;
  ob->emit(ev);
}

}  // namespace

double ReconReport::read_throughput_mbps() const {
  return throughput_mbps(static_cast<double>(logical_bytes_read),
                         read_makespan_s);
}

Result<ReconReport> reconstruct(array::DiskArray& arr,
                                const ReconOptions& opts) {
  if (arr.crashed())
    return failed_precondition(
        "reconstruct on a crashed (powered-off) array: power_cycle() and "
        "resync before rebuilding");
  repair::RebuildCheckpoint* const ck = opts.checkpoint;
  if (opts.max_stripes >= 0 && ck == nullptr)
    return invalid_argument(
        "ReconOptions::max_stripes requires a checkpoint to record the "
        "watermark");
  if (opts.max_stripes == 0)
    return invalid_argument("ReconOptions::max_stripes must be positive "
                            "(or -1 for unbounded)");
  ReconReport report;
  const auto failed_physical = arr.failed_physical();  // sorted ascending
  if (failed_physical.empty()) {
    if (ck != nullptr) ck->reset();
    return report;
  }

  // Resume state. A checkpoint whose disks are not all still failed is
  // stale (someone healed a checkpointed disk externally): discard it.
  int watermark = 0;
  std::vector<int> prior;
  array::ElementSet skip;
  if (ck != nullptr && ck->valid()) {
    if (ck->covered_by(failed_physical)) {
      watermark = std::min(ck->stripes_done, arr.stripes());
      prior = ck->failed;
      skip = ck->unrecoverable;
    } else {
      ck->reset();
    }
  }
  const repair::SparePlacement placement =
      opts.spare_placement != nullptr ? *opts.spare_placement
                                      : repair::SparePlacement{};
  // The checkpoint watermark and spare redirection are per stripe, so
  // either one times each stripe as it completes, like pipelining does
  // (a stripe budget implies a checkpoint). Otherwise every stripe's
  // reads, then every stripe's writes, run as one global barrier.
  const bool per_stripe = opts.pipelined || ck != nullptr || placement.active();

  obs::Observer* const ob = opts.observer.get();
  ObsGuard obs_guard;
  if (ob != nullptr) {
    arr.set_observer(ob);
    obs_guard.arr = &arr;
    for (const int p : failed_physical) {
      obs::TraceEvent ev;
      ev.kind = obs::EventKind::kFailure;
      ev.t_s = 0.0;
      ev.disk = p;
      ob->emit(ev);
    }
  }

  const auto& arch = arr.arch();
  const int rows = arch.rows();
  arr.reset_timelines();
  // Times one batch of reads from t = 0 and its writes once they are done.
  auto time_batch = [&](std::span<const array::Op> reads,
                        std::span<const array::Op> writes, int stripe) {
    emit_rebuild(ob, obs::EventKind::kRebuildIssue, 0.0, stripe);
    const auto rstats = arr.execute(reads, 0.0);
    if (per_stripe) report.stripe_read_done_s.push_back(rstats.end_s);
    emit_rebuild(ob, obs::EventKind::kRebuildComplete, rstats.end_s, stripe);
    report.read_makespan_s = std::max(report.read_makespan_s, rstats.end_s);
    report.logical_bytes_read += rstats.logical_bytes_read;
    const auto wstats = arr.execute(writes, rstats.end_s);
    report.total_makespan_s = std::max(report.total_makespan_s, wstats.end_s);
    report.logical_bytes_recovered += wstats.logical_bytes_written;
    report.retried_ops += rstats.retried_ops + wstats.retried_ops;
    report.hard_errors += rstats.failed_ops + wstats.failed_ops;
  };

  // Dirty-stripe detection must also see dead *hot spares* — they hold
  // rebuilt copies but never appear in failed_physical() (they carry no
  // addressable elements).
  std::vector<int> dead_now = failed_physical;
  for (int p = arr.total_disks(); p < arr.physical_count(); ++p)
    if (arr.physical(p).failed()) dead_now.push_back(p);

  // A covered stripe is only truly covered while its rebuilt copies
  // still exist. Copies on spare targets are checked by stripe_dirty();
  // copies rebuilt *in place* live on the failed disk's restored slots,
  // which a re-failure of that disk (or crash garbling) wipes — such
  // stripes must be re-rebuilt, not skipped.
  auto covered_intact = [&](int s) {
    for (const int p : prior) {
      if (ck->placement.target_for(p, s) >= 0) continue;
      const auto& d = arr.physical(p);
      for (int j = 0; j < rows; ++j)
        if (!d.slot_restored(arr.slot(s, j))) return false;
    }
    return true;
  };

  FaultCounts fc;
  int processed = 0;
  int next_stripe = arr.stripes();
  bool interrupted = false;
  std::vector<array::Op> reads;       // this stripe's
  std::vector<array::Op> writes;
  std::vector<array::Op> all_reads;   // the barrier's
  std::vector<array::Op> all_writes;
  for (int s = 0; s < arr.stripes(); ++s) {
    // Classify: skip / partial (new disks only) / full (fresh or dirty).
    std::vector<int> rebuild_phys;
    if (s < watermark && !ck->stripe_dirty(s, dead_now) &&
        covered_intact(s)) {
      for (const int p : failed_physical)
        if (!in_sorted(prior, p)) rebuild_phys.push_back(p);
      if (rebuild_phys.empty()) {
        ++report.stripes_skipped;
        continue;
      }
    } else {
      rebuild_phys = failed_physical;
    }
    if (opts.max_stripes >= 0 && processed >= opts.max_stripes) {
      interrupted = true;
      next_stripe = s;
      break;
    }

    std::vector<int> rebuild_logical;
    rebuild_logical.reserve(rebuild_phys.size());
    for (const int p : rebuild_phys)
      rebuild_logical.push_back(arr.logical_disk(p, s));
    std::sort(rebuild_logical.begin(), rebuild_logical.end());

    auto plan = plan_reconstruction(arch, rebuild_logical);
    if (!plan.is_ok()) return plan.status();
    report.read_accesses_per_stripe = std::max(
        report.read_accesses_per_stripe, plan.value().read_accesses(arch));

    // Recover contents. Still-failed disks NOT being rebuilt this
    // stripe (checkpoint-covered prior disks) act as live sources:
    // their restored contents are valid and their restored slots serve.
    StripeRecovery rec(arch);
    Status recovered =
        arch.is_mirror()
            ? recover_mirror_stripe(arr, s, rebuild_logical, plan.value(),
                                    rec, fc)
            : recover_raid_stripe(arr, s, rebuild_logical, rec, fc);
    if (!recovered.is_ok()) return recovered;
    for (const auto& [d, r] : rec.unrecoverable) skip.insert({d, s, r});

    // Timed reads: exactly what recovery consumed, fallback detours
    // included. A read whose physical source is a still-failed prior
    // disk goes to the disk that holds the rebuilt copy's timed I/O
    // (the checkpointed spare target), or to the restored slots in
    // place when rebuilt in place.
    reads.clear();
    auto push_read = [&](int d, int r) {
      array::Op op{d, s, r, disk::IoKind::kRead};
      const int phys = arr.physical_disk(d, s);
      if (ck != nullptr && in_sorted(failed_physical, phys)) {
        const int target = ck->placement.target_for(phys, s);
        if (target >= 0) op.redirect_phys = target;
      }
      reads.push_back(op);
    };
    for (const auto& [d, r] : rec.availability_reads) push_read(d, r);
    if (opts.include_parity_rebuild)
      for (const auto& [d, r] : rec.parity_rebuild_reads)
        if (!rec.availability_reads.contains(d, r)) push_read(d, r);

    // Install the contents on the still-failed disks (a replacement
    // write serves only once its slot is restored), redirecting the
    // timed writes to this round's spare targets.
    writes.clear();
    for (auto& [logical, buffers] : rec.staged) {
      const int phys = arr.physical_disk(logical, s);
      const int target = placement.target_for(phys, s);
      for (int j = 0; j < rows; ++j) {
        arr.restore_element(logical, s, j,
                            buffers[static_cast<std::size_t>(j)]);
        array::Op op{logical, s, j, disk::IoKind::kWrite};
        if (target >= 0) op.redirect_phys = target;
        writes.push_back(op);
      }
    }
    report.elements_read += reads.size();

    if (per_stripe) {
      time_batch(reads, writes, s);
      if (arr.crashed()) {
        // Power loss mid-stripe: this stripe's replacement writes may be
        // torn, so the conservative watermark excludes it — the resumed
        // round rebuilds stripe s from scratch. Its writes are not
        // counted as restored for the same reason.
        interrupted = true;
        next_stripe = s;
        break;
      }
    } else {
      all_reads.insert(all_reads.end(), reads.begin(), reads.end());
      all_writes.insert(all_writes.end(), writes.begin(), writes.end());
    }
    report.elements_written += writes.size();
    ++processed;
  }
  if (!per_stripe) {
    time_batch(all_reads, all_writes, -1);
    if (arr.crashed()) {
      // Power loss inside the barrier's writes: any of them may be torn.
      interrupted = true;
      processed = 0;
      report.elements_written = 0;
    }
  }
  report.stripes_processed = processed;
  report.latent_sectors_hit = fc.latent_sectors_hit;
  report.fallback_to_mirror = fc.fallback_to_mirror;
  report.fallback_to_parity = fc.fallback_to_parity;
  report.fallback_to_codec = fc.fallback_to_codec;
  report.unrecoverable_elements = fc.unrecoverable_elements;

  if (ob != nullptr) {
    ob->count("recon.bytes_read", report.logical_bytes_read);
    ob->count("recon.bytes_recovered", report.logical_bytes_recovered);
  }

  if (interrupted) {
    // Disks stay failed and verification is deferred to the completing
    // round. With a checkpoint, record the watermark; multi-round
    // placement history collapses to the latest round's placement (see
    // RebuildCheckpoint docs). Without one, the next round restarts
    // from scratch.
    report.completed = false;
    if (ck != nullptr) {
      ck->failed = failed_physical;
      ck->stripes_done = next_stripe;
      ck->elements_restored += report.elements_written;
      ck->unrecoverable = skip;
      ck->placement = placement.active() ? placement : ck->placement;
    }
    return report;
  }

  // Heal only after every write is timed: a crash inside those writes
  // must leave the disks failed, never healed over torn slots.
  for (const int p : failed_physical)
    SMA_RETURN_IF_ERROR(arr.physical(p).heal());
  if (ob != nullptr) {
    for (const int p : failed_physical) {
      obs::TraceEvent ev;
      ev.kind = obs::EventKind::kHeal;
      ev.t_s = report.total_makespan_s;
      ev.disk = p;
      ob->emit(ev);
    }
  }
  if (ck != nullptr) ck->reset();
  if (opts.verify) {
    Status ok = arr.verify_consistency(skip.empty() ? nullptr : &skip);
    if (!ok.is_ok()) return ok;
  }
  return report;
}

}  // namespace sma::recon
