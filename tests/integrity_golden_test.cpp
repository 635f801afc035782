// Golden digest over the integrity layer: every field of ScrubReport,
// ResyncReport and CrashWorkloadReport, every trace event scrub and
// resync emit, and every element's content, stored checksum and latent
// sector count after each step, folded into one value over a grid of
// arrays and corruption/crash scenarios. Any change to a repair
// decision, a counter, a timed read or write, or a byte on media moves
// it.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "integrity/crash_workload.hpp"
#include "integrity/resync.hpp"
#include "obs/trace_sink.hpp"
#include "recon/executor.hpp"
#include "recon/scrub.hpp"

namespace sma {
namespace {

class Digest {
 public:
  void fold(std::uint64_t v) { h_ = (h_ ^ v) * 0x100000001b3ull; }
  void fold_s(double s) { fold(std::bit_cast<std::uint64_t>(s)); }
  void fold_status(const Status& st) {
    fold(static_cast<std::uint64_t>(st.code()));
  }

  void fold(const recon::ScrubReport& r) {
    fold(r.elements_scanned);
    fold(r.mismatches);
    fold(r.repaired_data);
    fold(r.repaired_mirror);
    fold(r.repaired_parity);
    fold(r.undecidable);
    fold(r.unreadable_sectors);
    fold(r.remapped);
    fold(r.checksum_mismatches);
    fold(r.repaired_by_checksum);
    fold_s(r.makespan_s);
    fold(r.logical_bytes_read);
  }
  void fold(const integrity::ResyncReport& r) {
    fold(static_cast<std::uint64_t>(r.regions_total));
    fold(static_cast<std::uint64_t>(r.regions_scanned));
    fold(static_cast<std::uint64_t>(r.stripes_scanned));
    fold(r.elements_read);
    fold(r.pairs_compared);
    fold(r.diverged);
    fold(r.copies_rewritten);
    fold(r.parity_rewritten);
    fold(r.pairs_skipped);
    fold_s(r.makespan_s);
    fold(r.logical_bytes_read);
    fold(r.logical_bytes_written);
  }
  void fold(const integrity::CrashWorkloadReport& r) {
    fold(static_cast<std::uint64_t>(r.requests_issued));
    fold(r.element_writes);
    fold(r.lost_writes);
    fold(r.crashed ? 1 : 0);
    fold_s(r.crash_t_s);
    fold(static_cast<std::uint64_t>(r.dirty_regions));
    fold_s(r.makespan_s);
  }
  void fold(const obs::TraceSink& sink) {
    fold(sink.size());
    for (const obs::TraceEvent& e : sink.events()) {
      fold(static_cast<std::uint64_t>(e.kind));
      fold_s(e.t_s);
      fold(static_cast<std::uint64_t>(e.disk));
      fold(static_cast<std::uint64_t>(e.stripe));
      fold(static_cast<std::uint64_t>(e.slot));
    }
  }
  /// Every slot of every architecture disk: content fingerprint, stored
  /// checksum (when kept) and the disk's latent-sector count.
  void fold(const array::DiskArray& arr) {
    for (int d = 0; d < arr.total_disks(); ++d) {
      const disk::SimDisk& disk = arr.physical(d);
      fold(static_cast<std::uint64_t>(disk.latent_slot_count()));
      for (std::int64_t sl = 0; sl < disk.slot_count(); ++sl) {
        const auto bytes = disk.content(sl);
        fold(fingerprint(bytes.data(), bytes.size()));
        if (arr.checksums_enabled()) fold(arr.checksums().get(d, sl));
      }
    }
  }
  template <typename T>
  void fold_result(const Result<T>& r) {
    fold_status(r.status());
    if (r.is_ok()) {
      fold(r.value());
      note(r.value());
    }
  }

  std::uint64_t value() const { return h_; }

  /// Branch coverage of the grid: each must be reached at least once.
  std::uint64_t crashes = 0, diverged = 0, skipped = 0, repaired = 0,
                remapped = 0, by_checksum = 0, undecidable = 0;

 private:
  void note(const recon::ScrubReport& r) {
    repaired += r.repaired_data + r.repaired_mirror + r.repaired_parity;
    remapped += r.remapped;
    by_checksum += r.repaired_by_checksum;
    undecidable += r.undecidable;
  }
  void note(const integrity::ResyncReport& r) {
    diverged += r.diverged;
    skipped += r.pairs_skipped;
  }
  void note(const integrity::CrashWorkloadReport& r) {
    crashes += r.crashed ? 1 : 0;
  }

  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// Every registry layout at R = 1, n = 2..6, with and without parity.
std::vector<layout::Architecture> integrity_grid() {
  std::vector<layout::Architecture> grid;
  for (int n = 2; n <= 6; ++n) {
    const std::string groups = n % 2 == 0 ? "" : ":groups=1";
    for (const std::string& spec :
         {std::string("traditional"), std::string("shifted"),
          std::string("iterated:2"), std::string("iterated:3"),
          "lrc" + groups, "pyramid" + groups, std::string("zigzag")}) {
      auto mirror = layout::Architecture::mirror_named(n, spec);
      auto parity = layout::Architecture::mirror_with_parity_named(n, spec);
      EXPECT_TRUE(mirror.is_ok()) << spec << " n=" << n;
      EXPECT_TRUE(parity.is_ok()) << spec << " n=" << n;
      if (mirror.is_ok()) grid.push_back(std::move(mirror).take());
      if (parity.is_ok()) grid.push_back(std::move(parity).take());
    }
  }
  return grid;
}

array::ArrayConfig golden_cfg(const layout::Architecture& arch,
                              bool checksums) {
  array::ArrayConfig cfg;
  cfg.arch = arch;
  cfg.stripes = arch.total_disks();  // one full stack
  cfg.content_bytes = 16;
  cfg.logical_element_bytes = 4'000'000;
  cfg.seed = 23;
  cfg.checksums = checksums;
  return cfg;
}

/// Scrub with a trace sink attached; folds the report, the events and
/// the array.
void scrub_and_fold(array::DiskArray& arr, Digest& dg) {
  obs::TraceSink sink;
  obs::Observer ob;
  ob.trace = &sink;
  recon::ScrubOptions opts;
  opts.observer = &ob;
  dg.fold_result(recon::scrub(arr, opts));
  dg.fold(sink);
  dg.fold(arr);
}

void resync_and_fold(array::DiskArray& arr, bool full, Digest& dg) {
  obs::TraceSink sink;
  obs::Observer ob;
  ob.trace = &sink;
  integrity::ResyncOptions opts;
  opts.full = full;
  opts.observer = &ob;
  dg.fold_result(integrity::resync(arr, opts));
  dg.fold(sink);
  dg.fold(arr);
}

TEST(IntegrityGolden, DigestOverScrubResyncAndCrashGrid) {
  // Recorded from the scrub, resync and crash workload that arbitrated
  // one data/replica pair; every R = 1 decision, count, timing and byte
  // must stay as it was.
  Digest dg;
  std::size_t runs = 0;
  std::uint64_t case_seed = 0;
  for (const auto& arch : integrity_grid()) {
    for (const bool checksums : {false, true}) {
      const auto cfg = golden_cfg(arch, checksums);

      // Latent errors: byte flips on random elements of any role,
      // scrubbed twice (the second scrub sees what the first left).
      {
        array::DiskArray arr(cfg);
        arr.initialize();
        Rng rng(++case_seed);
        const auto injected = recon::inject_latent_errors(
                                  arr, rng, 1 + arch.total_disks() / 2)
                                  .value();
        dg.fold(injected.size());
        for (const auto& e : injected) {
          dg.fold(static_cast<std::uint64_t>(e.logical_disk));
          dg.fold(static_cast<std::uint64_t>(e.stripe));
          dg.fold(static_cast<std::uint64_t>(e.row));
        }
        scrub_and_fold(arr, dg);
        scrub_and_fold(arr, dg);
        ++runs;
      }
      // Latent unreadable sectors (FaultProfile), alone and together
      // with byte flips.
      for (const int flips : {0, 2}) {
        auto lcfg = cfg;
        lcfg.fault.latent_error_rate = 0.08;
        lcfg.fault.seed = ++case_seed;
        array::DiskArray arr(lcfg);
        arr.initialize();
        Rng rng(case_seed);
        dg.fold(recon::inject_latent_errors(arr, rng, flips).value().size());
        scrub_and_fold(arr, dg);
        ++runs;
      }
      // The three silent-corruption modes, then a verifying scrub.
      for (const auto kind : {integrity::SilentCorruption::kBitRot,
                              integrity::SilentCorruption::kLostWrite,
                              integrity::SilentCorruption::kMisdirectedWrite}) {
        array::DiskArray arr(cfg);
        arr.initialize();
        Rng rng(++case_seed);
        const auto injected =
            integrity::inject_silent_corruption(arr, rng, 2, kind);
        dg.fold_status(injected.status());
        if (injected.is_ok()) {
          dg.fold(injected.value().size());
          for (const auto& e : injected.value()) {
            dg.fold(static_cast<std::uint64_t>(e.kind));
            dg.fold(static_cast<std::uint64_t>(e.logical_disk));
            dg.fold(static_cast<std::uint64_t>(e.stripe));
            dg.fold(static_cast<std::uint64_t>(e.row));
          }
        }
        dg.fold(arr);
        scrub_and_fold(arr, dg);
        ++runs;
      }
      // Crash points by write index, with and without a dirty-region
      // log (the last one never fires), then power-cycle, resync and a
      // verifying scrub. With the log, one run also resyncs in full.
      for (const int drl : {0, 2}) {
        for (const int crash_after : {0, 3, 11, 29, 1000}) {
          for (const bool full : {false, true}) {
            if (full && (drl == 0 || crash_after != 11)) continue;
            auto ccfg = cfg;
            ccfg.drl_region_stripes = drl;
            ccfg.fault.crash_after_writes = crash_after;
            ccfg.fault.seed = ++case_seed;
            array::DiskArray arr(ccfg);
            arr.initialize();
            integrity::CrashWorkloadConfig wcfg;
            wcfg.requests = 30;
            wcfg.quiesce_every = 7;
            wcfg.seed = case_seed;
            dg.fold_result(integrity::run_crash_workload(arr, wcfg));
            dg.fold(arr);
            if (arr.crashed()) dg.fold_status(arr.power_cycle());
            resync_and_fold(arr, full, dg);
            scrub_and_fold(arr, dg);
            ++runs;
          }
        }
      }
      // A disk fails while the array is powered off: the resync skips
      // every element with a copy on it, the scrub refuses the degraded
      // array, and a rebuild followed by a scrub finishes the job.
      for (const int victim : {0, arch.total_disks() - 1}) {
        auto ccfg = cfg;
        ccfg.drl_region_stripes = 2;
        ccfg.fault.crash_after_writes = 13;
        ccfg.fault.seed = ++case_seed;
        array::DiskArray arr(ccfg);
        arr.initialize();
        integrity::CrashWorkloadConfig wcfg;
        wcfg.requests = 30;
        wcfg.seed = case_seed;
        dg.fold_result(integrity::run_crash_workload(arr, wcfg));
        if (arr.crashed()) dg.fold_status(arr.power_cycle());
        arr.fail_physical(victim);
        resync_and_fold(arr, false, dg);
        scrub_and_fold(arr, dg);
        dg.fold_status(recon::reconstruct(arr).status());
        scrub_and_fold(arr, dg);
        ++runs;
      }
    }
  }
  EXPECT_GT(dg.crashes, 0u);
  EXPECT_GT(dg.diverged, 0u);
  EXPECT_GT(dg.skipped, 0u);
  EXPECT_GT(dg.repaired, 0u);
  EXPECT_GT(dg.remapped, 0u);
  EXPECT_GT(dg.by_checksum, 0u);
  EXPECT_GT(dg.undecidable, 0u);
  EXPECT_EQ(runs, 2660u);
  EXPECT_EQ(dg.value(), 0xb9d9a1c5346ce3ceull) << std::hex << dg.value();
}

}  // namespace
}  // namespace sma
