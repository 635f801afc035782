// Scrub demo: latent sector errors accumulate silently; a periodic
// scrub detects them by cross-checking replicas and repairs them by
// parity arbitration — before a disk failure turns a silent corruption
// into real data loss (the paper's Section I motivation).
//
//   $ ./scrub_demo [n] [errors]
#include <cstdio>
#include <algorithm>
#include <cstdlib>
#include <set>
#include <utility>
#include <vector>

#include "recon/executor.hpp"
#include "recon/scrub.hpp"

int main(int argc, char** argv) {
  using namespace sma;

  int n = 5;
  int errors = 12;
  if (argc > 1) n = std::atoi(argv[1]);
  if (argc > 2) errors = std::atoi(argv[2]);
  if (n < 2 || n > 16 || errors < 0) {
    std::fprintf(stderr, "usage: %s [n 2..16] [errors >= 0]\n", argv[0]);
    return 1;
  }

  array::ArrayConfig cfg;
  cfg.arch = layout::Architecture::mirror_with_parity(n, true);
  cfg.stripes = cfg.arch.total_disks();
  cfg.content_bytes = 4096;
  array::DiskArray arr(cfg);
  arr.initialize();
  std::printf("volume: %s, %d disks, %d stripes\n\n",
              cfg.arch.name().c_str(), arr.total_disks(), arr.stripes());

  // Step 1: silent corruption strikes — at most one bad copy per
  // parity row, the regime scrub arbitration fully repairs. (Use
  // recon::inject_latent_errors for unconstrained random injection,
  // where colliding rows become "undecidable".)
  Rng rng(2026);
  errors = std::min<long>(errors, static_cast<long>(arr.stripes()) * n);
  std::set<std::pair<int, int>> rows_used;
  std::vector<recon::InjectedError> injected;
  while (static_cast<int>(injected.size()) < errors) {
    const int s = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(arr.stripes())));
    const int j = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(n)));
    if (!rows_used.insert({s, j}).second) continue;
    const int i = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(n)));
    if (rng.next_bool()) {
      const layout::Pos rp = arr.arch().replica_of(1, i, j);
      arr.content(rp.disk, s, rp.row)[0] ^= 0x5A;
      injected.push_back({rp.disk, s, rp.row});
    } else {
      arr.content(arr.arch().data_disk(i), s, j)[0] ^= 0x5A;
      injected.push_back({i, s, j});
    }
  }
  std::printf("injected %zu latent element corruptions (silent so far):\n",
              injected.size());
  for (const auto& e : injected)
    std::printf("  disk %2d, stripe %2d, row %d\n", e.logical_disk, e.stripe,
                e.row);
  std::printf("array verification now reports: %s\n\n",
              arr.verify_all().to_string().c_str());

  // Step 2: scrub.
  auto report = recon::scrub(arr);
  if (!report.is_ok()) {
    std::fprintf(stderr, "scrub failed: %s\n",
                 report.status().to_string().c_str());
    return 1;
  }
  const auto& r = report.value();
  std::printf("scrub: scanned %llu elements in %.2f simulated seconds\n",
              static_cast<unsigned long long>(r.elements_scanned),
              r.makespan_s);
  std::printf("  mismatching replica pairs : %llu\n",
              static_cast<unsigned long long>(r.mismatches));
  std::printf("  repaired data / mirror / parity: %llu / %llu / %llu\n",
              static_cast<unsigned long long>(r.repaired_data),
              static_cast<unsigned long long>(r.repaired_mirror),
              static_cast<unsigned long long>(r.repaired_parity));
  std::printf("  undecidable (multi-corrupt rows): %llu\n\n",
              static_cast<unsigned long long>(r.undecidable));

  if (r.undecidable == 0) {
    std::printf("array verification after scrub:  %s\n",
                arr.verify_all().to_string().c_str());
  } else {
    std::printf("some rows held more than one corruption; a second pass\n"
                "after re-replication would be required.\n");
  }

  // Step 3: the scrub mattered — a disk failure right now rebuilds
  // from clean redundancy.
  arr.fail_physical(1);
  auto rebuild = recon::reconstruct(arr);
  std::printf("subsequent disk-1 failure rebuild: %s (%.1f MB/s)\n",
              rebuild.is_ok() ? "verified OK"
                              : rebuild.status().to_string().c_str(),
              rebuild.is_ok() ? rebuild.value().read_throughput_mbps() : 0.0);
  // Undecidable rows (two corruptions sharing a parity equation) are an
  // expected outcome of random injection, not a demo failure.
  return rebuild.is_ok() ? 0 : 1;
}
