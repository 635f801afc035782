// Quickstart: create a shifted mirror volume, serve reads and writes,
// lose a disk, keep serving (degraded), rebuild, and verify — the whole
// public API in one sitting.
//
//   $ ./quickstart
#include <cstdio>
#include <vector>

#include "core/volume.hpp"

int main() {
  using namespace sma;

  // A 5+5 disk mirror array with the paper's shifted element
  // arrangement, one full stack of stripes, 4 MB (logical) elements on
  // simulated Savvio 10K.3 disks.
  core::VolumeConfig cfg;
  cfg.n = 5;
  cfg.arrangement = "shifted";
  cfg.with_parity = false;
  cfg.content_bytes = 4096;
  auto created = core::MirroredVolume::create(cfg);
  if (!created.is_ok()) {
    std::fprintf(stderr, "create failed: %s\n",
                 created.status().to_string().c_str());
    return 1;
  }
  auto vol = std::move(created).take();
  std::printf("volume: %s, %d disks, %d stripes, storage efficiency %.0f%%\n",
              vol.arch().name().c_str(), vol.arch().total_disks(),
              vol.stripes(), 100 * vol.arch().storage_efficiency());

  // Write an element and read it back.
  std::vector<std::uint8_t> payload(cfg.content_bytes, 0x42);
  if (!vol.write_element(/*data_disk=*/2, /*stripe=*/1, /*row=*/3, payload)) {
    std::fprintf(stderr, "write failed\n");
    return 1;
  }
  std::vector<std::uint8_t> got(cfg.content_bytes);
  if (!vol.read_element(2, 1, 3, got) || got != payload) {
    std::fprintf(stderr, "read-back mismatch\n");
    return 1;
  }
  std::printf("write + read-back: ok\n");

  // Lose a disk. Reads keep working (served from replicas).
  vol.fail_disk(2);
  std::printf("failed physical disk 2; degraded read... ");
  if (!vol.read_element(2, 1, 3, got) || got != payload) {
    std::fprintf(stderr, "degraded read failed\n");
    return 1;
  }
  std::printf("ok\n");

  // Rebuild. Under the shifted arrangement the replicas of the failed
  // disk's elements live on ALL other disks, so the rebuild reads run
  // in parallel — the paper's headline effect.
  auto report = vol.rebuild();
  if (!report.is_ok()) {
    std::fprintf(stderr, "rebuild failed: %s\n",
                 report.status().to_string().c_str());
    return 1;
  }
  std::printf("rebuilt %.0f MB in %.2f s of simulated time "
              "(read throughput %.1f MB/s, %d read access(es)/stripe)\n",
              report.value().logical_bytes_recovered / 1e6,
              report.value().total_makespan_s,
              report.value().read_throughput_mbps(),
              report.value().read_accesses_per_stripe);

  if (!vol.verify()) {
    std::fprintf(stderr, "post-rebuild verification failed\n");
    return 1;
  }
  std::printf("post-rebuild verification: ok\n");
  return 0;
}
