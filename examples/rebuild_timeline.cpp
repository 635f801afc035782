// Rebuild timeline: records every disk operation of a rebuild through
// an obs::TraceSink and renders an ASCII Gantt chart — making the
// paper's core argument visible at a glance. Under the traditional
// arrangement one partner disk streams alone while the rest idle; under
// the shifted arrangement every disk works one (seek + read) slice in
// parallel.
//
//   $ ./rebuild_timeline [n]
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/observer.hpp"
#include "recon/executor.hpp"

namespace {

using namespace sma;

// One lane per disk from the service spans in `sink`: a span runs from
// t_s to t_s + dur_s, and an access is sequential when its slot follows
// the disk's previous one (SimDisk's own rule).
void render_timeline(const array::DiskArray& arr, const obs::TraceSink& sink,
                     double horizon_s) {
  const int kWidth = 72;
  std::printf("      0s %*s %.2fs\n", kWidth - 8, "", horizon_s);
  const auto disks = static_cast<std::size_t>(arr.total_disks());
  std::vector<std::string> lanes(disks, std::string(kWidth, '.'));
  std::vector<std::int64_t> last_slot(disks, -2);
  for (const obs::TraceEvent& op : sink.events()) {
    if (op.kind != obs::EventKind::kServiceStart) continue;
    const auto d = static_cast<std::size_t>(op.disk);
    const bool sequential = op.slot == last_slot[d] + 1;
    last_slot[d] = op.slot;
    const int from = static_cast<int>(op.t_s / horizon_s * kWidth);
    int to = static_cast<int>((op.t_s + op.dur_s) / horizon_s * kWidth);
    to = std::min(to, kWidth - 1);
    const char glyph = !op.write ? (sequential ? '=' : 'r')
                                 : (sequential ? '#' : 'w');
    for (int x = std::max(0, from); x <= to; ++x)
      lanes[d][static_cast<std::size_t>(x)] = glyph;
  }
  for (int d = 0; d < arr.total_disks(); ++d) {
    const auto role = arr.arch().role_of(d);
    const char* role_name = role == layout::DiskRole::kData ? "data  "
                            : role == layout::DiskRole::kMirror ? "mirror"
                                                                : "parity";
    std::printf("%s %2d |%s|\n", role_name, arr.arch().role_index(d),
                lanes[static_cast<std::size_t>(d)].c_str());
  }
  std::printf("      ('r' seeking read, '=' sequential read, "
              "'w'/'#' writes, '.' idle)\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sma;
  int n = 4;
  if (argc > 1) n = std::atoi(argv[1]);
  if (n < 2 || n > 8) {
    std::fprintf(stderr, "usage: %s [n 2..8]\n", argv[0]);
    return 1;
  }

  double horizon = 0;
  for (const bool shifted : {false, true}) {
    array::ArrayConfig cfg;
    cfg.arch = layout::Architecture::mirror(n, shifted);
    cfg.stripes = cfg.arch.total_disks();
    cfg.rotate = false;  // fixed roles make the picture legible
    cfg.content_bytes = 64;
    array::DiskArray arr(cfg);
    arr.initialize();
    arr.fail_physical(0);

    obs::TraceSink sink;
    obs::Observer observer;
    observer.trace = &sink;
    recon::ReconOptions opts;
    opts.observer = &observer;
    auto report = recon::reconstruct(arr, opts);
    if (!report.is_ok()) {
      std::fprintf(stderr, "rebuild failed: %s\n",
                   report.status().to_string().c_str());
      return 1;
    }
    if (horizon == 0) horizon = report.value().total_makespan_s;

    std::printf("== %s: rebuild of data disk 0 "
                "(reads %.2fs, total %.2fs, %.1f MB/s) ==\n",
                cfg.arch.name().c_str(), report.value().read_makespan_s,
                report.value().total_makespan_s,
                report.value().read_throughput_mbps());
    render_timeline(arr, sink, horizon);
  }
  return 0;
}
