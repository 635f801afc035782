// Parallel experiment sweeps with deterministic, serial-identical
// output.
//
// Each function reproduces one bench table (bench_reliability,
// bench_table1, bench_rebuild_faults, bench_scrub) by enumerating a
// fixed case list up front, computing every case independently — each
// case seeds its own RNG from its case parameters, never from shared
// state — and appending rows in case-list order. Consequently the
// rendered table (and its CSV) is bit-identical whatever the thread
// count; SweepOptions::threads == 1 is the serial reference the
// determinism test diffs against.
#pragma once

#include <cstdint>
#include <vector>

#include "array/disk_array.hpp"
#include "layout/architecture.hpp"
#include "util/status.hpp"
#include "util/table.hpp"

namespace sma::recon {

struct SweepOptions {
  /// 0 = one task per hardware thread, 1 = serial reference execution.
  /// The result is bit-identical either way.
  std::size_t threads = 0;
  /// Array scale knobs. The defaults reproduce the published bench
  /// tables (the paper's 4 MB elements); tests shrink them so a full
  /// sweep fits in a unit-test budget.
  std::uint64_t element_bytes = 4ull * 1000 * 1000;
  std::size_t content_bytes = 256;
};

/// The bench-standard array configuration (Savvio 10K.3 disks, paper
/// seed) at the sweep's element scale.
array::ArrayConfig sweep_array_config(const layout::Architecture& arch,
                                      int stacks, const SweepOptions& opt);

/// bench_reliability: MTTDL with measured rebuild times for the four
/// mirror architectures at each n in `ns`.
Result<Table> reliability_sweep(const std::vector<int>& ns, double data_gb,
                                const SweepOptions& opt);

struct Table1Result {
  Table table;  // per-class read-access counts
  Table avg;    // enumerated vs closed-form averages
};

/// bench_table1: exhaustive double-failure enumeration of the shifted
/// mirror method with parity for n in [n_lo, n_hi]. kInvalidArgument
/// unless 1 <= n_lo <= n_hi.
Result<Table1Result> table1_sweep(int n_lo, int n_hi,
                                  const SweepOptions& opt);

/// bench_rebuild_faults: rebuild under injected latent sector errors,
/// traditional vs shifted mirror+parity, one row per (rate, shifted).
Result<Table> rebuild_faults_sweep(const std::vector<double>& rates, int n,
                                   int stacks, const SweepOptions& opt);

/// bench_scrub: latent-error detection/repair across architectures and
/// injected-error counts, one row per (architecture, error count).
Result<Table> scrub_sweep(int n, const std::vector<int>& error_counts,
                          const SweepOptions& opt);

}  // namespace sma::recon
