#include "recon/sweeps.hpp"

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>

#include "recon/analytic.hpp"
#include "recon/executor.hpp"
#include "recon/reliability.hpp"
#include "recon/scrub.hpp"
#include "sim/multi_kernel.hpp"
#include "util/rng.hpp"

namespace sma::recon {

namespace {

/// Run body(i) for every case on the deterministic parallel driver and
/// surface the first failing case's status ("first" by index, so the
/// answer does not depend on scheduling).
template <typename Fn>
Status run_cases(std::size_t count, std::size_t threads, Fn&& body) {
  sim::MultiKernel kernel({threads});
  return kernel.run_status(count, std::forward<Fn>(body));
}

/// Measured MTTR: rebuild one failed disk carrying `data_gb` of data.
Result<double> measured_mttr_hours(const layout::Architecture& arch,
                                   double data_gb, const SweepOptions& opt) {
  array::DiskArray arr(sweep_array_config(arch, /*stacks=*/1, opt));
  arr.initialize();
  arr.fail_physical(0);
  auto report = recon::reconstruct(arr);
  if (!report.is_ok()) return report.status();
  // Scale the per-byte rebuild time to the target capacity (rebuild
  // time is linear in data volume).
  const double per_byte =
      report.value().total_makespan_s /
      static_cast<double>(report.value().logical_bytes_recovered);
  return per_byte * data_gb * 1e9 / 3600.0;
}

}  // namespace

array::ArrayConfig sweep_array_config(const layout::Architecture& arch,
                                      int stacks, const SweepOptions& opt) {
  array::ArrayConfig cfg;
  cfg.arch = arch;
  cfg.stripes = stacks * arch.total_disks();
  cfg.rotate = true;
  cfg.spec = disk::DiskSpec::savvio_10k3();
  cfg.content_bytes = opt.content_bytes;
  cfg.logical_element_bytes = opt.element_bytes;
  cfg.seed = 20120901;  // ICPP 2012
  return cfg;
}

Result<Table> reliability_sweep(const std::vector<int>& ns, double data_gb,
                                const SweepOptions& opt) {
  struct Case {
    int n;
    layout::Architecture arch;
  };
  std::vector<Case> cases;
  for (const int n : ns) {
    cases.push_back({n, layout::Architecture::mirror(n, false)});
    cases.push_back({n, layout::Architecture::mirror(n, true)});
    cases.push_back({n, layout::Architecture::mirror_with_parity(n, false)});
    cases.push_back({n, layout::Architecture::mirror_with_parity(n, true)});
  }

  std::vector<std::vector<std::string>> rows(cases.size());
  const Status st =
      run_cases(cases.size(), opt.threads, [&](std::size_t i) -> Status {
        const Case& c = cases[i];
        auto mttr = measured_mttr_hours(c.arch, data_gb, opt);
        if (!mttr.is_ok() || mttr.value() <= 0)
          return internal_error("MTTR measurement failed for " +
                                c.arch.name() + ": " +
                                mttr.status().to_string());
        MttdlParams params;
        params.mttr_hours = mttr.value();
        const auto report = estimate_mttdl(c.arch, params);
        rows[i] = {c.arch.name(),
                   Table::num(c.n),
                   Table::num(report.fatal.avg_fatal_second, 2),
                   Table::num(report.fatal.avg_fatal_third, 2),
                   Table::num(params.mttr_hours, 4),
                   std::isfinite(report.mttdl_hours)
                       ? Table::num(report.mttdl_years(), 0)
                       : "inf"};
        return Status::ok();
      });
  if (!st.is_ok()) return st;

  Table table("MTTDL with measured rebuild times (" +
              Table::num(data_gb, 0) + " GB/disk, MTTF 1e6 h)");
  table.set_header({"architecture", "n", "fatal 2nd", "fatal 3rd",
                    "MTTR (h)", "MTTDL (years)"});
  for (auto& row : rows) table.add_row(std::move(row));
  return table;
}

Result<Table1Result> table1_sweep(int n_lo, int n_hi,
                                  const SweepOptions& opt) {
  if (n_lo < 1) return invalid_argument("table1_sweep: n_lo < 1");
  if (n_lo > n_hi) return invalid_argument("table1_sweep: n_lo > n_hi");
  struct PerN {
    std::vector<std::vector<std::string>> rows;
    std::vector<std::string> avg_row;
    bool uniform = true;
  };
  const std::size_t count = static_cast<std::size_t>(n_hi - n_lo + 1);
  std::vector<PerN> per_n(count);
  const Status st =
      run_cases(count, opt.threads, [&](std::size_t i) -> Status {
        const int n = n_lo + static_cast<int>(i);
        const auto arch = layout::Architecture::mirror_with_parity(n, true);
        const auto cases = enumerate_double_failure_cases(arch);
        per_n[i].uniform = cases.uniform;
        for (const auto& row : cases.rows)
          per_n[i].rows.push_back(
              {Table::num(n), std::string(to_string(row.cls)),
               Table::num(static_cast<std::uint64_t>(row.num_cases)),
               Table::num(row.num_read_accesses)});
        const auto trad = enumerate_double_failure_cases(
            layout::Architecture::mirror_with_parity(n, false));
        per_n[i].avg_row = {
            Table::num(n), Table::num(cases.average_read_accesses, 4),
            Table::num(paper_avg_read_shifted_mirror_parity(n), 4),
            Table::num(trad.average_read_accesses, 1),
            Table::num(trad.average_read_accesses /
                           cases.average_read_accesses,
                       3)};
        return Status::ok();
      });
  if (!st.is_ok()) return st;

  Table1Result result{Table("Table I — shifted mirror method with parity"),
                      Table("Average read accesses (enumerated vs closed "
                            "form 4n/(2n+1))")};
  result.table.set_header(
      {"n", "failure situation", "num cases", "read accesses"});
  result.avg.set_header({"n", "enumerated", "closed form",
                         "traditional (=n)", "improvement factor (2n+1)/4"});
  for (std::size_t i = 0; i < count; ++i) {
    if (!per_n[i].uniform)
      std::printf("WARNING: non-uniform class at n=%d\n",
                  n_lo + static_cast<int>(i));
    for (auto& row : per_n[i].rows) result.table.add_row(std::move(row));
    result.avg.add_row(std::move(per_n[i].avg_row));
  }
  return result;
}

Result<Table> rebuild_faults_sweep(const std::vector<double>& rates, int n,
                                   int stacks, const SweepOptions& opt) {
  struct Case {
    double rate;
    bool shifted;
  };
  std::vector<Case> cases;
  for (const double rate : rates)
    for (const bool shifted : {false, true}) cases.push_back({rate, shifted});

  std::vector<std::vector<std::string>> rows(cases.size());
  const Status st =
      run_cases(cases.size(), opt.threads, [&](std::size_t i) -> Status {
        const Case& c = cases[i];
        const auto arch =
            layout::Architecture::mirror_with_parity(n, c.shifted);
        auto cfg = sweep_array_config(arch, stacks, opt);
        cfg.fault.latent_error_rate = c.rate;
        cfg.fault.seed = 20120901;
        array::DiskArray arr(cfg);
        arr.initialize();
        arr.fail_physical(0);
        auto report = recon::reconstruct(arr);
        if (!report.is_ok()) return report.status();
        const auto& r = report.value();
        rows[i] = {Table::num(c.rate, 3),
                   c.shifted ? "shifted" : "traditional",
                   Table::num(r.read_throughput_mbps(), 1),
                   Table::num(static_cast<double>(r.latent_sectors_hit), 0),
                   Table::num(static_cast<double>(r.fallback_to_parity), 0),
                   Table::num(static_cast<double>(r.fallback_to_mirror), 0),
                   Table::num(static_cast<double>(r.unrecoverable_elements),
                              0)};
        return Status::ok();
      });
  if (!st.is_ok()) return st;

  Table table("Rebuild under latent sector errors — mirror+parity, n=" +
              std::to_string(n) + ", disk 0 failed");
  table.set_header({"latent rate", "arrangement", "read MB/s",
                    "latent hits", "parity fallbacks", "mirror fallbacks",
                    "unrecoverable"});
  for (auto& row : rows) table.add_row(std::move(row));
  return table;
}

Result<Table> scrub_sweep(int n, const std::vector<int>& error_counts,
                          const SweepOptions& opt) {
  struct Case {
    layout::Architecture arch;
    std::string label;
    int errors;
  };
  const std::pair<layout::Architecture, std::string> archs[] = {
      {layout::Architecture::mirror(n, true), "mirror-shifted"},
      {layout::Architecture::mirror_with_parity(n, false),
       "mirror-parity-traditional"},
      {layout::Architecture::mirror_with_parity(n, true),
       "mirror-parity-shifted"},
  };
  std::vector<Case> cases;
  for (const auto& [arch, label] : archs)
    for (const int errors : error_counts)
      cases.push_back({arch, label, errors});

  std::vector<std::vector<std::string>> rows(cases.size());
  const Status st =
      run_cases(cases.size(), opt.threads, [&](std::size_t i) -> Status {
        const Case& c = cases[i];
        array::DiskArray arr(sweep_array_config(c.arch, /*stacks=*/1, opt));
        arr.initialize();
        // Per-case seed derived from the case parameters only, so the
        // injected error set is independent of scheduling.
        Rng rng(static_cast<std::uint64_t>(c.errors) + 99);
        const auto injected = inject_latent_errors(arr, rng, c.errors);
        if (!injected.is_ok()) return injected.status();
        auto report = recon::scrub(arr);
        if (!report.is_ok()) return report.status();
        const auto& r = report.value();
        rows[i] = {c.label,
                   Table::num(c.errors),
                   Table::num(r.mismatches),
                   Table::num(r.repaired_data + r.repaired_mirror +
                              r.repaired_parity),
                   Table::num(r.undecidable),
                   Table::num(r.makespan_s, 2),
                   Table::num(static_cast<double>(r.logical_bytes_read) /
                                  1e6 / r.makespan_s,
                              1)};
        return Status::ok();
      });
  if (!st.is_ok()) return st;

  Table table("Scrub — latent error injection and repair (n=" +
              std::to_string(n) + ", one stack)");
  table.set_header({"architecture", "injected", "mismatches", "repaired",
                    "undecidable", "scan time (s)", "scan MB/s"});
  for (auto& row : rows) table.add_row(std::move(row));
  return table;
}

}  // namespace sma::recon
