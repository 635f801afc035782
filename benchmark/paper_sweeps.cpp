// paper_sweeps: Fig. 7 (fig7_point for n = 2..50) and Table I
// (table1_sweep for n = 2..8) on one thread. Pure layout and planner
// combinatorics, exhaustively enumerating every double failure, with no
// simulation or disk model; a planner change shows here and in no
// timing workload. The inputs do not depend on the seed.
#include <map>
#include <string>
#include <vector>

#include "fleet/digest.hpp"
#include "recon/analytic.hpp"
#include "recon/failure.hpp"
#include "recon/plan.hpp"
#include "recon/sweeps.hpp"
#include "util/table.hpp"
#include "workloads.hpp"

namespace smabench {

namespace {

using namespace sma;
using fleet::mix;

std::uint64_t mix_text(std::uint64_t d, const std::string& s) {
  for (const char c : s) d = mix(d, static_cast<std::uint64_t>(c));
  return mix(d, static_cast<std::uint64_t>(0));
}

long double_failures(const layout::Architecture& arch) {
  const long d = arch.total_disks();
  return d * (d - 1) / 2;
}

class PaperSweeps : public Workload {
 public:
  explicit PaperSweeps(const Params& params)
      : fig7_hi_(params.smoke ? 12 : 50), table1_hi_(params.smoke ? 5 : 8) {}

  const char* work_unit() const override { return "failure_cases"; }

  void setup() override {
    cases_ = 0;
    for (int n = 2; n <= fig7_hi_; ++n)
      cases_ += double_failures(layout::Architecture::mirror_with_parity(n, true)) +
                double_failures(layout::Architecture::mirror_with_parity(n, false)) +
                double_failures(layout::Architecture::raid6(n));
    for (int n = 2; n <= table1_hi_; ++n)
      cases_ += double_failures(layout::Architecture::mirror_with_parity(n, true)) +
                double_failures(layout::Architecture::mirror_with_parity(n, false));
  }

  RepResult rep() override {
    RepResult r = start();
    for (int n = 2; n <= fig7_hi_; ++n) {
      const recon::Fig7Point p = recon::fig7_point(n);
      fold_fig7(r, n, p.shifted_avg, p.traditional_avg, p.raid6_avg);
    }
    recon::SweepOptions opt;
    opt.threads = 1;
    auto t1 = recon::table1_sweep(2, table1_hi_, opt);
    if (!t1.is_ok()) {
      r.errors.push_back("table1_sweep failed: " + t1.status().to_string());
      ++r.failed;
      return r;
    }
    for (const auto& row : t1.value().avg.rows()) fold_table1(r, row);
    return r;
  }

  /// fig7_point and table1_sweep recomposed from the layers: build the
  /// architecture, enumerate its double failures, plan every case, then
  /// classify every case, each stage in its own span.
  RepResult traced_rep(Tracer& tr) override {
    RepResult r = start();
    std::uint64_t plans = 0;
    // Average read accesses over every double failure of one
    // architecture, as recon::enumerate_double_failure_cases computes it.
    const auto average = [&](auto make_arch, bool uniform_classes) {
      const layout::Architecture arch = [&] {
        Span s(tr, "layout.architecture");
        return make_arch();
      }();
      const auto failures = [&] {
        Span s(tr, "recon.failure.enumerate");
        return recon::enumerate_double_failures(arch);
      }();
      std::vector<int> accesses(failures.size(), 0);
      {
        Span s(tr, "recon.plan");
        for (std::size_t i = 0; i < failures.size(); ++i) {
          auto plan = recon::plan_reconstruction(arch, failures[i]);
          if (!plan.is_ok()) {
            ++r.failed;
            continue;
          }
          accesses[i] = plan.value().read_accesses(arch);
        }
        plans += failures.size();
      }
      std::map<recon::FailureClass, int> per_class;
      bool uniform = true;
      {
        Span s(tr, "recon.failure.classify");
        for (std::size_t i = 0; i < failures.size(); ++i) {
          const auto [it, fresh] = per_class.try_emplace(
              recon::classify(arch, failures[i]), accesses[i]);
          if (!fresh && it->second != accesses[i]) uniform = false;
        }
      }
      if (uniform_classes && !uniform)
        r.errors.push_back("Table I: a failure class of " + arch.name() +
                           " needs differing read accesses");
      long total = 0;
      for (const int a : accesses) total += a;
      return failures.empty() ? 0.0
                              : static_cast<double>(total) /
                                    static_cast<double>(failures.size());
    };
    const auto mirror = [](int n, bool shifted) {
      return [=] { return layout::Architecture::mirror_with_parity(n, shifted); };
    };

    for (int n = 2; n <= fig7_hi_; ++n)
      fold_fig7(r, n, average(mirror(n, true), false),
                average(mirror(n, false), false),
                average([=] { return layout::Architecture::raid6(n); }, false));
    for (int n = 2; n <= table1_hi_; ++n) {
      // Table I states that each failure class of the shifted mirror
      // method with parity needs one read-access count.
      const double sh = average(mirror(n, true), true);
      const double trad = average(mirror(n, false), false);
      fold_table1(r, {Table::num(n), Table::num(sh, 4),
                      Table::num(recon::paper_avg_read_shifted_mirror_parity(n), 4),
                      Table::num(trad, 1), Table::num(trad / sh, 3)});
    }
    r.counts["recon.plan.calls"] = static_cast<double>(plans);
    return r;
  }

 private:
  RepResult start() const {
    RepResult r;
    r.digest = fleet::kDigestSeed;
    r.work = static_cast<double>(cases_);
    r.attempted = static_cast<std::uint64_t>(cases_);
    return r;
  }

  static void fold_fig7(RepResult& r, int n, double shifted, double traditional,
                        double raid6) {
    r.digest = mix(r.digest, shifted);
    r.digest = mix(r.digest, traditional);
    r.digest = mix(r.digest, raid6);
    if (!(shifted < traditional))
      r.errors.push_back("Fig 7: shifted average not below traditional at n=" +
                         std::to_string(n));
  }

  /// One Table I average row: n, enumerated, closed form 4n/(2n+1),
  /// traditional, improvement factor.
  static void fold_table1(RepResult& r, const std::vector<std::string>& row) {
    for (const std::string& cell : row) r.digest = mix_text(r.digest, cell);
    if (row.size() < 3 || row[1] != row[2])
      r.errors.push_back("Table I: enumerated average differs from 4n/(2n+1) "
                         "at n=" + (row.empty() ? std::string("?") : row[0]));
  }

  int fig7_hi_;
  int table1_hi_;
  long cases_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_paper_sweeps(const Params& params) {
  return std::make_unique<PaperSweeps>(params);
}

}  // namespace smabench
