#include "recon/reliability.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "recon/plan.hpp"
#include "reference_oracle.hpp"

namespace sma::recon {
namespace {

TEST(Recoverable, EmptySetAlwaysRecoverable) {
  EXPECT_TRUE(is_recoverable(layout::Architecture::mirror(3, true), {}));
}

TEST(Recoverable, TraditionalMirrorPairsOnlyPartnerIsFatal) {
  const auto arch = layout::Architecture::mirror(4, false);
  for (int x = 0; x < 4; ++x) {
    for (int b = 0; b < 8; ++b) {
      if (b == x) continue;
      const bool fatal = (b == arch.replica_disk(1, x));
      EXPECT_EQ(is_recoverable(arch, {x, b}), !fatal) << x << "," << b;
    }
  }
}

TEST(Recoverable, ShiftedMirrorAnyCrossArrayPairIsFatal) {
  // Every mirror disk holds exactly one replica of every data disk, so
  // any (data, mirror) pair loses one element; same-array pairs are
  // fine.
  const auto arch = layout::Architecture::mirror(4, true);
  for (int x = 0; x < 4; ++x)
    for (int y = 0; y < 4; ++y)
      EXPECT_FALSE(is_recoverable(arch, {x, arch.replica_disk(1, y)}))
          << x << "," << y;
  EXPECT_TRUE(is_recoverable(arch, {0, 1}));
  EXPECT_TRUE(is_recoverable(
      arch, {arch.replica_disk(1, 0), arch.replica_disk(1, 2)}));
}

TEST(Recoverable, MirrorParityAllDoublesSurvivable) {
  for (const bool shifted : {false, true}) {
    const auto arch = layout::Architecture::mirror_with_parity(4, shifted);
    for (int a = 0; a < arch.total_disks(); ++a)
      for (int b = a + 1; b < arch.total_disks(); ++b)
        EXPECT_TRUE(is_recoverable(arch, {a, b})) << a << "," << b;
  }
}

TEST(Recoverable, MirrorParityTripleCases) {
  const auto arch = layout::Architecture::mirror_with_parity(3, true);
  // Both copies of one element plus the parity: data 0's replica of
  // row 1 sits on mirror disk <0+1> = 1 (global 4).
  EXPECT_FALSE(is_recoverable(arch, {0, 4, arch.parity_disk()}));
  // Two data disks and the parity disk: every replica is intact.
  EXPECT_TRUE(is_recoverable(arch, {0, 1, arch.parity_disk()}));
  // Three disks of the same array: other array intact.
  EXPECT_TRUE(is_recoverable(arch, {0, 1, 2}));
  // Data disk + two mirror disks: the two elements that lost both
  // copies sit in different rows, each repairable via parity.
  EXPECT_TRUE(is_recoverable(arch, {0, 3, 4}));
}

TEST(Recoverable, ParityClosureCascades) {
  // All data disks lost but the whole mirror array + parity intact:
  // every element available via its replica.
  const auto arch = layout::Architecture::mirror_with_parity(3, true);
  EXPECT_TRUE(is_recoverable(arch, {0, 1, 2}));
  // Whole mirror array lost too -> data intact? data disks all fine.
  EXPECT_TRUE(is_recoverable(arch, {3, 4, 5}));
}

TEST(Recoverable, ConsistentWithPlannerWithinTolerance) {
  // The planner succeeds on every in-tolerance set; the oracle must
  // agree there (it may additionally accept lucky over-tolerance sets).
  const layout::Architecture archs[] = {
      layout::Architecture::mirror(4, false),
      layout::Architecture::mirror(4, true),
      layout::Architecture::mirror_with_parity(4, false),
      layout::Architecture::mirror_with_parity(4, true),
  };
  for (const auto& arch : archs) {
    for (int a = 0; a < arch.total_disks(); ++a) {
      EXPECT_TRUE(is_recoverable(arch, {a})) << arch.name();
      if (arch.fault_tolerance() >= 2) {
        for (int b = a + 1; b < arch.total_disks(); ++b) {
          EXPECT_TRUE(is_recoverable(arch, {a, b}))
              << arch.name() << " " << a << "," << b;
        }
      }
    }
  }
}

TEST(FatalCounts, MirrorPairCounts) {
  // Traditional: 1 fatal partner; shifted: the n disks of the other
  // array.
  for (int n : {3, 5, 7}) {
    const auto trad = count_fatal_sets(layout::Architecture::mirror(n, false));
    EXPECT_DOUBLE_EQ(trad.avg_fatal_second, 1.0) << n;
    const auto shift = count_fatal_sets(layout::Architecture::mirror(n, true));
    EXPECT_DOUBLE_EQ(shift.avg_fatal_second, static_cast<double>(n)) << n;
  }
}

TEST(FatalCounts, MirrorParityNoFatalPairs) {
  for (const bool shifted : {false, true}) {
    const auto counts = count_fatal_sets(
        layout::Architecture::mirror_with_parity(4, shifted));
    EXPECT_DOUBLE_EQ(counts.avg_fatal_second, 0.0);
    EXPECT_GT(counts.avg_fatal_third, 0.0);
  }
}

// --- differential pin: the flat oracle against the reference copy ------

std::string describe(const layout::Architecture& arch,
                     const std::vector<int>& failed) {
  std::string out = arch.name();
  out += " n=";
  out += std::to_string(arch.n());
  out += " {";
  for (const int d : failed) {
    out += ' ';
    out += std::to_string(d);
  }
  out += " }";
  return out;
}

TEST(RecoverableDifferential, AgreesWithTheReferenceOnEveryCoveredSet) {
  // Every registry layout at n = 2..6, plain and with parity, less the
  // shapes a layout does not build (52 architectures for the six
  // built-in layouts), then the R = 2 and 3 traditional and shifted
  // mirrors that build (15) and RAID-5 and RAID-6 (10).
  const auto archs = testref::differential_architectures();
  EXPECT_GE(archs.size(), 77u);
  std::set<std::string> layouts;
  long sets = 0;
  long mismatches = 0;
  for (const auto& arch : archs) {
    if (arch.is_mirror()) layouts.insert(arch.layout_spec());
    testref::for_each_failed_set(arch, [&](const std::vector<int>& failed) {
      ++sets;
      const bool want = testref::reference_is_recoverable(arch, failed);
      if (is_recoverable(arch, failed) != want && ++mismatches <= 5)
        ADD_FAILURE() << describe(arch, failed) << " reference " << want;
    });
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_GT(sets, 20'000);
  EXPECT_EQ(layouts.size(),
            layout::AlgorithmRegistry::global().names().size());
}

TEST(RecoverableDifferential, IgnoresDuplicateAndOutOfRangeEntries) {
  // The reference matched mirror disks with std::find, so an entry
  // naming no disk and a repeated entry both changed nothing. (For the
  // RAID-5/6 comparators both count the entries.)
  long mismatches = 0;
  for (const auto& arch : testref::differential_architectures()) {
    if (!arch.is_mirror()) continue;
    const int total = arch.total_disks();
    testref::for_each_failed_set(arch, [&](const std::vector<int>& failed) {
      if (failed.size() > 2) return;
      const auto plus = [&](std::vector<int> extra) {
        extra.insert(extra.begin(), failed.begin(), failed.end());
        return extra;
      };
      std::vector<std::vector<int>> variants = {
          plus({-1}), plus({total}), plus({total + 5, -7}), plus(failed)};
      if (!failed.empty())
        variants.push_back({failed.back(), -2, failed.front(), total + 1,
                            failed.back()});
      const bool plain = is_recoverable(arch, failed);
      for (const auto& v : variants) {
        const bool want = testref::reference_is_recoverable(arch, v);
        const bool got = is_recoverable(arch, v);
        if ((got != want || got != plain) && ++mismatches <= 5)
          ADD_FAILURE() << describe(arch, v) << " reference " << want
                        << " without extras " << plain;
      }
    });
  }
  EXPECT_EQ(mismatches, 0);
}

FatalCounts reference_count_fatal_sets(const layout::Architecture& arch) {
  const int total = arch.total_disks();
  FatalCounts out;
  long fatal_pairs_ordered = 0;
  for (int a = 0; a < total; ++a)
    for (int b = 0; b < total; ++b)
      if (b != a && !testref::reference_is_recoverable(arch, {a, b}))
        ++fatal_pairs_ordered;
  out.avg_fatal_second =
      static_cast<double>(fatal_pairs_ordered) / static_cast<double>(total);
  if (arch.fault_tolerance() >= 2) {
    long fatal_triples = 0;
    long surviving_pairs = 0;
    for (int a = 0; a < total; ++a) {
      for (int b = a + 1; b < total; ++b) {
        if (!testref::reference_is_recoverable(arch, {a, b})) continue;
        ++surviving_pairs;
        for (int c = 0; c < total; ++c) {
          if (c == a || c == b) continue;
          if (!testref::reference_is_recoverable(arch, {a, b, c}))
            ++fatal_triples;
        }
      }
    }
    if (surviving_pairs > 0)
      out.avg_fatal_third = static_cast<double>(fatal_triples) /
                            static_cast<double>(surviving_pairs);
  }
  return out;
}

TEST(RecoverableDifferential, FatalCountsMatchTheReference) {
  for (const auto& arch : testref::differential_architectures()) {
    const FatalCounts got = count_fatal_sets(arch);
    const FatalCounts want = reference_count_fatal_sets(arch);
    EXPECT_EQ(got.avg_fatal_second, want.avg_fatal_second)
        << describe(arch, {});
    EXPECT_EQ(got.avg_fatal_third, want.avg_fatal_third)
        << describe(arch, {});
  }
}

TEST(Mttdl, Tolerance1ClosedForm) {
  const auto arch = layout::Architecture::mirror(4, false);
  MttdlParams p;
  p.disk_mttf_hours = 1.0e6;
  p.mttr_hours = 10.0;
  const auto report = estimate_mttdl(arch, p);
  // MTTF^2 / (N * k2 * MTTR) with N=8, k2=1.
  EXPECT_NEAR(report.mttdl_hours, 1e12 / (8 * 1 * 10), 1e-3);
  EXPECT_GT(report.mttdl_years(), 0.0);
}

TEST(Mttdl, ShiftedMirrorTradesFatalSetForWindow) {
  // Same MTTR: shifted has n x more fatal seconds -> n x lower MTTDL.
  // Its n x faster rebuild (n x smaller MTTR) exactly cancels that.
  const int n = 5;
  MttdlParams same;
  same.mttr_hours = 10.0;
  const auto trad =
      estimate_mttdl(layout::Architecture::mirror(n, false), same);
  const auto shift_same =
      estimate_mttdl(layout::Architecture::mirror(n, true), same);
  EXPECT_NEAR(trad.mttdl_hours / shift_same.mttdl_hours, n, 1e-9);

  MttdlParams faster = same;
  faster.mttr_hours = same.mttr_hours / n;
  const auto shift_fast =
      estimate_mttdl(layout::Architecture::mirror(n, true), faster);
  EXPECT_NEAR(shift_fast.mttdl_hours, trad.mttdl_hours, 1e-3);
}

TEST(Mttdl, ParityVariantVastlyMoreReliable) {
  MttdlParams p;
  p.mttr_hours = 10.0;
  const auto mirror = estimate_mttdl(layout::Architecture::mirror(4, true), p);
  const auto parity =
      estimate_mttdl(layout::Architecture::mirror_with_parity(4, true), p);
  EXPECT_GT(parity.mttdl_hours, 1e3 * mirror.mttdl_hours);
}

TEST(Mttdl, InfiniteWhenNoFatalSets) {
  // A 1-disk "array" mirrored with parity: no triple exists that loses
  // data... n=1: disks = {data, mirror, parity}: losing all three IS
  // fatal, so instead verify the finite path stays finite.
  const auto report = estimate_mttdl(
      layout::Architecture::mirror_with_parity(1, true), MttdlParams{});
  EXPECT_TRUE(std::isfinite(report.mttdl_hours));
}

}  // namespace
}  // namespace sma::recon
