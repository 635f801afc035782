#include "layout/registry.hpp"

#include <gtest/gtest.h>

#include "layout/architecture.hpp"
#include "recon/plan.hpp"

namespace sma::layout {
namespace {

LayoutDescriptor minimal_descriptor(std::string name) {
  LayoutDescriptor d;
  d.name = std::move(name);
  d.summary = "test layout";
  d.map = [](const LayoutConfig&, Pos p) { return p; };
  return d;
}

TEST(LayoutRegistrySpec, ParsesNameOnly) {
  auto spec = parse_layout_spec("shifted");
  ASSERT_TRUE(spec.is_ok());
  EXPECT_EQ(spec.value().name, "shifted");
  EXPECT_TRUE(spec.value().params.empty());
}

TEST(LayoutRegistrySpec, ParsesKeyValueList) {
  auto spec = parse_layout_spec("lrc:groups=2,extra=7");
  ASSERT_TRUE(spec.is_ok());
  EXPECT_EQ(spec.value().name, "lrc");
  ASSERT_EQ(spec.value().params.size(), 2u);
  EXPECT_EQ(spec.value().params.at("groups"), "2");
  EXPECT_EQ(spec.value().params.at("extra"), "7");
}

TEST(LayoutRegistrySpec, BareValueUsesEmptyKeyMarker) {
  auto spec = parse_layout_spec("iterated:3");
  ASSERT_TRUE(spec.is_ok());
  ASSERT_EQ(spec.value().params.size(), 1u);
  EXPECT_EQ(spec.value().params.at(""), "3");
}

TEST(LayoutRegistrySpec, RejectsMalformedSpecs) {
  for (const char* bad : {"", ":3", "name:", "name:,", "name:=3",
                          "name:a=1,a=2", "name:3,4"}) {
    auto spec = parse_layout_spec(bad);
    EXPECT_FALSE(spec.is_ok()) << "spec '" << bad << "' should not parse";
    if (!spec.is_ok()) {
      EXPECT_EQ(spec.status().code(), ErrorCode::kInvalidArgument) << bad;
    }
  }
}

TEST(LayoutRegistry, DuplicateNameRejected) {
  AlgorithmRegistry reg;
  ASSERT_TRUE(reg.add(minimal_descriptor("dup")).is_ok());
  Status again = reg.add(minimal_descriptor("dup"));
  EXPECT_EQ(again.code(), ErrorCode::kAlreadyExists);
}

TEST(LayoutRegistry, MalformedDescriptorRejected) {
  AlgorithmRegistry reg;
  EXPECT_EQ(reg.add(minimal_descriptor("")).code(),
            ErrorCode::kInvalidArgument);
  LayoutDescriptor no_map = minimal_descriptor("no-map");
  no_map.map = nullptr;
  EXPECT_EQ(reg.add(no_map).code(), ErrorCode::kInvalidArgument);
}

TEST(LayoutRegistry, UnknownNameIsNotFound) {
  const auto& reg = AlgorithmRegistry::global();
  auto found = reg.find("bogus");
  ASSERT_FALSE(found.is_ok());
  EXPECT_EQ(found.status().code(), ErrorCode::kNotFound);
  // The error names the registered layouts so the CLI message is usable.
  EXPECT_NE(found.status().to_string().find("shifted"), std::string::npos);
  EXPECT_EQ(reg.make("bogus", 4).status().code(), ErrorCode::kNotFound);
  // The retired alternative spellings of the built-ins are unknown too:
  // every layout has exactly one name.
  ASSERT_GE(reg.names().size(), 6u);
  EXPECT_EQ(reg.names().front(), "traditional");
  for (const char* retired :
       {"mirror-traditional", "mirror-shifted", "identity"})
    EXPECT_EQ(reg.find(retired).status().code(), ErrorCode::kNotFound)
        << retired;
}

TEST(LayoutRegistry, ConfigureValidation) {
  const auto& reg = AlgorithmRegistry::global();
  // groups must divide n.
  EXPECT_EQ(reg.make("lrc:groups=5", 6).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(reg.make("pyramid:groups=4", 6).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(reg.make("lrc:groups=0", 6).status().code(),
            ErrorCode::kInvalidArgument);
  // Non-integer and unknown parameters are rejected.
  EXPECT_EQ(reg.make("lrc:groups=two", 6).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(reg.make("lrc:color=red", 6).status().code(),
            ErrorCode::kInvalidArgument);
  // Layouts without a configure hook take no parameters at all.
  EXPECT_EQ(reg.make("traditional:x=1", 4).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(reg.make("zigzag:2", 4).status().code(),
            ErrorCode::kInvalidArgument);
  // A bare value must not collide with its expanded spelling.
  EXPECT_EQ(reg.make("iterated:3,iterations=3", 5).status().code(),
            ErrorCode::kInvalidArgument);
  // min_n is enforced before configure runs.
  EXPECT_EQ(reg.make("lrc", 1).status().code(), ErrorCode::kInvalidArgument);
}

TEST(LayoutRegistry, EveryBuiltinIsABijectionWithConsistentInverse) {
  const auto& reg = AlgorithmRegistry::global();
  for (const std::string& name : reg.names()) {
    const int min_n = reg.find(name).value()->min_n;
    for (int n : {2, 3, 5, 6, 8}) {
      if (n < min_n) continue;
      auto arr = reg.make(name, n);
      if (!arr.is_ok()) {
        // The grouped layouts default to groups = 2; at odd n that
        // fails configure validation and one flat group must work.
        EXPECT_EQ(arr.status().code(), ErrorCode::kInvalidArgument)
            << name << " n=" << n;
        arr = reg.make(name + ":groups=1", n);
      }
      ASSERT_TRUE(arr.is_ok()) << name << " n=" << n;
      const Arrangement& a = arr.value();
      for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j) {
          const Pos m = a.mirror_of(i, j);
          EXPECT_EQ(a.data_of(m.disk, m.row), (Pos{i, j}))
              << name << " n=" << n << " i=" << i << " j=" << j;
        }
    }
  }
}

/// Mirror array of an n = 3 arrangement in the paper's figure notation:
/// row r lists the labels held by mirror disks 0..2, where data element
/// a(i, j) carries label 3j + i + 1 (1..9 row-major in the data array).
std::vector<std::vector<int>> mirror_labels(const Arrangement& arr) {
  std::vector<std::vector<int>> rows(3, std::vector<int>(3, 0));
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) {
      const Pos m = arr.mirror_of(i, j);
      rows[static_cast<std::size_t>(m.row)][static_cast<std::size_t>(m.disk)] =
          3 * j + i + 1;
    }
  return rows;
}

TEST(LayoutRegistry, MatchesThePapersFiguresAndFormulas) {
  const auto& reg = AlgorithmRegistry::global();
  // Fig. 1: the traditional mirror array repeats the data array.
  EXPECT_EQ(mirror_labels(reg.make("traditional", 3).value()),
            (std::vector<std::vector<int>>{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}));
  // Fig. 3: data disk 0's column {1, 4, 7} becomes mirror row 0, data
  // disk 1's column {2, 5, 8} mirror row 1 shifted by one, and so on.
  EXPECT_EQ(mirror_labels(reg.make("shifted", 3).value()),
            (std::vector<std::vector<int>>{{1, 4, 7}, {8, 2, 5}, {6, 9, 3}}));

  for (int n : {1, 2, 3, 5, 6}) {
    auto trad = reg.make("traditional", n);
    auto shift = reg.make("shifted", n);
    ASSERT_TRUE(trad.is_ok() && shift.is_ok()) << n;
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) {
        // Identity: b(i, j) = a(i, j).
        EXPECT_EQ(trad.value().mirror_of(i, j), (Pos{i, j})) << n;
        EXPECT_EQ(trad.value().data_of(i, j), (Pos{i, j})) << n;
        // Shifted: b(<i+j>_n, i) = a(i, j), inverse b(i, j) = a(j, <i-j>_n).
        EXPECT_EQ(shift.value().mirror_of(i, j), (Pos{(i + j) % n, i})) << n;
        EXPECT_EQ(shift.value().data_of(i, j), (Pos{j, (i - j + n) % n}))
            << n;
      }
  }

  // The iterated family's closed form matches the table built by
  // applying the Fig. 8 transform step by step to the identity.
  for (int n : {3, 5, 6}) {
    const Arrangement iter = make_iterated(n, 3);
    auto arr = reg.make("iterated:3", n);
    ASSERT_TRUE(arr.is_ok()) << n;
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) {
        EXPECT_EQ(arr.value().mirror_of(i, j), iter.mirror_of(i, j)) << n;
        EXPECT_EQ(arr.value().data_of(i, j), iter.data_of(i, j)) << n;
      }
    EXPECT_EQ(arr.value().name(), iter.name());
  }
}

TEST(LayoutRegistry, RebuildReadAccessesMatchTheLayoutsStory) {
  const struct {
    const char* spec;
    int expected;  // max per-disk element reads rebuilding data disk 0
  } cases[] = {{"traditional", 6}, {"shifted", 1}, {"zigzag", 1},
               {"lrc:groups=2", 2}, {"pyramid:groups=2", 1}};
  for (const auto& c : cases) {
    const auto arch = Architecture::mirror_named(6, c.spec).take();
    const auto plan = recon::plan_reconstruction(arch, {0}).take();
    EXPECT_EQ(plan.read_accesses(arch), c.expected) << c.spec;
    EXPECT_EQ(plan.availability_reads.size(), 6u) << c.spec;
  }
}

TEST(LayoutRegistry, LrcRebuildReadSetStaysInsideTheGroup) {
  // Data disks 0..2 form group 0: rebuilding any of them reads only
  // that group's mirror disks, global 6..8.
  const auto arch = Architecture::mirror_named(6, "lrc:groups=2").take();
  for (int failed = 0; failed < 3; ++failed) {
    const auto plan = recon::plan_reconstruction(arch, {failed}).take();
    for (const recon::ElementRead& read : plan.availability_reads) {
      EXPECT_GE(read.logical_disk, 6) << failed;
      EXPECT_LE(read.logical_disk, 8) << failed;
    }
  }
}

TEST(LayoutRegistry, MakeRejectsNonBijectiveDescriptors) {
  AlgorithmRegistry reg;
  LayoutDescriptor d = minimal_descriptor("collapse");
  d.map = [](const LayoutConfig&, Pos) { return Pos{0, 0}; };
  ASSERT_TRUE(reg.add(std::move(d)).is_ok());
  auto arr = reg.make("collapse", 3);
  ASSERT_FALSE(arr.is_ok());
  EXPECT_EQ(arr.status().code(), ErrorCode::kFailedPrecondition);
}

TEST(LayoutRegistry, CapabilityFlagsGateTheParityWrapper) {
  // All built-ins are safe under the double-failure machinery.
  const auto& reg = AlgorithmRegistry::global();
  for (const std::string& name : reg.names())
    EXPECT_TRUE(reg.find(name).value()->supports_second_failure) << name;

  // A layout that clears the flag builds as a plain mirror but the
  // parity wrapper refuses it.
  LayoutDescriptor d = minimal_descriptor("test-frail");
  d.supports_second_failure = false;
  Status added = AlgorithmRegistry::global().add(std::move(d));
  if (added.is_ok()) {  // another test in this process may have added it
    auto plain = Architecture::mirror_named(4, "test-frail");
    ASSERT_TRUE(plain.is_ok());
    EXPECT_EQ(plain.value().kind(), ArchKind::kMirror);
    auto parity = Architecture::mirror_with_parity_named(4, "test-frail");
    ASSERT_FALSE(parity.is_ok());
    EXPECT_EQ(parity.status().code(), ErrorCode::kFailedPrecondition);
  }
}

TEST(LayoutRegistry, ArchitectureLabelsArePinned) {
  // Architecture names are the row labels of the committed reference
  // CSVs; every mirror is kMirror/kMirrorParity plus its registry spec.
  struct Row {
    Architecture arch;
    const char* name;
    ArchKind kind;
    int fault_tolerance;
    const char* spec;
  };
  const auto named = [](const char* spec, bool parity) {
    return (parity ? Architecture::mirror_with_parity_named(6, spec)
                   : Architecture::mirror_named(6, spec))
        .take();
  };
  const Row rows[] = {
      {Architecture::mirror(6, false), "mirror-traditional", ArchKind::kMirror,
       1, "traditional"},
      {Architecture::mirror(6, true), "mirror-shifted", ArchKind::kMirror, 1,
       "shifted"},
      {Architecture::mirror_with_parity(6, false), "mirror-parity-traditional",
       ArchKind::kMirrorParity, 2, "traditional"},
      {Architecture::mirror_with_parity(6, true), "mirror-parity-shifted",
       ArchKind::kMirrorParity, 2, "shifted"},
      {named("traditional", false), "mirror-traditional", ArchKind::kMirror, 1,
       "traditional"},
      {named("shifted", false), "mirror-shifted", ArchKind::kMirror, 1,
       "shifted"},
      {named("iterated", false), "mirror-iterated(1)", ArchKind::kMirror, 1,
       "iterated"},
      {named("iterated:3", false), "mirror-iterated(3)", ArchKind::kMirror, 1,
       "iterated:3"},
      {named("lrc", false), "mirror-lrc(groups=2)", ArchKind::kMirror, 1,
       "lrc"},
      {named("pyramid:groups=3", false), "mirror-pyramid(groups=3)",
       ArchKind::kMirror, 1, "pyramid:groups=3"},
      {named("zigzag", false), "mirror-zigzag", ArchKind::kMirror, 1,
       "zigzag"},
      {named("traditional", true), "mirror-parity-traditional",
       ArchKind::kMirrorParity, 2, "traditional"},
      {named("shifted", true), "mirror-parity-shifted", ArchKind::kMirrorParity,
       2, "shifted"},
      {named("iterated", true), "mirror-parity-iterated(1)",
       ArchKind::kMirrorParity, 2, "iterated"},
      {named("iterated:3", true), "mirror-parity-iterated(3)",
       ArchKind::kMirrorParity, 2, "iterated:3"},
      {named("lrc", true), "mirror-parity-lrc(groups=2)",
       ArchKind::kMirrorParity, 2, "lrc"},
      {named("pyramid:groups=3", true), "mirror-parity-pyramid(groups=3)",
       ArchKind::kMirrorParity, 2, "pyramid:groups=3"},
      {named("zigzag", true), "mirror-parity-zigzag", ArchKind::kMirrorParity,
       2, "zigzag"},
  };
  for (const Row& r : rows) {
    EXPECT_EQ(r.arch.name(), r.name);
    EXPECT_EQ(r.arch.kind(), r.kind) << r.name;
    EXPECT_EQ(r.arch.fault_tolerance(), r.fault_tolerance) << r.name;
    EXPECT_EQ(r.arch.layout_spec(), r.spec) << r.name;
  }
  // Every built-in layout appears above (layouts tests register at run
  // time are named "test-...").
  for (const std::string& layout : AlgorithmRegistry::global().names()) {
    if (layout.rfind("test-", 0) == 0) continue;
    bool covered = false;
    for (const Row& r : rows)
      covered = covered || std::string(r.spec).rfind(layout, 0) == 0;
    EXPECT_TRUE(covered) << layout;
  }
}

}  // namespace
}  // namespace sma::layout
