// Layout-algorithm plugin registry — the descriptor API behind every
// mirror element arrangement.
//
// The paper's shifted arrangement is one point in a whole family of
// element placements. Instead of a subclass per family member (the
// pre-registry shape), each layout is a small self-describing
// descriptor in the style of raidixlab/insane_striping's
// `struct insane_algorithm`:
//
//   * a `name` (the registry key — what `--arrangement=` resolves),
//   * a pure `map(config, logical) -> Pos` placement function,
//   * an optional `configure(params)` hook validating parameters
//     ("lrc:groups=2" style), and
//   * a capability flag, `supports_second_failure` (usable under the
//     parity-protected double-failure machinery).
//
// AlgorithmRegistry::make tabulates the map once into an Arrangement
// (layout/arrangement.hpp), which proves the bijection and answers
// both lookup directions from its table.
//
// Built-in descriptors: the paper's two arrangements (traditional and
// shifted), the iterated transformation family in closed form, plus
// three exotic layouts from the related-work line-up — an LRC-style
// local-group layout, a pyramid/RAID-7-style two-level layout, and a
// zigzag rebuild-optimal layout ("On Codes for Optimal Rebuilding
// Access"). Adding a layout is <50 LoC: write the map, register a
// descriptor — see docs/LAYOUTS.md.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "layout/arrangement.hpp"
#include "util/status.hpp"

namespace sma::layout {

/// Key=value parameters attached to a layout spec ("lrc:groups=2").
using LayoutParams = std::map<std::string, std::string>;

/// A parsed layout spec: "name[:key=value[,key=value]...]". A bare
/// value ("iterated:3") binds to the descriptor's default_param.
struct LayoutSpec {
  std::string name;
  LayoutParams params;
};

Result<LayoutSpec> parse_layout_spec(std::string_view spec);

/// Validated per-instance configuration a descriptor's map runs
/// against. `configure` fills the layout-specific fields from the raw
/// params; `map` must be a pure function of (config, logical position).
struct LayoutConfig {
  int n = 0;           // data disks == rows per stripe
  int groups = 1;      // lrc/pyramid: local groups (n % groups == 0)
  int iterations = 1;  // iterated: applications of the Fig. 8 transform
};

struct LayoutDescriptor {
  /// Registry key and `--arrangement=` spelling.
  std::string name;
  /// One-line description (shown by `smactl layouts`).
  std::string summary;

  /// Smallest n the map is defined for.
  int min_n = 1;

  // --- capability flags -----------------------------------------------
  /// Safe under the fault-tolerance-2 (mirror + parity) double-failure
  /// planner and enumeration. All built-ins support it; a layout that
  /// reserves cells or breaks the bijection contract must say no, and
  /// Architecture::mirror_with_parity_named refuses to build it.
  bool supports_second_failure = true;

  // --- behaviour ------------------------------------------------------
  /// Pure placement function: mirror-array position of the replica of
  /// data element a(pos.disk, pos.row). Must be a bijection of the
  /// n x n grid (enforced by AlgorithmRegistry::make).
  std::function<Pos(const LayoutConfig&, Pos)> map;
  /// Optional parameter hook: validate/normalize `params` into `cfg`
  /// (cfg.n is pre-filled). Specs with parameters are rejected when the
  /// descriptor has no configure hook.
  std::function<Status(const LayoutParams& params, LayoutConfig& cfg)>
      configure;
  /// Display name for an instance ("iterated(3)"); defaults to `name`.
  std::function<std::string(const LayoutConfig&)> display_name;
  /// Key a bare spec value binds to ("iterated:3" == both spellings of
  /// "iterated:iterations=3").
  std::string default_param;
};

class AlgorithmRegistry {
 public:
  /// The process-wide registry, populated with the built-in layouts on
  /// first use.
  static AlgorithmRegistry& global();

  /// Empty registry for tests and experiments.
  AlgorithmRegistry() = default;

  /// kAlreadyExists when the name is taken; kInvalidArgument when the
  /// descriptor is malformed (empty name, no map).
  Status add(LayoutDescriptor desc);

  /// Descriptor by name; kNotFound with the known names when unknown.
  Result<const LayoutDescriptor*> find(std::string_view name) const;
  /// Layout names, registration order.
  std::vector<std::string> names() const;

  /// Resolve a spec ("lrc:groups=2"), run the configure hook, and
  /// tabulate the map over the n x n grid (Arrangement::from_map: n^2
  /// map calls, kFailedPrecondition unless it is a bijection).
  Result<Arrangement> make(std::string_view spec, int n) const;
  /// Same, from an already-parsed spec.
  Result<Arrangement> make(const LayoutSpec& spec, int n) const;

 private:
  std::vector<std::string> order_;  // registration order
  std::map<std::string, LayoutDescriptor> descriptors_;
};

}  // namespace sma::layout
