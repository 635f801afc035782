#include "layout/registry.hpp"

#include <algorithm>
#include <utility>

namespace sma::layout {

namespace {

int mod(int x, int m) {
  const int r = x % m;
  return r < 0 ? r + m : r;
}

/// (F(k-1), F(k), F(k+1)) mod n, iteratively; F(-1) = 1 covers k = 0.
struct FibTriple {
  int prev, cur, next;
};
FibTriple fibonacci_triple_mod(int k, int n) {
  int prev = 1 % n;  // F(-1)
  int cur = 0;       // F(0)
  for (int step = 0; step < k; ++step) {
    const int next = (prev + cur) % n;
    prev = cur;
    cur = next;
  }
  return {prev, cur, (prev + cur) % n};
}

/// Zigzag shift for row j: 0, +1, -1, +2, -2, ... — the minimal-
/// magnitude enumeration of distinct shifts (all distinct mod n).
int zigzag_shift(int j) { return j % 2 == 1 ? (j + 1) / 2 : -(j / 2); }

Status parse_positive_int(const std::string& key, const std::string& value,
                          int* out) {
  if (value.empty()) return invalid_argument("empty value for " + key);
  int parsed = 0;
  for (const char c : value) {
    if (c < '0' || c > '9')
      return invalid_argument(key + " must be a non-negative integer, got '" +
                              value + "'");
    if (parsed > 214748363) return invalid_argument(key + " out of range");
    parsed = parsed * 10 + (c - '0');
  }
  *out = parsed;
  return Status::ok();
}

/// Reject unknown parameter keys so a typo ("group=2") cannot silently
/// run the default layout.
Status check_known_params(const LayoutParams& params,
                          std::initializer_list<const char*> known) {
  for (const auto& [key, value] : params) {
    (void)value;
    if (std::find_if(known.begin(), known.end(), [&](const char* k) {
          return key == k;
        }) == known.end())
      return invalid_argument("unknown layout parameter: " + key);
  }
  return Status::ok();
}

}  // namespace

Result<LayoutSpec> parse_layout_spec(std::string_view spec) {
  LayoutSpec out;
  const std::size_t colon = spec.find(':');
  out.name = std::string(spec.substr(0, colon));
  if (out.name.empty()) return invalid_argument("empty layout name");
  if (colon == std::string_view::npos) return out;

  std::string_view rest = spec.substr(colon + 1);
  if (rest.empty())
    return invalid_argument("layout spec '" + std::string(spec) +
                            "' has an empty parameter list");
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view item = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view()
                                          : rest.substr(comma + 1);
    if (item.empty())
      return invalid_argument("empty parameter in layout spec '" +
                              std::string(spec) + "'");
    const std::size_t eq = item.find('=');
    // A bare value binds to the descriptor's default parameter; the
    // registry resolves the key at make() time (empty key marker).
    const std::string key =
        eq == std::string_view::npos ? "" : std::string(item.substr(0, eq));
    const std::string value = std::string(
        eq == std::string_view::npos ? item : item.substr(eq + 1));
    if (eq != std::string_view::npos && key.empty())
      return invalid_argument("parameter with empty key in layout spec '" +
                              std::string(spec) + "'");
    if (!out.params.emplace(key, value).second)
      return invalid_argument("duplicate parameter '" + key +
                              "' in layout spec '" + std::string(spec) + "'");
  }
  return out;
}

AlgorithmRegistry& AlgorithmRegistry::global() {
  static AlgorithmRegistry* registry = [] {
    auto* r = new AlgorithmRegistry();

    // --- traditional: RAID-1 identity, b(i, j) = a(i, j) --------------
    {
      LayoutDescriptor d;
      d.name = "traditional";
      d.summary = "RAID-1 identity: each data disk has one partner mirror";
      d.map = [](const LayoutConfig&, Pos p) { return p; };
      (void)r->add(std::move(d));
    }

    // --- shifted: the paper's arrangement, b(<i+j>_n, i) = a(i, j) ----
    {
      LayoutDescriptor d;
      d.name = "shifted";
      d.summary = "paper's shifted arrangement: P1-P3, one-read rebuild";
      d.map = [](const LayoutConfig& cfg, Pos p) {
        return affine_shift(cfg.n, 1, p);
      };
      (void)r->add(std::move(d));
    }

    // --- iterated: k applications of the Fig. 8 transform -------------
    // Closed form (see arrangement.hpp): the transform is the linear
    // map [[1,1],[1,0]], whose k-th power is Fibonacci, so
    //   a(i, j) -> ( F(k+1) i + F(k) j , F(k) i + F(k-1) j ) mod n.
    // Bit-identical to iterating apply_shift_transform on a table
    // (held by test); k = 1 is the shifted arrangement.
    {
      LayoutDescriptor d;
      d.name = "iterated";
      d.summary = "k-fold Fig. 8 transform family (iterated:<k>)";
      d.default_param = "iterations";
      d.configure = [](const LayoutParams& params, LayoutConfig& cfg) {
        if (Status st = check_known_params(params, {"iterations"});
            !st.is_ok())
          return st;
        if (auto it = params.find("iterations"); it != params.end())
          return parse_positive_int("iterations", it->second,
                                    &cfg.iterations);
        return Status::ok();
      };
      d.display_name = [](const LayoutConfig& cfg) {
        return "iterated(" + std::to_string(cfg.iterations) + ")";
      };
      d.map = [](const LayoutConfig& cfg, Pos p) {
        const auto f = fibonacci_triple_mod(cfg.iterations, cfg.n);
        return Pos{mod(f.next * p.disk + f.cur * p.row, cfg.n),
                   mod(f.cur * p.disk + f.prev * p.row, cfg.n)};
      };
      (void)r->add(std::move(d));
    }

    // --- lrc: Local Reconstruction Code style local groups ------------
    // The n data disks split into `groups` local groups of L = n/groups
    // disks; within a group the columns loop-shift row by row:
    //   a(i, j) -> ( group(i)*L + <i_local + j>_L , j ).
    // Rebuild of any disk touches ONLY its local group (L disks,
    // n/L reads each) — bounded repair fan-out at the price of the
    // paper's all-disk spread. P3 still holds; P1/P2 shrink to the group.
    {
      LayoutDescriptor d;
      d.name = "lrc";
      d.summary = "local-group layout: rebuild stays inside one group";
      d.min_n = 2;
      d.default_param = "groups";
      d.configure = [](const LayoutParams& params, LayoutConfig& cfg) {
        if (Status st = check_known_params(params, {"groups"}); !st.is_ok())
          return st;
        cfg.groups = 2;
        if (auto it = params.find("groups"); it != params.end())
          if (Status st =
                  parse_positive_int("groups", it->second, &cfg.groups);
              !st.is_ok())
            return st;
        if (cfg.groups < 1) return invalid_argument("lrc needs groups >= 1");
        if (cfg.n % cfg.groups != 0)
          return invalid_argument("lrc needs groups (" +
                                  std::to_string(cfg.groups) +
                                  ") to divide n (" + std::to_string(cfg.n) +
                                  ")");
        return Status::ok();
      };
      d.display_name = [](const LayoutConfig& cfg) {
        return "lrc(groups=" + std::to_string(cfg.groups) + ")";
      };
      d.map = [](const LayoutConfig& cfg, Pos p) {
        const int group_size = cfg.n / cfg.groups;
        const int base = (p.disk / group_size) * group_size;
        return Pos{base + mod(p.disk - base + p.row, group_size), p.row};
      };
      (void)r->add(std::move(d));
    }

    // --- pyramid: two-level (RAID-7-style hierarchical) rotation ------
    // Groups rotate globally AND columns rotate within the group:
    //   a(i, j) -> ( <group(i)+j>_G * L + <i_local + j>_L , j ).
    // With gcd(G, L) == 1 the two rotations compose to a full-spread
    // placement (one read per disk, like shifted) while keeping the
    // group structure LRC exposes; otherwise the spread is lcm(G, L)
    // disks — the hierarchy's middle ground.
    {
      LayoutDescriptor d;
      d.name = "pyramid";
      d.summary = "two-level rotation: groups rotate and columns shift";
      d.min_n = 2;
      d.default_param = "groups";
      d.configure = [](const LayoutParams& params, LayoutConfig& cfg) {
        if (Status st = check_known_params(params, {"groups"}); !st.is_ok())
          return st;
        cfg.groups = 2;
        if (auto it = params.find("groups"); it != params.end())
          if (Status st =
                  parse_positive_int("groups", it->second, &cfg.groups);
              !st.is_ok())
            return st;
        if (cfg.groups < 1)
          return invalid_argument("pyramid needs groups >= 1");
        if (cfg.n % cfg.groups != 0)
          return invalid_argument("pyramid needs groups (" +
                                  std::to_string(cfg.groups) +
                                  ") to divide n (" + std::to_string(cfg.n) +
                                  ")");
        return Status::ok();
      };
      d.display_name = [](const LayoutConfig& cfg) {
        return "pyramid(groups=" + std::to_string(cfg.groups) + ")";
      };
      d.map = [](const LayoutConfig& cfg, Pos p) {
        const int group_size = cfg.n / cfg.groups;
        const int group = p.disk / group_size;
        const int local = p.disk % group_size;
        return Pos{mod(group + p.row, cfg.groups) * group_size +
                       mod(local + p.row, group_size),
                   p.row};
      };
      (void)r->add(std::move(d));
    }

    // --- zigzag: rebuild-optimal minimal-shift arrangement ------------
    // Row j's columns shift by the zigzag sequence 0, +1, -1, +2, -2...
    // (distinct mod n), after "On Codes for Optimal Rebuilding Access":
    // every rebuild read lands on a different disk (the paper's P1/P2
    // one-access property) while shift magnitudes stay <= ceil(n/2),
    // keeping replicas in nearby columns.
    {
      LayoutDescriptor d;
      d.name = "zigzag";
      d.summary = "zigzag shifts: one-access rebuild, minimal displacement";
      d.map = [](const LayoutConfig& cfg, Pos p) {
        return Pos{mod(p.disk + zigzag_shift(p.row), cfg.n), p.row};
      };
      (void)r->add(std::move(d));
    }
    return r;
  }();
  return *registry;
}

Status AlgorithmRegistry::add(LayoutDescriptor desc) {
  if (desc.name.empty())
    return invalid_argument("layout descriptor needs a name");
  if (!desc.map)
    return invalid_argument("layout descriptor '" + desc.name +
                            "' needs a map function");
  if (desc.name.find(':') != std::string::npos ||
      desc.name.find(',') != std::string::npos)
    return invalid_argument("layout name '" + desc.name +
                            "' must not contain ':' or ','");
  if (descriptors_.count(desc.name))
    return already_exists("layout '" + desc.name + "' is already registered");
  order_.push_back(desc.name);
  descriptors_.emplace(desc.name, std::move(desc));
  return Status::ok();
}

Result<const LayoutDescriptor*> AlgorithmRegistry::find(
    std::string_view name) const {
  if (auto it = descriptors_.find(std::string(name)); it != descriptors_.end())
    return &it->second;
  std::string known;
  for (const auto& n : order_) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  return not_found("unknown layout '" + std::string(name) + "' (registered: " +
                   known + ")");
}

std::vector<std::string> AlgorithmRegistry::names() const { return order_; }

Result<Arrangement> AlgorithmRegistry::make(std::string_view spec,
                                            int n) const {
  auto parsed = parse_layout_spec(spec);
  if (!parsed.is_ok()) return parsed.status();
  return make(parsed.value(), n);
}

Result<Arrangement> AlgorithmRegistry::make(const LayoutSpec& spec,
                                            int n) const {
  auto found = find(spec.name);
  if (!found.is_ok()) return found.status();
  const LayoutDescriptor* desc = found.value();
  if (n < desc->min_n)
    return invalid_argument("layout '" + desc->name + "' needs n >= " +
                            std::to_string(desc->min_n));

  // Bind a bare spec value ("iterated:3") to the default parameter.
  LayoutParams params = spec.params;
  if (auto bare = params.find(""); bare != params.end()) {
    if (desc->default_param.empty())
      return invalid_argument("layout '" + desc->name +
                              "' takes no bare parameter value");
    if (params.count(desc->default_param))
      return invalid_argument("layout '" + desc->name + "' got both '" +
                              desc->default_param +
                              "' and a bare parameter value");
    params.emplace(desc->default_param, bare->second);
    params.erase("");
  }

  LayoutConfig cfg;
  cfg.n = n;
  if (desc->configure) {
    if (Status st = desc->configure(params, cfg); !st.is_ok()) return st;
  } else if (!params.empty()) {
    return invalid_argument("layout '" + desc->name +
                            "' takes no parameters");
  }

  return Arrangement::from_map(
      desc->display_name ? desc->display_name(cfg) : desc->name, n,
      [&](Pos p) { return desc->map(cfg, p); });
}

}  // namespace sma::layout
