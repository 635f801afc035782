#include "layout/arrangement.hpp"

#include <cassert>
#include <sstream>
#include <utility>

#include "layout/registry.hpp"

namespace sma::layout {

namespace {
/// One step of the Fig. 8 transform: column q.disk becomes a row,
/// loop-shifted by q.row.
Pos shift_step(int n, Pos q) { return {(q.disk + q.row) % n, q.disk}; }
}  // namespace

Result<Arrangement> Arrangement::from_map(
    std::string name, int n, const std::function<Pos(Pos)>& map) {
  if (n < 1)
    return invalid_argument("arrangement '" + name + "' needs n >= 1");
  Arrangement arr;
  arr.name_ = std::move(name);
  arr.n_ = n;
  const std::size_t cells = static_cast<std::size_t>(n) * n;
  arr.mirror_.resize(cells);
  arr.data_.assign(cells, Pos{-1, -1});
  const auto element = [](Pos p) {
    return "a(" + std::to_string(p.disk) + ", " + std::to_string(p.row) + ")";
  };
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      const Pos m = map({i, j});
      if (m.disk < 0 || m.disk >= n || m.row < 0 || m.row >= n)
        return failed_precondition(
            "arrangement '" + arr.name_ + "' sends " + element({i, j}) +
            " off the " + std::to_string(n) + " x " + std::to_string(n) +
            " grid");
      Pos& source = arr.data_[arr.cell(m.disk, m.row)];
      if (source.disk >= 0)
        return failed_precondition(
            "arrangement '" + arr.name_ + "' is not a bijection at n = " +
            std::to_string(n) + ": " + element(source) + " and " +
            element({i, j}) + " share mirror cell (" +
            std::to_string(m.disk) + ", " + std::to_string(m.row) + ")");
      source = {i, j};
      arr.mirror_[arr.cell(i, j)] = m;
    }
  }
  return arr;
}

Arrangement apply_shift_transform(const Arrangement& prev) {
  const int n = prev.n();
  auto made = Arrangement::from_map(prev.name() + "+shift", n, [&](Pos p) {
    return shift_step(n, prev.mirror_of(p.disk, p.row));
  });
  return std::move(made).take();
}

Arrangement make_iterated(int n, int iterations) {
  assert(iterations >= 0);
  const std::string name = "iterated(" + std::to_string(iterations) + ")";
  auto made = Arrangement::from_map(name, n, [&](Pos q) {
    for (int step = 0; step < iterations; ++step) q = shift_step(n, q);
    return q;
  });
  return std::move(made).take();
}

Result<Arrangement> make_arrangement(const std::string& kind, int n) {
  return AlgorithmRegistry::global().make(kind, n);
}

namespace {
/// (F(k) mod n, F(k+1) mod n), computed iteratively to avoid overflow.
std::pair<int, int> fibonacci_mod(int k, int n) {
  assert(k >= 0 && n >= 1);
  int fk = 0;        // F(0)
  int fk1 = 1 % n;   // F(1)
  for (int step = 0; step < k; ++step) {
    const int next = (fk + fk1) % n;
    fk = fk1;
    fk1 = next;
  }
  return {fk, fk1};
}

int gcd(int a, int b) {
  while (b != 0) {
    const int t = a % b;
    a = b;
    b = t;
  }
  return a;
}
}  // namespace

std::vector<int> units_mod(int n, int count) {
  assert(n >= 1 && count >= 0);
  if (n == 1) return std::vector<int>(static_cast<std::size_t>(count), 0);
  std::vector<int> units;
  for (int c = 1; c < n && static_cast<int>(units.size()) < count; ++c)
    if (gcd(c, n) == 1) units.push_back(c);
  return units;
}

bool iterate_satisfies_p1p2(int n, int iterations) {
  if (n == 1) return true;
  const auto [fk, fk1] = fibonacci_mod(iterations, n);
  (void)fk1;
  // gcd(0, n) == n, so F(k) ≡ 0 (mod n) correctly fails for n > 1.
  return gcd(fk == 0 ? n : fk, n) == 1;
}

bool iterate_satisfies_p3(int n, int iterations) {
  if (n == 1) return true;
  const auto [fk, fk1] = fibonacci_mod(iterations, n);
  (void)fk;
  return gcd(fk1 == 0 ? n : fk1, n) == 1;
}

std::string render_arrays(const Arrangement& arr) {
  const int n = arr.n();
  // Label elements 1..n*n row-major as the paper's figures do.
  auto label = [&](int disk, int row) { return row * n + disk + 1; };
  std::ostringstream out;
  out << "data disk array" << std::string(
             static_cast<std::size_t>(std::max(1, 4 * n - 12)), ' ')
      << " | mirror disk array (" << arr.name() << ")\n";
  for (int row = 0; row < n; ++row) {
    for (int disk = 0; disk < n; ++disk) out << ' ' << label(disk, row) << ' ';
    out << "   |  ";
    for (int disk = 0; disk < n; ++disk) {
      const Pos src = arr.data_of(disk, row);
      out << ' ' << label(src.disk, src.row) << ' ';
    }
    out << '\n';
  }
  return out.str();
}

}  // namespace sma::layout
