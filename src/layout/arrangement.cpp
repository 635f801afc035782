#include "layout/arrangement.hpp"

#include <cassert>
#include <sstream>
#include <utility>

#include "layout/registry.hpp"

namespace sma::layout {

namespace {
int mod(int x, int m) {
  const int r = x % m;
  return r < 0 ? r + m : r;
}
}  // namespace

Pos MirrorArrangement::data_of(int mirror_disk, int mirror_row) const {
  const auto partner = partner_of(mirror_disk, mirror_row);
  return partner ? *partner : Pos{-1, -1};
}

std::optional<Pos> MirrorArrangement::partner_of(int mirror_disk,
                                                 int mirror_row) const {
  const int size = n();
  for (int i = 0; i < size; ++i) {
    for (int j = 0; j < size; ++j) {
      const Pos p = mirror_of(i, j);
      if (p.disk == mirror_disk && p.row == mirror_row) return Pos{i, j};
    }
  }
  return std::nullopt;
}

bool MirrorArrangement::is_bijection() const {
  const int size = n();
  std::vector<std::vector<bool>> seen(
      static_cast<std::size_t>(size),
      std::vector<bool>(static_cast<std::size_t>(size), false));
  for (int i = 0; i < size; ++i) {
    for (int j = 0; j < size; ++j) {
      const Pos p = mirror_of(i, j);
      if (p.disk < 0 || p.disk >= size || p.row < 0 || p.row >= size)
        return false;
      auto cell = seen[static_cast<std::size_t>(p.disk)]
                      [static_cast<std::size_t>(p.row)];
      if (cell) return false;
      seen[static_cast<std::size_t>(p.disk)][static_cast<std::size_t>(p.row)] =
          true;
    }
  }
  return true;
}

TableArrangement::TableArrangement(std::string name,
                                   std::vector<std::vector<Pos>> table)
    : name_(std::move(name)), table_(std::move(table)) {
  const int size = static_cast<int>(table_.size());
  assert(size >= 1);
  inverse_.assign(static_cast<std::size_t>(size),
                  std::vector<Pos>(static_cast<std::size_t>(size), {-1, -1}));
  for (int i = 0; i < size; ++i) {
    assert(static_cast<int>(table_[static_cast<std::size_t>(i)].size()) ==
           size);
    for (int j = 0; j < size; ++j) {
      const Pos p = table_[static_cast<std::size_t>(i)]
                          [static_cast<std::size_t>(j)];
      assert(p.disk >= 0 && p.disk < size && p.row >= 0 && p.row < size);
      auto& inv = inverse_[static_cast<std::size_t>(p.disk)]
                          [static_cast<std::size_t>(p.row)];
      assert(inv.disk == -1 && "table arrangement is not a bijection");
      inv = {i, j};
    }
  }
}

Pos TableArrangement::mirror_of(int data_disk, int data_row) const {
  return table_[static_cast<std::size_t>(data_disk)]
               [static_cast<std::size_t>(data_row)];
}

Pos TableArrangement::data_of(int mirror_disk, int mirror_row) const {
  return inverse_[static_cast<std::size_t>(mirror_disk)]
                 [static_cast<std::size_t>(mirror_row)];
}

ArrangementPtr apply_shift_transform(const MirrorArrangement& prev) {
  const int n = prev.n();
  std::vector<std::vector<Pos>> table(
      static_cast<std::size_t>(n),
      std::vector<Pos>(static_cast<std::size_t>(n)));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      const Pos q = prev.mirror_of(i, j);
      // One more application of: column index becomes row, row shifts
      // the destination column.
      table[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = {
          mod(q.disk + q.row, n), q.disk};
    }
  }
  return std::make_unique<TableArrangement>(prev.name() + "+shift",
                                            std::move(table));
}

ArrangementPtr make_iterated(int n, int iterations) {
  assert(iterations >= 0);
  std::vector<std::vector<Pos>> identity(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      identity[static_cast<std::size_t>(i)].push_back({i, j});
  ArrangementPtr current =
      std::make_unique<TableArrangement>("identity", std::move(identity));
  for (int step = 0; step < iterations; ++step)
    current = apply_shift_transform(*current);
  // Give the composite a concise name.
  std::vector<std::vector<Pos>> table(
      static_cast<std::size_t>(n),
      std::vector<Pos>(static_cast<std::size_t>(n)));
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      table[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          current->mirror_of(i, j);
  return std::make_unique<TableArrangement>(
      "iterated(" + std::to_string(iterations) + ")", std::move(table));
}

Result<ArrangementPtr> make_arrangement(const std::string& kind, int n) {
  if (n < 1) return invalid_argument("arrangement needs n >= 1");
  auto arr = AlgorithmRegistry::global().make(kind, n);
  if (!arr.is_ok()) return arr.status();
  return ArrangementPtr(std::move(arr).take());
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

int inverse_mod(int c, int n) {
  // Extended Euclid on (n, c).
  int t = 0;
  int new_t = 1;
  int r = n;
  int new_r = mod(c, n);
  while (new_r != 0) {
    const int q = r / new_r;
    t -= q * new_t;
    std::swap(t, new_t);
    r -= q * new_r;
    std::swap(r, new_r);
  }
  assert(n == 1 || (r == 1 && "multiplier not coprime to n"));
  return mod(t, n);
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

std::string render_arrays(const MirrorArrangement& arr) {
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
