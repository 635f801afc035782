#include "util/rng.hpp"

#include <cassert>
#include <cmath>
#include <cstring>

namespace sma {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  // xoshiro must not start from the all-zero state; SplitMix64 seeding
  // guarantees that for any input seed.
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  assert(bound > 0);
  // Lemire's rejection method: unbiased and nearly always one multiply.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::next_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  // span == 0 means the full 64-bit range [INT64_MIN, INT64_MAX].
  if (span == 0) return static_cast<std::int64_t>(next_u64());
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::next_double() {
  // 53 random mantissa bits -> uniform double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::next_exponential(double mean) {
  assert(mean > 0);
  double u;
  do {
    u = next_double();
  } while (u == 0.0);
  return -mean * std::log(u);
}

bool Rng::next_bool(double p_true) { return next_double() < p_true; }

Rng Rng::fork() { return Rng(next_u64()); }

void fill_pattern(std::uint64_t seed, unsigned char* dst, std::size_t len) {
  std::uint64_t state = seed;
  std::size_t i = 0;
  // Eight explicit byte stores, low byte first: GCC merges them into one
  // 8-byte store, which it does not do for the equivalent inner loop.
  for (; i + 8 <= len; i += 8) {
    const std::uint64_t word = splitmix64(state);
    unsigned char* p = dst + i;
    p[0] = static_cast<unsigned char>(word);
    p[1] = static_cast<unsigned char>(word >> 8);
    p[2] = static_cast<unsigned char>(word >> 16);
    p[3] = static_cast<unsigned char>(word >> 24);
    p[4] = static_cast<unsigned char>(word >> 32);
    p[5] = static_cast<unsigned char>(word >> 40);
    p[6] = static_cast<unsigned char>(word >> 48);
    p[7] = static_cast<unsigned char>(word >> 56);
  }
  if (i < len) {
    const std::uint64_t word = splitmix64(state);
    for (int b = 0; i < len; ++i, ++b)
      dst[i] = static_cast<unsigned char>(word >> (8 * b));
  }
}

std::uint64_t fingerprint(const unsigned char* data, std::size_t len) {
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, data + i, sizeof word);
    h = (h ^ word) * kPrime;
  }
  for (; i < len; ++i) h = (h ^ data[i]) * kPrime;
  return h;
}

}  // namespace sma
