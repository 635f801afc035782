// Deterministic pseudo-random number generation for simulations.
//
// Experiments must be reproducible run-to-run, so everything random in
// the library flows through Rng seeded explicitly by the caller. The
// generator is xoshiro256** (public domain, Blackman & Vigna), seeded
// through SplitMix64 so that nearby seeds give independent streams.
#pragma once

#include <cstdint>
#include <vector>

namespace sma {

/// SplitMix64 step; used for seeding and cheap hash mixing.
std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** deterministic RNG with convenience distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform in [0, bound) without modulo bias. bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t next_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double next_double();

  /// Exponentially distributed value with the given mean (> 0).
  double next_exponential(double mean);

  /// Bernoulli trial.
  bool next_bool(double p_true = 0.5);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Derive an independent child stream (for per-worker RNGs).
  Rng fork();

 private:
  std::uint64_t s_[4];
};

/// Fill a buffer with a deterministic byte pattern derived from `seed`.
/// Used to synthesize "file" contents whose expected value can be
/// regenerated anywhere for corruption checks.
void fill_pattern(std::uint64_t seed, unsigned char* dst, std::size_t len);

/// 64-bit content fingerprint for fast corruption checks: FNV-1a's
/// offset basis and prime, folded as h = (h ^ w) * prime over 8-byte
/// words w (host byte order), then byte by byte over the 0..7 tail
/// bytes. Each step is a bijection in its word and in h, so two buffers
/// of one length that differ in a single word (or tail byte) always
/// fingerprint differently. Host-order values are only comparable
/// within one process; nothing persists or digests them.
std::uint64_t fingerprint(const unsigned char* data, std::size_t len);

}  // namespace sma
