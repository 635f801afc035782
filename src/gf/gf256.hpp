// GF(2^8) arithmetic — the finite-field substrate the paper's reference
// implementation obtained from Jerasure-1.2.
//
// The shifted mirror methods themselves only need XOR, but the RAID-6
// comparators (and Reed-Solomon-style extensions) need full field
// arithmetic. We use the standard polynomial x^8+x^4+x^3+x^2+1 (0x11d),
// the same primitive polynomial Jerasure defaults to for w=8, with
// log/antilog tables for multiply/divide and per-constant row tables for
// fast region multiplication.
#pragma once

#include <array>
#include <cstdint>

namespace sma::gf {

inline constexpr unsigned kFieldSize = 256;
inline constexpr unsigned kPrimitivePoly = 0x11d;

/// Singleton table set, built once at first use (thread-safe since C++11
/// static initialization).
class Tables {
 public:
  static const Tables& instance();

  std::uint8_t mul(std::uint8_t a, std::uint8_t b) const {
    if (a == 0 || b == 0) return 0;
    return exp_[log_[a] + log_[b]];
  }

  std::uint8_t div(std::uint8_t a, std::uint8_t b) const;

  std::uint8_t inv(std::uint8_t a) const;

  /// a^k for k >= 0.
  std::uint8_t pow(std::uint8_t a, unsigned k) const;

  /// Undefined for a == 0.
  std::uint8_t log(std::uint8_t a) const { return log_[a]; }
  std::uint8_t exp(unsigned e) const { return exp_[e % 255]; }

 private:
  Tables();
  // exp_ is doubled (510 entries) so mul never needs "% 255".
  std::array<std::uint8_t, 510> exp_{};
  std::array<std::uint8_t, 256> log_{};
};

inline std::uint8_t add(std::uint8_t a, std::uint8_t b) {
  return static_cast<std::uint8_t>(a ^ b);
}
inline std::uint8_t sub(std::uint8_t a, std::uint8_t b) {
  return static_cast<std::uint8_t>(a ^ b);  // characteristic 2
}
inline std::uint8_t mul(std::uint8_t a, std::uint8_t b) {
  return Tables::instance().mul(a, b);
}
inline std::uint8_t div(std::uint8_t a, std::uint8_t b) {
  return Tables::instance().div(a, b);
}
inline std::uint8_t inv(std::uint8_t a) { return Tables::instance().inv(a); }
inline std::uint8_t pow(std::uint8_t a, unsigned k) {
  return Tables::instance().pow(a, k);
}

/// Slow bit-by-bit ("Russian peasant") multiply used to cross-check the
/// tables in tests.
std::uint8_t mul_slow(std::uint8_t a, std::uint8_t b);

}  // namespace sma::gf
