#include "gf/region.hpp"

#include <cassert>
#include <cstdlib>
#include <cstring>

#include "gf/gf256.hpp"
#include "gf/region_kernels.hpp"

namespace sma::gf {

namespace internal {

void build_nibble_table(std::uint8_t c, std::uint8_t* tab) {
  const auto& t = Tables::instance();
  for (unsigned i = 0; i < 16; ++i) {
    tab[i] = t.mul(c, static_cast<std::uint8_t>(i));
    tab[16 + i] = t.mul(c, static_cast<std::uint8_t>(i << 4));
  }
}

namespace {

// Expand a 32-byte nibble table into the flat 256-entry row table the
// scalar loops consume (one lookup per byte instead of two).
void expand_row(const std::uint8_t* tab, std::uint8_t* row) {
  for (unsigned v = 0; v < 256; ++v)
    row[v] = static_cast<std::uint8_t>(tab[v & 0xF] ^ tab[16 + (v >> 4)]);
}

void scalar_mul(const std::uint8_t* tab, const std::uint8_t* src,
                std::uint8_t* dst, std::size_t n) {
  std::uint8_t row[256];
  expand_row(tab, row);
  for (std::size_t i = 0; i < n; ++i) dst[i] = row[src[i]];
}

void scalar_mul_xor(const std::uint8_t* tab, const std::uint8_t* src,
                    std::uint8_t* dst, std::size_t n) {
  std::uint8_t row[256];
  expand_row(tab, row);
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= row[src[i]];
}

void scalar_xor(const std::uint8_t* src, std::uint8_t* dst, std::size_t n) {
  std::size_t i = 0;
  // Bulk path on 8-byte words; memcpy keeps this free of alignment UB
  // and compiles to plain loads/stores.
  while (i + 8 <= n) {
    std::uint64_t a;
    std::uint64_t b;
    std::memcpy(&a, src + i, 8);
    std::memcpy(&b, dst + i, 8);
    b ^= a;
    std::memcpy(dst + i, &b, 8);
    i += 8;
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

void scalar_multi_xor(const std::uint8_t* const* srcs, std::size_t nsrc,
                      std::uint8_t* dst, std::size_t n) {
  std::size_t i = 0;
  while (i + 8 <= n) {
    std::uint64_t acc;
    std::memcpy(&acc, dst + i, 8);
    for (std::size_t j = 0; j < nsrc; ++j) {
      std::uint64_t a;
      std::memcpy(&a, srcs[j] + i, 8);
      acc ^= a;
    }
    std::memcpy(dst + i, &acc, 8);
    i += 8;
  }
  for (; i < n; ++i) {
    std::uint8_t b = dst[i];
    for (std::size_t j = 0; j < nsrc; ++j) b ^= srcs[j][i];
    dst[i] = b;
  }
}

void scalar_dot(const std::uint8_t* tabs, const std::uint8_t* const* srcs,
                std::size_t nsrc, std::uint8_t* dst, std::size_t n,
                bool accumulate) {
  // Scalar is lookup-bound, not store-bound, so one row-table pass per
  // source beats a fused two-lookups-per-source inner loop.
  std::uint8_t row[256];
  for (std::size_t j = 0; j < nsrc; ++j) {
    expand_row(tabs + j * kNibbleTableBytes, row);
    const std::uint8_t* src = srcs[j];
    if (j == 0 && !accumulate) {
      for (std::size_t i = 0; i < n; ++i) dst[i] = row[src[i]];
    } else {
      for (std::size_t i = 0; i < n; ++i) dst[i] ^= row[src[i]];
    }
  }
}

bool scalar_is_zero(const std::uint8_t* p, std::size_t n) {
  std::size_t i = 0;
  while (i + 8 <= n) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    if (w != 0) return false;
    i += 8;
  }
  for (; i < n; ++i)
    if (p[i] != 0) return false;
  return true;
}

}  // namespace

const RegionKernels& scalar_kernels() {
  static const RegionKernels k = {
      "scalar",     scalar_mul, scalar_mul_xor, scalar_xor,
      scalar_multi_xor, scalar_dot, scalar_is_zero,
  };
  return k;
}

}  // namespace internal

namespace {

using internal::kNibbleTableBytes;
using internal::RegionKernels;

bool force_scalar_from_env() {
  const char* v = std::getenv("SMA_GF_FORCE_SCALAR");
  return v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0;
}

const RegionKernels* kernels_for(KernelTier tier) {
  switch (tier) {
    case KernelTier::kScalar: return &internal::scalar_kernels();
#if defined(SMA_GF_HAVE_SSSE3)
    case KernelTier::kSsse3: return &internal::ssse3_kernels();
#endif
#if defined(SMA_GF_HAVE_AVX2)
    case KernelTier::kAvx2: return &internal::avx2_kernels();
#endif
#if defined(SMA_GF_HAVE_GFNI)
    case KernelTier::kGfni: return &internal::gfni_kernels();
#endif
#if defined(SMA_GF_HAVE_NEON)
    case KernelTier::kNeon: return &internal::neon_kernels();
#endif
    default: return nullptr;
  }
}

bool host_supports(KernelTier tier) {
  switch (tier) {
    case KernelTier::kScalar: return true;
#if defined(SMA_GF_HAVE_SSSE3)
    case KernelTier::kSsse3: return __builtin_cpu_supports("ssse3") != 0;
#endif
#if defined(SMA_GF_HAVE_AVX2)
    case KernelTier::kAvx2: return __builtin_cpu_supports("avx2") != 0;
#endif
#if defined(SMA_GF_HAVE_GFNI)
    case KernelTier::kGfni:
      return __builtin_cpu_supports("gfni") != 0 &&
             __builtin_cpu_supports("avx2") != 0;
#endif
#if defined(SMA_GF_HAVE_NEON)
    // NEON (AdvSIMD) is architecturally mandatory on AArch64.
    case KernelTier::kNeon: return true;
#endif
    default: return false;
  }
}

KernelTier select_tier() {
  if (force_scalar_from_env()) return KernelTier::kScalar;
  KernelTier best = KernelTier::kScalar;
  for (const KernelTier t : {KernelTier::kSsse3, KernelTier::kAvx2,
                             KernelTier::kGfni, KernelTier::kNeon}) {
    if (kernels_for(t) != nullptr && host_supports(t)) best = t;
  }
  return best;
}

const RegionKernels& active() {
  // Selected once, thread-safe (C++11 magic static); the env override
  // is therefore honored only if set before the first region call.
  static const RegionKernels* k = kernels_for(select_tier());
  return *k;
}

const RegionKernels& resolve(KernelTier tier) {
  const RegionKernels* k = kernels_for(tier);
  assert(k != nullptr && host_supports(tier) &&
         "tier not available on this host; use available_tiers()");
  return k != nullptr ? *k : internal::scalar_kernels();
}

// Shared implementation bodies, parameterized on the kernel set.

void do_mul(const RegionKernels& k, std::uint8_t c,
            std::span<const std::uint8_t> src, std::span<std::uint8_t> dst) {
  assert(src.size() == dst.size());
  if (c == 0) {
    region_zero(dst);
    return;
  }
  if (c == 1) {
    if (dst.data() != src.data())
      std::memmove(dst.data(), src.data(), dst.size());
    return;
  }
  std::uint8_t tab[kNibbleTableBytes];
  internal::build_nibble_table(c, tab);
  k.mul(tab, src.data(), dst.data(), dst.size());
}

void do_mul_xor(const RegionKernels& k, std::uint8_t c,
                std::span<const std::uint8_t> src,
                std::span<std::uint8_t> dst) {
  assert(src.size() == dst.size());
  if (c == 0) return;
  if (c == 1) {
    k.xor_into(src.data(), dst.data(), dst.size());
    return;
  }
  std::uint8_t tab[kNibbleTableBytes];
  internal::build_nibble_table(c, tab);
  k.mul_xor(tab, src.data(), dst.data(), dst.size());
}

void do_multi_xor(const RegionKernels& k,
                  std::span<const std::span<const std::uint8_t>> srcs,
                  std::span<std::uint8_t> dst) {
  if (srcs.empty() || dst.empty()) return;
  constexpr std::size_t kInline = 64;
  const std::uint8_t* inline_ptrs[kInline];
  // Reusable per-thread fallback: wide arrays hit this on every
  // stripe, so the scratch keeps its capacity instead of paying an
  // allocation per call (thread_local because sweeps run cases on
  // worker threads).
  static thread_local std::vector<const std::uint8_t*> heap_ptrs;
  const std::uint8_t** ptrs = inline_ptrs;
  if (srcs.size() > kInline) {
    heap_ptrs.reserve(srcs.size());
    heap_ptrs.resize(srcs.size());
    ptrs = heap_ptrs.data();
  }
  for (std::size_t j = 0; j < srcs.size(); ++j) {
    assert(srcs[j].size() == dst.size());
    ptrs[j] = srcs[j].data();
  }
  k.multi_xor(ptrs, srcs.size(), dst.data(), dst.size());
}

void do_dot(const RegionKernels& k, std::span<const std::uint8_t> coeffs,
            std::span<const std::span<const std::uint8_t>> srcs,
            std::span<std::uint8_t> dst, bool accumulate) {
  assert(coeffs.size() == srcs.size());
  // Zero coefficients contribute nothing; drop them up front so the
  // kernels never see them (and so an all-zero row still zeroes dst in
  // overwrite mode).
  std::size_t live = 0;
  for (std::size_t j = 0; j < srcs.size(); ++j) {
    assert(srcs[j].size() == dst.size());
    if (coeffs[j] != 0) ++live;
  }
  if (live == 0 || dst.empty()) {
    if (!accumulate) region_zero(dst);
    return;
  }
  constexpr std::size_t kInline = 16;
  const std::uint8_t* inline_ptrs[kInline];
  std::uint8_t inline_tabs[kInline * kNibbleTableBytes];
  // Reusable per-thread fallback, as in do_multi_xor: reserved once,
  // no allocation on subsequent wide-row calls.
  static thread_local std::vector<const std::uint8_t*> heap_ptrs;
  static thread_local std::vector<std::uint8_t> heap_tabs;
  const std::uint8_t** ptrs = inline_ptrs;
  std::uint8_t* tabs = inline_tabs;
  if (live > kInline) {
    heap_ptrs.reserve(live);
    heap_ptrs.resize(live);
    heap_tabs.reserve(live * kNibbleTableBytes);
    heap_tabs.resize(live * kNibbleTableBytes);
    ptrs = heap_ptrs.data();
    tabs = heap_tabs.data();
  }
  std::size_t w = 0;
  for (std::size_t j = 0; j < srcs.size(); ++j) {
    if (coeffs[j] == 0) continue;
    ptrs[w] = srcs[j].data();
    internal::build_nibble_table(coeffs[j], tabs + w * kNibbleTableBytes);
    ++w;
  }
  k.dot(tabs, ptrs, live, dst.data(), dst.size(), accumulate);
}

}  // namespace

std::string_view to_string(KernelTier tier) {
  switch (tier) {
    case KernelTier::kScalar: return "scalar";
    case KernelTier::kSsse3: return "ssse3";
    case KernelTier::kAvx2: return "avx2";
    case KernelTier::kGfni: return "gfni";
    case KernelTier::kNeon: return "neon";
  }
  return "unknown";
}

KernelTier active_tier() {
  static const KernelTier tier = select_tier();
  (void)active();  // keep the kernel pointer selection in lockstep
  return tier;
}

std::vector<KernelTier> available_tiers() {
  std::vector<KernelTier> tiers{KernelTier::kScalar};
  for (const KernelTier t : {KernelTier::kSsse3, KernelTier::kAvx2,
                             KernelTier::kGfni, KernelTier::kNeon}) {
    if (kernels_for(t) != nullptr && host_supports(t)) tiers.push_back(t);
  }
  return tiers;
}

void region_xor(std::span<const std::uint8_t> src,
                std::span<std::uint8_t> dst) {
  assert(src.size() == dst.size());
  if (dst.empty()) return;
  active().xor_into(src.data(), dst.data(), dst.size());
}

void region_mul(std::uint8_t c, std::span<const std::uint8_t> src,
                std::span<std::uint8_t> dst) {
  do_mul(active(), c, src, dst);
}

void region_mul_xor(std::uint8_t c, std::span<const std::uint8_t> src,
                    std::span<std::uint8_t> dst) {
  do_mul_xor(active(), c, src, dst);
}

void region_multi_xor(std::span<const std::span<const std::uint8_t>> srcs,
                      std::span<std::uint8_t> dst) {
  do_multi_xor(active(), srcs, dst);
}

void encode_dot(std::span<const std::uint8_t> coeffs,
                std::span<const std::span<const std::uint8_t>> srcs,
                std::span<std::uint8_t> dst, bool accumulate) {
  do_dot(active(), coeffs, srcs, dst, accumulate);
}

void region_zero(std::span<std::uint8_t> dst) {
  std::memset(dst.data(), 0, dst.size());
}

bool region_is_zero(std::span<const std::uint8_t> buf) {
  if (buf.empty()) return true;
  return active().is_zero(buf.data(), buf.size());
}

void region_xor(KernelTier tier, std::span<const std::uint8_t> src,
                std::span<std::uint8_t> dst) {
  assert(src.size() == dst.size());
  if (dst.empty()) return;
  resolve(tier).xor_into(src.data(), dst.data(), dst.size());
}

void region_mul(KernelTier tier, std::uint8_t c,
                std::span<const std::uint8_t> src,
                std::span<std::uint8_t> dst) {
  do_mul(resolve(tier), c, src, dst);
}

void region_mul_xor(KernelTier tier, std::uint8_t c,
                    std::span<const std::uint8_t> src,
                    std::span<std::uint8_t> dst) {
  do_mul_xor(resolve(tier), c, src, dst);
}

void region_multi_xor(KernelTier tier,
                      std::span<const std::span<const std::uint8_t>> srcs,
                      std::span<std::uint8_t> dst) {
  do_multi_xor(resolve(tier), srcs, dst);
}

void encode_dot(KernelTier tier, std::span<const std::uint8_t> coeffs,
                std::span<const std::span<const std::uint8_t>> srcs,
                std::span<std::uint8_t> dst, bool accumulate) {
  do_dot(resolve(tier), coeffs, srcs, dst, accumulate);
}

bool region_is_zero(KernelTier tier, std::span<const std::uint8_t> buf) {
  if (buf.empty()) return true;
  return resolve(tier).is_zero(buf.data(), buf.size());
}

}  // namespace sma::gf
