// Google-benchmark microbenchmarks of the erasure-coding substrate:
// GF(256) region primitives and full-stripe encode/decode of the
// codecs backing the experiments. These are the "code computation
// complexity" half of the paper's Section III observation (the other
// half being read-access counts).
//
// The region primitives are benchmarked once per kernel tier reachable
// on the host (scalar, ssse3, avx2, neon) so the scalar-vs-SIMD ratio
// is measured, not assumed; scripts/bench_gf_kernels.py turns the JSON
// output into BENCH_gf_kernels.json to track the perf trajectory.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common.hpp"
#include "ec/evenodd.hpp"
#include "ec/raid5.hpp"
#include "ec/rdp.hpp"
#include "ec/rs.hpp"
#include "gf/region.hpp"
#include "util/rng.hpp"

namespace {

using namespace sma;

constexpr std::int64_t kRegionSizes[] = {4096, 65536, 1 << 20};
constexpr std::size_t kDotSources = 5;  // matches the k=5 codecs below

void BM_RegionXor(benchmark::State& state, gf::KernelTier tier) {
  const auto len = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> src(len);
  std::vector<std::uint8_t> dst(len);
  fill_pattern(1, src.data(), len);
  fill_pattern(2, dst.data(), len);
  for (auto _ : state) {
    gf::region_xor(tier, src, dst);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
}

void BM_RegionMul(benchmark::State& state, gf::KernelTier tier) {
  const auto len = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> src(len);
  std::vector<std::uint8_t> dst(len);
  fill_pattern(3, src.data(), len);
  for (auto _ : state) {
    gf::region_mul(tier, 0x8E, src, dst);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
}

void BM_RegionMulXor(benchmark::State& state, gf::KernelTier tier) {
  const auto len = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> src(len);
  std::vector<std::uint8_t> dst(len);
  fill_pattern(3, src.data(), len);
  fill_pattern(4, dst.data(), len);
  for (auto _ : state) {
    gf::region_mul_xor(tier, 0x57, src, dst);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
}

void BM_RegionMultiXor(benchmark::State& state, gf::KernelTier tier) {
  const auto len = static_cast<std::size_t>(state.range(0));
  std::vector<std::vector<std::uint8_t>> bufs(kDotSources);
  std::vector<std::span<const std::uint8_t>> srcs(kDotSources);
  for (std::size_t j = 0; j < kDotSources; ++j) {
    bufs[j].resize(len);
    fill_pattern(10 + j, bufs[j].data(), len);
    srcs[j] = bufs[j];
  }
  std::vector<std::uint8_t> dst(len);
  fill_pattern(9, dst.data(), len);
  for (auto _ : state) {
    gf::region_multi_xor(tier, srcs, dst);
    benchmark::DoNotOptimize(dst.data());
  }
  // Bytes processed counts every source stream read per iteration.
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len * kDotSources));
}

void BM_EncodeDot(benchmark::State& state, gf::KernelTier tier) {
  const auto len = static_cast<std::size_t>(state.range(0));
  std::vector<std::vector<std::uint8_t>> bufs(kDotSources);
  std::vector<std::span<const std::uint8_t>> srcs(kDotSources);
  std::vector<std::uint8_t> coeffs(kDotSources);
  for (std::size_t j = 0; j < kDotSources; ++j) {
    bufs[j].resize(len);
    fill_pattern(20 + j, bufs[j].data(), len);
    srcs[j] = bufs[j];
    coeffs[j] = static_cast<std::uint8_t>(0x53 + 7 * j);
  }
  std::vector<std::uint8_t> dst(len);
  for (auto _ : state) {
    gf::encode_dot(tier, coeffs, srcs, dst);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len * kDotSources));
}

void BM_RegionIsZero(benchmark::State& state, gf::KernelTier tier) {
  const auto len = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> buf(len, 0);  // worst case: full scan
  for (auto _ : state) {
    benchmark::DoNotOptimize(gf::region_is_zero(tier, buf));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
}

void register_region_benches() {
  using Fn = void (*)(benchmark::State&, gf::KernelTier);
  struct Entry {
    const char* name;
    Fn fn;
  };
  const Entry entries[] = {
      {"BM_RegionXor", BM_RegionXor},
      {"BM_RegionMul", BM_RegionMul},
      {"BM_RegionMulXor", BM_RegionMulXor},
      {"BM_RegionMultiXor", BM_RegionMultiXor},
      {"BM_EncodeDot", BM_EncodeDot},
      {"BM_RegionIsZero", BM_RegionIsZero},
  };
  for (const auto& e : entries) {
    for (const gf::KernelTier tier : gf::available_tiers()) {
      const std::string name =
          std::string(e.name) + "/" + std::string(gf::to_string(tier));
      auto* b = benchmark::RegisterBenchmark(
          name.c_str(),
          [fn = e.fn, tier](benchmark::State& s) { fn(s, tier); });
      for (const std::int64_t sz : kRegionSizes) b->Arg(sz);
    }
  }
}

template <typename Codec>
void encode_bench(benchmark::State& state, const Codec& codec,
                  std::size_t element_bytes) {
  ec::ColumnSet stripe = codec.make_stripe(element_bytes);
  stripe.fill_pattern(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.encode(stripe).is_ok());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(codec.data_columns()) * codec.rows() *
      static_cast<std::int64_t>(element_bytes));
}

void BM_EncodeRaid5(benchmark::State& state) {
  encode_bench(state, ec::Raid5Codec(5, 5), 65536);
}
BENCHMARK(BM_EncodeRaid5);

void BM_EncodeEvenOdd(benchmark::State& state) {
  encode_bench(state, ec::EvenOddCodec(5), 65536);
}
BENCHMARK(BM_EncodeEvenOdd);

void BM_EncodeRdp(benchmark::State& state) {
  encode_bench(state, ec::RdpCodec(5), 65536);
}
BENCHMARK(BM_EncodeRdp);

void BM_EncodeCauchyRs(benchmark::State& state) {
  encode_bench(state, ec::CauchyRsCodec(5, 2, 4), 65536);
}
BENCHMARK(BM_EncodeCauchyRs);

template <typename Codec>
void decode_two_bench(benchmark::State& state, const Codec& codec,
                      std::size_t element_bytes) {
  ec::ColumnSet reference = codec.make_stripe(element_bytes);
  reference.fill_pattern(9);
  if (!codec.encode(reference).is_ok()) {
    state.SkipWithError("encode failed");
    return;
  }
  for (auto _ : state) {
    ec::ColumnSet damaged = reference;
    damaged.zero_column(0);
    damaged.zero_column(1);
    benchmark::DoNotOptimize(codec.decode(damaged, {0, 1}).is_ok());
  }
}

void BM_DecodeTwoEvenOdd(benchmark::State& state) {
  decode_two_bench(state, ec::EvenOddCodec(5), 65536);
}
BENCHMARK(BM_DecodeTwoEvenOdd);

void BM_DecodeTwoRdp(benchmark::State& state) {
  decode_two_bench(state, ec::RdpCodec(5), 65536);
}
BENCHMARK(BM_DecodeTwoRdp);

void BM_DecodeTwoCauchyRs(benchmark::State& state) {
  decode_two_bench(state, ec::CauchyRsCodec(5, 2, 4), 65536);
}
BENCHMARK(BM_DecodeTwoCauchyRs);

}  // namespace

int main(int argc, char** argv) {
  register_region_benches();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // The host block of BENCH_gf_kernels.json (scripts/bench_gf_kernels.py).
  benchmark::AddCustomContext("sma_host", sma::bench::host_json(0));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
