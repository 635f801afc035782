#!/usr/bin/env python3
"""Run the GF(256) region-kernel microbenchmarks and summarize GB/s.

Drives build/bench/bench_codec_micro with --benchmark_format=json,
keeps the per-tier region benchmarks (BM_Region*, BM_EncodeDot), and
writes BENCH_gf_kernels.json: throughput in GB/s for every (kernel,
tier, size) plus the scalar-vs-best-SIMD speedup per kernel at 64 KiB —
the number the acceptance bar (>= 4x for region_mul_xor) is checked
against — and the `host` block of every BENCH_*.json
(scripts/bench_host.py), whose build keys the binary reports in its
benchmark context.

Usage:
  scripts/bench_gf_kernels.py [--build-dir build] [--out BENCH_gf_kernels.json]
      [--min-time 0.2]
"""

import argparse
import json
import pathlib
import subprocess
import sys

from bench_host import host_context

# Benchmark name -> kernel key in the output JSON.
KERNELS = {
    "BM_RegionXor": "region_xor",
    "BM_RegionMul": "region_mul",
    "BM_RegionMulXor": "region_mul_xor",
    "BM_RegionMultiXor": "region_multi_xor",
    "BM_EncodeDot": "encode_dot",
    "BM_RegionIsZero": "region_is_zero",
}

SPEEDUP_SIZE = 65536  # the acceptance-bar operating point


def run_benchmarks(build_dir: pathlib.Path, min_time: float) -> dict:
    exe = build_dir / "bench" / "bench_codec_micro"
    if not exe.exists():
        sys.exit(f"error: {exe} not found — build the project first "
                 f"(cmake -B {build_dir} -S . && cmake --build {build_dir})")
    cmd = [
        str(exe),
        "--benchmark_filter=BM_Region|BM_EncodeDot",
        f"--benchmark_min_time={min_time}",
        "--benchmark_format=json",
    ]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def summarize(raw: dict) -> dict:
    results = {}
    for bench in raw.get("benchmarks", []):
        # Names look like "BM_RegionMulXor/avx2/65536".
        parts = bench["name"].split("/")
        if len(parts) != 3 or parts[0] not in KERNELS:
            continue
        kernel, tier, size = KERNELS[parts[0]], parts[1], int(parts[2])
        gbps = bench["bytes_per_second"] / 1e9
        results.setdefault(kernel, {}).setdefault(tier, {})[str(size)] = round(
            gbps, 3)

    speedups = {}
    for kernel, tiers in results.items():
        scalar = tiers.get("scalar", {}).get(str(SPEEDUP_SIZE))
        if not scalar:
            continue
        simd = {t: sizes.get(str(SPEEDUP_SIZE))
                for t, sizes in tiers.items()
                if t != "scalar" and sizes.get(str(SPEEDUP_SIZE))}
        if not simd:
            continue
        best_tier = max(simd, key=simd.get)
        speedups[kernel] = {
            "size": SPEEDUP_SIZE,
            "scalar_gbps": scalar,
            "best_simd_tier": best_tier,
            "best_simd_gbps": simd[best_tier],
            "speedup": round(simd[best_tier] / scalar, 2),
        }

    return {
        "host": host_context(json.loads(raw["context"]["sma_host"])),
        "context": {
            k: raw.get("context", {}).get(k)
            for k in ("date", "host_name", "num_cpus", "mhz_per_cpu")
        },
        "units": "GB/s",
        "throughput": results,
        "speedup_at_64KiB": speedups,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build", type=pathlib.Path)
    parser.add_argument("--out", default="BENCH_gf_kernels.json",
                        type=pathlib.Path)
    parser.add_argument("--min-time", default=0.2, type=float)
    args = parser.parse_args()

    raw = run_benchmarks(args.build_dir, args.min_time)
    summary = summarize(raw)
    args.out.write_text(json.dumps(summary, indent=2) + "\n")

    for kernel, s in sorted(summary["speedup_at_64KiB"].items()):
        print(f"{kernel:>18}: scalar {s['scalar_gbps']:.3f} GB/s -> "
              f"{s['best_simd_tier']} {s['best_simd_gbps']:.3f} GB/s "
              f"({s['speedup']:.2f}x)")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
