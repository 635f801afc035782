#!/usr/bin/env python3
"""Run the fleet-scale bench and write BENCH_fleet.json.

Drives build/bench/bench_fleet --json: four {arrangement x placement}
cells, each a fleet of independent mirror arrays serving one aggregate
request stream while a subset rebuilds, plus a fleet-hours failure
timeline per cell. The bench enforces its own contracts and exits
non-zero if any fails — this script propagates that exit code and the
bench's stderr diagnostic:

  * determinism — the first cell re-run serially (threads=1) must be
    digest-identical to the parallel MultiKernel run;
  * shifted+declustered must beat traditional+round_robin on both
    worst degraded-volume p99 and concurrent-rebuild exposure.

The bench also rewrites sma_fleet.csv (deterministic counts, simulated
times, and digests only; the CI drift gate requires it bit-identical to
the committed copy when run at default scale).

The output carries the `host` block of every BENCH_*.json
(scripts/bench_host.py).

Usage:
  scripts/bench_fleet.py [--build-dir build] [--out BENCH_fleet.json]
                         [--arrays N] [--requests R] [--threads T]
"""

import argparse
import json
import pathlib
import subprocess
import sys

from bench_host import host_context


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--build-dir", default="build", type=pathlib.Path)
    ap.add_argument("--out", default="BENCH_fleet.json", type=pathlib.Path)
    ap.add_argument("--arrays", type=int, default=None,
                    help="arrays per cell (bench default: 256)")
    ap.add_argument("--requests", type=int, default=None,
                    help="aggregate requests per cell (bench default: 250000)")
    ap.add_argument("--threads", type=int, default=None,
                    help="MultiKernel worker threads (bench default: 4)")
    ap.add_argument("--csv", default=None,
                    help="CSV output path (bench default: sma_fleet.csv; "
                         "point off-scale runs elsewhere so the drift-gated "
                         "copy stays untouched)")
    args = ap.parse_args()

    exe = (args.build_dir / "bench" / "bench_fleet").resolve()
    if not exe.exists():
        sys.exit(f"error: {exe} not found — build the project first "
                 f"(cmake -B {args.build_dir} -S . && "
                 f"cmake --build {args.build_dir})")
    cmd = [str(exe), "--json"]
    if args.arrays is not None:
        cmd.append(f"--arrays={args.arrays}")
    if args.requests is not None:
        cmd.append(f"--requests={args.requests}")
    if args.threads is not None:
        cmd.append(f"--threads={args.threads}")
    if args.csv is not None:
        cmd.append(f"--out={args.csv}")

    # The bench writes its CSV into the invoking directory; run from the
    # repo root so the default lands next to the committed drift-gated
    # copies.
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        # Determinism or winner checks failed inside the bench; show its
        # diagnostic and fail this script with the same code.
        sys.stderr.write(out.stdout)
        sys.stderr.write(out.stderr)
        sys.exit(out.returncode)
    result = json.loads(out.stdout)
    result["host"] = host_context(result["host"])

    args.out.write_text(json.dumps(result, indent=2) + "\n")

    total = result["total"]
    sd = result["cells"]["shifted+declustered"]
    tn = result["cells"]["traditional+round_robin"]
    print(f"wrote {args.out}")
    print(f"total: {total['arrays']:,.0f} arrays in {total['wall_s']:.2f} s "
          f"({total['arrays_per_s']:,.1f} arrays/s, "
          f"{total['sim_array_hours_per_s']:,.0f} sim array-hours/s)")
    print(f"worst degraded-volume p99: shifted+declustered "
          f"{sd['worst_degraded_volume_p99_s']:.4f} s vs "
          f"traditional+round_robin {tn['worst_degraded_volume_p99_s']:.4f} s")
    print(f"mean concurrent rebuilds: {sd['mean_concurrent_rebuilds']:.3f} vs "
          f"{tn['mean_concurrent_rebuilds']:.3f}")
    print(f"serial-vs-parallel: bit_identical="
          f"{result['serial_check']['bit_identical']}")


if __name__ == "__main__":
    main()
