#!/usr/bin/env python3
"""Run the simulation-kernel throughput bench and write BENCH_sim_kernel.json.

Drives build/bench/bench_sim_kernel --json, which measures
  * fleet            — raw scheduler throughput (events/sec) for the
                       calendar, heap, and legacy (seed-replica) queue
                       backends on a 4096-chain event mix;
  * online_recon_e2e — the acceptance workload: a rebuild-heavy online
                       reconstruction under the seed kernel (legacy
                       queue, one event per disk op) vs the new kernel
                       (calendar queue + event-batched rebuild drains),
                       with both walls normalized by the seed kernel's
                       event count so the ratio is the end-to-end
                       speedup. The ISSUE acceptance bar (>= 3x) is
                       checked against speedup_new_vs_seed;
  * multi_kernel     — sim::MultiKernel over 12 independent cases at
                       1/2/4/8 threads, bit-identity enforced by the
                       bench itself. Scaling is only meaningful on
                       multi-core hosts; hardware_concurrency records
                       what this run actually had.

The bench also rewrites sma_sim_kernel.csv (deterministic digests; the
CI drift gate requires it bit-identical to the committed copy). The
output carries the `host` block of every BENCH_*.json
(scripts/bench_host.py).

Usage:
  scripts/bench_sim_kernel.py [--build-dir build] [--out BENCH_sim_kernel.json]
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
    ap.add_argument("--out", default="BENCH_sim_kernel.json",
                    type=pathlib.Path)
    args = ap.parse_args()

    exe = (args.build_dir / "bench" / "bench_sim_kernel").resolve()
    if not exe.exists():
        sys.exit(f"error: {exe} not found — build the project first "
                 f"(cmake -B {args.build_dir} -S . && "
                 f"cmake --build {args.build_dir})")
    # The bench writes sma_sim_kernel.csv into the invoking directory;
    # run from the repo root so it lands next to the other committed
    # drift-gated CSVs.
    out = subprocess.run([str(exe), "--json"], capture_output=True, text=True)
    if out.returncode != 0:
        # The bench enforces its determinism contract itself (digest
        # mismatch across backends/threads exits non-zero). Surface its
        # diagnostic instead of swallowing it with the capture.
        sys.stderr.write(out.stdout)
        sys.stderr.write(out.stderr)
        sys.exit(out.returncode)
    result = json.loads(out.stdout)
    result["host"] = host_context(result["host"])

    args.out.write_text(json.dumps(result, indent=2) + "\n")

    fleet = result["fleet"]
    e2e = result["online_recon_e2e"]
    mk = result["multi_kernel"]
    print(f"wrote {args.out}")
    print(f"fleet: calendar {fleet['calendar']['events_per_s']:,.0f} ev/s, "
          f"{fleet['speedup_vs_legacy']:.2f}x vs legacy backend")
    print(f"online_recon_e2e: new kernel "
          f"{e2e['batched']['events_per_s']:,.0f} ev/s "
          f"({e2e['batched']['sim_hours_per_s']:.1f} sim-hours/s), "
          f"{e2e['speedup_new_vs_seed']:.2f}x vs seed kernel")
    print(f"multi_kernel: bit_identical={mk['bit_identical']}, "
          f"hardware_concurrency={mk['hardware_concurrency']}")
    if e2e["speedup_new_vs_seed"] < 3.0:
        print("warning: online-recon speedup below the 3x acceptance bar",
              file=sys.stderr)


if __name__ == "__main__":
    main()
