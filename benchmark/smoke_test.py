#!/usr/bin/env python3
"""Smoke test of the benchmark, run by ctest: the full benchmark at
reduced sizes (two rounds), three times, with the given sma_benchmark.

  smoke_test.py path/to/sma_benchmark

Asserts that every metric BENCHMARK.json declares is reported with its
unit, that the output checks pass (the reps of each workload agree on
their deterministic digest), that the same seed reproduces the simulated
outputs and another seed changes them, and that every traced rep
reproduced its untraced rep's outputs.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def suite(binary, spec, out, seed):
    args = argparse.Namespace(seed=seed, smoke=True, out=str(out))
    status = run.run_suite(args, binary, spec)
    with open(out / "results.json") as f:
        return status, json.load(f)


def main():
    binary = Path(sys.argv[1])
    spec = run.declared()
    failures = []

    def check(ok, what):
        if not ok:
            failures.append(what)

    with tempfile.TemporaryDirectory(dir=".") as tmp:
        tmp = Path(tmp)
        results = {}
        for name, seed in (("a", 11), ("b", 11), ("c", 12)):
            status, results[name] = suite(binary, spec, tmp / name, seed)
            check(status == 0 and results[name]["correct"],
                  f"run {name} (seed {seed}) failed its output checks: "
                  f"{results[name]['errors']}")

    a = results["a"]
    for w in run.WORKLOADS:
        r = a["workloads"][w]
        for kind in ("end_to_end", "per_layer"):
            for m in spec[kind]:
                check(m["name"] in r[kind], f"{w}: {m['name']} missing")
                check(a["units"].get(m["name"]) == m["unit"],
                      f"{m['name']}: unit is not {m['unit']}")
        check(r["digests_agree"], f"{w}: reps disagree on their digest")
        check(r["per_layer"]["trace.recompose_ok"] == 1.0,
              f"{w}: the traced rep did not reproduce the untraced outputs")
        check(r["model"] == results["b"]["workloads"][w]["model"],
              f"{w}: the same seed gave different simulated outputs")
        if r["model"]:  # paper_sweeps has no seed and no simulation
            check(r["model"] != results["c"]["workloads"][w]["model"],
                  f"{w}: another seed left the simulated outputs unchanged")

    for f in failures:
        print("FAIL:", f)
    print("benchmark smoke test:", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
