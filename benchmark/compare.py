#!/usr/bin/env python3
"""Compare two sets of benchmark runs: a parent (A) and a change (B).

  benchmark/compare.py A/ B/

Each directory is searched for results.json files, one per run: the
full benchmark's (run.sh --out DIR) or a single workload's
(run.sh --workload W ... --trace 0). For every workload and end-to-end
metric it prints each side's median and quartiles, the pairs each side
won (the i-th run of A against the i-th run of B, ties counting for
neither), and a verdict:

  improved    B won at least 9 in 10 pairs and the medians differ by
              more than A's own spread (distance between its quartiles)
  regressed   B's median is worse than A's by more than the metric's
              bound in BENCHMARK.json, and the spread is within the
              bound or every run of B reads worse than every run of A
  unresolved  the run-to-run spread is wider than the bound, and not
              every run of B reads better than every run of A
  unchanged   otherwise

It also compares failed operations per attempted one and, for runs made
with the same seed, the simulated outputs, which a change that only
speeds up the simulator must leave identical. The exit status is 1 when
any metric regressed or B fails a larger share of operations than A.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(directory):
    """{workload: [run, ...]} with run = {metrics, failed, attempted,
    seed, model}, in path order."""
    runs = {}
    for path in sorted(Path(directory).rglob("results.json")):
        with open(path) as f:
            doc = json.load(f)
        if "workloads" in doc:  # the full benchmark
            for w, r in doc["workloads"].items():
                runs.setdefault(w, []).append({
                    "metrics": r["end_to_end"], "failed": r["failed"],
                    "attempted": r["attempted"], "seed": doc.get("seed"),
                    "model": r["model"]})
        elif "time" in doc:  # one workload, end-to-end metrics
            runs.setdefault(doc["workload"], []).append({
                "metrics": doc["metrics"], "failed": doc["failed"],
                "attempted": doc["attempted"], "seed": doc.get("seed"),
                "model": doc["time"]["model"]})
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(a, b, better, bound):
    """a, b: one metric's values on each side."""
    sign = 1.0 if better == "higher" else -1.0
    ma, mb = statistics.median(a), statistics.median(b)
    wins_b = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    wins_a = sum(sign * (x - y) > 0 for x, y in zip(a, b))
    pairs = min(len(a), len(b))
    qa1, qa3 = quartiles(a)
    qb1, qb3 = quartiles(b)
    spread = max((qa3 - qa1) / abs(ma) if ma else 0.0,
                 (qb3 - qb1) / abs(mb) if mb else 0.0)
    worse_by = sign * (ma - mb) / abs(ma) if ma else 0.0
    all_better = all(sign * (y - x) > 0 for x in a for y in b)
    all_worse = all(sign * (y - x) < 0 for x in a for y in b)
    if pairs and wins_b >= 0.9 * pairs and sign * (mb - ma) > qa3 - qa1:
        v = "improved"
    elif worse_by > bound and (spread <= bound or all_worse):
        v = "regressed"
    elif spread > bound and not all_better:
        v = "unresolved"
    else:
        v = "unchanged"
    return v, {"A": (ma, qa1, qa3, len(a)), "B": (mb, qb1, qb3, len(b)),
               "wins": (wins_a, wins_b), "spread": spread,
               "worse_by": worse_by}


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    a_runs, b_runs = load_runs(sys.argv[1]), load_runs(sys.argv[2])
    bad = False
    print(f"{'workload':18} {'metric':12} {'A median [q1, q3] n':>36} "
          f"{'B median [q1, q3] n':>36} {'wins A:B':>9} {'spread':>7} "
          f"{'bound':>6}  verdict")
    for w in sorted(set(a_runs) & set(b_runs)):
        a, b = a_runs[w], b_runs[w]
        for m in spec["end_to_end"]:
            name = m["name"]
            va = [r["metrics"][name] for r in a if name in r["metrics"]]
            vb = [r["metrics"][name] for r in b if name in r["metrics"]]
            if not va or not vb:
                continue
            v, d = verdict(va, vb, m["better"], m["bound"])
            bad |= v == "regressed"
            fa = "%.5g [%.5g, %.5g] %d" % d["A"]
            fb = "%.5g [%.5g, %.5g] %d" % d["B"]
            print(f"{w:18} {name:12} {fa:>36} {fb:>36} "
                  f"{'%d:%d' % d['wins']:>9} {d['spread']:7.3f} "
                  f"{m['bound']:6.2f}  {v}")
        fail_a = sum(r["failed"] for r in a) / max(1, sum(r["attempted"] for r in a))
        fail_b = sum(r["failed"] for r in b) / max(1, sum(r["attempted"] for r in b))
        if fail_b > fail_a:
            bad = True
        print(f"{w:18} failed_op_frac A {fail_a:.3g}  B {fail_b:.3g}"
              f"{'  (B fails more)' if fail_b > fail_a else ''}")
        same_seed = [(x, y) for x, y in zip(a, b) if x["seed"] == y["seed"]]
        if same_seed:
            differ = sum(x["model"] != y["model"] for x, y in same_seed)
            print(f"{w:18} simulated outputs: "
                  f"{'identical' if not differ else f'DIFFER in {differ}'} "
                  f"of {len(same_seed)} same-seed pairs")
    for w in sorted(set(a_runs) ^ set(b_runs)):
        print(f"{w:18} measured on one side only")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
