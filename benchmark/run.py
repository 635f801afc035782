#!/usr/bin/env python3
"""Build and run the repository benchmark.

Two ways to call it (benchmark/run.sh is the same program):

  benchmark/run.sh [--seed S] [--out DIR] [--smoke]
      The full benchmark: every workload, interleaved, in three modes
      (time, memory, trace). Prints every metric by name with its unit
      and writes DIR/results.json and DIR/trace.json.

  benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
      One workload for T seconds. Prints the end-to-end metrics
      (--trace 0) or the per-layer metrics (--trace 1), and as the last
      line of stdout one JSON object with the keys correct, attempted,
      failed and metrics.

Both build the benchmark first (benchmark/CMakeLists.txt) into
$CARGO_TARGET_DIR/benchmark, or build/benchmark when that is unset. The
metric names and units are those declared in BENCHMARK.json. The exit
status is non-zero when the build fails or any output check fails.
"""

import argparse
import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["rebuild_read", "rebuild_write_qos", "fleet_cell", "chaos_soak",
             "paper_sweeps"]
# Set-ups in a one-workload run; setup_s is their median.
SETUPS = 3


class BenchError(Exception):
    pass


def log(*args):
    print(*args, file=sys.stderr, flush=True)


# --- build and run sma_benchmark --------------------------------------------

def build():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or "build")
    bdir = (base if base.is_absolute() else ROOT / base) / "benchmark"
    jobs = str(min(4, os.cpu_count() or 1))
    if not (bdir / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir), *gen]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("configuring the benchmark failed")
    cmd = ["cmake", "--build", str(bdir), "--target", "sma_benchmark",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("building the benchmark failed")
    return bdir / "sma_benchmark"


def bench(binary, *args):
    """Run sma_benchmark; its last stdout line is a JSON document."""
    p = subprocess.run([str(binary), *map(str, args)], stdout=subprocess.PIPE,
                       text=True)
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    if p.returncode != 0 or not lines:
        raise BenchError(f"sma_benchmark {' '.join(map(str, args))} "
                         f"exited with {p.returncode}")
    return json.loads(lines[-1])


def declared():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def host_context(binary_host):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True)
        if p.returncode == 0:
            commit = p.stdout.strip()
    return {**binary_host, "cpu_model": cpu, "git_commit": commit,
            "date": datetime.datetime.now(datetime.timezone.utc)
            .isoformat(timespec="seconds")}


# --- metrics from sma_benchmark's output -----------------------------------

def summary(values):
    """Median, quartiles, count, and the highest of p99.9, p99, p95, p90
    that has at least ten samples beyond it (omitted when none has)."""
    v = sorted(values)
    n = len(v)
    out = {"n": n, "median": statistics.median(v)}
    if n >= 2:
        q = statistics.quantiles(v, n=4)
        out["q1"], out["q3"] = q[0], q[2]
    for p in (99.9, 99, 95, 90):
        if n * (100 - p) / 100 >= 10:
            out[f"p{p:g}"] = v[min(n - 1, int(n * p / 100))]
            break
    return out


def end_to_end(t, mem):
    """t: a workload's time-mode record; mem: where set-up and memory were
    measured (the same record in a one-workload run, the trace run in the
    suite)."""
    return {
        "work_per_s": t["work_per_rep"] / statistics.median(t["rep_s"]),
        "setup_s": statistics.median(mem["setup_s"]),
        "peak_rss_mb": mem["peak_rss_mb"],
    }


def per_layer(tr, names):
    """Per-layer metrics of one workload's trace-mode record."""
    reps = tr["reps"]
    first = reps[0]

    def med(f):
        return statistics.median(f(r) for r in reps)

    special = {
        "trace.rep_s": lambda: med(lambda r: r["wall_s"]),
        "bench.unattributed_s": lambda: med(
            lambda r: r["self_s"].get("bench.rep", 0.0)),
        # Traced and untraced reps alternate in the trace run; work the
        # untraced rep does not do (extra_s) is not overhead.
        "bench.trace_overhead_frac": lambda: med(
            lambda r: r["wall_s"] - r["extra_s"])
        / statistics.median(tr["untraced_s"]) - 1.0,
        "trace.recompose_ok": lambda: float(
            all(r["recompose_ok"] for r in reps)),
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]()
        elif name.endswith(".self_frac"):
            span = name[:-len(".self_frac")]
            out[name] = med(lambda r: r["self_s"].get(span, 0.0) / r["wall_s"])
        else:
            out[name] = first["counts"].get(name, first["model"].get(name, 0.0))
    return out


def derived(tr):
    """Per-call costs from the traced rep, for results.json."""
    r = tr["reps"][0]
    self_s, counts = r["self_s"], r["counts"]
    out = {}
    for key, span, count in (
            ("recon.online.ns_per_disk_op", "recon.online", "disk.ops"),
            ("recon.plan.ns_per_call", "recon.plan", "recon.plan.calls"),
            ("util.stats.ns_per_sample", "util.stats", "util.stats.samples")):
        if counts.get(count):
            out[key] = 1e9 * self_s.get(span, 0.0) / counts[count]
    for key, span in (("chaos.scenario.mean_s", "chaos.scenario"),
                      ("chaos.fleet_scenario.mean_s", "chaos.fleet_scenario")):
        if r["spans"].get(span):
            out[key] = self_s.get(span, 0.0) / r["spans"][span]
    return out


def checks_of_time(name, t):
    errs = list(t["errors"])
    if not t["digests_agree"]:
        errs.append(f"{name}: reps disagree on the deterministic digest")
    return errs


def trace_warnings(name, tr):
    warn = []
    for i, r in enumerate(tr["reps"]):
        if not r["recompose_ok"]:
            warn.append(f"{name}: traced rep {i} did not reproduce the "
                        "untraced outputs; its layer numbers are "
                        "unattributable")
        warn += [f"{name}: traced rep {i}: {e}" for e in r["errors"]]
    return warn


def print_metrics(workload, metrics, units):
    for name, value in metrics.items():
        print(f"{workload:18} {name:42} {value:16.6g} {units[name]}")


def write_json(path, doc):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def merge_traces(paths, out):
    events = []
    for pid, path in enumerate(paths, start=1):
        with open(path) as f:
            for e in json.load(f)["traceEvents"]:
                e["pid"] = pid
                events.append(e)
        path.unlink()
    write_json(out, {"displayTimeUnit": "ms", "traceEvents": events})


# --- the two ways to run -----------------------------------------------------

def run_one(args, binary, spec):
    """One workload for --seconds."""
    w = args.workload
    out = Path(args.out) / w
    seed = ["--seed", args.seed] if args.seed is not None else []
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    record = {"workload": w, "seed": args.seed, "seconds": args.seconds}
    if args.trace:
        doc = bench(binary, "--mode", "trace", "--workloads", w, *seed,
                    "--seconds", args.seconds, "--trace-out",
                    _mkdir(out) / "trace.json")
        tr = doc["workloads"][w]
        metrics = per_layer(tr, [m["name"] for m in spec["per_layer"]])
        errors = list(tr["errors"])
        for msg in trace_warnings(w, tr):
            log("warning:", msg)
        attempted = sum(r["attempted"] for r in tr["reps"])
        failed = sum(r["failed"] for r in tr["reps"])
        record.update(trace=tr, derived=derived(tr))
    else:
        doc = bench(binary, "--mode", "time", "--workloads", w, *seed,
                    "--seconds", args.seconds, "--setups", SETUPS)
        t = doc["workloads"][w]
        metrics = end_to_end(t, t)
        errors = checks_of_time(w, t)
        attempted, failed = t["attempted"], t["failed"]
        record.update(time=t, rep_s=summary(t["rep_s"]),
                      probe_s=doc["probe_s"])
    record.update(host=host_context(doc["host"]), metrics=metrics,
                  attempted=attempted, failed=failed, errors=errors)
    write_json(out / "results.json", record)
    for e in errors:
        log("check failed:", e)
    print_metrics(w, metrics, units)
    result = {
        "correct": not errors,
        "attempted": max(1, int(attempted)),
        "failed": int(failed) + len(errors),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


def _mkdir(path):
    path.mkdir(parents=True, exist_ok=True)
    return path


def run_suite(args, binary, spec):
    """Every workload in the time, memory and trace modes."""
    out = _mkdir(Path(args.out))
    seed = ["--seed", args.seed] if args.seed is not None else []
    smoke = ["--smoke"] if args.smoke else []
    rounds = 2 if args.smoke else 5
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    log(f"time mode: {rounds} rounds, workloads interleaved")
    timed = bench(binary, "--mode", "time", "--workloads", ",".join(WORKLOADS),
                  "--rounds", rounds, *seed, *smoke)
    traces, per_workload, errors, warnings = [], {}, [], []
    for w in WORKLOADS:
        # One process per workload: set-up and a first, untraced rep give
        # setup_s and peak_rss_mb (the memory mode), then the traced rep.
        log(f"memory and trace mode: {w}")
        trace_file = out / f"trace_{w}.json"
        tr = bench(binary, "--mode", "trace", "--workloads", w, *seed, *smoke,
                   "--trace-out", trace_file)["workloads"][w]
        traces.append(trace_file)
        t = timed["workloads"][w]
        # Tracing overhead is taken against the time run's reps.
        tr["untraced_s"] = t["rep_s"]
        errors += checks_of_time(w, t) + tr["errors"]
        if tr["digest"] != t["digest"]:
            errors.append(f"{w}: the trace run's untraced rep disagrees with "
                          "the time run")
        warnings += trace_warnings(w, tr)
        per_workload[w] = {
            "end_to_end": end_to_end(t, tr),
            "per_layer": per_layer(tr, list(layer_units)),
            "derived": derived(tr),
            "rep_s": summary(t["rep_s"]),
            "work_unit": t["work_unit"],
            "work_per_rep": t["work_per_rep"],
            "attempted": t["attempted"],
            "failed": t["failed"],
            "failed_op_frac": t["failed"] / max(1, t["attempted"]),
            "digest": t["digest"],
            "digests_agree": t["digests_agree"],
            "model": t["model"],
        }
    merge_traces(traces, out / "trace.json")

    for w, r in per_workload.items():
        print_metrics(w, r["end_to_end"], e2e_units)
    for w, r in per_workload.items():
        print_metrics(w, r["per_layer"], layer_units)
    for msg in warnings:
        log("warning:", msg)
    for e in errors:
        log("check failed:", e)
    write_json(out / "results.json", {
        "host": host_context(timed["host"]),
        "seed": args.seed,
        "smoke": args.smoke,
        "rounds": rounds,
        "probe_s": timed["probe_s"],
        "units": {**e2e_units, **layer_units},
        "workloads": per_workload,
        "warnings": warnings,
        "errors": errors,
        "correct": not errors,
    })
    log(f"wrote {out / 'results.json'} and {out / 'trace.json'}")
    return 0 if not errors else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="two rounds at reduced sizes")
    ap.add_argument("--out", default=str(HERE / "out"))
    args = ap.parse_args()
    if args.seed is not None and args.seed < 0:
        ap.error("--seed must be a non-negative integer")
    try:
        spec = declared()
        binary = build()
        if args.workload:
            return run_one(args, binary, spec)
        return run_suite(args, binary, spec)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"run.py: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
