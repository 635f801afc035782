"""The `host` block shared by every BENCH_*.json.

A bench binary reports the build and run-time keys (bench/common.hpp,
host_json: nproc, compiler, build type, GF tier, sim queue backend and
MultiKernel threads); host_context() adds the CPU model, the git commit
(with "-dirty" when tracked files differ from it) and the date — the
keys of the repository benchmark's results (benchmark/results/*.json).
"""

import datetime
import pathlib
import subprocess

ROOT = pathlib.Path(__file__).resolve().parent.parent


def host_context(binary_host: dict) -> dict:
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
    p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    if p.returncode == 0:
        commit = p.stdout.strip()
        # Tracked files edited since that commit: the bench did not run
        # the committed code.
        dirty = subprocess.run(["git", "-C", str(ROOT), "diff", "--quiet",
                                "HEAD"], stderr=subprocess.DEVNULL)
        if dirty.returncode == 1:
            commit += "-dirty"
    return {**binary_host, "cpu_model": cpu, "git_commit": commit,
            "date": datetime.datetime.now(datetime.timezone.utc)
            .isoformat(timespec="seconds")}
