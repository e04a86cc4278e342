#!/usr/bin/env python3
"""Run the benchmark in one checkout over every workload and record the result as BENCH_<LABEL>.json.

    python3 scripts/bench_record.py CHECKOUT LABEL --seeds N [--smoke]

For each seed i from 1 to N and each workload of this repository's
BENCHMARK.json, one untraced run of `bench/run.py` in CHECKOUT, exactly as
scripts/bench_pairs.py makes it (the run length from BENCHMARK.json, 1 s
with --smoke, which also passes --smoke on).  The file, written to the
root of this repository, holds the checkout's commit, the trees of `src`
and `bench` it measured (those of `git stash create`, which changes
nothing in the checkout, or of HEAD when no tracked file differs), the
Python version, the machine and the seeds, and per workload the median
and quartiles (inclusive method) of each end-to-end metric over the
seeds, with the failed and attempted operations summed over them.  One
file per commit, made on one machine, gives the trajectory a later
change is measured against.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from bench_pairs import ROOT, one_run, spread


def git(checkout: Path, *args: str) -> str:
    """The stripped stdout of one git command in checkout."""
    return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True, check=True).stdout.strip()


def cpu_model() -> str:
    """The CPU's model name from /proc/cpuinfo, or platform.processor() where there is none."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("label")
    parser.add_argument("--seeds", required=True, type=int)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for a fast check of this script")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be >= 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = 1 if args.smoke else spec["run_seconds"]
    seeds = range(1, args.seeds + 1)
    names = [workload["name"] for workload in spec["workloads"]]
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for seed in seeds:
        for name in names:
            runs[name].append(one_run(args.checkout, name, seed, seconds, args.smoke))
        print(f"seed {seed}/{args.seeds} done", file=sys.stderr)
    workloads = {}
    for name in names:
        metrics = {}
        for metric in spec["end_to_end"]:
            median, q1, q3 = spread([run["metrics"][metric["name"]]["value"] for run in runs[name]])
            metrics[metric["name"]] = {"unit": metric["unit"], "better": metric["better"],
                                       "median": median, "q1": q1, "q3": q3}
        workloads[name] = {"metrics": metrics, "failed": sum(run["failed"] for run in runs[name]),
                           "attempted": sum(run["attempted"] for run in runs[name])}
    snapshot = git(args.checkout, "stash", "create") or "HEAD"
    src_tree, bench_tree = git(args.checkout, "rev-parse", f"{snapshot}:src", f"{snapshot}:bench").split()
    record = {
        "label": args.label,
        "commit": git(args.checkout, "rev-parse", "HEAD"),
        "src_tree": src_tree,
        "bench_tree": bench_tree,
        "python": platform.python_version(),
        "machine": {"system": platform.system(), "release": platform.release(), "arch": platform.machine(),
                    "cpu": cpu_model(), "cpus": os.cpu_count()},
        "seeds": list(seeds),
        "run_seconds": seconds,
        "smoke": args.smoke,
        "workloads": workloads,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
