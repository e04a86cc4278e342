#!/usr/bin/env python3
"""Run the benchmark in two checkouts, pair by pair, and compare their end-to-end metrics.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload W --pairs N [--smoke]

PARENT and CHANGE are checkouts of the repository.  Pair i (from 1) runs
`bench/run.py --workload W --seed i --seconds T --trace 0` once in each,
where T is the `run_seconds` of this repository's BENCHMARK.json (1 with
--smoke, which also passes --smoke on), one run at a time, the parent
first in odd pairs and the change first in even ones, and reads the JSON
line each run ends with.  The children run with PYTHONDONTWRITEBYTECODE=1,
so they leave no bytecode behind.  A checkout that holds a __pycache__
directory under src/ or bench/ (left there by a test run, say) is
refused: Python would import its bytecode in place of the source, so the
run would measure other code, and would skip the compile time that every
fresh checkout pays.

For each end-to-end metric of this repository's BENCHMARK.json, in the
direction its `better` names, one row gives each side's median and
quartiles (inclusive method), the change's median gap to the parent as a
percentage (positive is better) against the metric's bound, the change's
wins, ties and losses over the pairs, and whether a gain may be claimed:
the change wins at least nine tenths of the pairs, its median is better
than the parent's by more than the parent's interquartile range, and no
larger share of its operations fails than of the parent's.  A last row gives each
side's failed and attempted operations.  The script only drives bench/,
which keeps its scratch files under .bench_work/ in each checkout while
it runs; it edits nothing there.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def one_run(checkout: Path, workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    """The JSON result of one untraced benchmark run in `checkout`, which must hold no bytecode."""
    caches = sorted(cache for part in ("src", "bench") for cache in (checkout / part).rglob("__pycache__"))
    if caches:
        raise SystemExit(f"error: {caches[0]} holds bytecode, which the run would import in place of the source;"
                         " run on a checkout without it")
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"] + ["--smoke"] * smoke
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    if proc.returncode != 0:
        raise SystemExit(f"error: {checkout}, seed {seed}: bench/run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile) of values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def compare(parent: list[float], change: list[float], better: str, bound: float, fails_no_more: bool) -> str:
    """One row of the table for one metric's runs, pair by pair."""
    sign = 1 if better == "higher" else -1
    gaps = [sign * (c - p) for p, c in zip(parent, change)]
    wins, ties = sum(gap > 0 for gap in gaps), sum(gap == 0 for gap in gaps)
    (p_med, p_q1, p_q3), (c_med, c_q1, c_q3) = spread(parent), spread(change)
    gain = sign * (c_med - p_med)
    claim = 10 * wins >= 9 * len(gaps) and gain > p_q3 - p_q1 and fails_no_more
    return (f"{p_med:.4g} [{p_q1:.4g}, {p_q3:.4g}]  {c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}]  "
            f"{100 * gain / p_med:+.1f}% (bound -{100 * bound:.0f}%)  "
            f"{wins}/{ties}/{len(gaps) - wins - ties}  {'yes' if claim else 'no'}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for a fast check of this script")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = 1 if args.smoke else spec["run_seconds"]
    checkouts, parent, change = (args.parent, args.change), [], []
    for seed in range(1, args.pairs + 1):
        for side in (0, 1) if seed % 2 else (1, 0):
            (parent, change)[side].append(one_run(checkouts[side], args.workload, seed, seconds, args.smoke))
        print(f"pair {seed}/{args.pairs} done", file=sys.stderr)
    failed, attempted = ([sum(run[key] for run in side) for side in (parent, change)]
                         for key in ("failed", "attempted"))
    print(f"{args.workload}: {args.pairs} pairs, seeds 1-{args.pairs}, {seconds:g} s each")
    print("metric  parent median [q1, q3]  change median [q1, q3]  gap  wins/ties/losses  gain")
    fails_no_more = failed[1] * attempted[0] <= failed[0] * attempted[1]
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [[run["metrics"][name]["value"] for run in side] for side in (parent, change)]
        print(f"{name} {metric['unit']}  {compare(*values, metric['better'], metric['bound'], fails_no_more)}")
    print(f"failed/attempted  parent {failed[0]}/{attempted[0]}  change {failed[1]}/{attempted[1]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
