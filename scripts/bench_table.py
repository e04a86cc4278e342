#!/usr/bin/env python3
"""Print every BENCH_*.json at the root of this repository as one Markdown table.

    python3 scripts/bench_table.py

One row per file, in the order of its label's numbers (pr9 before pr10):
the label, the commit (seven hex digits, with a `+` where the file was
recorded from a working tree whose tracked files differed from it), then
the median of each end-to-end metric of this repository's BENCHMARK.json
for each of its workloads, workload by workload.  The files are written
by scripts/bench_record.py.
"""

import json
import re

from bench_pairs import ROOT


def label_key(label: str) -> list:
    """label split into text and numbers, so that pr9 sorts before pr10."""
    return [int(part) if part.isdigit() else part for part in re.split(r"(\d+)", label)]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    columns = [(workload["name"], metric["name"]) for workload in spec["workloads"] for metric in spec["end_to_end"]]
    records = [json.loads(path.read_text(encoding="utf-8")) for path in ROOT.glob("BENCH_*.json")]
    print("| label | commit | " + " | ".join(f"{workload} {metric}" for workload, metric in columns) + " |")
    print("|---" * (len(columns) + 2) + "|")
    for record in sorted(records, key=lambda record: label_key(record["label"])):
        cells = [record["label"], record["commit"][:7] + "+" * record["tracked_changes"]]
        cells += [f"{record['workloads'][workload]['metrics'][metric]['median']:.4g}" for workload, metric in columns]
        print("| " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
