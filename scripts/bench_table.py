#!/usr/bin/env python3
"""Print every BENCH_*.json at the root of this repository as one Markdown table.

    python3 scripts/bench_table.py

One row per file, in the order of its label's numbers (pr9 before pr10):
the label, the commit (seven hex digits), then the median of each
end-to-end metric of this repository's BENCHMARK.json for each of its
workloads, workload by workload.  The files are written by
scripts/bench_record.py.

For a file recorded from a working tree whose tracked files differed
from its commit, the commit column shows the commit of this repository's
history whose tree is the tree the file measured (the oldest, if several
are); where none is, or the file names no tree, it shows the file's own
commit with a `+`.
"""

import json
import re
import subprocess

from bench_pairs import ROOT


def label_key(label: str) -> list:
    """label split into text and numbers, so that pr9 sorts before pr10."""
    return [int(part) if part.isdigit() else part for part in re.split(r"(\d+)", label)]


def commit_cell(record: dict, commits: dict[str, str]) -> str:
    """The commit column of record's row, given the commit of each tree in the history."""
    if not record["tracked_changes"]:
        return record["commit"][:7]
    if commit := commits.get(record.get("tree")):
        return commit[:7]
    return record["commit"][:7] + "+"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    columns = [(workload["name"], metric["name"]) for workload in spec["workloads"] for metric in spec["end_to_end"]]
    records = [json.loads(path.read_text(encoding="utf-8")) for path in ROOT.glob("BENCH_*.json")]
    log = subprocess.run(["git", "log", "--format=%H %T"], cwd=ROOT, capture_output=True, text=True, check=True)
    # Newest first, so the oldest commit of a tree is the one kept.
    commits = {tree: commit for commit, tree in map(str.split, log.stdout.splitlines())}
    print("| label | commit | " + " | ".join(f"{workload} {metric}" for workload, metric in columns) + " |")
    print("|---" * (len(columns) + 2) + "|")
    for record in sorted(records, key=lambda record: label_key(record["label"])):
        cells = [record["label"], commit_cell(record, commits)]
        cells += [f"{record['workloads'][workload]['metrics'][metric]['median']:.4g}" for workload, metric in columns]
        print("| " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
