#!/usr/bin/env python3
"""Print every BENCH_*.json at the root of this repository as one Markdown table.

    python3 scripts/bench_table.py

One row per file, in the order of its label's numbers (pr9 before pr10):
the label, the commit (seven hex digits), then the median of each
end-to-end metric of this repository's BENCHMARK.json for each of its
workloads, workload by workload.  The files are written by
scripts/bench_record.py.

Each file names the trees of `src` and `bench` it measured.  The commit
column shows the oldest commit of this repository's history that holds
both trees, so a file committed together with the change it measured
names that commit; where none does, it shows the file's own commit with
a `+`.
"""

import json
import re
import subprocess

from bench_pairs import ROOT


def label_key(label: str) -> list:
    """label split into text and numbers, so that pr9 sorts before pr10."""
    return [int(part) if part.isdigit() else part for part in re.split(r"(\d+)", label)]


def tree_commits() -> dict[tuple[str, str], str]:
    """The oldest commit of the history holding each pair of `src` and `bench` trees."""
    log = subprocess.run(["git", "log", "--format=%H"], cwd=ROOT, capture_output=True, text=True, check=True)
    commits = log.stdout.split()
    names = "".join(f"{commit}:src\n{commit}:bench\n" for commit in commits)
    batch = subprocess.run(["git", "cat-file", "--batch-check"], cwd=ROOT, input=names,
                           capture_output=True, text=True, check=True)
    # One line per name: the tree's hash, or "<commit>:bench missing" before bench/ existed.
    trees = [line.split()[0] for line in batch.stdout.splitlines()]
    # Newest first, so the oldest commit of a pair is the one kept.
    return dict(zip(zip(trees[::2], trees[1::2]), commits))


def commit_cell(record: dict, commits: dict[tuple[str, str], str]) -> str:
    """The commit column of record's row, given the oldest commit of each pair of trees."""
    if commit := commits.get((record["src_tree"], record["bench_tree"])):
        return commit[:7]
    return record["commit"][:7] + "+"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    columns = [(workload["name"], metric["name"]) for workload in spec["workloads"] for metric in spec["end_to_end"]]
    records = [json.loads(path.read_text(encoding="utf-8")) for path in ROOT.glob("BENCH_*.json")]
    commits = tree_commits()
    print("| label | commit | " + " | ".join(f"{workload} {metric}" for workload, metric in columns) + " |")
    print("|---" * (len(columns) + 2) + "|")
    for record in sorted(records, key=lambda record: label_key(record["label"])):
        cells = [record["label"], commit_cell(record, commits)]
        cells += [f"{record['workloads'][workload]['metrics'][metric]['median']:.4g}" for workload, metric in columns]
        print("| " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
