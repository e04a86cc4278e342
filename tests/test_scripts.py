"""scripts/bench_pairs.py, bench_record.py, bench_table.py and code_lines.py, imported from scripts/.

The benchmark scripts run on stub checkouts under tmp_path: each stub's
bench/run.py only logs its argv and its PYTHONDONTWRITEBYTECODE to
runs.log beside the checkout and prints one result line, every end-to-end
metric of BENCHMARK.json at a fixed value.  bench_record and bench_table
get a git repository of their own, with ROOT patched to it.  So no test
here runs the benchmark, reads this repository's history or writes into it.
"""

import json
import shutil
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "scripts"))

import bench_pairs  # noqa: E402
import bench_record  # noqa: E402
import bench_table  # noqa: E402
import code_lines  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
# The columns of bench_table after the label and the commit.
COLUMNS = [f"{workload} {metric['name']}" for workload in WORKLOADS for metric in SPEC["end_to_end"]]
# The fields of every BENCH file.
RECORD_FIELDS = {"label", "commit", "src_tree", "bench_tree", "python", "machine",
                 "seeds", "run_seconds", "smoke", "workloads"}
STUB = """\
import json, os, sys
with open(os.path.join("..", "runs.log"), "a") as log:
    entry = [os.path.basename(os.getcwd()), sys.argv[1:], os.environ.get("PYTHONDONTWRITEBYTECODE")]
    print(json.dumps(entry), file=log)
print("the result is the last line")
print(json.dumps({{"correct": True, "attempted": 2, "failed": 0, "metrics": {metrics!r}}}))
print("stub stderr", file=sys.stderr)
sys.exit({status})
"""


def stub_checkout(path: Path, value: float, status: int = 0) -> Path:
    """A checkout at path whose bench/run.py reports each end-to-end metric as value and exits with status."""
    metrics = {metric["name"]: {"value": value, "unit": metric["unit"]} for metric in SPEC["end_to_end"]}
    (path / "bench").mkdir(parents=True)
    (path / "bench" / "run.py").write_text(STUB.format(metrics=metrics, status=status), encoding="utf-8")
    (path / "src" / "figfig").mkdir(parents=True)
    (path / "src" / "figfig" / "__init__.py").write_text("# The package under test.\n", encoding="utf-8")
    shutil.copy(REPO / "BENCHMARK.json", path)
    return path


def logged_runs(tmp_path: Path) -> list[list]:
    """[checkout name, argv, PYTHONDONTWRITEBYTECODE] of each stub run beside tmp_path's checkouts, in order."""
    return [json.loads(line) for line in (tmp_path / "runs.log").read_text(encoding="utf-8").splitlines()]


def table_row(*cells: str) -> str:
    return "| " + " | ".join(cells) + " |"


GAIN_CASES = [(2, 0, True, "no"), (9, 0, True, "no"), (10, 0, True, "yes"), (9, 1, True, "yes"), (8, 2, True, "no"),
              (10, 0, False, "no")]


@pytest.mark.parametrize(
    "wins, losses, fails_no_more, claim",
    GAIN_CASES,
    ids=[f"{wins}-{losses}-{claim}" + ("" if fails else "-more-failures") for wins, losses, fails, claim
         in GAIN_CASES],
)
def test_bench_pairs_claims_a_gain_only_from_ten_pairs_nine_tenths_won(wins, losses, fails_no_more, claim):
    # The parent's runs all read 10 s, so its interquartile range is 0,
    # and the change's median, 9 s, beats it by 1 s whatever it loses.
    # A larger share of failed operations than the parent's forbids the claim.
    parent = [10.0] * (wins + losses)
    change = [9.0] * wins + [11.0] * losses
    row = bench_pairs.compare(parent, change, "lower", 0.24, fails_no_more)
    assert row.split()[-2:] == [f"{wins}/0/{losses}", claim]


def test_bench_pairs_alternates_the_sides_and_tables_every_metric(tmp_path, monkeypatch, capsys):
    # Odd pairs run the parent first, even ones the change; each child runs
    # without writing bytecode, whatever the caller's environment says.
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    parent, change = stub_checkout(tmp_path / "parent", 1.0), stub_checkout(tmp_path / "change", 2.0)
    assert bench_pairs.main([str(parent), str(change), "--workload", "asymptotics", "--pairs", "3", "--smoke"]) == 0
    order = [("parent", 1), ("change", 1), ("change", 2), ("parent", 2), ("parent", 3), ("change", 3)]
    assert logged_runs(tmp_path) == [
        [side, ["--workload", "asymptotics", "--seed", str(seed), "--seconds", "1", "--trace", "0", "--smoke"], "1"]
        for side, seed in order
    ]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "asymptotics: 3 pairs, seeds 1-3, 1 s each"
    assert len(lines) == len(SPEC["end_to_end"]) + 3
    for line, metric in zip(lines[2:], SPEC["end_to_end"]):
        assert line.startswith(f"{metric['name']} {metric['unit']}  1 [1, 1]  2 [2, 2]  "), line
    assert lines[-1] == "failed/attempted  parent 0/6  change 0/6"


def test_bench_pairs_stops_at_a_failed_run(tmp_path):
    parent, broken = stub_checkout(tmp_path / "parent", 1.0), stub_checkout(tmp_path / "broken", 2.0, status=3)
    with pytest.raises(SystemExit) as stop:
        bench_pairs.main([str(parent), str(broken), "--workload", "gen", "--pairs", "1"])
    assert stop.value.code == f"error: {broken}, seed 1: bench/run.py exited 3\nstub stderr\n"


@pytest.mark.parametrize("script", [bench_pairs, bench_record], ids=lambda script: script.__name__)
@pytest.mark.parametrize("cache", ["src/figfig/__pycache__", "bench/__pycache__"])
def test_bench_scripts_refuse_a_checkout_holding_bytecode(tmp_path, monkeypatch, script, cache):
    checkout = stub_checkout(tmp_path / "checkout", 1.0)
    (checkout / cache).mkdir()
    # Were the checkout not refused, bench_record would write its file here.
    monkeypatch.setattr(bench_record, "ROOT", checkout)
    argv = {bench_pairs: [str(checkout), str(checkout), "--workload", "gen", "--pairs", "1"],
            bench_record: [str(checkout), "cached", "--seeds", "1"]}[script]
    with pytest.raises(SystemExit) as stop:
        script.main(argv)
    assert str(stop.value.code).startswith(f"error: {checkout / cache} holds bytecode")
    assert not (tmp_path / "runs.log").exists()


@pytest.mark.parametrize("script, argv", [
    (bench_pairs, ["parent", "change", "--workload", "gen", "--pairs", "0"]),
    (bench_record, ["checkout", "none", "--seeds", "0"]),
], ids=["pairs", "seeds"])
def test_bench_scripts_reject_zero_runs(script, argv, capsys):
    with pytest.raises(SystemExit) as stop:
        script.main(argv)
    assert stop.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {argv[-2]} must be >= 1\n")


def test_bench_record_then_table_name_the_commit_of_the_measured_trees(tmp_path, monkeypatch, capsys):
    # The change to src/ is recorded before it is committed, so only the
    # trees of `git stash create` name it; the table then shows the oldest
    # commit holding both trees, and a record whose trees no commit holds
    # shows its own commit with a `+`.
    repo = stub_checkout(tmp_path / "repo", 1.0)

    def git(*args: str) -> str:
        return bench_record.git(repo, *args)

    for args in (["init", "-q"], ["config", "user.name", "test"], ["config", "user.email", "test@localhost"],
                 ["add", "-A"], ["commit", "-qm", "Base"]):
        git(*args)
    base = git("rev-parse", "HEAD")
    (repo / "src" / "figfig" / "__init__.py").write_text("# The package under a change.\n", encoding="utf-8")
    monkeypatch.setattr(bench_record, "ROOT", repo)
    monkeypatch.setattr(bench_table, "ROOT", repo)
    assert bench_record.main([str(repo), "ci", "--seeds", "1"]) == 0
    assert [(name, argv) for name, argv, _ in logged_runs(tmp_path)] == [
        ("repo", ["--workload", workload, "--seed", "1", "--seconds", str(SPEC["run_seconds"]), "--trace", "0"])
        for workload in WORKLOADS
    ]
    record = json.loads((repo / "BENCH_ci.json").read_text(encoding="utf-8"))
    assert record.keys() == RECORD_FIELDS
    assert [record[key] for key in ("label", "commit", "seeds", "run_seconds", "smoke")] == \
        ["ci", base, [1], SPEC["run_seconds"], False]
    metrics = {metric["name"]: {"unit": metric["unit"], "better": metric["better"], "median": 1.0, "q1": 1.0, "q3": 1.0}
               for metric in SPEC["end_to_end"]}
    assert record["workloads"] == {workload: {"metrics": metrics, "failed": 0, "attempted": 2} for workload in WORKLOADS}

    git("add", "-A")
    git("commit", "-qm", "Record a benchmark with its change")
    change = git("rev-parse", "HEAD")
    assert record["src_tree"] != git("rev-parse", f"{base}:src")
    assert [record["src_tree"], record["bench_tree"]] == git("rev-parse", "HEAD:src", "HEAD:bench").split()
    unheld = {**record, "label": "pr9", "src_tree": "0" * 40}
    (repo / "BENCH_pr9.json").write_text(json.dumps(unheld), encoding="utf-8")
    git("add", "-A")
    git("commit", "-qm", "A later commit holding the same trees")

    capsys.readouterr()
    assert bench_table.main() == 0
    assert capsys.readouterr().out.splitlines() == [
        table_row("label", "commit", *COLUMNS),
        "|---" * (len(COLUMNS) + 2) + "|",
        table_row("ci", change[:7], *["1"] * len(COLUMNS)),
        table_row("pr9", base[:7] + "+", *["1"] * len(COLUMNS)),
    ]


def test_bench_table_renders_the_committed_bench_files(monkeypatch, capsys):
    # Every BENCH file at the root holds the fields bench_record writes and
    # a number in each column; with no history every commit cell has a `+`.
    paths = sorted(REPO.glob("BENCH_*.json"))
    assert paths and all(json.loads(path.read_text(encoding="utf-8")).keys() == RECORD_FIELDS for path in paths)
    monkeypatch.setattr(bench_table, "tree_commits", dict)
    assert bench_table.main() == 0
    header, _, *rows = capsys.readouterr().out.splitlines()
    assert header == table_row("label", "commit", *COLUMNS)
    assert len(rows) == len(paths)
    for row in rows:
        label, commit, *cells = row.strip("| ").split(" | ")
        assert commit.endswith("+") and len(cells) == len(COLUMNS), row
        for cell in cells:
            float(cell)  # a number, or a ValueError


def test_label_key_orders_label_numbers_by_value():
    assert sorted(["pr100", "pr10", "pr9"], key=bench_table.label_key) == ["pr9", "pr10", "pr100"]


def test_code_lines_counts_only_lines_of_code(tmp_path, monkeypatch, capsys):
    (tmp_path / "module.py").write_text('''\
"""The module docstring,
over two lines."""

# A comment line.
import os  # a comment after code


def total(x):
    """The function docstring."""
    return (x +
            len(os.sep) +
            1)


class Named:
    """The class docstring."""

    name = """a string that is
not a docstring"""
''', encoding="utf-8")
    # import; def and its three-line return; class and its two-line string.
    assert code_lines.code_lines(tmp_path / "module.py") == 8
    monkeypatch.setattr(code_lines, "SOURCE", tmp_path)
    code_lines.main()
    assert capsys.readouterr().out == f"{'module.py':<16} {8:>5}\n{'total':<16} {8:>5}\n"
