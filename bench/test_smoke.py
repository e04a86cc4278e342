"""Fast checks of the benchmark harness itself, at tiny sizes.

    python -m pytest bench/test_smoke.py

These are not part of the package's test suite (pyproject's testpaths
names tests/ only); they make a broken harness fail in seconds instead of
after a full run.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import reference  # noqa: E402
import run  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    values = [m["value"] for m in result["metrics"].values()]
    assert all(math.isfinite(v) and v >= 0 for v in values)
    if trace == "0":
        assert all(v > 0 for v in values)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "gen", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_seed_table_matches_reference_bfiles():
    table, _ = reference.load_seed_values()
    for seq, values in reference.read_reference_bfiles().items():
        assert [table.value(seq, n) for n in range(1, len(values) + 1)] == values


def test_series_reference_matches_fifty_digit_decimal():
    from figfig import MAX_ORDER, a_coeff, u_coeff

    ref = reference.SeriesReference(u_coeff, a_coeff, MAX_ORDER)
    for n in (1, 7, 10**6 + 3, 123456789012345678):
        got = ref.values(n)
        with localcontext() as decimal_context:
            decimal_context.prec = 50
            root, u_sum, a_sum = Decimal(n) / 2, Decimal(0), Decimal(0)
            for k in range(1, MAX_ORDER + 1):
                root = root.sqrt()
                coeff_u, coeff_a = u_coeff(k), a_coeff(k)
                u_sum += Decimal(coeff_u.numerator) / coeff_u.denominator * root
                a_sum += Decimal(coeff_a.numerator) / coeff_a.denominator * root * n / 2
                want = {"u": u_sum, "b": n + u_sum, "a": Decimal(n) * n / 2 + a_sum}
                for seq, value in want.items():
                    assert reference.relative_error(got[seq][k - 1], float(value)) <= 2**-52


def test_asymptotics_checks_catch_wrong_answers(monkeypatch):
    import figfig

    ctx = run.Context(run.SMOKE)
    try:
        rng = random.Random(3)
        monkeypatch.setattr(figfig, "value_at", lambda seq, n: 0)
        monkeypatch.setattr(figfig, "eval_u_series", lambda n, order: 1.0)
        workload = run.Asymptotics(ctx, rng)
        result = workload.one_pass(rng, None)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    wrong_series = sum(seq == "u" for seq, *_ in workload.calls)
    assert wrong_series > 0
    assert result.failed == run.SMOKE.lookups + wrong_series
