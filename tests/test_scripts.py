"""scripts/bench_pairs.py, loaded by path, on runs made up here."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


@pytest.mark.parametrize(
    "wins, losses, claim",
    [(2, 0, "no"), (9, 0, "no"), (10, 0, "yes"), (9, 1, "yes"), (8, 2, "no")],
)
def test_bench_pairs_claims_a_gain_only_from_ten_pairs_nine_tenths_won(wins, losses, claim):
    # The parent's runs all read 10 s, so its interquartile range is 0,
    # and the change's median, 9 s, beats it by 1 s whatever it loses.
    parent = [10.0] * (wins + losses)
    change = [9.0] * wins + [11.0] * losses
    row = bench_pairs.compare(parent, change, "lower", 0.24, True)
    assert row.split()[-2:] == [f"{wins}/0/{losses}", claim]
