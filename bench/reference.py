"""Exact references the benchmark checks figfig's outputs against.

Three sources, none of them the code path being timed:

* the 10000-term reference b-files under tests/data, read with a plain
  line splitter rather than figfig's parser;
* values recorded at the seed commit (data/seed_values.json): the indices
  where u steps up, which pin down a, b and u exactly up to a limit, and the
  decade means the asymptotics workload asks for;
* a fixed-point evaluator of the truncated series built from the exact
  Fraction coefficients and integer square roots.

Run this file to re-record data/seed_values.json from the figfig found under
src/ (do so only on purpose: the recorded values are what later commits are
held to).
"""

from __future__ import annotations

import json
import math
import sys
from bisect import bisect_right
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED_VALUES = Path(__file__).resolve().parent / "data" / "seed_values.json"
REFERENCE_BFILES = {"a": "b005228.txt", "b": "b030124.txt", "u": "b225687.txt"}

# Indices covered by the recorded u steps; above every index a workload uses.
TABLE_LIMIT = 1_100_000
# (first_decade, last_decade) pairs recorded for decade_remainder_means.
DECADE_SPANS = ((1, 2), (1, 4))
DECADE_ORDERS = (1, 2, 3)
# Fixed-point fraction bits of the series reference.  Every rung and
# coefficient is off by less than 2^-64, far below the 1e-12 tolerance.
FRACTION_BITS = 64


def read_reference_bfiles() -> dict[str, list[int]]:
    """Values 1..N of a, b and u from tests/data, index-checked."""
    columns = {}
    for seq, name in REFERENCE_BFILES.items():
        values = []
        with open(ROOT / "tests" / "data" / name, encoding="utf-8") as source:
            for line in source:
                if not line.strip() or line.startswith("#"):
                    continue
                index, value = map(int, line.split())
                if index != len(values) + 1:
                    raise ValueError(f"{name}: index {index} out of order")
                values.append(value)
        columns[seq] = values
    return columns


class SeedTable:
    """Exact a_n, b_n, u_n for 1 <= n <= limit from the recorded u steps.

    u starts at 1 and rises by exactly 1 at each recorded index, so run r
    (0-based) holds the value r + 1 from starts[r] up to starts[r + 1] - 1,
    and a_n = 1 + (n - 1)n/2 + u_1 + ... + u_{n-1}.
    """

    def __init__(self, steps: list[int], limit: int) -> None:
        self.limit = limit
        self._starts = [1] + steps
        self._cum = [0]  # sum of u_i for i < starts[r]
        for r in range(len(steps)):
            self._cum.append(self._cum[r] + (self._starts[r + 1] - self._starts[r]) * (r + 1))

    def _u_sum(self, m: int) -> int:
        if m == 0:
            return 0
        r = bisect_right(self._starts, m) - 1
        return self._cum[r] + (m - self._starts[r] + 1) * (r + 1)

    def value(self, seq: str, n: int) -> int:
        if not 1 <= n <= self.limit:
            raise ValueError(f"index {n} outside the recorded range 1..{self.limit}")
        u = bisect_right(self._starts, n)
        if seq == "u":
            return u
        if seq == "b":
            return n + u
        return 1 + (n - 1) * n // 2 + self._u_sum(n - 1)


def load_seed_values() -> tuple[SeedTable, dict[str, list[list[float]]]]:
    """The recorded step table and decade means, keyed "seq,order,lo,hi"."""
    with open(SEED_VALUES, encoding="utf-8") as source:
        data = json.load(source)
    return SeedTable(data["u_steps"], data["limit"]), data["decade_means"]


def decade_key(seq: str, order: int, first: int, last: int) -> str:
    return f"{seq},{order},{first},{last}"


class SeriesReference:
    """Truncated u-, b- and a-series at one index, to every order at once.

    The ladder (n/2)^(1/2^k) is carried in fixed point with FRACTION_BITS
    bits by math.isqrt, the coefficients are the exact Fractions rounded to
    the same grid, and each result is one correctly rounded int division.
    """

    def __init__(self, u_coeff, a_coeff, max_order: int) -> None:
        p = FRACTION_BITS
        self._u = [(c.numerator << p) // c.denominator for c in map(u_coeff, range(1, max_order + 1))]
        self._a = [(c.numerator << p) // c.denominator for c in map(a_coeff, range(1, max_order + 1))]

    def values(self, n: int) -> dict[str, list[float]]:
        """{"u": [...], "b": [...], "a": [...]}, entry k - 1 for order k."""
        p = FRACTION_BITS
        scale = 1 << (2 * p)
        rung = n << (p - 1)  # n/2 on the fixed-point grid
        su = sa = 0
        out = {"u": [], "b": [], "a": []}
        for cu, ca in zip(self._u, self._a):
            rung = math.isqrt(rung << p)
            su += cu * rung
            sa += ca * rung
            out["u"].append(su / scale)
            out["b"].append(((n << (2 * p)) + su) / scale)
            # a = n^2/2 + sum a_k (n/2) rung_k, doubled to stay in integers.
            out["a"].append(((n * n << (2 * p)) + sa * n) / (scale << 1))
        return out


def relative_error(got: float, exact: float) -> float:
    return abs(got - exact) / abs(exact) if exact else abs(got)


def record() -> None:
    """Write data/seed_values.json from the figfig under src/."""
    sys.path.insert(0, str(ROOT / "src"))
    from figfig import TripleStream, decade_remainder_means

    steps, previous = [], 1
    stream = TripleStream()
    for _ in range(TABLE_LIMIT):
        row = stream.next_triple()
        if row.u != previous:
            if row.u != previous + 1:
                raise SystemExit(f"u jumps by more than 1 at n={row.n}")
            steps.append(row.n)
            previous = row.u
    table = SeedTable(steps, TABLE_LIMIT)
    for seq, values in read_reference_bfiles().items():
        if any(table.value(seq, n) != v for n, v in enumerate(values, start=1)):
            raise SystemExit(f"recorded steps disagree with the reference b-file for {seq}")
    means = {
        decade_key(seq, order, first, last): decade_remainder_means(seq, order, first, last)
        for seq in "abu"
        for order in DECADE_ORDERS
        for first, last in DECADE_SPANS
    }
    SEED_VALUES.parent.mkdir(exist_ok=True)
    with open(SEED_VALUES, "w", encoding="utf-8") as sink:
        json.dump({"limit": TABLE_LIMIT, "u_steps": steps, "decade_means": means}, sink)
        sink.write("\n")
    print(f"wrote {SEED_VALUES}: {len(steps)} u steps, {len(means)} decade-mean lists")


if __name__ == "__main__":
    record()
