"""Brute-force reference construction, deliberately unlike the package code.

The generator under test emits b run by run, as ranges between
consecutive a-values, reading those bounds from a lagging walk of itself
that reaches only the O(sqrt n) leading a-values.  This oracle does the
obvious slow thing instead: it holds a full membership table of every
a-value produced so far and scans candidate integers one at a time.  The
counting companion u is recomputed for each n from its defining window
(find k with a_k - k < n <= a_{k+1} - (k+1)) rather than read off the b
column, so the two routes to u stay separate.
"""

from __future__ import annotations


def counting_u(n: int, a_values: list[int]) -> int:
    """Position of n in the counting windows cut by a_k - k."""
    k = 1
    while not (a_values[k - 1] - k < n <= a_values[k] - (k + 1)):
        k += 1
    return k


def oracle_triples(count: int) -> list[tuple[int, int, int, int]]:
    """First `count` rows of (n, a_n, b_n, u_n), built from the table."""
    a_values = [1]
    members = {1}
    b = 1
    rows = []
    for n in range(1, count + 1):
        b += 1
        while b in members:
            b += 1
        a_values.append(a_values[-1] + b)
        members.add(a_values[-1])
        rows.append((n, a_values[n - 1], b, counting_u(n, a_values)))
    return rows


def oracle_sequence(seq: str, count: int) -> list[int]:
    """First `count` terms of one column: seq is "a", "b", or "u"."""
    column = {"a": 1, "b": 2, "u": 3}[seq]
    return [row[column] for row in oracle_triples(count)]
