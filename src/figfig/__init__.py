"""Hofstadter's figure-figure sequences, exactly and asymptotically.

Streaming exact generation of the sequence pair (OEIS A005228 and
A030124) together with the counting companion (A225687), exact rational
coefficients of their fractional-power expansions, truncated-series
evaluation, streamed verification of the defining laws and bounds, and
OEIS b-file round-tripping.
"""

from .bfile import BFileFormatError, BFileRecord, compare_reference, parse_bfile, write_bfile
from .checks import (
    CheckReport,
    RemainderRow,
    check_all,
    check_bounds,
    check_identities,
    check_partition,
    decade_remainder_means,
    remainder_table,
)
from .cli import main, run_cli
from .series import (
    MAX_ORDER,
    a_coeff,
    eval_a_series,
    eval_b_series,
    eval_u_series,
    root_pow,
    u_coeff,
)
from .stream import SEQUENCE_IDS, Triple, TripleStream, value_at

__version__ = "0.1.0"

__all__ = [
    "BFileFormatError",
    "BFileRecord",
    "CheckReport",
    "MAX_ORDER",
    "RemainderRow",
    "SEQUENCE_IDS",
    "Triple",
    "TripleStream",
    "a_coeff",
    "check_all",
    "check_bounds",
    "check_identities",
    "check_partition",
    "compare_reference",
    "decade_remainder_means",
    "eval_a_series",
    "eval_b_series",
    "eval_u_series",
    "main",
    "parse_bfile",
    "remainder_table",
    "root_pow",
    "run_cli",
    "u_coeff",
    "value_at",
    "write_bfile",
]
