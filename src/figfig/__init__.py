"""Hofstadter's figure-figure sequences, exactly and asymptotically.

Streaming exact generation of the sequence pair (OEIS A005228 and
A030124) together with the counting companion (A225687), exact rational
coefficients of their fractional-power expansions, truncated-series
evaluation, streamed verification of the defining laws and bounds, and
OEIS b-file round-tripping.

Importing the package loads none of its modules.  Each public name is
imported from its home module (listed in _HOMES) on first access and
then kept here, so a caller pays only for the modules it uses:
`eval_u_series` loads `figfig.series` alone, without `fractions`;
`check_all` loads the stream and the checks, but neither the series nor
any b-file code; and `remainder_table` loads the stream, the series and
the remainder tools, but not the checks.  No module of the package
imports `typing` or `__future__`, so a fresh interpreter that compiles
the package from source pays for neither (README, "Start-up").
`_int_arg` checks every integer argument of the public entry points; it
lives here because every module loads the package first, and so does
`_InputError`, the ValueError that every such check raises for input it
rejects.
"""

from operator import index as _index

__version__ = "0.1.0"

# Each public name and the module that defines it.
_HOMES = {
    name: module
    for module, names in (
        ("bfile", ("BFileFormatError", "BFileRecord", "BFileRecords", "compare_reference", "parse_bfile", "write_bfile")),
        ("checks", ("check_all", "check_bounds", "check_identities", "check_partition")),
        ("cli", ("main", "run_cli")),
        ("remainders", ("RemainderRow", "decade_remainder_means", "remainder_table")),
        ("series", ("MAX_ORDER", "a_coeff", "eval_a_series", "eval_b_series", "eval_u_series", "root_pow", "u_coeff")),
        ("stream", ("CheckReport", "SEQUENCE_IDS", "Triple", "TripleStream", "value_at")),
    )
    for name in names
}

__all__ = sorted(_HOMES)


class _InputError(ValueError):
    """Rejected input: an argument out of range or a malformed b-file.  The command line
    exits 2 with its message; any other ValueError is a fault in figfig (exit 70)."""


def _int_arg(value: int, name: str, lo: int, hi: int | None = None) -> int:
    """value by operator.index (a float or str raises TypeError); _InputError unless lo <= value (<= hi)."""
    if (value := _index(value)) < lo or hi is not None and value > hi:
        raise _InputError(f"{name} must be >= {lo}" if hi is None else f"{name} must be in {lo}..{hi}")
    return value


def __getattr__(name: str):
    try:
        module = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})
