"""Spans and per-call totals for the traced benchmark run.

A Tracer times calls into figfig's layers from outside the package: the
benchmark routes its own calls through Tracer.call, and Tracer.installed()
temporarily rebinds the per-term stream methods (and, in a CLI child, the
check functions the CLI dispatches to) to timing wrappers.  Per-term calls
such as TripleStream.next_triple only add to a (calls, total, child) total;
coarser calls also keep one span each.  Everything stays in memory until
dump().  A layer's self time is its total minus the time of the traced
calls made inside it.

Run as a script to execute one figfig CLI command under a tracer:

    python3 bench/tracing.py SPANS.json gen --seq a --count 1000 --out a.txt

It writes the spans and totals to SPANS.json and exits with the command's
status.  figfig must be importable (put src/ on PYTHONPATH).
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from time import perf_counter_ns

STREAM_INIT = "stream.TripleStream"
STREAM_NEXT = "stream.next_triple"
CHECK_NAMES = ("check_partition", "check_identities", "check_bounds")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.totals: dict[str, list[int]] = {}  # name -> [calls, total_ns, child_ns]
        self._stack: list[list] = []  # open calls: [child_ns, name]

    def wrap(self, name: str, fn, keep_span: bool = True):
        """fn with every call timed under `name`."""
        totals = self.totals.setdefault(name, [0, 0, 0])
        stack, spans = self._stack, self.spans

        def timed(*args, **kwargs):
            frame = [0, name]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                totals[0] += 1
                totals[1] += end - start
                totals[2] += frame[0]
                if stack:
                    stack[-1][0] += end - start
                if keep_span:
                    spans.append({
                        "name": name,
                        "start_ns": start,
                        "end_ns": end,
                        "parent": stack[-1][1] if stack else None,
                    })

        return timed

    def call(self, name: str, fn, *args):
        return self.wrap(name, fn)(*args)

    @contextmanager
    def installed(self, checks: bool = False):
        """Route stream construction and next_triple (and, with `checks`,
        the law checks as the CLI reaches them) through timing wrappers."""
        import figfig
        from figfig import TripleStream

        # A name the package no longer has is skipped and counts zero calls.
        undo = []
        for attr, name in (("__init__", STREAM_INIT), ("next_triple", STREAM_NEXT)):
            if attr in vars(TripleStream):
                original = vars(TripleStream)[attr]
                undo.append((TripleStream, attr, original))
                setattr(TripleStream, attr, self.wrap(name, original, keep_span=False))
        for name in CHECK_NAMES if checks else ():
            original = getattr(figfig, name, None)
            if original is not None:
                undo += _rebind(original, self.wrap(f"checks.{name}", original))
        try:
            yield self
        finally:
            for owner, key, original in reversed(undo):
                if isinstance(owner, dict):
                    owner[key] = original
                else:
                    setattr(owner, key, original)

    def merge(self, dump: dict) -> None:
        """Add spans and totals written by another process's dump()."""
        self.spans += dump["spans"]
        for name, (calls, total, child) in dump["totals"].items():
            mine = self.totals.setdefault(name, [0, 0, 0])
            mine[0] += calls
            mine[1] += total
            mine[2] += child

    def dump(self) -> dict:
        return {"spans": self.spans, "totals": self.totals}

    def calls(self, name: str) -> int:
        return self.totals.get(name, [0, 0, 0])[0]

    def total_ns(self, name: str) -> int:
        return self.totals.get(name, [0, 0, 0])[1]

    def self_ns(self, name: str) -> int:
        _, total, child = self.totals.get(name, [0, 0, 0])
        return total - child


def _rebind(original, replacement) -> list[tuple]:
    """Point every figfig module global, and every entry of a module-level
    dict (such as the CLI's dispatch tables), at `replacement` instead of
    `original`; return what to restore."""
    undo = []
    for module_name, module in list(sys.modules.items()):
        if module_name != "figfig" and not module_name.startswith("figfig."):
            continue
        namespace = vars(module)
        tables = [namespace] + [v for v in namespace.values() if isinstance(v, dict) and v is not namespace]
        for table in tables:
            for key, value in list(table.items()):
                if value is original:
                    undo.append((table, key, original))
                    table[key] = replacement
    return undo


def main(argv: list[str]) -> int:
    out, command = argv[0], argv[1:]
    from figfig import run_cli

    tracer = Tracer()
    with tracer.installed(checks=True):
        status = tracer.call("cli.run_cli", run_cli, command)
    with open(out, "w", encoding="utf-8") as sink:
        json.dump(tracer.dump(), sink)
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
