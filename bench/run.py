#!/usr/bin/env python3
"""Benchmark for figfig: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload gen --seed 1 --seconds 30 --trace 0

Run it from a checkout of the repository.  It uses the figfig package under
src/ in place and drives it only through its public API and its command
line (``python -m figfig``, one child process at a time, no threads).  The
seed picks every input; the program sees only those inputs.  Each run
repeats passes of its workload for about --seconds, checks every output of
every pass, prints one ``name value unit`` line per metric and ends with a
JSON line {"correct", "attempted", "failed", "metrics"}.

Workloads (sizes per pass):
  gen          `figfig gen` of the a/b/u triple as CSV and of one seeded
               sequence as a b-file, about 2.5e5 rows each, then the b-file
               read back with parse_bfile and checked with compare_reference.
  verify       `figfig verify --check all` up to about 2.5e5.
  asymptotics  50 value_at lookups (log-uniform n up to 1e5), 5e4
               eval_{u,b,a}_series calls (n log-uniform in [1, 1e18], order
               1..64), one remainder_table at sparse indices up to 5e5 and
               one decade_remainder_means over 10..1e5.

With --trace 0 (end-to-end; medians over the passes of the run):
  setup_s       import of figfig plus its lazy coefficient caches, in a fresh
                interpreter before each pass (the benchmark's own reference
                building is not part of it)
  wall_s        time of one pass's timed phases
  terms_per_s   gen: rows written by the CLI per second of CLI time;
                verify: indices verified per second; asymptotics: sequence
                indices reached by the exact calls (value_at, remainder_table,
                decade_remainder_means) per second of those calls
  peak_rss_mib  peak resident memory of the largest process of the run:
                this one or one of its children
The lines above the JSON also give the workload-specific figures:
readback_terms_per_s (gen), series_calls_per_s, lookup_p50_ms and
lookup_p90_ms (asymptotics, pooled over all lookups of the run), the sample
counts, fail_ratio, and the unscaled raw_setup_s and raw_wall_s.

Host speed.  On a machine whose cores are shared with other tenants the
speed of the same Python code drifts, by up to 40% from one minute to the
next on the 2-core host this was tuned on.  So the run
keeps to one CPU, times a fixed pure-Python job (calibration_s) next to
every pass and set-up probe, and reports each time scaled by
CALIBRATION_NOMINAL_S / calibration time: the time the step would take at the
speed where that job takes CALIBRATION_NOMINAL_S.  The job uses none of
figfig, so a change to the program moves the scaled times in the same
proportion as the raw ones.  host_speed is the median factor of the run; the
per-layer times are scaled by the factor of the traced pass.

With --trace 1 the run adds one traced pass, which times the calls into each
layer (stream, series, checks, bfile, cli) from this directory's files, and
one tracemalloc pass, and reports the per-layer metrics; a metric of a layer
the workload does not call reads 0.  --smoke shrinks every size so that the
whole harness runs in seconds (bench/test_smoke.py uses it).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tracemalloc
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import reference  # noqa: E402  (sibling module)
from tracing import CHECK_NAMES, STREAM_INIT, STREAM_NEXT, Tracer  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "terms_per_s": "1/s",
    "peak_rss_mib": "MiB",
}
PER_LAYER = {
    "stream.ns_per_term": "ns",
    "stream.next_calls": "count",
    "stream.instances": "count",
    "stream.value_at_ms": "ms",
    "stream.peak_alloc_kib": "KiB",
    "checks.partition_ns_per_term": "ns",
    "checks.identities_ns_per_term": "ns",
    "checks.bounds_ns_per_term": "ns",
    "checks.self_ns_per_term": "ns",
    "checks.remainder_table_ms": "ms",
    "checks.decade_means_ns_per_term": "ns",
    "series.eval_u_ns": "ns",
    "series.eval_b_ns": "ns",
    "series.eval_a_ns": "ns",
    "series.ns_per_rung": "ns",
    "series.max_rel_err": "ratio",
    "bfile.parse_ns_per_record": "ns",
    "bfile.compare_ns_per_record": "ns",
    "bfile.parse_peak_alloc_mib": "MiB",
    "cli.gen_self_ns_per_row": "ns",
    "cli.verify_self_ms": "ms",
    "cli.startup_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

# The README promises "well under 1e-12 relative" for the float series.
SERIES_REL_TOL = 1e-12
# Decade means are float sums; allow reordering, not a different answer.
DECADE_REL_TOL = 1e-9
# Units of the figures printed above the JSON line only.
EXTRA_UNITS = {
    "readback_terms_per_s": "1/s",
    "series_calls_per_s": "1/s",
    "lookup_p50_ms": "ms",
    "lookup_p90_ms": "ms",
    "passes": "count",
    "lookups": "count",
    "fail_ratio": "ratio",
    "host_speed": "ratio",
    "raw_setup_s": "s",
    "raw_wall_s": "s",
}
CHILD_TIMEOUT_S = 150
CALIBRATION_STEPS = 200_000
# calibration_s() at the host speed that the reported times are scaled to.
CALIBRATION_NOMINAL_S = 0.06
SETUP_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import figfig\n"
    "figfig.eval_u_series(2, figfig.MAX_ORDER)\n"
    "figfig.eval_a_series(2, figfig.MAX_ORDER)\n"
    "print(time.perf_counter() - start)\n"
)


@dataclass(frozen=True)
class Sizes:
    gen_count: int
    check_rows: int  # leading rows compared with the reference b-files
    verify_upto: int
    lookups: int
    lookup_max: int
    sweep_calls: int
    sweep_pool: int  # distinct n the sweep draws from
    remainder_points: int
    remainder_max: int
    decades: tuple[int, int]
    mem_terms: int
    probes: int


# A quarter of the 1e6-term scale of ROADMAP.md's baseline table, so that a
# 30-second run holds about 15 passes: single passes on a shared 2-core
# machine vary by up to 20%, and the median of many short passes is steadier
# than that of a few long ones.  Per-term costs are amortised O(1), so the
# per-layer figures stay comparable with the table.
FULL = Sizes(25 * 10**4, 10**4, 25 * 10**4, 50, 10**5, 5 * 10**4, 2000, 20, 5 * 10**5, (1, 4), 10**5, 5)
SMOKE = Sizes(3000, 3000, 3000, 20, 3000, 600, 50, 5, 5000, (1, 2), 2000, 2)


def jittered(size: int, rng: random.Random) -> int:
    """size moved by a seeded amount of at most 0.5%."""
    return size + rng.randint(-(size // 200), size // 200)


def log_uniform(rng: random.Random, hi: float) -> int:
    return max(1, round(hi ** rng.random()))


def log_uniform_strata(rng: random.Random, count: int, hi: int) -> list[int]:
    """count log-uniform indices in [1, hi], one per equal slice of log n,
    shuffled; the spread of their quantiles barely depends on the seed."""
    ns = [max(1, round(hi ** ((i + rng.random()) / count))) for i in range(count)]
    rng.shuffle(ns)
    return ns


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def traced(tracer: Tracer | None, name: str, fn, *args):
    return fn(*args) if tracer is None else tracer.call(name, fn, *args)


@dataclass
class Pass:
    wall_s: float
    terms_per_s: float
    attempted: int
    failed: int
    extra: dict = field(default_factory=dict)
    speed: float = 1.0  # host speed during the pass, 1 at CALIBRATION_NOMINAL_S


class Context:
    """Paths, child-process environment and references shared by a run."""

    def __init__(self, sizes: Sizes) -> None:
        self.sizes = sizes
        self.bfiles = reference.read_reference_bfiles()
        self.table, self.decade_means = reference.load_seed_values()
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.work = ROOT / ".bench_work" / str(os.getpid())
        self.work.mkdir(parents=True, exist_ok=True)

    def exact(self, seq: str, n: int) -> int:
        column = self.bfiles[seq]
        return column[n - 1] if n <= len(column) else self.table.value(seq, n)

    def child(self, argv: list[str], timeout: float = CHILD_TIMEOUT_S):
        """Run a child Python; (seconds, CompletedProcess or None on timeout)."""
        start = perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, *argv], env=self.env, cwd=self.work,
                capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            proc = None
        return perf_counter() - start, proc

    def cli(self, argv: list[str], tracer: Tracer | None):
        """One `figfig` command; traced through tracing.py when tracer is set."""
        if tracer is None:
            return self.child(["-m", "figfig", *argv])
        spans = self.work / "spans.json"
        elapsed, proc = self.child([str(BENCH / "tracing.py"), str(spans), *argv])
        if spans.exists():
            with open(spans, encoding="utf-8") as source:
                tracer.merge(json.load(source))
            spans.unlink()
        return elapsed, proc

    def probe(self, argv: list[str], from_output: bool) -> float:
        """One probe child: the time it prints, or its wall time seen from here."""
        elapsed, proc = self.child(argv, timeout=60)
        if proc is None or proc.returncode != 0:
            raise RuntimeError(f"probe {argv} failed: {proc and proc.stderr}")
        return float(proc.stdout) if from_output else elapsed


def calibration_s() -> float:
    """Seconds this host takes for a fixed pure-Python job that uses none of
    figfig: the gauge of how fast the host runs Python at the moment."""
    start = perf_counter()
    total = 0
    for i in range(CALIBRATION_STEPS):
        row = (i, i * i, i + 1)
        total += row[1] % 7 + len(f"{row[2]}")
    return perf_counter() - start


def stream_peak_alloc_kib(terms: int) -> float:
    from figfig import TripleStream

    tracemalloc.start()
    try:
        stream = TripleStream()
        for _ in range(terms):
            stream.next_triple()
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


class Gen:
    """CLI generation to files, then in-process read-back of the b-file."""

    def __init__(self, ctx: Context, rng: random.Random) -> None:
        self.ctx = ctx
        self.count = jittered(ctx.sizes.gen_count, rng)

    def one_pass(self, rng: random.Random, tracer: Tracer | None) -> Pass:
        from figfig import compare_reference, parse_bfile

        ctx, count = self.ctx, self.count
        seq = rng.choice("abu")
        csv_path = ctx.work / "triple.csv"
        bfile_path = ctx.work / f"b{seq}.txt"
        commands = (
            ["gen", "--seq", "triple", "--count", str(count), "--format", "csv", "--out", str(csv_path)],
            ["gen", "--seq", seq, "--count", str(count), "--format", "bfile", "--out", str(bfile_path)],
        )
        write_s, exits = 0.0, []
        for argv in commands:
            elapsed, proc = ctx.cli(argv, tracer)
            write_s += elapsed
            exits.append(proc is not None and proc.returncode == 0)
        start = perf_counter()
        with open(bfile_path, encoding="utf-8") as source:
            records = traced(tracer, "bfile.parse_bfile", parse_bfile, source)
        report = traced(tracer, "bfile.compare_reference", compare_reference, records, seq)
        compared = perf_counter()

        ok = [
            exits[0] and self._lines_ok(csv_path, ["n,a,b,u\n"], self._expected_rows(None)),
            exits[1] and self._lines_ok(bfile_path, [], self._expected_rows(seq)),
            self._readback_ok(records, bfile_path, seq),
            report.passed and (report.lo, report.hi) == (1, count),
        ]
        del records
        csv_path.unlink(missing_ok=True)
        bfile_path.unlink(missing_ok=True)
        read_s = compared - start
        return Pass(
            wall_s=write_s + read_s,
            terms_per_s=2 * count / write_s,
            attempted=len(ok),
            failed=ok.count(False),
            extra={"readback_terms_per_s": count / read_s},
        )

    def _expected_rows(self, seq: str | None):
        """Leading and final rows as the CLI must print them."""
        ctx, count = self.ctx, self.count
        rows = list(range(1, min(ctx.sizes.check_rows, count) + 1)) + [count]
        if seq is None:
            return {n: f"{n},{ctx.exact('a', n)},{ctx.exact('b', n)},{ctx.exact('u', n)}\n" for n in rows}
        return {n: f"{n} {ctx.exact(seq, n)}\n" for n in rows}

    def _lines_ok(self, path: Path, header: list[str], expected: dict[int, str]) -> bool:
        """The file starts with `header`, then has count rows that match
        `expected` where it names them."""
        with open(path, encoding="utf-8") as source:
            lines = iter(source)
            if [next(lines, None) for _ in header] != header:
                return False
            seen = 0
            for seen, line in enumerate(lines, start=1):
                if seen in expected and line != expected[seen]:
                    return False
        return seen == self.count

    def _readback_ok(self, records, path: Path, seq: str) -> bool:
        """Parsed records hold the expected values and write back byte for byte."""
        from figfig import write_bfile

        expected = self._expected_rows(seq)
        if len(records) != self.count or any(
            f"{records[n - 1].index} {records[n - 1].value}\n" != line for n, line in expected.items()
        ):
            return False
        with open(path, encoding="utf-8") as source:
            sink = _MatchingSink(source)
            write_bfile(records, sink)
            return sink.matched and source.read(1) == ""

    def layer_metrics(self, tracer: Tracer, traced_pass: Pass) -> dict[str, float]:
        rows = 2 * self.count
        return {
            "bfile.parse_ns_per_record": tracer.total_ns("bfile.parse_bfile") / self.count,
            "bfile.compare_ns_per_record": tracer.total_ns("bfile.compare_reference") / self.count,
            "bfile.parse_peak_alloc_mib": self._parse_peak_alloc_mib(),
            "cli.gen_self_ns_per_row": tracer.self_ns("cli.run_cli") / rows,
        }

    def _parse_peak_alloc_mib(self) -> float:
        """tracemalloc peak of parse_bfile over a mem_terms-record b-file."""
        from figfig import parse_bfile

        path = self.ctx.work / "mem.txt"
        terms = str(self.ctx.sizes.mem_terms)
        _, proc = self.ctx.cli(["gen", "--seq", "a", "--count", terms, "--out", str(path)], None)
        if proc is None or proc.returncode != 0:
            raise RuntimeError("figfig gen failed while preparing the memory pass")
        tracemalloc.start()
        try:
            with open(path, encoding="utf-8") as source:
                parse_bfile(source)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
            path.unlink()


class _MatchingSink:
    """A write-only text sink that compares what it is given with a file."""

    def __init__(self, source) -> None:
        self.source = source
        self.matched = True

    def write(self, text: str) -> None:
        if self.matched and self.source.read(len(text)) != text:
            self.matched = False


class Verify:
    """`figfig verify --check all`: three streamed law checks in a child."""

    def __init__(self, ctx: Context, rng: random.Random) -> None:
        self.ctx = ctx
        self.upto = jittered(ctx.sizes.verify_upto, rng)
        self.expected = [f"{name} [1, {self.upto}]: PASS" for name in ("partition", "identities", "bounds")]

    def one_pass(self, rng: random.Random, tracer: Tracer | None) -> Pass:
        elapsed, proc = self.ctx.cli(["verify", "--check", "all", "--upto", str(self.upto)], tracer)
        if proc is None or proc.returncode != 0:
            failed = len(self.expected)
        else:
            lines = proc.stdout.splitlines()
            failed = sum(i >= len(lines) or lines[i] != want for i, want in enumerate(self.expected))
            failed += len(lines) > len(self.expected)
        return Pass(elapsed, self.upto / elapsed, len(self.expected), failed)

    def layer_metrics(self, tracer: Tracer, traced_pass: Pass) -> dict[str, float]:
        metrics = {
            f"checks.{name.removeprefix('check_')}_ns_per_term": tracer.total_ns(f"checks.{name}") / self.upto
            for name in CHECK_NAMES
        }
        checks_self = sum(tracer.self_ns(f"checks.{name}") for name in CHECK_NAMES)
        metrics["checks.self_ns_per_term"] = checks_self / (len(CHECK_NAMES) * self.upto)
        metrics["cli.verify_self_ms"] = tracer.self_ns("cli.run_cli") / 1e6
        return metrics


class Asymptotics:
    """In-process exact lookups, the float series sweep and the remainder tools."""

    ORDERS = reference.DECADE_ORDERS  # orders of remainder_table and decade means

    def __init__(self, ctx: Context, rng: random.Random) -> None:
        from figfig import MAX_ORDER, a_coeff, eval_a_series, eval_b_series, eval_u_series, u_coeff

        self.ctx = ctx
        sizes = ctx.sizes
        self.series_ref = reference.SeriesReference(u_coeff, a_coeff, MAX_ORDER)
        pool = [log_uniform(rng, 1e18) for _ in range(sizes.sweep_pool)]
        exact = {n: self.series_ref.values(n) for n in pool}
        evaluators = {"u": eval_u_series, "b": eval_b_series, "a": eval_a_series}
        self.calls, self.sweep_exact = [], []
        for _ in range(sizes.sweep_calls):
            seq, n, order = rng.choice("uba"), rng.choice(pool), rng.randint(1, MAX_ORDER)
            self.calls.append((seq, evaluators[seq], n, order))
            self.sweep_exact.append(exact[n][seq][order - 1])

    def one_pass(self, rng: random.Random, tracer: Tracer | None) -> Pass:
        from figfig import decade_remainder_means, remainder_table, value_at

        sizes = self.ctx.sizes
        lookups = [(rng.choice("abu"), n) for n in log_uniform_strata(rng, sizes.lookups, sizes.lookup_max)]
        latencies, found = [], []
        for seq, n in lookups:
            start = perf_counter_ns()
            found.append(traced(tracer, "stream.value_at", value_at, seq, n))
            latencies.append((perf_counter_ns() - start) / 1e6)
        lookup_s = sum(latencies) / 1e3

        start = perf_counter()
        if tracer is None:
            results = [evaluate(n, order) for _, evaluate, n, order in self.calls]
            series_timing = None
        else:
            results, series_timing = self._timed_sweep()
        sweep_s = perf_counter() - start

        points = sorted({log_uniform(rng, sizes.remainder_max) for _ in range(sizes.remainder_points - 1)}
                        | {sizes.remainder_max - rng.randrange(100)})
        remainder_args = (rng.choice("abu"), rng.choice(self.ORDERS), points)
        start = perf_counter()
        rows = traced(tracer, "checks.remainder_table", remainder_table, *remainder_args)
        remainder_s = perf_counter() - start

        first, last = sizes.decades
        decade_args = (rng.choice("abu"), rng.choice(self.ORDERS), first, last)
        start = perf_counter()
        means = traced(tracer, "checks.decade_remainder_means", decade_remainder_means, *decade_args)
        decade_s = perf_counter() - start

        failed = sum(got != self.ctx.exact(seq, n) for (seq, n), got in zip(lookups, found))
        errors = [reference.relative_error(got, want) for got, want in zip(results, self.sweep_exact)]
        failed += sum(not err <= SERIES_REL_TOL for err in errors)
        failed += not self._remainder_ok(rows, *remainder_args)
        failed += not self._decade_ok(means, *decade_args)
        reach = sum(n for _, n in lookups) + points[-1] + 10 ** (last + 1)
        return Pass(
            wall_s=lookup_s + sweep_s + remainder_s + decade_s,
            terms_per_s=reach / (lookup_s + remainder_s + decade_s),
            attempted=len(lookups) + len(results) + 2,
            failed=failed,
            extra={
                "latencies_ms": latencies,
                "series_calls_per_s": len(results) / sweep_s,
                "max_rel_err": max(errors),
                "series_timing": series_timing,
            },
        )

    def _timed_sweep(self):
        """The sweep with each call timed, summed by sequence and by order."""
        by_seq = {seq: [0, 0] for seq in "uba"}
        by_order: dict[int, list[int]] = {}
        results = []
        for seq, evaluate, n, order in self.calls:
            start = perf_counter_ns()
            results.append(evaluate(n, order))
            elapsed = perf_counter_ns() - start
            for totals in (by_seq[seq], by_order.setdefault(order, [0, 0])):
                totals[0] += 1
                totals[1] += elapsed
        return results, {"by_seq": by_seq, "by_order": by_order}

    def _remainder_ok(self, rows, seq: str, order: int, points: list[int]) -> bool:
        if [row.n for row in rows] != points:
            return False
        for row in rows:
            exact = self.ctx.exact(seq, row.n)
            series = self.series_ref.values(row.n)[seq][order - 1]
            if (row.order, row.exact) != (order, exact):
                return False
            if reference.relative_error(row.series, series) > SERIES_REL_TOL:
                return False
            if abs(row.remainder - (exact - row.series)) > SERIES_REL_TOL * max(1, abs(exact)):
                return False
        return True

    def _decade_ok(self, means, seq: str, order: int, first: int, last: int) -> bool:
        recorded = self.ctx.decade_means[reference.decade_key(seq, order, first, last)]
        return [d for d, _ in means] == [d for d, _ in recorded] and all(
            reference.relative_error(got, want) <= DECADE_REL_TOL for (_, got), (_, want) in zip(means, recorded)
        )

    def layer_metrics(self, tracer: Tracer, traced_pass: Pass) -> dict[str, float]:
        timing = traced_pass.extra["series_timing"]
        metrics = {f"series.eval_{seq}_ns": ns / calls for seq, (calls, ns) in timing["by_seq"].items()}
        metrics["series.ns_per_rung"] = _slope(
            {order: ns / calls for order, (calls, ns) in timing["by_order"].items()}
        )
        first, last = self.ctx.sizes.decades
        metrics["stream.value_at_ms"] = tracer.total_ns("stream.value_at") / tracer.calls("stream.value_at") / 1e6
        metrics["checks.remainder_table_ms"] = tracer.total_ns("checks.remainder_table") / 1e6
        metrics["checks.decade_means_ns_per_term"] = (
            tracer.total_ns("checks.decade_remainder_means") / 10 ** (last + 1)
        )
        return metrics


def _slope(points: dict[int, float]) -> float:
    """Least-squares slope of y against x."""
    mean_x = statistics.fmean(points)
    mean_y = statistics.fmean(points.values())
    num = sum((x - mean_x) * (y - mean_y) for x, y in points.items())
    return num / sum((x - mean_x) ** 2 for x in points)


WORKLOADS = {"gen": Gen, "verify": Verify, "asymptotics": Asymptotics}


def peak_rss_mib() -> float:
    """Peak resident memory of the largest process of the run, this one or
    a child.  (A child's figure also counts this process's pages at the
    moment it was spawned, so a sum would count them twice.)"""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024  # ru_maxrss is in KiB on Linux


def run(workload_name: str, seed: int, seconds: float, trace: bool, sizes: Sizes) -> dict:
    ctx = Context(sizes)
    try:
        rng = random.Random(seed)
        workload = WORKLOADS[workload_name](ctx, rng)
        # The host's speed drifts (see "Host speed" above), so the run stays
        # on one CPU and every timing is scaled by the calibration job run
        # next to it; the raw medians are printed too.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        setups, passes, attempted, failed = [], [], 0, 0  # setups: (probe_s, speed)
        start = perf_counter()
        while True:
            setup = ctx.probe(["-c", SETUP_PROBE], from_output=True)
            before = calibration_s()
            setups.append((setup, CALIBRATION_NOMINAL_S / before))
            pass_start = perf_counter()
            try:
                result = workload.one_pass(rng, None)
            except Exception:  # a crashed pass is a failed operation; keep measuring
                traceback.print_exc()
                attempted, failed = attempted + 1, failed + 1
            else:
                result.speed = 2 * CALIBRATION_NOMINAL_S / (before + calibration_s())
                passes.append(result)
                attempted, failed = attempted + result.attempted, failed + result.failed
            now = perf_counter()
            if now + (now - pass_start) > start + seconds:
                break
        if not passes:
            raise RuntimeError("no pass completed")
        while len(setups) < sizes.probes:
            setup = ctx.probe(["-c", SETUP_PROBE], from_output=True)
            setups.append((setup, CALIBRATION_NOMINAL_S / calibration_s()))

        lines = {
            "setup_s": statistics.median(probe_s * speed for probe_s, speed in setups),
            "wall_s": statistics.median(p.wall_s * p.speed for p in passes),
            "terms_per_s": statistics.median(p.terms_per_s / p.speed for p in passes),
            "passes": len(passes),
            "host_speed": statistics.median(p.speed for p in passes),
            "raw_setup_s": statistics.median(probe_s for probe_s, _ in setups),
            "raw_wall_s": statistics.median(p.wall_s for p in passes),
        }
        extras = {key for p in passes for key in p.extra}
        for key in ("readback_terms_per_s", "series_calls_per_s"):
            if key in extras:
                lines[key] = statistics.median(p.extra[key] / p.speed for p in passes)
        if "latencies_ms" in extras:
            latencies = [ms * p.speed for p in passes for ms in p.extra["latencies_ms"]]
            lines.update(lookup_p50_ms=percentile(latencies, 0.5), lookup_p90_ms=percentile(latencies, 0.9),
                         lookups=len(latencies))

        if trace:
            tracer = Tracer()
            before = calibration_s()
            with tracer.installed():
                traced_pass = workload.one_pass(rng, tracer)
            traced_pass.speed = 2 * CALIBRATION_NOMINAL_S / (before + calibration_s())
            attempted, failed = attempted + traced_pass.attempted, failed + traced_pass.failed
            layers = dict.fromkeys(PER_LAYER, 0.0)
            layers.update(workload.layer_metrics(tracer, traced_pass))
            next_calls = tracer.calls(STREAM_NEXT)
            layers["stream.next_calls"] = next_calls
            layers["stream.instances"] = tracer.calls(STREAM_INIT)
            layers["stream.ns_per_term"] = tracer.total_ns(STREAM_NEXT) / max(1, next_calls)
            layers["stream.peak_alloc_kib"] = stream_peak_alloc_kib(sizes.mem_terms)
            if "max_rel_err" in traced_pass.extra:
                layers["series.max_rel_err"] = max(p.extra["max_rel_err"] for p in passes + [traced_pass])
            for name, unit in PER_LAYER.items():
                if unit in ("ns", "ms"):
                    layers[name] *= traced_pass.speed
            if workload_name != "asymptotics":
                layers["cli.startup_ms"] = 1e3 * statistics.median(
                    ctx.probe(["-m", "figfig", "coeffs", "--order", "1"], from_output=False)
                    * CALIBRATION_NOMINAL_S / calibration_s()
                    for _ in range(sizes.probes)
                )
            layers["trace.overhead_ratio"] = traced_pass.wall_s * traced_pass.speed / lines["wall_s"]
            metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
            trace_path = ctx.work.parent / f"trace-{workload_name}-{seed}.json"
            with open(trace_path, "w", encoding="utf-8") as sink:
                json.dump(tracer.dump(), sink)
            print(f"spans and totals of the traced pass: {trace_path}", file=sys.stderr)
        else:
            lines["peak_rss_mib"] = peak_rss_mib()
            metrics = {name: {"value": lines[name], "unit": unit} for name, unit in END_TO_END.items()}

        lines["fail_ratio"] = failed / attempted
        for name, value in lines.items():
            unit = END_TO_END.get(name) or EXTRA_UNITS[name]
            print(f"{workload_name} {name} {value:.6g} {unit}")
        for name, metric in metrics.items():
            if name not in lines:
                print(f"{workload_name} {name} {metric['value']:.6g} {metric['unit']}")
        return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for a fast harness check")
    args = parser.parse_args(argv)
    if not (SRC / "figfig" / "__init__.py").is_file():
        print(f"error: no figfig package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), SMOKE if args.smoke else FULL)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
