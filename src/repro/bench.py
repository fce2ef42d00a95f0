"""``repro bench LANE``: one harness for every throughput lane.

Each lane measures one fixed shape — the shape its committed baseline
under ``benchmarks/baseline/`` was recorded at — by one method:

1. **Record once.**  The lane builds its inputs (recorded traces,
   packed blobs, operation lists) before anything is timed, so every
   configuration sees the identical input.
2. **Agree before timing.**  Each configuration runs once untimed and
   the lane asserts they agree (verdict, first-warning position, ...).
   A disagreement raises :class:`Disagreement` before any time is
   recorded: it aborts the bench instead of being averaged away.
3. **Interleaved best-of-N, collector parked.**  Repetitions alternate
   between the configurations so slow machine drift lands on all of
   them, and each timed call starts from a collected heap with the
   collector disabled (``docs/performance.md`` §1).

Every lane emits one versioned report::

    {"schema": 2, "lane": "store",
     "env": {"cpu_count": 2, "python": "3.11.7", "zlib": "1.2.13"},
     "shape": {...}, "threshold": 0.3,
     "figures": {"decode.packed.events_per_sec": 1324890.7, ...},
     "floors": {"decode.speedup": {"min": 1.5}, ...}}

Two gates read it.  :func:`check_floors` enforces the lane's absolute
floors on every run.  :func:`drift` compares every ``*events_per_sec``
figure present in both the report and a baseline, and fails any that
fell more than the lane's ``threshold`` below the baseline; faster is
never a failure.

Run as::

    python -m repro bench LANE [--output FILE] [--check-against FILE]
    python -m repro.bench LANE [--output FILE] [--check-against FILE]
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import sys
import tempfile
import time
import zlib
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

from repro.baselines.atomizer import Atomizer
from repro.baselines.empty import EmptyAnalysis
from repro.baselines.eraser import EraserLockSet
from repro.core.aerodrome import AeroDrome
from repro.core.memo import RegionMemo
from repro.core.optimized import VelodromeOptimized
from repro.events.operations import Operation, OpKind
from repro.events.serialize import dump_jsonl, load_jsonl
from repro.events.trace import Trace
from repro.fuzz.engine import (
    FuzzConfig,
    FuzzEngine,
    iteration_seeds,
    trace_for_seed,
)
from repro.fuzz.grid import default_grid
from repro.fuzz.verdicts import first_warning_position
from repro.pipeline import Pipeline, TraceSource
from repro.runtime.tool import run_velodrome
from repro.workloads import get, paper_workloads

#: Version of the report layout above; a baseline of another version
#: is refused rather than half-compared.
SCHEMA = 2


class Disagreement(RuntimeError):
    """Two configurations of a lane disagreed; nothing was timed."""


@dataclass(frozen=True)
class Lane:
    """One registered measurement: a fixed shape and its gates.

    ``measure(shape)`` returns the lane's figures as a flat
    ``{"dotted.name": number}`` dict.  ``floors`` maps a figure to
    ``{"min": v}`` or ``{"max": v}``; ``threshold`` is the largest
    allowed fractional drop of an ``*events_per_sec`` figure below the
    baseline.
    """

    summary: str
    shape: dict
    measure: Callable[[dict], dict]
    threshold: float = 0.30
    floors: dict = field(default_factory=dict)


#: The lane registry, in ``--help`` order.
LANES: dict[str, Lane] = {}


def lane(name: str, summary: str, shape: dict, threshold: float = 0.30,
         floors: Optional[dict] = None):
    """Register the decorated ``measure(shape) -> figures`` as a lane."""
    def register(measure):
        LANES[name] = Lane(summary, shape, measure, threshold, floors or {})
        return measure
    return register


# ------------------------------------------------------------- the method
def best_of(repeats: int, thunks: Sequence[Callable[[], object]]) -> list:
    """Best wall time per thunk: repetitions interleaved, GC parked.

    Lanes compare configurations that differ by less than one
    badly-timed generational collection, so each call starts from a
    collected heap and runs with the collector disabled.  The thunks
    alternate within each repetition, so slow drift (thermal,
    frequency scaling, a neighbour's load) lands on all of them
    instead of biasing whichever was timed last.
    """
    best = [float("inf")] * len(thunks)
    for _ in range(repeats):
        for index, thunk in enumerate(thunks):
            gc.collect()
            gc.disable()
            try:
                started = time.perf_counter()
                thunk()
                elapsed = time.perf_counter() - started
            finally:
                gc.enable()
            best[index] = min(best[index], elapsed)
    return best


def race(label: str, runs: dict, repeats: int,
         outcome: Optional[Callable[[object], object]] = None):
    """Agree first, then time: ``({name: result}, {name: seconds})``.

    Each configuration in ``runs`` is called once untimed; when
    ``outcome`` is given, the outcomes of those results must all be
    equal or :class:`Disagreement` is raised before any time is
    recorded.  The results feed the lane's non-timing figures.
    """
    results = {name: run() for name, run in runs.items()}
    if outcome is not None:
        outcomes = {name: outcome(result) for name, result in results.items()}
        first = next(iter(outcomes.values()))
        if any(value != first for value in outcomes.values()):
            seen = ", ".join(f"{name} {value}"
                             for name, value in outcomes.items())
            raise Disagreement(f"{label}: configurations disagree: {seen}")
    seconds = best_of(repeats, list(runs.values()))
    return results, dict(zip(runs, seconds))


def timing(prefix: str, events: int, seconds: float) -> dict:
    """The ``best_seconds`` / ``events_per_sec`` figure pair."""
    return {
        f"{prefix}.best_seconds": round(seconds, 6),
        f"{prefix}.events_per_sec": round(events / seconds, 1),
    }


def verdict(backend) -> tuple:
    """``(error_detected, first-warning position or None)``."""
    return backend.error_detected, first_warning_position(backend)


def pack(ops) -> bytes:
    """``ops`` as an in-memory packed (VTRC) recording."""
    from repro.store.writer import PackedTraceWriter

    sink = io.BytesIO()
    with PackedTraceWriter(sink) as writer:
        writer.write_all(ops)
    return sink.getvalue()


# --------------------------------------------------------------- the lanes
@lane(
    "parallel",
    "pipeline stage and fuzz events/sec, serial vs --jobs",
    shape={"seed": 7, "copies": 10, "repeats": 3, "budget": 8, "jobs": 2},
)
def measure_parallel(shape: dict) -> dict:
    base = trace_for_seed(shape["seed"])
    trace = Trace(list(base) * shape["copies"])

    def analyze():
        Pipeline([
            EmptyAnalysis(),
            EraserLockSet(),
            Atomizer(),
            VelodromeOptimized(first_warning_per_label=True),
        ]).run(TraceSource(trace))

    def fuzz(jobs: int):
        return lambda: FuzzEngine(FuzzConfig(
            budget=shape["budget"], seed=0, configs=default_grid(), jobs=jobs,
        )).run()

    def clean_events(report) -> int:
        # A clean run means every grid configuration agreed with the
        # serialization-graph oracle on every generated trace.
        if not report.clean:
            raise Disagreement(f"bench fuzz run not clean: "
                               f"{report.summary()}")
        return report.events

    # The two stages are independent measurements, not configurations
    # of one comparison, so each gets its own loop.
    generated, = best_of(shape["repeats"],
                         [lambda: trace_for_seed(shape["seed"])])
    analyzed, = best_of(shape["repeats"], [analyze])
    results, seconds = race(
        "fuzz", {"serial": fuzz(1), "parallel": fuzz(shape["jobs"])},
        shape["repeats"], outcome=clean_events,
    )
    events = results["serial"].events
    return {
        "stages.generate.events": len(base),
        **timing("stages.generate", len(base), generated),
        "stages.analyze.events": len(trace),
        **timing("stages.analyze", len(trace), analyzed),
        "fuzz.events": events,
        **timing("fuzz.serial", events, seconds["serial"]),
        **timing("fuzz.parallel", events, seconds["parallel"]),
        "fuzz.jobs_ratio": round(seconds["serial"] / seconds["parallel"], 3),
    }


@lane(
    "store",
    "packed vs JSONL size, encode/decode events/sec, seek",
    shape={"seed": 7, "copies": 40, "repeats": 7},
    floors={"size.ratio": {"min": 3.0}, "decode.speedup": {"min": 1.5}},
)
def measure_store(shape: dict) -> dict:
    from repro.store.reader import PackedTraceReader

    ops = list(trace_for_seed(shape["seed"])) * shape["copies"]
    events = len(ops)
    buffer = io.StringIO()
    dump_jsonl(ops, buffer)
    text = buffer.getvalue()
    jsonl_bytes = len(text.encode("utf-8"))
    blob = pack(ops)
    mid = events // 2

    def decode_packed():
        with PackedTraceReader(io.BytesIO(blob)) as reader:
            return reader.read()

    # Seek to the midpoint: only the containing block onward is read.
    with PackedTraceReader(io.BytesIO(blob)) as reader:
        block = reader.block_for_seq(mid)
        touched = len(reader.blocks) - block.number

        def seek_tail():
            for _op in reader.seek(mid):
                pass

        _, seconds = race("store", {
            "encode.jsonl": lambda: dump_jsonl(ops, io.StringIO()),
            "encode.packed": lambda: pack(ops),
            "decode.jsonl": lambda: load_jsonl(io.StringIO(text)),
            "decode.packed": decode_packed,
            "seek": seek_tail,
        }, shape["repeats"])

    figures = {
        "events": events,
        "size.jsonl_bytes": jsonl_bytes,
        "size.packed_bytes": len(blob),
        "size.ratio": round(jsonl_bytes / len(blob), 2),
        "decode.speedup": round(
            seconds["decode.jsonl"] / seconds["decode.packed"], 2),
        "seek.position": mid,
        "seek.blocks_touched": touched,
        "seek.blocks_total_fraction": round(
            touched / max(1, touched + block.number), 3),
    }
    for name, elapsed in seconds.items():
        # The seek reads only the tail from the midpoint onward.
        figures.update(timing(name, events - mid if name == "seek"
                              else events, elapsed))
    return figures


def sparse_ops(turns: int) -> list:
    """Thread-local stretches aligned to whole blocks (512 ops).

    Each thread works its own variables and lock for exactly two
    blocks before yielding, so nearly every block is single-tid and
    lock-release-only — the foldable shape the summaries certify.
    """
    ops = []
    for turn in range(turns):
        tid = turn % 4
        for i in range(1024):
            phase = i % 128
            if phase == 126:
                ops.append(Operation(OpKind.ACQUIRE, tid, f"m{tid}"))
            elif phase == 127:
                ops.append(Operation(OpKind.RELEASE, tid, f"m{tid}"))
            elif i % 4 == 3:
                ops.append(Operation(OpKind.WRITE, tid, f"x{tid}_{i % 8}"))
            else:
                ops.append(Operation(OpKind.READ, tid, f"x{tid}_{i % 8}"))
    return ops


def dense_ops(turns: int) -> list:
    """Per-op thread interleave: no block is ever single-tid."""
    ops = []
    for i in range(turns * 1024):
        kind = OpKind.WRITE if i % 4 == 3 else OpKind.READ
        ops.append(Operation(kind, i % 4, f"s{i % 8}"))
    return ops


@lane(
    "analyze",
    "block fast-forward on vs off, sparse and dense traces",
    shape={"turns": 24, "repeats": 5},
    floors={
        "sparse.speedup": {"min": 2.0},
        "sparse.blocks_fast_forwarded": {"min": 1},
        "dense.speedup": {"min": 0.95},
    },
)
def measure_analyze(shape: dict) -> dict:
    from repro.pipeline.source import PackedTraceSource

    figures = {}
    for name, make_ops in (("sparse", sparse_ops), ("dense", dense_ops)):
        ops = make_ops(shape["turns"])
        blob = pack(ops)

        def check(fast_forward: bool):
            def run():
                pipeline = Pipeline([VelodromeOptimized()])
                source = PackedTraceSource(io.BytesIO(blob))
                if fast_forward:
                    source.run_blocks(pipeline.process_block)
                else:
                    source.run(pipeline.process)
                pipeline.finish()
                return pipeline.metrics()
            return run

        results, seconds = race(
            name, {"ff_on": check(True), "ff_off": check(False)},
            shape["repeats"],
        )
        metrics = results["ff_on"]
        figures.update({
            f"{name}.events": len(ops),
            f"{name}.blocks": metrics.blocks_in,
            f"{name}.blocks_fast_forwarded": metrics.blocks_fast_forwarded,
            **timing(f"{name}.ff_on", len(ops), seconds["ff_on"]),
            **timing(f"{name}.ff_off", len(ops), seconds["ff_off"]),
            f"{name}.speedup": round(seconds["ff_off"] / seconds["ff_on"], 2),
        })
    return figures


@lane(
    "backends",
    "velodrome vs aerodrome on the paper workloads",
    shape={"scale": 1.0, "repeats": 5, "seed": 0},
    threshold=0.50,
    floors={"total.speedup": {"min": 1.0}},
)
def measure_backends(shape: dict) -> dict:
    factories = {
        "velodrome": lambda: VelodromeOptimized(first_warning_per_label=True),
        "aerodrome": AeroDrome,
    }
    figures: dict = {}
    totals = dict.fromkeys(factories, 0.0)
    all_events = 0
    for workload in paper_workloads():
        trace = run_velodrome(
            workload.program(shape["scale"]), seed=shape["seed"],
            record_trace=True,
        ).trace
        events = len(trace)
        all_events += events

        def analyze(factory):
            def run():
                backend = factory()
                backend.process_trace(trace)
                return backend
            return run

        results, seconds = race(
            workload.name,
            {name: analyze(factory) for name, factory in factories.items()},
            shape["repeats"], outcome=verdict,
        )
        error, position = verdict(results["velodrome"])
        name = workload.name
        figures[f"{name}.events"] = events
        figures[f"{name}.error_detected"] = error
        if position is not None:
            figures[f"{name}.first_warning"] = position
        for backend, elapsed in seconds.items():
            figures.update(timing(f"{name}.{backend}", events, elapsed))
            totals[backend] += round(elapsed, 6)
        figures[f"{name}.speedup"] = round(
            figures[f"{name}.aerodrome.events_per_sec"]
            / figures[f"{name}.velodrome.events_per_sec"], 3)
    figures["total.events"] = all_events
    for backend, elapsed in totals.items():
        figures.update(timing(f"total.{backend}", all_events, elapsed))
    figures["total.speedup"] = round(
        figures["total.aerodrome.events_per_sec"]
        / figures["total.velodrome.events_per_sec"], 3)
    return figures


@lane(
    "memo",
    "region memo on vs off, high and low repetition",
    shape={"scale": 20.0, "repeats": 7, "low_rep_seeds": 100, "seed": 0},
    floors={
        "high_repetition.speedup": {"min": 2.0},
        "low_repetition.overhead": {"max": 0.10},
    },
)
def measure_memo(shape: dict) -> dict:
    # One half at a time, so the second is timed without the first's
    # trace and backends still on the heap.
    high = memo_figures("high_repetition", list(run_velodrome(
        get("request_loop").program(shape["scale"]), seed=shape["seed"],
        record_trace=True,
    ).trace), shape["repeats"])
    low: list = []
    for seed in iteration_seeds(shape["seed"], shape["low_rep_seeds"]):
        low.extend(trace_for_seed(seed))
    return {**high, **memo_figures("low_repetition", low, shape["repeats"])}


def memo_figures(name: str, ops: list, repeats: int) -> dict:
    """Memo off vs on over ``ops``: one half of the ``memo`` lane."""
    def check(memoize: bool):
        def run():
            backend = VelodromeOptimized(first_warning_per_label=True)
            memo = RegionMemo() if memoize else None
            Pipeline([backend], memo=memo).run(TraceSource(ops))
            return backend, memo
        return run

    results, seconds = race(
        name, {"off": check(False), "on": check(True)}, repeats,
        outcome=lambda result: (*verdict(result[0]),
                                result[0].events_processed),
    )
    backend, memo = results["on"]
    off, on = seconds["off"], seconds["on"]
    figures = {
        f"{name}.events": len(ops),
        f"{name}.error_detected": backend.error_detected,
        **timing(f"{name}.off", len(ops), off),
        **timing(f"{name}.on", len(ops), on),
        f"{name}.speedup": round(off / on, 3),
        f"{name}.overhead": round(on / off - 1.0, 4),
    }
    for counter, value in memo.stats().items():
        figures[f"{name}.memo.{counter}"] = value
    return figures


@lane(
    "workloads",
    "server families vs declared ground truth, serial vs --jobs",
    shape={"points": ["smoke"], "repeats": 2, "seed": 0, "jobs": 2},
    threshold=0.60,
)
def measure_workloads(shape: dict) -> dict:
    from repro.experiments.runner import (
        GroundTruthMismatch,
        check_matrix,
        record_matrix,
    )
    from repro.experiments.spec import LabSpec

    spec = LabSpec(points=tuple(shape["points"]),
                   repeats=shape["repeats"], seed=shape["seed"])
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as scratch:
        recorded = record_matrix(spec, scratch)

        def matrix(jobs: int):
            return lambda: check_matrix(replace(spec, jobs=jobs), recorded)

        try:
            results, seconds = race(
                "workloads",
                {"serial": matrix(1), "jobs2": matrix(shape["jobs"])},
                shape["repeats"],
                outcome=lambda cells: [(cell.workload, cell.point,
                                        cell.backend, cell.verdict,
                                        cell.labels) for cell in cells],
            )
        except GroundTruthMismatch as exc:
            raise Disagreement(str(exc)) from exc

    figures: dict = {}
    for cell in results["serial"]:
        key = f"{cell.workload}@{cell.point}"
        figures[f"{key}.events"] = cell.events
        figures[f"{key}.error_detected"] = cell.verdict == "violating"
        figures.update(timing(f"{key}.{cell.backend}", cell.events,
                              cell.best_seconds))
        if cell.peak_nodes is not None:
            figures[f"{key}.{cell.backend}.peak_nodes"] = cell.peak_nodes
    figures.update({
        "matrix.cells": len(results["serial"]),
        "matrix.serial_seconds": round(seconds["serial"], 6),
        "matrix.jobs2_seconds": round(seconds["jobs2"], 6),
        "matrix.jobs_ratio": round(seconds["serial"] / seconds["jobs2"], 3),
    })
    return figures


# ----------------------------------------------------- report and gates
def run_lane(name: str) -> dict:
    """Measure lane ``name`` at its registered shape: one report."""
    registered = LANES[name]
    return {
        "schema": SCHEMA,
        "lane": name,
        "env": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "zlib": zlib.ZLIB_VERSION,
        },
        "shape": dict(registered.shape),
        "threshold": registered.threshold,
        "figures": registered.measure(registered.shape),
        "floors": registered.floors,
    }


def check_floors(report: dict) -> list[str]:
    """Violations of the lane's absolute floors (empty = pass).

    The floors come from the lane registry, not from the report, so
    a report cannot waive them; a floored figure that is missing from
    the report is a violation.
    """
    figures = report["figures"]
    problems = []
    for figure, bound in LANES[report["lane"]].floors.items():
        value = figures.get(figure)
        if value is None:
            problems.append(f"{figure}: missing from the report")
        elif "min" in bound and value < bound["min"]:
            problems.append(f"{figure}: {value} is below the floor "
                            f"{bound['min']}")
        elif "max" in bound and value > bound["max"]:
            problems.append(f"{figure}: {value} is above the ceiling "
                            f"{bound['max']}")
    return problems


def drift(report: dict, baseline: dict) -> list[str]:
    """Events/sec regressions beyond the lane's threshold vs ``baseline``.

    Every ``*events_per_sec`` figure present in both reports is
    compared; a figure only one side has is skipped (lanes may gain or
    drop figures), and faster than the baseline is never a failure.
    """
    name = report["lane"]
    if baseline.get("schema") != SCHEMA or baseline.get("lane") != name:
        return [f"baseline is schema {baseline.get('schema')} lane "
                f"{baseline.get('lane')!r}; expected schema {SCHEMA} "
                f"lane {name!r}"]
    threshold = LANES[name].threshold
    old_figures = baseline["figures"]
    problems = []
    for figure, new in sorted(report["figures"].items()):
        old = old_figures.get(figure)
        if not figure.endswith("events_per_sec") or old is None:
            continue
        if new < old * (1.0 - threshold):
            problems.append(
                f"{figure}: {new:,.0f} ev/s is {1 - new / old:.0%} below "
                f"baseline {old:,.0f} ev/s (allowed: {threshold:.0%})"
            )
    return problems


def render(report: dict) -> str:
    env, shape = report["env"], report["shape"]
    lines = [
        f"repro bench {report['lane']} (schema {report['schema']})",
        "  env: " + ", ".join(f"{key} {value}" for key, value in env.items()),
        "  shape: " + ", ".join(f"{key} {value}"
                                for key, value in shape.items()),
    ]
    for figure, value in sorted(report["figures"].items()):
        if isinstance(value, float):
            shown = f"{value:,.1f}" if abs(value) >= 1000 else f"{value:.6g}"
        else:
            shown = str(value)
        lines.append(f"  {figure:<44} {shown:>14}")
    jobs = shape.get("jobs")
    if jobs is not None and (env["cpu_count"] or 0) < jobs:
        lines.append(f"  jobs_ratio is not a speedup: cpu_count "
                     f"{env['cpu_count']} < jobs {jobs}")
    return "\n".join(lines)


def lane_help() -> str:
    """One line per registered lane, for ``--help`` texts."""
    return "\n".join(f"  {name:<10} {registered.summary}"
                     for name, registered in LANES.items())


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Measure one bench lane at its baseline's shape,\n"
                    "gate its floors, and with --check-against gate\n"
                    "its events/sec drift from a committed baseline.",
        epilog="lanes:\n" + lane_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("lane", choices=list(LANES))
    parser.add_argument("--output", metavar="FILE", default=None,
                        help="where to write the JSON report "
                             "(default BENCH_<lane>.json)")
    parser.add_argument("--check-against", metavar="FILE", default=None,
                        help="committed baseline to gate drift against")
    args = parser.parse_args(argv)

    try:
        report = run_lane(args.lane)
    except Disagreement as exc:
        print(f"bench {args.lane}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    output = args.output or f"BENCH_{args.lane}.json"
    with open(output, "w", encoding="utf-8") as stream:
        json.dump(report, stream, indent=2, sort_keys=True)
        stream.write("\n")
    print(render(report))
    print(f"wrote {output}")

    problems = check_floors(report)
    if args.check_against:
        with open(args.check_against, encoding="utf-8") as stream:
            problems += drift(report, json.load(stream))
    if problems:
        print("BENCH GATE FAILED:", file=sys.stderr)
        for line in problems:
            print(f"  {line}", file=sys.stderr)
        raise SystemExit(1)
    checked = (f"; drift within {report['threshold']:.0%} of "
               f"{args.check_against}" if args.check_against else "")
    print(f"gates met: {len(report['floors'])} floor(s){checked}")


if __name__ == "__main__":
    main()
