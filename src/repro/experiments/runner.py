"""Execute a :class:`~repro.experiments.spec.LabSpec` matrix.

The run splits into two halves the same way the repo's benches do:

1. **Record once** (:func:`record_matrix`).  Each selected (workload,
   point) is executed once at the spec's scheduler seed with no
   backends attached, and the trace is saved as a packed VTRC file.
   Scheduling is backend-independent, so every matrix cell for that
   pair replays the *identical* event stream — backends are compared
   on the same input, and the trace's content digest identifies the
   cell family anywhere the trace later shows up (see
   :mod:`repro.experiments.digests`).

2. **Check many** (:func:`check_matrix`).  Every (workload, point,
   backend) cell replays the recorded trace through a fresh backend
   via the block pipeline
   (:class:`~repro.pipeline.source.PackedTraceSource`), best-of-N
   timed, optionally fanned out across processes with
   :func:`~repro.parallel.executor.run_shards`.

Before any number is reported, each cell's observed verdict (and, for
graph backends, the warned label set) is asserted against the
workload's declared ground truth; a mismatch raises
:class:`GroundTruthMismatch` naming every failing cell.
"""

from __future__ import annotations

import time
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Optional

from repro.core.aerodrome import AeroDrome
from repro.core.backend import AnalysisBackend
from repro.core.basic import VelodromeBasic
from repro.core.compact import VelodromeCompact
from repro.core.optimized import VelodromeOptimized
from repro.experiments.spec import GRAPH_BACKENDS, LabSpec
from repro.fuzz.corpus import trace_digest
from repro.parallel.executor import run_shards
from repro.parallel.tasks import LabCellResult, LabCellTask, run_lab_cell
from repro.runtime.scheduler import RandomScheduler
from repro.runtime.tool import run_with_backends
from repro.store import save_packed
from repro.workloads.server import SERVER_FAMILIES, ServerFamily

#: Sound-and-complete checker factories the lab may instantiate.  The
#: graph backends cap warning volume at one per label — the gate
#: compares label *sets*, and large matrices would otherwise drown in
#: repeated warnings for the same seeded defect.
BACKEND_FACTORIES: dict[str, Callable[[], AnalysisBackend]] = {
    "velodrome": lambda: VelodromeOptimized(first_warning_per_label=True),
    "basic": VelodromeBasic,  # takes no warning-cap option
    "compact": lambda: VelodromeCompact(first_warning_per_label=True),
    "aerodrome": AeroDrome,
}


class GroundTruthMismatch(RuntimeError):
    """At least one matrix cell contradicted its declared ground truth."""

    def __init__(self, failures: list[str]):
        self.failures = failures
        lines = "\n  ".join(failures)
        super().__init__(
            f"{len(failures)} matrix cell(s) contradict declared "
            f"ground truth:\n  {lines}"
        )


def trace_filename(workload: str, point: str) -> str:
    return f"{workload}@{point}.vtrc"


def record_trace(
    family: ServerFamily, point_name: str, seed: int, trace_dir: Path
) -> dict:
    """Record one (workload, point) trace; returns its manifest entry."""
    trace_dir = Path(trace_dir)
    trace_dir.mkdir(parents=True, exist_ok=True)
    point = family.point(point_name)
    program = family.workload.build(point.scale)
    run = run_with_backends(
        program,
        [],
        scheduler=RandomScheduler(seed=seed),
        record_trace=True,
    )
    trace = run.trace
    assert trace is not None
    path = trace_dir / trace_filename(family.name, point_name)
    save_packed(trace, path)
    return {
        "workload": family.name,
        "point": point_name,
        "scale": point.scale,
        "events": len(trace),
        "digest": trace_digest(trace),
        "trace": str(path),
    }


def check_cell(
    family: ServerFamily, point: str, backend: str, result: LabCellResult
) -> Optional[str]:
    """The gate: one cell against its declaration; ``None`` when clean."""
    truth = family.truth_at(point)
    cell = f"{family.name}@{point}×{backend}"
    if result.verdict != truth.verdict:
        return (
            f"{cell}: observed {result.verdict}, "
            f"declared {truth.verdict}"
        )
    if backend in GRAPH_BACKENDS and set(result.labels) != set(truth.blamed):
        return (
            f"{cell}: blamed {sorted(result.labels)}, "
            f"declared {sorted(truth.blamed)}"
        )
    return None


def record_matrix(spec: LabSpec, trace_dir: Path) -> dict[str, dict]:
    """Record every selected (workload, point) once, keyed ``w@p``."""
    trace_dir = Path(trace_dir)
    trace_dir.mkdir(parents=True, exist_ok=True)
    recorded: dict[str, dict] = {}
    for workload in spec.selected_workloads:
        family = SERVER_FAMILIES[workload]
        for point in spec.points:
            entry = record_trace(family, point, spec.seed, trace_dir)
            recorded[f"{workload}@{point}"] = entry
    return recorded


def check_matrix(
    spec: LabSpec, recorded: dict[str, dict]
) -> list[LabCellResult]:
    """Replay every cell of ``spec`` over ``recorded`` and gate it.

    Returns the :class:`LabCellResult` of every cell in matrix order.
    Raises :class:`GroundTruthMismatch` (after completing every cell)
    if any cell failed or its verdict or blame contradicts the
    declaration.
    """
    tasks = []
    for workload, point, backend in spec.cells():
        entry = recorded[f"{workload}@{point}"]
        tasks.append(LabCellTask(
            workload=workload,
            point=point,
            backend=backend,
            trace_path=entry["trace"],
            repeats=spec.repeats,
            memoize=spec.memoize,
        ))
    shards = run_shards(run_lab_cell, tasks, jobs=spec.jobs)

    failures: list[str] = []
    results: list[LabCellResult] = []
    for shard in shards:
        if not shard.ok:
            task = tasks[shard.index]
            failures.append(
                f"{task.workload}@{task.point}×{task.backend}: "
                f"cell failed: {shard.error}"
            )
            continue
        result: LabCellResult = shard.value
        family = SERVER_FAMILIES[result.workload]
        problem = check_cell(family, result.point, result.backend, result)
        if problem is not None:
            failures.append(problem)
        results.append(result)
    if failures:
        raise GroundTruthMismatch(failures)
    return results


def run_lab(spec: LabSpec, trace_dir: Path) -> dict:
    """Record, execute, and gate the full matrix; returns the results doc.

    Raises :class:`GroundTruthMismatch` (after completing every cell)
    if any cell's verdict or blame contradicts the declaration.
    """
    spec.validate()
    started = time.perf_counter()
    recorded = record_matrix(spec, trace_dir)
    cells = check_matrix(spec, recorded)
    return {
        "spec": spec.to_json(),
        "recorded": recorded,
        "cells": [asdict(result) for result in cells],
        "elapsed_seconds": time.perf_counter() - started,
    }


def make_backend(name: str) -> AnalysisBackend:
    try:
        return BACKEND_FACTORIES[name]()
    except KeyError:
        known = ", ".join(BACKEND_FACTORIES)
        raise KeyError(
            f"unknown lab backend {name!r}; known: {known}"
        ) from None
