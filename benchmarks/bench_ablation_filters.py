"""Ablation A5 — thread-local event filtering (paper Section 5).

RoadRunner is "typically configured to also filter out operations on
thread-local data, which dramatically improves the performance of the
analyses, although this optimization is slightly unsound".  This
ablation measures the event-volume reduction and runtime effect of
:class:`ThreadLocalFilter` on churn-heavy workloads, and checks that
the genuinely non-atomic methods — whose variables are shared by
construction — keep their warnings.
"""

from __future__ import annotations

import pytest

from repro.core import VelodromeOptimized
from repro.pipeline import Pipeline, ThreadLocalFilter
from repro.runtime.interpreter import Interpreter
from repro.runtime.scheduler import RandomScheduler
from repro.workloads import get

from benchmarks.conftest import BENCH_SCALE, BENCH_SEED


def run(workload_name, thread_local_filter):
    program = get(workload_name).program(BENCH_SCALE)
    backend = VelodromeOptimized(first_warning_per_label=True)
    stages = [ThreadLocalFilter()] if thread_local_filter else []
    pipeline = Pipeline([backend], stages=stages)
    interpreter = Interpreter(
        program, scheduler=RandomScheduler(BENCH_SEED), sink=pipeline.process
    )
    interpreter.run()
    return program, backend, pipeline


@pytest.mark.parametrize("filtered", [False, True],
                         ids=["unfiltered", "thread-local-filtered"])
@pytest.mark.parametrize("workload_name", ["tsp", "multiset", "jigsaw"])
def test_filter_runtime(benchmark, workload_name, filtered):
    _program, backend, _pipeline = benchmark.pedantic(
        lambda: run(workload_name, filtered), rounds=3, iterations=1
    )
    assert backend.events_processed > 0


@pytest.mark.parametrize("workload_name", ["tsp", "multiset"])
def test_event_volume_reduction(workload_name):
    _p, _b, unfiltered = run(workload_name, thread_local_filter=False)
    _p, _b, filtered = run(workload_name, thread_local_filter=True)
    reduction = 1 - filtered.events_out / unfiltered.events_out
    print(f"\n{workload_name}: thread-local filter drops "
          f"{reduction:.0%} of events "
          f"({unfiltered.events_out} -> {filtered.events_out})")
    # Churn-heavy workloads: the filter removes a large share.
    assert reduction > 0.4


@pytest.mark.parametrize("workload_name", ["tsp", "multiset", "colt"])
def test_shared_defects_survive_filtering(workload_name):
    program, backend, _ = run(workload_name, thread_local_filter=True)
    warned = backend.warned_labels()
    # Slightly unsound in general, but warnings that do fire are still
    # genuine, and the planted (shared) defects remain detectable.
    assert warned <= program.non_atomic_methods
