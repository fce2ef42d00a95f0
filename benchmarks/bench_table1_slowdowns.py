"""Experiment E1 — Table 1 timing columns (analysis slowdowns).

One benchmark per (workload, backend) pair: execute the workload with
that backend attached, under the paper's configuration (known
non-atomic methods excluded from checking).  The uninstrumented
interpreter run is benchmarked too, as the slowdown baseline.

The expected *shape* (paper Table 1): Empty <= Eraser <= Atomizer, with
Velodrome competitive with the Atomizer despite being sound and
complete.  Absolute numbers are substrate-specific.

Regenerate the full printed table with ``python -m repro.harness.table1``.
"""

from __future__ import annotations

import pytest

from repro.baselines import Atomizer, EmptyAnalysis, EraserLockSet
from repro.core import VelodromeOptimized
from repro.pipeline import BlockFilter
from repro.runtime.scheduler import RandomScheduler
from repro.runtime.tool import run_uninstrumented, run_with_backends
from repro.workloads import names, get

from benchmarks.conftest import BENCH_SCALE, BENCH_SEED

BACKENDS = {
    "empty": EmptyAnalysis,
    "eraser": EraserLockSet,
    "atomizer": Atomizer,
    "velodrome": lambda: VelodromeOptimized(first_warning_per_label=True),
}

# A representative cross-section keeps the full sweep affordable; the
# CLI harness covers all fifteen.
TIMED_WORKLOADS = ["elevator", "tsp", "jbb", "mtrt", "multiset", "webl"]


@pytest.mark.parametrize("workload_name", TIMED_WORKLOADS)
def test_base_uninstrumented(benchmark, workload_name):
    workload = get(workload_name)

    def run():
        return run_uninstrumented(
            workload.program(BENCH_SCALE), scheduler=RandomScheduler(BENCH_SEED)
        )

    result, _elapsed = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.events > 0


@pytest.mark.parametrize("backend_name", list(BACKENDS))
@pytest.mark.parametrize("workload_name", TIMED_WORKLOADS)
def test_backend_slowdown(benchmark, workload_name, backend_name):
    workload = get(workload_name)
    factory = BACKENDS[backend_name]

    def run():
        program = workload.program(BENCH_SCALE)
        return run_with_backends(
            program,
            [factory()],
            scheduler=RandomScheduler(BENCH_SEED),
            filters=[BlockFilter(program.non_atomic_methods)],
        )

    tool_run = benchmark.pedantic(run, rounds=3, iterations=1)
    assert tool_run.run.events > 0


def test_slowdown_ordering_shape():
    """Mean slowdowns must reproduce the paper's ordering."""
    from repro.harness.table1 import run_table1

    result = run_table1([get(n) for n in TIMED_WORKLOADS],
                        scale=BENCH_SCALE, seed=BENCH_SEED, repeats=2)
    empty = result.mean_slowdown("empty")
    eraser = result.mean_slowdown("eraser")
    atomizer = result.mean_slowdown("atomizer")
    velodrome = result.mean_slowdown("velodrome")
    assert empty <= eraser * 1.15  # allow timing noise
    assert eraser <= atomizer * 1.15
    # Velodrome is "competitive": within 2x of the Atomizer.
    assert velodrome <= atomizer * 2.0
    print(f"\nmean slowdowns: empty={empty:.2f} eraser={eraser:.2f} "
          f"atomizer={atomizer:.2f} velodrome={velodrome:.2f}")
