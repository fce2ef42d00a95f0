"""Experiment E2 — Table 1 node-count columns (GC and merge impact).

Benchmarks the optimized analysis with the Figure 4 merge rules off
(the naive [INS OUTSIDE] allocation) and on, over every workload, and
asserts the paper's two headline observations:

1. GC is extremely effective — max-alive stays at a few dozen nodes
   even when hundreds of thousands are allocated;
2. merging cuts allocations by orders of magnitude on unary-dominated
   workloads (tsp, multiset) and barely at all on transaction-dominated
   ones (mtrt, raja).

Regenerate the printed table with ``python -m repro.harness.table1``.
"""

from __future__ import annotations

import pytest

from repro.core import VelodromeOptimized
from repro.pipeline import BlockFilter
from repro.runtime.scheduler import RandomScheduler
from repro.runtime.tool import run_with_backends
from repro.workloads import get, names

from benchmarks.conftest import BENCH_SCALE, BENCH_SEED


def node_stats(workload_name, merge_unary, scale=BENCH_SCALE):
    workload = get(workload_name)
    program = workload.program(scale)
    run = run_with_backends(
        program,
        [VelodromeOptimized(merge_unary=merge_unary,
                            first_warning_per_label=True)],
        scheduler=RandomScheduler(BENCH_SEED),
        filters=[BlockFilter(program.non_atomic_methods)],
    )
    return run.graph_stats()


@pytest.mark.parametrize("merge", [False, True], ids=["without-merge", "with-merge"])
@pytest.mark.parametrize("workload_name", ["tsp", "mtrt", "multiset", "webl"])
def test_node_allocation(benchmark, workload_name, merge):
    stats = benchmark.pedantic(
        lambda: node_stats(workload_name, merge), rounds=3, iterations=1
    )
    assert stats.allocated >= 0


@pytest.mark.parametrize("workload_name", names())
def test_gc_keeps_live_nodes_small(workload_name):
    stats = node_stats(workload_name, merge_unary=True)
    # Paper: "typically at most a few dozen live nodes at any time".
    assert stats.max_alive <= 128, (workload_name, stats.max_alive)


def test_merge_ratio_shapes():
    """The per-benchmark Without/With-Merge contrast of Table 1."""
    ratios = {}
    for name in ("tsp", "multiset", "mtrt", "raja", "webl"):
        without = node_stats(name, merge_unary=False).allocated
        with_merge = node_stats(name, merge_unary=True).allocated
        ratios[name] = without / max(1, with_merge)
    print(f"\nallocation ratios without/with merge: "
          + ", ".join(f"{k}={v:.1f}x" for k, v in ratios.items()))
    # Unary-dominated workloads: orders of magnitude.
    assert ratios["tsp"] > 50
    assert ratios["multiset"] > 50
    # Transaction-dominated workloads: merge cannot help much.
    assert ratios["mtrt"] < 2
    assert ratios["raja"] < 2
    # webl sits in between (paper: 470k -> 395k).
    assert 1.0 <= ratios["webl"] < 5
