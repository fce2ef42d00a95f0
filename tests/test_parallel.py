"""Tests for the shard-and-merge execution engine (repro.parallel).

Covers the executor contract (submission-order merge, in-task failure
containment, dead-worker containment, timeout containment), the
byte-identical-output property of every ``--jobs`` entry point (fuzz
across the full 22-config ablation grid, Table 2, corpus replay), the
per-shard seed discipline, and the ``parallel`` bench lane's drift
gate against its committed baseline.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.bench import drift
from repro.fuzz.engine import (
    FuzzConfig,
    FuzzEngine,
    iteration_seed,
    iteration_seeds,
)
from repro.fuzz.grid import ablation_grid, default_grid, grid_by_names, grid_names
from repro.parallel import ShardError, ShardResult, run_shards
from repro.parallel.executor import require_all

JOBS = 4


# ---------------------------------------------------------------------------
# Worker functions must live at module level to be picklable.

def _square(task):
    return task * task


def _fail_on_three(task):
    if task == 3:
        raise ValueError("three is right out")
    return task * 10


def _exit_on_two(task):
    if task == 2:
        os._exit(17)  # simulates a worker process dying mid-task
    return task


def _sleep_forever(task):
    if task == 1:
        time.sleep(300)
    return task


# ---------------------------------------------------------------------------
# Executor contract.

class TestRunShards:
    def test_serial_path(self):
        results = run_shards(_square, [1, 2, 3], jobs=1)
        assert [r.value for r in results] == [1, 4, 9]
        assert all(r.ok for r in results)

    def test_parallel_merges_in_submission_order(self):
        results = run_shards(_square, list(range(9)), jobs=JOBS)
        assert [r.index for r in results] == list(range(9))
        assert [r.value for r in results] == [i * i for i in range(9)]

    def test_in_task_exception_fails_only_that_shard(self):
        results = run_shards(_fail_on_three, [1, 2, 3, 4, 5], jobs=2)
        assert [r.ok for r in results] == [True, True, False, True, True]
        assert "three is right out" in results[2].error
        assert [r.value for r in results if r.ok] == [10, 20, 40, 50]

    def test_dead_worker_fails_shard_not_batch(self):
        results = run_shards(_exit_on_two, [0, 1, 2, 3, 4, 5], jobs=2)
        failed = [r for r in results if not r.ok]
        # The dying worker takes out at least the crashing shard; the
        # pool is rebuilt and every other shard still completes.
        assert failed
        assert len(failed) <= 2  # crashing shard + at most one cohabitant
        succeeded = {r.index: r.value for r in results if r.ok}
        for index, value in succeeded.items():
            assert value == index

    def test_timeout_fails_shard_not_batch(self):
        results = run_shards(_sleep_forever, [0, 1, 2], jobs=2, timeout=2.0)
        assert not results[1].ok
        assert "timeout" in results[1].error
        assert results[0].ok and results[0].value == 0
        assert results[2].ok and results[2].value == 2

    def test_require_all_passes_clean_batches(self):
        results = run_shards(_square, [2, 4], jobs=2)
        assert require_all(results) == [4, 16]

    def test_require_all_raises_shard_error(self):
        results = run_shards(_fail_on_three, [3, 4], jobs=2)
        with pytest.raises(ShardError) as excinfo:
            require_all(results)
        assert "three is right out" in str(excinfo.value)
        assert excinfo.value.failures[0].index == 0

    def test_shard_result_records_elapsed(self):
        results = run_shards(_square, [5], jobs=1)
        assert results[0].elapsed >= 0.0


# ---------------------------------------------------------------------------
# Seed discipline: the trace corpus is a function of (base_seed, index)
# only, never of worker count or scheduling.

class TestSeedDiscipline:
    def test_iteration_seed_is_pure(self):
        assert iteration_seed(0, 5) == iteration_seed(0, 5)
        assert iteration_seed(0, 5) != iteration_seed(0, 6)
        assert iteration_seed(0, 5) != iteration_seed(1, 5)

    def test_iteration_seeds_match_elementwise_derivation(self):
        assert iteration_seeds(42, 8) == [
            iteration_seed(42, i) for i in range(8)
        ]

    def test_seeds_stable_across_processes(self):
        # String seeding goes through SHA-512, not hash(), so the
        # derivation is identical under any PYTHONHASHSEED.
        import subprocess
        import sys

        script = (
            "from repro.fuzz.engine import iteration_seeds;"
            "print(iteration_seeds(7, 4))"
        )
        env = dict(os.environ, PYTHONHASHSEED="12345")
        env["PYTHONPATH"] = "src"
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.strip() == str(iteration_seeds(7, 4))


# ---------------------------------------------------------------------------
# Byte-identical output: jobs=N must reproduce jobs=1 exactly.

def _report_fingerprint(report):
    """Everything observable from a report except wall-clock time."""
    return (
        report.iterations,
        report.events,
        report.serializable,
        report.shard_failures,
        [
            (f.index, f.seed, f.divergences, list(f.repro))
            for f in report.findings
        ],
    )


class TestByteIdenticalFuzz:
    def test_full_grid_jobs_equals_serial(self):
        # The whole 22-config ablation grid, exactly as `repro fuzz`
        # runs it, sharded four ways versus serial.
        serial = FuzzEngine(FuzzConfig(budget=6, seed=3)).run()
        parallel = FuzzEngine(FuzzConfig(budget=6, seed=3, jobs=JOBS)).run()
        assert _report_fingerprint(serial) == _report_fingerprint(parallel)

    def test_quick_grid_jobs_equals_serial(self):
        config = dict(budget=8, seed=0, configs=default_grid())
        serial = FuzzEngine(FuzzConfig(**config)).run()
        parallel = FuzzEngine(FuzzConfig(**config, jobs=2)).run()
        assert _report_fingerprint(serial) == _report_fingerprint(parallel)

    def test_findings_persist_identically(self, tmp_path):
        # A deliberately unsound configuration guarantees findings;
        # the corpus the parallel run writes must match the serial one
        # file-for-file (the parent performs all corpus writes).
        from repro.fuzz.grid import GridConfig
        from repro.baselines.empty import EmptyAnalysis

        broken = (GridConfig(name="broken-empty", factory=EmptyAnalysis),)
        dirs = {}
        for jobs in (1, JOBS):
            corpus = tmp_path / f"jobs{jobs}"
            FuzzEngine(
                FuzzConfig(
                    budget=6, seed=1, configs=broken, corpus_dir=corpus,
                    jobs=jobs,
                )
            ).run()
            dirs[jobs] = {
                path.name: path.read_text()
                for path in sorted(corpus.glob("*"))
            }
        assert dirs[1] == dirs[JOBS]
        assert dirs[1]  # the broken config really did produce repros


class TestByteIdenticalHarnesses:
    def test_table2_jobs_equals_serial(self):
        from repro.harness.table2 import run_table2

        serial = run_table2(seeds=range(2), scale=0.2)
        parallel = run_table2(seeds=range(2), scale=0.2, jobs=2)
        assert serial.render() == parallel.render()

    def test_corpus_replay_jobs_equals_serial(self):
        from repro.fuzz.corpus import replay_corpus

        serial = replay_corpus("tests/corpus")
        parallel = replay_corpus("tests/corpus", jobs=2)
        assert list(serial) == list(parallel)  # same paths, same order
        assert serial == parallel

    def test_picklable_adhoc_grid_ships_directly(self):
        from repro.fuzz.corpus import replay_corpus
        from repro.fuzz.grid import GridConfig
        from repro.core.compact import VelodromeCompact

        adhoc = (
            GridConfig(name="adhoc-compact", factory=VelodromeCompact),
        )
        serial = replay_corpus("tests/corpus", configs=adhoc, jobs=1)
        parallel = replay_corpus("tests/corpus", configs=adhoc, jobs=2)
        assert serial == parallel

    def test_unshippable_grid_rejected_before_forking(self):
        from repro.fuzz.corpus import replay_corpus
        from repro.fuzz.grid import GridConfig
        from repro.core.compact import VelodromeCompact

        unshippable = (
            GridConfig(
                name="no-such-grid-entry",
                factory=lambda: VelodromeCompact(),  # closure: unpicklable
            ),
        )
        with pytest.raises(ValueError):
            replay_corpus("tests/corpus", configs=unshippable, jobs=2)
        # ... but the serial path accepts ad-hoc grids unchanged.
        assert replay_corpus("tests/corpus", configs=unshippable, jobs=1)


# ---------------------------------------------------------------------------
# Grid shipping: configs cross the process boundary by name.

class TestGridShipping:
    def test_grid_names_round_trip(self):
        grid = ablation_grid()
        names = grid_names(grid)
        assert names == tuple(config.name for config in grid)
        rebuilt = grid_by_names(names)
        assert [c.name for c in rebuilt] == list(names)

    def test_none_passes_through(self):
        assert grid_names(None) is None
        assert grid_by_names(None) is None

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            grid_by_names(("definitely-not-a-config",))


# ---------------------------------------------------------------------------
# The ``repro bench parallel`` drift gate against the committed baseline.

class TestBenchGate:
    BASELINE = (Path(__file__).resolve().parent.parent / "benchmarks"
                / "baseline" / "BENCH_parallel.json")

    def _scaled(self, factor):
        """The committed baseline with every events/sec times ``factor``."""
        doc = json.loads(self.BASELINE.read_text())
        for name in doc["figures"]:
            if name.endswith("events_per_sec"):
                doc["figures"][name] *= factor
        return doc

    def test_no_regression_within_threshold(self):
        assert not drift(self._scaled(0.75), self._scaled(1.0))

    def test_regression_beyond_threshold_reported(self):
        regressions = drift(self._scaled(0.65), self._scaled(1.0))
        assert len(regressions) == 4
        assert "fuzz.parallel" in regressions[0]
        assert "stages.generate" in regressions[-1]

    def test_faster_is_never_a_regression(self):
        assert not drift(self._scaled(5.0), self._scaled(1.0))

    def test_missing_keys_are_skipped(self):
        # The JSONL encode/decode stages left this lane for ``store``;
        # a report that still carries them is compared on the rest.
        current = self._scaled(0.1)
        baseline = self._scaled(1.0)
        current["figures"] = {"stages.encode.events_per_sec": 1.0}
        assert not drift(current, baseline)
