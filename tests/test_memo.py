"""Tests for region memoization (repro.core.memo).

The load-bearing properties:

* **identity** — a memoized run produces, for every backend, exactly
  the warnings and state of an unmemoized run over the same trace
  (the fuzz-scale version of this is ``repro.fuzz.memogate``);
* **exact accounting** — the first occurrence of a shape is streamed
  through and counted as a miss, the second is streamed, summarized,
  and counted as a miss, and every later contiguous occurrence is a
  hit applied from cache;
* **bounded memory** — the LRU table never exceeds ``--memo-max``
  entries, and ``--memo-max 0`` disables the feature cleanly.
"""

import json
from pathlib import Path

import pytest

from repro.bench import check_floors, drift
from repro.core.aerodrome import AeroDrome
from repro.core.compact import VelodromeCompact
from repro.core.memo import (
    DEFAULT_MEMO_MAX,
    MIN_REGION_OPS,
    RegionAssembler,
    RegionMemo,
    region_digest,
    region_key,
    scan_regions,
    summarize_region,
)
from repro.core.optimized import VelodromeOptimized
from repro.events.operations import (
    acquire,
    begin,
    end,
    read,
    release,
    write,
)
from repro.pipeline import Pipeline, TraceSource
from repro.resilience import SupervisedChecker
from repro.runtime.tool import run_velodrome
from repro.workloads import get


def region(tid=1, var="x", label="m", value=0):
    """An 8-op transaction-bounded region (exactly ``MIN_REGION_OPS``)."""
    return [
        begin(tid, label),
        acquire(tid, "l"),
        read(tid, var, value),
        write(tid, var, value + 1),
        read(tid, "y", value),
        write(tid, "y", value + 1),
        release(tid, "l"),
        end(tid),
    ]


def repeated_trace(occurrences, tid=1, var="x"):
    """``occurrences`` back-to-back copies of the same region shape."""
    ops = []
    for i in range(occurrences):
        ops.extend(region(tid=tid, var=var, value=i))
    return ops


class Recorder:
    """A sink that logs per-op deliveries and region applications."""

    def __init__(self):
        self.ops = []
        self.applied = []

    def process(self, op):
        self.ops.append(op)

    def process_region(self, ops, summary):
        self.applied.append((list(ops), summary))
        self.ops.extend(ops)  # "apply" preserves the observed stream


def fingerprint(backend):
    return (
        backend.error_detected,
        backend.events_processed,
        [
            (w.kind.value, w.label, w.tid, w.position, w.message)
            for w in backend.warnings
        ],
    )


# ---------------------------------------------------------------- summaries
class TestSummarizeRegion:
    def test_footprint_offsets(self):
        summary = summarize_region(region())
        assert summary.op_count == 8
        assert summary.label == "m"
        x, y = summary.vars
        assert (x.name, x.first_read, x.last_read) == ("x", 2, 2)
        assert (x.first_write, x.last_write) == (3, 3)
        assert (y.name, y.first_read, y.first_write) == ("y", 4, 5)
        [lock] = summary.locks
        assert (lock.name, lock.first_acquire, lock.last_release) == ("l", 1, 6)

    def test_stores_in_first_touch_order_with_final_offsets(self):
        summary = summarize_region(region())
        assert summary.stores == (
            ("r", "x", 2), ("w", "x", 3), ("r", "y", 4),
            ("w", "y", 5), ("u", "l", 6),
        )

    def test_var_use_predicates(self):
        summary = summarize_region(
            [begin(1, "m"), read(1, "x"), write(1, "x"), read(1, "x"), end(1)]
        )
        [x] = summary.vars
        assert x.read and x.written
        assert x.read_before_write
        assert x.reads_last

    def test_lock_acquired_before_release(self):
        summary = summarize_region(
            [begin(1, "m"), acquire(1, "l"), release(1, "l"), end(1)]
        )
        [lock] = summary.locks
        assert lock.acquired_before_release

    def test_rejects_non_begin_start(self):
        with pytest.raises(ValueError):
            summarize_region([read(1, "x"), end(1)])

    def test_rejects_foreign_thread(self):
        ops = region()
        ops[3] = write(2, "x")
        with pytest.raises(ValueError):
            summarize_region(ops)

    def test_rejects_open_blocks(self):
        with pytest.raises(ValueError):
            summarize_region([begin(1, "m"), read(1, "x")])

    def test_rejects_early_close(self):
        with pytest.raises(ValueError):
            summarize_region([begin(1, "m"), end(1), read(1, "x")])


class TestRegionKey:
    def test_abstracts_thread_and_values(self):
        assert region_key(region(tid=1, value=0)) == region_key(
            region(tid=7, value=42)
        )

    def test_distinguishes_targets(self):
        assert region_key(region(var="x")) != region_key(region(var="z"))

    def test_digest_is_short_stable_hex(self):
        a = region_digest(region(tid=1))
        assert a == region_digest(region(tid=2))
        assert len(a) == 12
        int(a, 16)
        assert a != region_digest(region(var="z"))


# ------------------------------------------------------------------ the memo
class TestRegionMemo:
    def test_first_lookup_misses_and_records_pending(self):
        memo = RegionMemo()
        key = region_key(region())
        assert memo.lookup(key) is None
        assert memo.lookup(key) is RegionMemo.PENDING
        assert (memo.hits, memo.misses) == (0, 2)

    def test_insert_then_lookup_hits(self):
        memo = RegionMemo()
        key = region_key(region())
        summary = summarize_region(region())
        memo.insert(key, summary)
        assert memo.lookup(key) is summary
        assert (memo.hits, memo.misses) == (1, 0)

    def test_insert_promotes_begin_prefix(self):
        memo = RegionMemo()
        key = region_key(region())
        memo.insert(key, summarize_region(region()))
        assert key[:3] in memo.promising

    def test_observe_always_counts_a_miss(self):
        memo = RegionMemo()
        key = region_key(region())
        assert memo.observe(key) is None  # first occurrence
        assert memo.observe(key) is RegionMemo.PENDING  # second
        summary = summarize_region(region())
        memo.insert(key, summary)
        assert memo.observe(key) is summary  # pre-warmed stream-through
        assert (memo.hits, memo.misses) == (0, 3)

    def test_observe_repromotes_prefix_of_summarized_shape(self):
        memo = RegionMemo()
        key = region_key(region())
        memo.insert(key, summarize_region(region()))
        memo.promising.clear()  # simulate overflow self-healing
        memo.observe(key)
        assert key[:3] in memo.promising

    def test_lru_eviction_order(self):
        memo = RegionMemo(max_entries=2)
        keys = [region_key(region(var=name)) for name in ("a", "b", "c")]
        summaries = [
            summarize_region(region(var=name)) for name in ("a", "b", "c")
        ]
        memo.insert(keys[0], summaries[0])
        memo.insert(keys[1], summaries[1])
        memo.insert(keys[2], summaries[2])  # evicts "a", the LRU entry
        assert memo.keys() == [keys[1], keys[2]]
        assert memo.evictions == 1
        assert memo.lookup(keys[0]) is None

    def test_lookup_refreshes_recency(self):
        memo = RegionMemo(max_entries=2)
        keys = [region_key(region(var=name)) for name in ("a", "b", "c")]
        memo.insert(keys[0], summarize_region(region(var="a")))
        memo.insert(keys[1], summarize_region(region(var="b")))
        memo.lookup(keys[0])  # "a" becomes most recently used
        memo.insert(keys[2], summarize_region(region(var="c")))
        assert memo.keys() == [keys[0], keys[2]]  # "b" was evicted

    def test_max_entries_zero_disables_cleanly(self):
        memo = RegionMemo(max_entries=0)
        key = region_key(region())
        memo.insert(key, summarize_region(region()))
        assert len(memo) == 0
        assert memo.promising == set()
        assert memo.lookup(key) is None
        assert memo.lookup(key) is None  # no PENDING retained either
        assert memo.stats() == {
            "hits": 0, "misses": 2, "evictions": 0, "entries": 0,
        }

    def test_capacity_never_exceeded(self):
        memo = RegionMemo(max_entries=3)
        for i in range(10):
            memo.insert(
                region_key(region(var=f"v{i}")),
                summarize_region(region(var=f"v{i}")),
            )
            assert len(memo) <= 3
        assert memo.evictions == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            RegionMemo(max_entries=-1)
        with pytest.raises(ValueError):
            RegionMemo(min_ops=-1)

    def test_default_capacity(self):
        assert RegionMemo().max_entries == DEFAULT_MEMO_MAX


# ------------------------------------------------------------- the assembler
def assembler_over(recorder, memo=None):
    memo = memo if memo is not None else RegionMemo()
    return (
        RegionAssembler(recorder.process, recorder.process_region, memo),
        memo,
    )


class TestRegionAssembler:
    def test_first_occurrence_streams_through(self):
        recorder = Recorder()
        assembler, memo = assembler_over(recorder)
        ops = region()
        for op in ops[:4]:
            assembler.process(op)
        # Nothing is held back: the sink already saw the prefix.
        assert recorder.ops == ops[:4]
        for op in ops[4:]:
            assembler.process(op)
        assert recorder.ops == ops
        assert recorder.applied == []
        assert (memo.hits, memo.misses) == (0, 1)

    def test_second_occurrence_summarizes_third_applies(self):
        recorder = Recorder()
        assembler, memo = assembler_over(recorder)
        ops = repeated_trace(3)
        for op in ops:
            assembler.process(op)
        assert recorder.ops == ops
        [(applied_ops, summary)] = recorder.applied
        assert applied_ops == ops[16:]
        assert summary.op_count == 8
        assert (memo.hits, memo.misses) == (1, 2)

    def test_exact_counters_over_many_occurrences(self):
        recorder = Recorder()
        assembler, memo = assembler_over(recorder)
        for op in repeated_trace(10):
            assembler.process(op)
        assert (memo.hits, memo.misses, memo.evictions) == (8, 2, 0)
        assert len(recorder.applied) == 8

    def test_hold_back_hides_ops_until_completion(self):
        recorder = Recorder()
        assembler, memo = assembler_over(recorder)
        warmup = repeated_trace(2)
        for op in warmup:
            assembler.process(op)
        third = region(value=9)
        for op in third[:-1]:
            assembler.process(op)
        assert recorder.ops == warmup  # the third region is buffered
        assert assembler.buffering
        assembler.process(third[-1])
        assert recorder.ops == warmup + third
        assert not assembler.buffering

    def test_prewarmed_memo_applies_from_first_occurrence(self):
        recorder = Recorder()
        memo = RegionMemo()
        memo.insert(region_key(region()), summarize_region(region()))
        assembler, _ = assembler_over(recorder, memo)
        for op in region(tid=5):
            assembler.process(op)
        assert len(recorder.applied) == 1
        assert (memo.hits, memo.misses) == (1, 0)

    def test_regions_below_min_ops_bypass_the_memo(self):
        recorder = Recorder()
        assembler, memo = assembler_over(recorder)
        tiny = [begin(1, "m"), write(1, "x"), end(1)]
        assert len(tiny) < MIN_REGION_OPS
        for _ in range(5):
            for op in tiny:
                assembler.process(op)
        assert memo.stats() == {
            "hits": 0, "misses": 0, "evictions": 0, "entries": 0,
        }
        assert recorder.applied == []
        assert len(recorder.ops) == 15

    def test_interleaving_abandons_a_recording(self):
        recorder = Recorder()
        assembler, memo = assembler_over(recorder)
        ops = region()
        stream = ops[:4] + [write(2, "z")] + ops[4:]
        for op in stream:
            assembler.process(op)
        assert recorder.ops == stream  # order preserved exactly
        assert memo.stats()["misses"] == 0  # never completed, never keyed

    def test_interleaving_flushes_a_hold_back_buffer(self):
        recorder = Recorder()
        assembler, memo = assembler_over(recorder)
        warmup = repeated_trace(2)
        for op in warmup:
            assembler.process(op)
        third = region(value=9)
        interloper = write(2, "z")
        stream = third[:4] + [interloper] + third[4:]
        for op in stream:
            assembler.process(op)
        assert recorder.ops == warmup + stream
        assert recorder.applied == []  # contiguity lost, nothing applied
        assert memo.hits == 0

    def test_flush_drains_an_open_region(self):
        recorder = Recorder()
        assembler, memo = assembler_over(recorder)
        for op in repeated_trace(2):
            assembler.process(op)
        partial = region(value=9)[:5]
        for op in partial:
            assembler.process(op)
        assembler.flush()
        assert recorder.ops == repeated_trace(2) + partial
        assert not assembler.buffering

    def test_nested_begins_stay_one_region(self):
        recorder = Recorder()
        assembler, memo = assembler_over(recorder)
        nested = [
            begin(1, "outer"), begin(1, "inner"), read(1, "x"),
            write(1, "x"), end(1), acquire(1, "l"), release(1, "l"), end(1),
        ]
        for _ in range(3):
            for op in nested:
                assembler.process(op)
        assert (memo.hits, memo.misses) == (1, 2)

    def test_process_many_matches_per_op_processing(self):
        ops = []
        for i in range(4):
            ops.extend(region(tid=1, value=i))
            ops.append(write(2, "z", i))
            chunk = region(tid=2, var="q", label="n", value=i)
            ops.extend(chunk[:3] + [read(1, "w")] + chunk[3:])
        one_by_one, batched = Recorder(), Recorder()
        assembler_a, memo_a = assembler_over(one_by_one)
        assembler_b, memo_b = assembler_over(batched)
        for op in ops:
            assembler_a.process(op)
        count = assembler_b.process_many(ops)
        assert count == len(ops)
        assert batched.ops == one_by_one.ops == ops
        assert len(batched.applied) == len(one_by_one.applied)
        assert memo_b.stats() == memo_a.stats()

    def test_memo_max_zero_never_buffers(self):
        recorder = Recorder()
        assembler, memo = assembler_over(recorder, RegionMemo(max_entries=0))
        ops = repeated_trace(5)
        for op in ops:
            assembler.process(op)
        assert recorder.ops == ops
        assert recorder.applied == []
        assert memo.hits == 0 and len(memo) == 0


# ----------------------------------------------------------- pipeline + memo
def request_loop_trace(scale=2.0):
    program = get("request_loop").program(scale)
    return list(run_velodrome(program, seed=0, record_trace=True).trace)


BACKEND_FACTORIES = [
    lambda: VelodromeOptimized(first_warning_per_label=True),
    lambda: VelodromeCompact(first_warning_per_label=True),
    AeroDrome,
]


class TestPipelineMemo:
    @pytest.mark.parametrize("factory", BACKEND_FACTORIES)
    def test_memoized_run_identical_to_plain(self, factory):
        ops = request_loop_trace()
        plain, memoized = factory(), factory()
        Pipeline([plain]).run(TraceSource(ops))
        memo = RegionMemo()
        Pipeline([memoized], memo=memo).run(TraceSource(ops))
        assert fingerprint(memoized) == fingerprint(plain)
        assert memo.hits > 0

    def test_metrics_report_memo_counters(self):
        ops = request_loop_trace()
        memo = RegionMemo()
        pipeline = Pipeline(
            [VelodromeOptimized(first_warning_per_label=True)], memo=memo
        )
        pipeline.run(TraceSource(ops))
        metrics = pipeline.metrics()
        assert metrics.memo_hits == memo.hits > 0
        assert metrics.memo_misses == memo.misses > 0
        assert metrics.memo_evictions == memo.evictions

    def test_memo_off_reports_zero_counters(self):
        pipeline = Pipeline([VelodromeOptimized()])
        pipeline.run(TraceSource(request_loop_trace()))
        metrics = pipeline.metrics()
        assert (metrics.memo_hits, metrics.memo_misses) == (0, 0)

    def test_memo_max_zero_is_identical_with_zero_hits(self):
        ops = request_loop_trace()
        plain = VelodromeOptimized(first_warning_per_label=True)
        disabled = VelodromeOptimized(first_warning_per_label=True)
        Pipeline([plain]).run(TraceSource(ops))
        memo = RegionMemo(max_entries=0)
        Pipeline([disabled], memo=memo).run(TraceSource(ops))
        assert fingerprint(disabled) == fingerprint(plain)
        assert memo.hits == 0 and len(memo) == 0

    def test_stats_path_agrees_with_fast_path(self):
        ops = request_loop_trace()
        fast = VelodromeOptimized(first_warning_per_label=True)
        counted = VelodromeOptimized(first_warning_per_label=True)
        Pipeline([fast], memo=RegionMemo()).run(TraceSource(ops))
        stats_pipeline = Pipeline([counted], stats=True, memo=RegionMemo())
        stats_pipeline.run(TraceSource(ops))
        assert fingerprint(counted) == fingerprint(fast)
        assert stats_pipeline.events_in == len(ops)


# --------------------------------------------------------- supervised + memo
class TestSupervisedMemo:
    def test_supervised_memoized_matches_plain(self):
        ops = request_loop_trace()
        plain = VelodromeCompact(first_warning_per_label=True)
        Pipeline([plain]).run(TraceSource(ops))
        memo = RegionMemo()
        checker = SupervisedChecker(
            [VelodromeCompact(first_warning_per_label=True)], memo=memo
        )
        for op in ops:
            checker.process(op)
        checker.finish()
        [backend] = checker.backends
        assert fingerprint(backend) == fingerprint(plain)
        assert memo.hits > 0

    @pytest.mark.parametrize("kill_at", [137, 500, 1100])
    def test_kill_and_resume_byte_identical_with_memo(
        self, tmp_path, kill_at
    ):
        ops = request_loop_trace()
        assert kill_at < len(ops)
        path = str(tmp_path / "memo.ckpt.json")

        uninterrupted = SupervisedChecker(
            [VelodromeCompact(first_warning_per_label=True)],
            memo=RegionMemo(),
        )
        for op in ops:
            uninterrupted.process(op)
        uninterrupted.finish()

        first = SupervisedChecker(
            [VelodromeCompact(first_warning_per_label=True)],
            checkpoint_every=100, checkpoint_path=path, memo=RegionMemo(),
        )
        for op in ops[:kill_at]:
            first.process(op)
        first.checkpoint()
        del first  # killed

        resumed = SupervisedChecker.resume(path)
        # With a region held back at checkpoint time the cut falls at
        # the last operation the backends saw, which may trail the kill
        # point; resuming replays the withheld tail.
        assert resumed.position <= kill_at
        for op in ops[resumed.position:]:
            resumed.process(op)
        resumed.finish()
        [expected] = uninterrupted.backends
        [actual] = resumed.backends
        assert fingerprint(actual) == fingerprint(expected)


# ----------------------------------------------------------------- the scan
class TestScanRegions:
    def test_counts_repetition_and_contiguity(self):
        ops = repeated_trace(3) + region(tid=2, var="q", label="n")
        broken = region(tid=1, value=7)
        ops += broken[:4] + [write(3, "z")] + broken[4:]
        scan = scan_regions(ops)
        assert scan.regions == 5
        assert scan.repeated == 4  # the four occurrences of shape "m"/x
        assert scan.contiguous == 4  # all but the interleaved one
        assert scan.total_events == len(ops)
        assert scan.region_events == 40
        digest, count, op_count, label = scan.top[0]
        assert (count, op_count, label) == (4, 8, "m")
        assert digest == region_digest(region())

    def test_ratios(self):
        scan = scan_regions(repeated_trace(2) + [write(9, "z")] * 4)
        assert scan.repetition_ratio == 1.0
        assert scan.region_event_ratio == pytest.approx(16 / 20)

    def test_empty_trace(self):
        scan = scan_regions([])
        assert scan.regions == 0
        assert scan.repetition_ratio == 0.0
        assert scan.region_event_ratio == 0.0


# ------------------------------------------------------------ bench plumbing
BENCH_MEMO = (Path(__file__).resolve().parent.parent / "benchmarks"
              / "baseline" / "BENCH_memo.json")


def bench_report(figures=None):
    """The committed ``memo`` baseline with ``figures`` overridden."""
    doc = json.loads(BENCH_MEMO.read_text())
    doc["figures"].update(figures or {})
    return doc


class TestBenchGates:
    def test_gates_pass(self):
        assert check_floors(bench_report()) == []

    def test_speedup_gate_fails(self):
        failures = check_floors(
            bench_report({"high_repetition.speedup": 1.4}))
        assert len(failures) == 1 and "high_repetition" in failures[0]

    def test_overhead_gate_fails(self):
        failures = check_floors(
            bench_report({"low_repetition.overhead": 0.25}))
        assert len(failures) == 1 and "low_repetition" in failures[0]

    def test_baseline_regression_detected(self):
        current = bench_report({"high_repetition.on.events_per_sec": 100.0})
        regressions = drift(current, bench_report())
        assert len(regressions) == 1 and "high_repetition.on" in regressions[0]

    def test_faster_than_baseline_is_fine(self):
        current = bench_report({"high_repetition.on.events_per_sec": 1e9,
                                "low_repetition.off.events_per_sec": 1e9})
        assert drift(current, bench_report()) == []

    def test_missing_lanes_are_skipped(self):
        current = bench_report()
        current["figures"] = {
            name: value for name, value in current["figures"].items()
            if name.startswith("low_repetition.")
        }
        current["figures"]["low_repetition.on.events_per_sec"] = 1e9
        assert drift(current, bench_report()) == []
