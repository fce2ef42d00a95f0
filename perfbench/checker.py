"""Check worker: runs closed-loop check jobs in a process of its own.

Usage: ``python3 perfbench/checker.py SPEC.json`` with ``src`` on
``PYTHONPATH``.  The spec names the packed traces, the backend of each
job, how long to keep cycling through the job list, whether to trace,
and where to write the results.

Each job makes the calls ``repro check --memoize`` makes on a packed
file: a fresh backend, a :class:`~repro.pipeline.core.Pipeline` with a
:class:`~repro.core.memo.RegionMemo`, drained from a
:class:`~repro.pipeline.source.PackedTraceSource` (so fast-forward is
on).  A job is timed from opening the file to the verdict.  Jobs run
one at a time, each started when the previous one finished; the list
is cycled in whole passes until ``seconds`` have gone by and at least
``passes`` passes are done.  Checking runs here, not in the benchmark
process, so the peak RSS reported is that of checking alone.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402  (the benchmark's own module)


def run(spec: dict) -> dict:
    from repro.cli import resolve_backend
    from repro.core.memo import RegionMemo
    from repro.pipeline.core import Pipeline
    from repro.pipeline.source import PackedTraceSource

    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    memo_totals = {"hits": 0, "misses": 0, "evictions": 0}
    memo_max = spec["memo_max"]
    clock = time.perf_counter

    def check(index: int, job: dict) -> dict:
        started = clock()
        backend = resolve_backend(job["backend"])()
        memo = RegionMemo(max_entries=memo_max)
        pipeline = Pipeline([backend], memo=memo)
        pipeline.run(PackedTraceSource(job["trace"]))
        warnings = backend.warnings
        result = {
            "job": index,
            "events": pipeline.events_in,
            "warnings": backend.warning_count,
            "first_position": warnings[0].position if warnings else None,
            "labels": sorted(backend.warned_labels()),
            "start": started,
            "end": clock(),
        }
        for key in memo_totals:
            memo_totals[key] += getattr(memo, key)
        return result

    if tracer is not None:
        check = tracer.span(
            "bench.job", check, ident=lambda args: f"job-{args[0]}"
        )
    jobs = spec["jobs"]
    results = []
    passes = 0
    window_start = clock()
    while passes < spec["passes"] or clock() - window_start < spec["seconds"]:
        for index, job in enumerate(jobs):
            results.append(check(index, job))
        passes += 1
    window = clock() - window_start
    out = {
        "results": results,
        "window_s": window,
        "memo": memo_totals,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF
        ).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["trace"] = tracer.dump()
        out["wrapper_cost_s"] = tracing.wrapper_cost_seconds()
    return out


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    out = run(spec)
    target = Path(spec["out"])
    target.write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
