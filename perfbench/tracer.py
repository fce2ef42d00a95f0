"""Span tracer the benchmark wraps around the program's public calls.

Nothing here touches ``src/``: :func:`install` replaces public methods
and module functions of the program with timing wrappers, from the
benchmark's own process (the check worker, or the serve launcher before
it calls the daemon's entry point).

Two kinds of wrapper share one call stack, so self times are exact:

* **spans** (coarse calls: a job, a daemon round, a stream, a reader
  open, a checkpoint) are kept one record each — name, start, end,
  parent name, and the job or stream id they ran under;
* **aggregates** (per-event and per-block calls: backend ``process``,
  summary offers, block decodes, the region assembler) keep only a
  call count, self time and total time per (name, parent name), so
  memory stays bounded however long the stream.

A call's self time is its duration minus the time its traced children
took.  Every traced call happens inside a root span, so the self times
of all names add up to the root spans' total: the traced wall time.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Optional

#: Layer of a span name, by its first dotted component.  ``bench`` is
#: the benchmark's own boundary: its self time is what no wrapped
#: program call covers (``bench.unattributed_s``).
LAYER_OF_PREFIX = {
    "store": "store",
    "pipeline": "pipeline",
    "velodrome": "core",
    "aerodrome": "core",
    "memo": "core.memo",
    "resilience": "resilience",
    "serve": "serve",
    "bench": "bench",
}

#: Span names whose time is excluded from the traced wall: the daemon
#: waiting for input, and closing its endpoints at shutdown, is not
#: work done for a stream.
IDLE_SPANS = frozenset({"serve.idle", "serve.stop"})


def layer_of(name: str) -> str:
    return LAYER_OF_PREFIX[name.split(".", 1)[0]]


class Tracer:
    """Call stack, span records, per-(name, parent) aggregates, counters."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        #: Open calls, innermost last: ``[name, child_seconds]``.
        self._stack: list[list] = []
        #: (name, parent) -> [calls, self_seconds, total_seconds].
        self.aggregates: dict[tuple, list] = {}
        #: (name, start, end, parent, ident, self_seconds).
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        #: Id of the job or stream the current root span runs.
        self.ident: Optional[str] = None

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        if value > self.counters.get(name, float("-inf")):
            self.counters[name] = value

    # -------------------------------------------------------------- wrappers
    def aggregated(self, name: str, fn: Callable,
                   after: Optional[Callable] = None) -> Callable:
        """Wrap a per-event call: count and time only."""
        stack = self._stack
        clock = self.clock
        aggregates = self.aggregates

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                key = (name, parent[0] if parent is not None else None)
                if parent is not None:
                    parent[1] += elapsed
                entry = aggregates.get(key)
                if entry is None:
                    entry = aggregates[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed - frame[1]
                entry[2] += elapsed
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def span(self, name: str, fn: Callable,
             ident: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """Wrap a coarse call: one span record per call.

        ``ident(args)`` names the job or stream a root span runs; the
        id is inherited by every span opened beneath it.
        """
        stack = self._stack
        clock = self.clock
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            previous_ident = tracer.ident
            if ident is not None:
                tracer.ident = ident(args)
            frame = [name, 0.0]
            stack.append(frame)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = clock()
                elapsed = ended - started
                stack.pop()
                if parent is not None:
                    parent[1] += elapsed
                tracer.spans.append((
                    name, started, ended,
                    parent[0] if parent is not None else None,
                    tracer.ident, elapsed - frame[1],
                ))
                tracer.ident = previous_ident
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ---------------------------------------------------------------- output
    def dump(self) -> dict:
        """A JSON-ready record; span times become wall-clock seconds."""
        offset = time.time() - self.clock()
        return {
            "aggregates": [
                [name, parent, calls, self_s, total]
                for (name, parent), (calls, self_s, total)
                in sorted(self.aggregates.items(), key=str)
            ],
            "spans": [
                [name, start + offset, end + offset, parent, ident, self_s]
                for name, start, end, parent, ident, self_s in self.spans
            ],
            "counters": self.counters,
        }


def wrapper_cost_seconds(calls: int = 200_000) -> float:
    """Seconds one aggregated wrapper adds to a call, measured here.

    Times a bare no-op call against the same call wrapped, so the
    traced run can state how much of its wall time is tracing.
    """
    def noop(_x):
        return None

    wrapped = Tracer().aggregated("bench.calibrate", noop)
    clock = time.perf_counter
    best = float("inf")
    for _ in range(3):
        started = clock()
        for i in range(calls):
            noop(i)
        bare = clock() - started
        started = clock()
        for i in range(calls):
            wrapped(i)
        best = min(best, (clock() - started - bare) / calls)
    return max(best, 0.0)


# ------------------------------------------------------------------ install
def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark measures.

    Must run before any pipeline, supervisor or region assembler is
    built: those bind backend and assembler methods at construction.
    """
    from repro.core.aerodrome import AeroDrome
    from repro.core.memo import RegionAssembler
    from repro.core.optimized import VelodromeOptimized
    from repro.pipeline.core import Pipeline
    from repro.resilience import supervisor as supervisor_module
    from repro.resilience.supervisor import SupervisedChecker
    from repro.serve import spool as spool_module
    from repro.serve import stream as stream_module
    from repro.serve.daemon import ServeDaemon
    from repro.serve.registry import StreamRegistry
    from repro.serve.spool import SpoolScanner
    from repro.store.reader import PackedTraceReader

    # store
    PackedTraceReader.__init__ = tracer.span(
        "store.open", PackedTraceReader.__init__
    )

    def decoded(_args, ops):
        tracer.count("store.decode.events", len(ops))

    PackedTraceReader.decode_block = tracer.aggregated(
        "store.decode", PackedTraceReader.decode_block, after=decoded
    )
    PackedTraceReader.block_summary = tracer.aggregated(
        "store.block_summary", PackedTraceReader.block_summary
    )

    # pipeline
    def pipeline_done(args, _result):
        pipeline = args[0]
        tracer.count("pipeline.blocks_in", pipeline.blocks_in)
        tracer.count("pipeline.blocks_decoded", pipeline.blocks_decoded)

    Pipeline.run = tracer.span(
        "pipeline.run", Pipeline.run, after=pipeline_done
    )

    # core: one set of hooks per backend class
    for prefix, cls in (("velodrome", VelodromeOptimized),
                        ("aerodrome", AeroDrome)):
        _install_backend(tracer, prefix, cls)

    # core.memo
    RegionAssembler.process = tracer.aggregated(
        "memo.assemble", RegionAssembler.process
    )
    RegionAssembler.flush = tracer.aggregated(
        "memo.assemble", RegionAssembler.flush
    )

    # resilience
    SupervisedChecker.run = tracer.span(
        "resilience.supervise", SupervisedChecker.run
    )
    SupervisedChecker.checkpoint = tracer.span(
        "resilience.checkpoint", SupervisedChecker.checkpoint
    )

    def snapshot_written(_args, path):
        tracer.count("resilience.snapshot_bytes", os.path.getsize(path))

    supervisor_module.write_snapshot = tracer.span(
        "resilience.snapshot_write", supervisor_module.write_snapshot,
        after=snapshot_written,
    )
    packed_meta = stream_module.packed_checkpoint_meta

    def traced_packed_meta(path):
        return tracer.span("resilience.checkpoint_meta", packed_meta(path))

    stream_module.packed_checkpoint_meta = traced_packed_meta

    # serve
    ServeDaemon.run = tracer.span("bench.daemon", ServeDaemon.run)
    ServeDaemon._round = tracer.span("serve.round", ServeDaemon._round)
    ServeDaemon._sleep = tracer.span("serve.idle", ServeDaemon._sleep)
    ServeDaemon._stop_endpoints = tracer.span(
        "serve.stop", ServeDaemon._stop_endpoints
    )
    SpoolScanner.scan = tracer.span("serve.scan", SpoolScanner.scan)
    spool_module.file_digest = tracer.span(
        "serve.digest", spool_module.file_digest
    )
    StreamRegistry.save = tracer.aggregated(
        "serve.registry_save", StreamRegistry.save
    )

    def stream_done(_args, outcome):
        tracer.count("resilience.recoveries", outcome.get("recoveries", 0))
        tracer.count("resilience.degradations",
                     outcome.get("degradations", 0))
        for key, value in (outcome.get("memo") or {}).items():
            tracer.count(f"memo.{key}", value)

    stream_module.process_stream = tracer.span(
        "serve.stream", stream_module.process_stream,
        ident=lambda args: args[0].stream_id, after=stream_done,
    )


def _install_backend(tracer: Tracer, prefix: str, cls) -> None:
    cls.process = tracer.aggregated(f"{prefix}.process", cls.process)

    def block_offered(_args, accepted):
        if accepted:
            tracer.count(f"{prefix}.block.accepted")

    cls.apply_block_summary = tracer.aggregated(
        f"{prefix}.block", cls.apply_block_summary, after=block_offered
    )

    def region_offered(args, accepted):
        if accepted:
            tracer.count(f"{prefix}.region.accepted")
            tracer.count(f"{prefix}.region.accepted_events",
                         args[1].op_count)

    cls.apply_region_summary = tracer.aggregated(
        f"{prefix}.region", cls.apply_region_summary, after=region_offered
    )

    def finished(args, _result):
        graph = getattr(args[0], "graph", None)
        if graph is not None:
            tracer.peak(f"{prefix}.peak_nodes", graph.stats.max_alive)

    cls.finish = tracer.aggregated(
        f"{prefix}.finish", cls.finish, after=finished
    )
