"""The ``repro serve`` daemon: always-on multi-stream checking.

One :class:`ServeDaemon` watches a spool directory (and optionally a
unix ingest socket), registers every stable trace file as a stream,
and drives rounds of supervised checking until told to stop::

    scan spool -> register / dedupe / quarantine arrivals
    pick every runnable stream (pending, or failed with backoff elapsed)
    slice the global resource budget across them
    shard them over the worker pool (repro.parallel.run_shards)
    fold outcomes back: done / retry-with-backoff / park
    sleep until the next poll, an upload, or a signal
    (or exit when --oneshot and drained)

A socket upload wakes the sleep and is taken as stable on first sight,
so it waits for no poll and no settle window; files other processes
drop into the spool are found by the poll and wait out the settle
protocol (:mod:`repro.serve.spool`).

Robustness invariants, each pinned by a test:

* **isolation** — a malformed stream quarantines or parks alone; its
  neighbors' verdicts are exactly what they would be in a clean spool.
* **crash equivalence** — ``kill -9`` at any instant, restart against
  the same spool and state directory, and every stream's final verdict,
  warning count, and first-warning position are identical to an
  uninterrupted run (see :func:`repro.fuzz.faults.
  serve_crash_divergences`).  The pieces: atomic registry records with
  ``running -> pending`` demotion, checkpoint generations per stream,
  and deterministic replay for streams that cannot checkpoint.
* **graceful shutdown** — SIGTERM/SIGINT stop at the next safe point,
  write final checkpoints, persist the registry, and exit with
  :data:`~repro.resilience.shutdown.EXIT_INTERRUPTED`.
* **bounded memory** — diagnostics are ring-buffered per stream and
  the global governor budget is divided across active streams, so N
  streams cost what one budgeted stream costs.
"""

from __future__ import annotations

import queue
import time
from pathlib import Path
from typing import Optional

from repro.parallel.executor import run_shards
from repro.parallel.tasks import StreamTask, run_stream_task
from repro.resilience.governor import Budgets
from repro.resilience.shutdown import EXIT_INTERRUPTED, GracefulShutdown
from repro.resilience.snapshot import supports
from repro.serve.config import ServeConfig
from repro.serve.ingest import IngestListener
from repro.serve.metrics import MetricsServer, ServeMetrics
from repro.serve.registry import (
    DONE,
    DUPLICATE,
    FAILED,
    PARKED,
    PENDING,
    QUARANTINED,
    REJECTED,
    RUNNING,
    StreamRecord,
    StreamRegistry,
    stream_id,
)
from repro.serve.spool import SpoolScanner, StableFile
from repro.serve.stream import set_stop_check

#: Error text kept per registry record (full tracebacks stay in the
#: worker outcome, not on disk forever).
_ERROR_TAIL = 2000


class ServeDaemon:
    """See the module docstring; construct, then :meth:`run`."""

    def __init__(
        self,
        config: ServeConfig,
        shutdown: Optional[GracefulShutdown] = None,
    ):
        config.ensure_layout()
        self.config = config
        self.shutdown = shutdown
        self.registry = StreamRegistry(config.registry_dir)
        self.registry.load()
        self.scanner = SpoolScanner(
            config.spool_dir, settle_seconds=config.settle_seconds
        )
        self.metrics = ServeMetrics()
        self.metrics_server: Optional[MetricsServer] = None
        self.ingest: Optional[IngestListener] = None
        #: stream_id -> monotonic deadline before the next retry.
        self._next_retry: dict[str, float] = {}
        #: Wake-ups for the idle sleep: one per landed upload, one per
        #: shutdown signal.  A SimpleQueue, because the signal handler
        #: puts into it and its put is safe from a handler.
        self._wakeups: queue.SimpleQueue = queue.SimpleQueue()
        if shutdown is not None:
            shutdown.on_trigger(lambda: self._wakeups.put(None))
        self._settling = 0
        self._endpoints_started = False
        self._checkpointable = self._backends_checkpointable()
        # digest -> {workload, kind, point} from `repro lab run
        # --digests`; imported lazily so plain daemons never pull the
        # experiments package.
        from repro.experiments.digests import load_digests

        self._lab_digests = load_digests(config.lab_digests)
        self._finish_quarantine_moves()

    # ----------------------------------------------------------- lifecycle
    def run(self, oneshot: bool = False,
            max_rounds: Optional[int] = None) -> int:
        """Drive rounds until drained (``oneshot``), ``max_rounds``,
        or shutdown; returns the process exit code."""
        self.start_endpoints()
        try:
            rounds = 0
            while True:
                if self.shutdown is not None and self.shutdown.triggered:
                    self.metrics.interrupted = True
                    return EXIT_INTERRUPTED
                events = self._round()
                self.metrics.observe_round(events)
                rounds += 1
                if self.shutdown is not None and self.shutdown.triggered:
                    self.metrics.interrupted = True
                    return EXIT_INTERRUPTED
                if oneshot and self._drained():
                    return self.exit_code()
                if max_rounds is not None and rounds >= max_rounds:
                    return self.exit_code()
                if events == 0:
                    self._sleep(self.config.poll_interval)
        finally:
            self._stop_endpoints()

    def exit_code(self) -> int:
        """0 when every finished stream is clean, 1 otherwise."""
        for record in self.registry.records():
            if record.status in (PARKED, QUARANTINED, REJECTED):
                return 1
            for backend in (record.result or {}).get("backends", ()):
                if backend.get("warnings", 0):
                    return 1
        return 0

    # ---------------------------------------------------------- round body
    def _round(self) -> int:
        """One scan + one batch of stream attempts; returns events."""
        scan = self.scanner.scan(self.registry.known_paths())
        self._settling = len(scan.settling)
        for stable in scan.stable:
            self._register(stable)
        ready = self._ready_streams(time.monotonic())
        if not ready:
            return 0
        budgets = self._sliced_budgets(len(ready))
        tasks = [self._task_for(record, budgets) for record in ready]
        for record in ready:
            record.status = RUNNING
            self.registry.save(record)
        results = self._dispatch(tasks)
        events = 0
        for record, shard in zip(ready, results):
            outcome = shard.value if shard.ok else None
            if outcome is None:
                outcome = {
                    "stream_id": record.stream_id, "status": "failed",
                    "events": 0, "error": shard.error,
                }
            self.metrics.observe_outcome(outcome)
            events += outcome.get("events", 0)
            self._apply_outcome(record, outcome)
        return events

    def _dispatch(self, tasks: list[StreamTask]):
        """Run the batch; serial mode gets event-granular shutdown."""
        serial = self.config.jobs <= 1 or len(tasks) <= 1
        if serial and self.shutdown is not None:
            previous = set_stop_check(self.shutdown.check)
            try:
                return run_shards(run_stream_task, tasks, jobs=1)
            finally:
                set_stop_check(previous)
        return run_shards(run_stream_task, tasks, jobs=self.config.jobs)

    def _sliced_budgets(self, active: int) -> Budgets:
        return (
            self.config.budgets.slice(active)
            if active > 1 else self.config.budgets
        )

    # -------------------------------------------------------- registration
    def _register(self, stable: StableFile) -> None:
        if stable.format is None:
            self._quarantine(stable)
            return
        sid = stream_id(stable.path, stable.digest)
        if self.registry.get(sid) is not None:
            return   # re-observed after restart; registry is truth
        family = self._workload_family(stable.digest)
        original = self.registry.by_digest(stable.digest)
        if original is not None:
            self.registry.save(StreamRecord(
                stream_id=sid, path=str(stable.path),
                digest=stable.digest, format=stable.format,
                status=DUPLICATE,
                error=f"same content as {original.stream_id}",
                workload_family=family,
            ))
            self.metrics.count("duplicates_dropped")
            return
        checkpointable = self._checkpointable
        if not checkpointable and self.config.no_snapshot == "fail":
            self.registry.save(StreamRecord(
                stream_id=sid, path=str(stable.path),
                digest=stable.digest, format=stable.format,
                status=REJECTED, checkpointable=False,
                error="backend selection has no snapshot codec and "
                      "no_snapshot policy is 'fail'",
                workload_family=family,
            ))
            return
        self.registry.save(StreamRecord(
            stream_id=sid, path=str(stable.path), digest=stable.digest,
            format=stable.format, status=PENDING,
            checkpointable=checkpointable, workload_family=family,
        ))

    def _workload_family(self, digest):
        from repro.experiments.digests import family_for_digest

        return family_for_digest(self._lab_digests, digest)

    def _quarantine(self, stable: StableFile) -> None:
        """Record, then move: a kill between the two loses nothing —
        the record marks the path known, and the startup sweep
        finishes the move."""
        sid = stream_id(stable.path, stable.digest)
        if self.registry.get(sid) is None:
            self.registry.save(StreamRecord(
                stream_id=sid, path=str(stable.path),
                digest=stable.digest, format=None, status=QUARANTINED,
                error=stable.error or "unrecognized trace format",
            ))
            self.metrics.count("streams_quarantined")
        self._move_to_quarantine(stable.path)

    def _move_to_quarantine(self, path) -> None:
        import os

        target = self.config.quarantine_dir / path.name
        try:
            os.replace(path, target)
        except OSError:
            pass   # already moved, or raced a delete; record stands

    def _finish_quarantine_moves(self) -> None:
        for record in self.registry.records():
            if record.status == QUARANTINED:
                source = Path(record.path)
                if source.exists():
                    self._move_to_quarantine(source)

    # ---------------------------------------------------------- scheduling
    def _ready_streams(self, now: float) -> list[StreamRecord]:
        ready = []
        for record in self.registry.workable():
            if record.status == FAILED:
                deadline = self._next_retry.get(record.stream_id, 0.0)
                if now < deadline:
                    continue
            ready.append(record)
        return ready

    def _task_for(self, record: StreamRecord,
                  budgets: Budgets) -> StreamTask:
        checkpoint = (
            str(self.config.checkpoint_dir / f"{record.stream_id}.ckpt")
            if record.checkpointable else None
        )
        return StreamTask(
            stream_id=record.stream_id,
            path=record.path,
            format=record.format,
            backends=self.config.backends,
            checkpoint_path=checkpoint,
            checkpoint_every=self.config.checkpoint_every,
            budgets=budgets,
            on_pressure=self.config.on_pressure,
            max_retained=self.config.max_retained,
            memoize=self.config.memoize,
            memo_max=self.config.memo_max,
        )

    def _apply_outcome(self, record: StreamRecord, outcome: dict) -> None:
        status = outcome.get("status")
        if status == "done":
            record.status = DONE
            record.error = ""
            record.result = {
                "backends": outcome.get("backends", []),
                "events": outcome.get("events", 0),
                "resumed_from": outcome.get("resumed_from"),
                "quarantine": outcome.get("quarantine"),
                "degraded": outcome.get("degraded", False),
            }
            self._next_retry.pop(record.stream_id, None)
        elif status == "interrupted":
            # The final checkpoint carries the progress; next daemon
            # (or next round, if shutdown is rescinded) resumes it.
            record.status = PENDING
        else:
            record.attempts += 1
            record.error = outcome.get("error", "")[-_ERROR_TAIL:]
            if self.config.retry.exhausted(record.attempts):
                record.status = PARKED
                self.metrics.count("streams_parked")
                self._next_retry.pop(record.stream_id, None)
            else:
                record.status = FAILED
                self._next_retry[record.stream_id] = (
                    time.monotonic()
                    + self.config.retry.delay(record.attempts)
                )
        self.registry.save(record)

    def _drained(self) -> bool:
        return self._settling == 0 and self.registry.drained()

    # ------------------------------------------------------------ plumbing
    def _sleep(self, seconds: float) -> None:
        """Idle until the poll interval passes or a wake-up arrives."""
        if seconds <= 0:
            return
        try:
            self._wakeups.get(timeout=seconds)
            # The next scan takes every upload landed so far, so the
            # wake-ups queued behind this one are spent too.
            while True:
                self._wakeups.get_nowait()
        except queue.Empty:
            return

    def _on_ingest(self, path: Path) -> None:
        """Listener thread: an upload was published whole; take it on
        the next round without waiting out the poll or settle window."""
        self.metrics.count("ingested_sockets")
        self.scanner.mark_landed(path)
        self._wakeups.put(None)

    def _backends_checkpointable(self) -> bool:
        from repro.cli import resolve_backend

        return all(
            supports(resolve_backend(name)())
            for name in self.config.backends
        )

    def _stream_views(self) -> dict:
        from dataclasses import asdict

        return {"streams": [asdict(r) for r in self.registry.records()]}

    def start_endpoints(self) -> None:
        """Bind the HTTP and ingest endpoints (idempotent); callers
        that need the ephemeral port read it before :meth:`run`."""
        if self._endpoints_started:
            return
        self._endpoints_started = True
        if self.config.http_port is not None:
            self.metrics_server = MetricsServer(
                {
                    "/metrics": lambda: self.metrics.snapshot(
                        self.registry.counts(),
                        workload_families=self.registry.family_counts(),
                    ),
                    "/streams": self._stream_views,
                },
                port=self.config.http_port,
            )
            self.metrics_server.start()
        if self.config.socket_path is not None:
            self.ingest = IngestListener(
                self.config.socket_path, self.config.spool_dir,
                on_ingest=self._on_ingest,
            )
            self.ingest.start()

    def _stop_endpoints(self) -> None:
        if self.ingest is not None:
            self.ingest.stop()
            self.ingest = None
        if self.metrics_server is not None:
            self.metrics_server.stop()
            self.metrics_server = None
        self._endpoints_started = False
