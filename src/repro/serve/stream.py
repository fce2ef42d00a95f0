"""One stream, checked under supervision: the serve worker body.

:func:`process_stream` is what runs inside a worker process for every
(re)attempt at a stream: it builds the configured backends, resumes
from the stream's checkpoint generations when they exist, drains the
recording through the format-appropriate hardened source, and returns
a *bounded* picklable outcome — per-backend verdicts, first-warning
positions, warning counts and a fingerprint hash, quarantine totals —
never the unbounded warning or fault lists themselves.

Crash equivalence rests on two properties of this function:

* **resume is a pure function of (checkpoint, recording)** — packed
  streams seek to the checkpoint's block offset; JSONL and DSL streams
  re-read from the start through the *same* hardened reader, rebuilding
  its sequence-dedupe and structural-guard state, and skip delivery of
  the already-processed prefix.  Either way the backend sees exactly
  the operation suffix an uninterrupted run would have seen.
* **every attempt is deterministic** — no randomness, no wall-clock
  dependence, warnings ride inside the snapshot; so however many times
  a stream is killed and resumed, its final outcome is byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import time
import traceback
from bisect import bisect_right
from pathlib import Path
from typing import Callable, Optional

from repro.pipeline.source import PackedTraceSource
from repro.resilience.quarantine import (
    LENIENT,
    HardenedJsonlSource,
    HardenedTraceSource,
)
from repro.resilience.shutdown import ShutdownRequested
from repro.resilience.snapshot import previous_snapshot_path
from repro.resilience.supervisor import SupervisedChecker
from repro.store.sniff import FORMAT_DSL, FORMAT_JSONL, FORMAT_PACKED

#: Serial-mode shutdown hook: the daemon installs its latch here so
#: in-process stream runs stop at event granularity.  Worker processes
#: leave it None (their batch completes; periodic checkpoints bound
#: the re-work).  Set via :func:`set_stop_check`.
_stop_check: Optional[Callable[[], None]] = None


def set_stop_check(hook: Optional[Callable[[], None]]):
    """Install the in-process stop hook; returns the previous one."""
    global _stop_check
    previous = _stop_check
    _stop_check = hook
    return previous


def packed_checkpoint_meta(path) -> Callable[[int], dict]:
    """A ``checkpoint_meta`` callable for supervised runs over a
    packed trace: records the source file and the block-aligned byte
    offset from which a resume can re-read only the tail.

    The block index is read on the first checkpoint and kept, so later
    checkpoints bisect it instead of reopening the file.
    """
    index = None   # (total ops, block first_seqs, blocks) once read

    def meta(position: int) -> dict:
        nonlocal index
        if index is None:
            from repro.store.reader import PackedTraceReader

            with PackedTraceReader(path) as reader:
                index = (
                    reader.total_ops,
                    [block.first_seq for block in reader.blocks],
                    reader.blocks,
                )
        total_ops, starts, blocks = index
        entry: dict = {
            "trace": str(path),
            "format": "vtrc",
            "resume_seq": position,
        }
        if 0 <= position < total_ops:
            block = blocks[bisect_right(starts, position) - 1]
            entry["resume_block"] = block.number
            entry["resume_block_offset"] = block.byte_offset
        else:  # checkpoint at end of stream: nothing left to read
            entry["resume_block"] = None
            entry["resume_block_offset"] = None
        return entry

    return meta


def warning_fingerprint(backend) -> list[tuple]:
    """Everything observable about a backend's warnings, in order.

    The same tuple shape the differential fuzzer compares
    (:mod:`repro.fuzz.faults`), so serve results and fuzz oracles
    agree on what "identical warnings" means.
    """
    return [
        (w.kind.value, w.label, w.tid, w.position, w.message, w.blamed,
         w.target)
        for w in backend.warnings
    ]


def backend_result(backend) -> dict:
    """One backend's verdict, bounded however many warnings it found."""
    prints = warning_fingerprint(backend)
    digest = hashlib.sha256(
        json.dumps(prints, sort_keys=True, default=str).encode("utf-8")
    ).hexdigest()[:16]
    first = None
    if prints:
        kind, label, tid, position, message, _, _ = prints[0]
        first = {
            "kind": kind, "label": label, "tid": tid,
            "position": position, "message": message,
        }
    return {
        "backend": backend.name,
        "verdict": "serializable" if not prints else "not-serializable",
        "warnings": len(prints),
        "first_warning": first,
        "fingerprint": digest,
    }


def _resume_exists(checkpoint: Path) -> bool:
    return checkpoint.exists() or previous_snapshot_path(checkpoint).exists()


def _skipping_sink(checker: SupervisedChecker, skip: int):
    """Deliver ops to ``checker`` after silently dropping ``skip``.

    Textual streams have no seek index, so a resume re-reads the file
    through the same hardened reader — rebuilding its dedupe/guard
    state — and this sink discards the prefix the checkpoint already
    covers.
    """
    seen = 0

    def sink(op):
        nonlocal seen
        if seen < skip:
            seen += 1
            return
        checker.process(op)

    return sink


def process_stream(task) -> dict:
    """Run one attempt at one stream; returns a picklable outcome.

    ``task`` is a :class:`repro.parallel.tasks.StreamTask`.  Outcome
    ``status`` is ``"done"``, ``"interrupted"`` (graceful shutdown —
    a final checkpoint was written, not a failure), or ``"failed"``
    (the traceback is in ``error``; the daemon's retry policy decides
    what happens next).
    """
    from repro.cli import resolve_backend

    started = time.perf_counter()
    outcome: dict = {
        "stream_id": task.stream_id,
        "status": "failed",
        "events": 0,
        "elapsed": 0.0,
        "error": "",
        "checkpoints_written": 0,
        "recoveries": 0,
        "degraded": False,
        "degradations": 0,
        "checkpoint_lag": 0,
        "fast_forwarded_events": 0,
        "resumed_from": None,
        "quarantine": None,
        "memo": None,
        "backends": [],
    }
    checker = None
    try:
        checkpoint = (
            Path(task.checkpoint_path) if task.checkpoint_path else None
        )
        options = dict(
            checkpoint_every=(
                task.checkpoint_every if checkpoint is not None else None
            ),
            budgets=task.budgets,
            on_pressure=task.on_pressure,
            stop_check=_stop_check,
        )
        if task.format == FORMAT_PACKED:
            options["checkpoint_meta"] = packed_checkpoint_meta(task.path)
        memo = None
        if getattr(task, "memoize", False):
            from repro.core.memo import RegionMemo

            # Transient worker state: the memo table is rebuilt on every
            # attempt, so a resumed stream re-certifies from scratch and
            # the resume-is-pure property is untouched.
            memo = RegionMemo(max_entries=task.memo_max)
            options["memo"] = memo
        if checkpoint is not None and _resume_exists(checkpoint):
            checker = SupervisedChecker.resume_with_fallback(
                checkpoint, **options
            )
            outcome["resumed_from"] = str(checker.resumed_from)
        else:
            backends = [resolve_backend(name)() for name in task.backends]
            checker = SupervisedChecker(
                backends, checkpoint_path=checkpoint, **options
            )
        quarantine = None
        try:
            if task.format == FORMAT_PACKED:
                checker.run(
                    PackedTraceSource(task.path, start_seq=checker.position)
                )
            elif task.format == FORMAT_JSONL:
                source = HardenedJsonlSource(
                    task.path, policy=LENIENT,
                    max_retained=task.max_retained,
                )
                quarantine = source.quarantine
                source.run(_skipping_sink(checker, checker.position))
                checker.finish()
            elif task.format == FORMAT_DSL:
                from repro.events.serialize import load_trace

                source = HardenedTraceSource(
                    load_trace(task.path), policy=LENIENT,
                    max_retained=task.max_retained,
                )
                quarantine = source.quarantine
                source.run(_skipping_sink(checker, checker.position))
                checker.finish()
            else:
                raise ValueError(f"unknown stream format {task.format!r}")
        except ShutdownRequested:
            if checkpoint is not None:
                checker.checkpoint()
            outcome["status"] = "interrupted"
        else:
            if checkpoint is not None:
                checker.checkpoint()   # final: resume cost on restart is 0
            outcome["status"] = "done"
            outcome["backends"] = [
                backend_result(backend) for backend in checker.backends
            ]
        report = checker.report()
        outcome["events"] = checker.position
        outcome["checkpoints_written"] = report.checkpoints_written
        outcome["recoveries"] = report.recoveries
        outcome["degraded"] = report.degraded
        outcome["degradations"] = sum(
            governor.events.total for governor in checker.governors
        )
        outcome["checkpoint_lag"] = (
            checker.position - checker.last_checkpoint_position
        )
        outcome["fast_forwarded_events"] = checker.fast_forwarded_events
        if memo is not None:
            outcome["memo"] = memo.stats()
        if quarantine is not None:
            outcome["quarantine"] = {
                "total": len(quarantine),
                "dropped": quarantine.dropped,
                "counts": quarantine.counts(),
            }
    except Exception:  # noqa: BLE001 - containment: report, don't crash
        outcome["status"] = "failed"
        outcome["error"] = traceback.format_exc()
        if checker is not None:
            outcome["events"] = checker.position
    outcome["elapsed"] = time.perf_counter() - started
    return outcome
