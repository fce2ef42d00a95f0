"""A precise (sound and complete) happens-before race detector.

RoadRunner ships a vector-clock race detector alongside Eraser (paper
Section 5); we include the equivalent, in the DJIT+ style: per-thread
vector clocks, per-lock clocks joined on acquire, and per-variable
read/write clocks.  An access races when it is not ordered (by the
lock-induced happens-before relation) after every conflicting prior
access.

Data races and atomicity violations are complementary (paper Section
1): Velodrome assumes race-freedom gives meaning to traces, and this
detector can run concurrently with it when races are a concern.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.backend import AnalysisBackend
from repro.core.clocks import VectorClock
from repro.core.reports import race_warning
from repro.events.operations import Operation, OpKind

__all__ = ["HappensBeforeRaces"]


@dataclass
class _VarClocks:
    """Per-variable access history."""

    reads: dict[int, int] = field(default_factory=dict)  # tid -> clock
    read_vcs: dict[int, VectorClock] = field(default_factory=dict)
    write: Optional[tuple[int, int]] = None  # (tid, clock) epoch
    write_vc: Optional[VectorClock] = None
    reported: bool = False


class HappensBeforeRaces(AnalysisBackend):
    """Vector-clock happens-before race detection."""

    name = "HB-RACES"

    def __init__(self, report_once_per_var: bool = True):
        super().__init__()
        self.report_once_per_var = report_once_per_var
        self._threads: dict[int, VectorClock] = {}
        self._locks: dict[str, VectorClock] = {}
        self._vars: dict[str, _VarClocks] = {}
        # Per-kind dispatch table; BEGIN/END are absent (they carry no
        # synchronization).
        self._handlers = {
            OpKind.ACQUIRE: self._acquire,
            OpKind.RELEASE: self._release,
            OpKind.READ: self._read,
            OpKind.WRITE: self._write,
        }

    def clock(self, tid: int) -> VectorClock:
        """The current vector clock of thread ``tid``."""
        vc = self._threads.get(tid)
        if vc is None:
            vc = VectorClock({tid: 1})
            self._threads[tid] = vc
        return vc

    # ----------------------------------------------------------- process
    def process(self, op: Operation) -> None:
        # Overrides the base class to fold the process -> _process call
        # into a single frame.
        handler = self._handlers.get(op.kind)
        if handler is not None:
            handler(op, self.events_processed)
        self.events_processed += 1

    def _process(self, op: Operation, position: int) -> None:
        handler = self._handlers.get(op.kind)
        if handler is not None:
            handler(op, position)

    def _acquire(self, op: Operation, position: int) -> None:
        lock_vc = self._locks.get(op.target)
        if lock_vc is not None:
            self.clock(op.tid).join(lock_vc)

    def _release(self, op: Operation, position: int) -> None:
        vc = self.clock(op.tid)
        self._locks[op.target] = vc.copy()
        vc.tick(op.tid)

    def _read(self, op: Operation, position: int) -> None:
        tid = op.tid
        vc = self.clock(tid)
        info = self._vars.setdefault(op.target, _VarClocks())
        if info.write is not None:
            writer, clock = info.write
            if writer != tid and vc.get(writer) < clock:
                self._race(op, position, info, f"read unordered with write by t{writer}")
        info.reads[tid] = vc.get(tid)
        info.read_vcs[tid] = vc.copy()

    def _write(self, op: Operation, position: int) -> None:
        tid = op.tid
        vc = self.clock(tid)
        info = self._vars.setdefault(op.target, _VarClocks())
        if info.write is not None:
            writer, clock = info.write
            if writer != tid and vc.get(writer) < clock:
                self._race(op, position, info, f"write unordered with write by t{writer}")
        for reader, clock in info.reads.items():
            if reader != tid and vc.get(reader) < clock:
                self._race(op, position, info, f"write unordered with read by t{reader}")
        info.write = (tid, vc.get(tid))
        info.write_vc = vc.copy()
        info.reads.clear()
        info.read_vcs.clear()

    def _race(
        self, op: Operation, position: int, info: _VarClocks, why: str
    ) -> None:
        if info.reported and self.report_once_per_var:
            return
        info.reported = True
        self.report(
            race_warning(
                self.name, op.tid, position, op.target, f"data race: {why} ({op})"
            )
        )
