"""Composable filter stages of the event pipeline.

Mirrors RoadRunner's event plumbing (paper Section 5): instrumented
code produces one event per operation, and a chain of *stages* may drop
events — re-entrant lock operations, thread-local data, excluded atomic
blocks — before they reach the analysis back-ends.

Every stage is a :class:`Stage`: it sees each surviving operation in
trace order and either forwards it (possibly transformed) or drops it
by returning ``None``.  The base class keeps per-stage ``seen`` and
``dropped`` counters, surfaced by :class:`~repro.pipeline.metrics.
PipelineMetrics` so a ``--stats`` run shows exactly where event volume
goes.  Subclasses implement :meth:`Stage._apply`; the counting wrapper
:meth:`Stage.process` is the entry point callers use.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.events.operations import Operation, OpKind


class Stage:
    """Base class: transform or drop events before analysis.

    Stages are stateful (filters track lock depths, ownership, block
    nesting) and therefore single-use: build a fresh chain per run.
    """

    #: Short name used in metrics tables.
    name: str = "stage"

    def __init__(self) -> None:
        self.seen = 0
        self.dropped = 0

    def _apply(self, op: Operation) -> Optional[Operation]:
        """Return the operation to forward, or ``None`` to drop it."""
        return op

    def process(self, op: Operation) -> Optional[Operation]:
        """Apply the stage to one operation, updating drop counters."""
        self.seen += 1
        out = self._apply(op)
        if out is None:
            self.dropped += 1
        return out


class ReentrantLockFilter(Stage):
    """Drop re-entrant (and hence redundant) lock acquires/releases.

    RoadRunner performs this filtering so back-ends see each lock held
    at most once (paper Section 5).  The interpreter already filters
    its own events; this stage makes hand-written traces safe too.
    """

    name = "reentrant-lock"

    def __init__(self) -> None:
        super().__init__()
        self._depth: dict[tuple[int, str], int] = {}

    def _apply(self, op: Operation) -> Optional[Operation]:
        if op.kind is OpKind.ACQUIRE:
            key = (op.tid, op.target)
            depth = self._depth.get(key, 0)
            self._depth[key] = depth + 1
            return op if depth == 0 else None
        if op.kind is OpKind.RELEASE:
            key = (op.tid, op.target)
            depth = self._depth.get(key, 1)
            self._depth[key] = depth - 1
            return op if depth == 1 else None
        return op


class ThreadLocalFilter(Stage):
    """Drop accesses to data observed by only one thread so far.

    Dramatically reduces event volume, at the cost of being *slightly
    unsound* (paper Section 5, citing Eraser): the accesses performed
    before a variable first becomes shared are lost to the analysis.
    Enabled for the performance experiments, disabled by default.
    """

    name = "thread-local"

    def __init__(self) -> None:
        super().__init__()
        self._owner: dict[str, int] = {}
        self._shared: set[str] = set()

    def _apply(self, op: Operation) -> Optional[Operation]:
        if not op.is_access:
            return op
        var = op.target
        if var in self._shared:
            return op
        owner = self._owner.get(var)
        if owner is None:
            self._owner[var] = op.tid
            return None
        if owner == op.tid:
            return None
        self._shared.add(var)
        return op


class AtomicSpecFilter(Stage):
    """Keep only the atomic blocks of a specification.

    The Velodrome tool "takes as input a compiled Java program and a
    specification of which methods in that program should be atomic"
    (paper Section 5).  This stage implements the specification side:
    blocks whose label is *not* in the spec have their begin/end
    markers stripped, so only the specified methods are checked for
    atomicity (their operations still flow to the analyses, as data
    other transactions may conflict with).
    """

    name = "atomic-spec"

    def __init__(self, atomic_labels: Iterable[str]):
        super().__init__()
        self.atomic_labels = frozenset(atomic_labels)
        self._stacks: dict[int, list[bool]] = {}

    def _apply(self, op: Operation) -> Optional[Operation]:
        if op.kind is OpKind.BEGIN:
            keep = op.label in self.atomic_labels
            self._stacks.setdefault(op.tid, []).append(keep)
            return op if keep else None
        if op.kind is OpKind.END:
            stack = self._stacks.get(op.tid)
            if not stack:
                return op
            return op if stack.pop() else None
        return op


class UninstrumentedLockFilter(Stage):
    """Strip acquire/release events for selected locks.

    Models synchronization performed inside uninstrumented libraries
    (paper Sections 5-6): the lock still serializes the interpreter's
    threads, but no analysis sees it.  Velodrome stays precise — a
    subsequence of a serializable trace is serializable — while
    LockSet-based tools see the protected accesses as racy.
    """

    name = "uninstrumented-lock"

    def __init__(self, locks: Iterable[str]):
        super().__init__()
        self.locks = frozenset(locks)

    def _apply(self, op: Operation) -> Optional[Operation]:
        if op.is_lock_op and op.target in self.locks:
            return None
        return op


class BlockFilter(Stage):
    """Strip the begin/end events of selected atomic blocks.

    Used to reproduce the paper's Table 1 methodology: first identify
    the non-atomic methods, then re-run performance experiments
    checking only the remaining methods, by erasing the excluded
    blocks' boundaries (their operations then run non-transactionally
    unless nested inside a kept block).
    """

    name = "block-exclude"

    def __init__(self, exclude_labels: Iterable[str]):
        super().__init__()
        self.exclude_labels = frozenset(exclude_labels)
        self._stacks: dict[int, list[bool]] = {}

    def _apply(self, op: Operation) -> Optional[Operation]:
        if op.kind is OpKind.BEGIN:
            keep = op.label not in self.exclude_labels
            self._stacks.setdefault(op.tid, []).append(keep)
            return op if keep else None
        if op.kind is OpKind.END:
            stack = self._stacks.get(op.tid)
            if not stack:
                return op
            keep = stack.pop()
            return op if keep else None
        return op
