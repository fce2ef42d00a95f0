"""Configuration of one ``repro serve`` daemon."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.resilience.governor import Budgets
from repro.serve.retry import RetryPolicy

PathLike = Union[str, Path]

#: What to do with a stream whose backend selection has no snapshot
#: codec (e.g. ``aerodrome``): ``"replay"`` runs it without checkpoints
#: — a daemon restart deterministically replays it from the origin, so
#: crash equivalence still holds, just without zero-loss resume;
#: ``"fail"`` rejects the stream up front.  There is no third option:
#: silently dropping already-processed events would be lossy.
NO_SNAPSHOT_POLICIES = ("replay", "fail")


@dataclass(frozen=True)
class ServeConfig:
    """Everything a :class:`~repro.serve.daemon.ServeDaemon` needs.

    Attributes:
        spool_dir: watched directory; every stable file that sniffs as
            a trace becomes one checked stream.
        state_dir: where registry records, per-stream checkpoints, and
            quarantined files live (default: ``<spool>/.serve``).
            Dot-prefixed, so the spool scanner never mistakes daemon
            state for input.
        backends: CLI backend names every stream is checked under.
        jobs: worker processes streams are sharded across per round
            (``<= 1`` processes them serially in the daemon process).
        checkpoint_every: events between periodic checkpoints within
            each stream (block-granular streams checkpoint on interval
            crossings).
        budgets: the **global** resource budget; each round it is
            sliced evenly across the streams being worked on
            (:meth:`~repro.resilience.governor.Budgets.slice`).
        on_pressure: governor ladder ceiling, as in ``repro check``.
        no_snapshot: policy for backends without snapshot codecs
            (:data:`NO_SNAPSHOT_POLICIES`).
        retry: backoff-and-park policy for failed streams.
        poll_interval: seconds an idle daemon waits before scanning
            the spool again; it bounds how long a file dropped into the
            spool waits to be seen, and how long a failed stream waits
            past its retry backoff.  Socket uploads wake the daemon at
            once instead.
        settle_seconds: a file younger than this (by mtime) that the
            scanner has not yet seen twice with an unchanged size is
            presumed still being written and re-checked next scan
            (socket uploads land complete and skip this).
        http_port: serve live metrics over HTTP on this port (``0``
            binds an ephemeral port; ``None`` disables the server).
        socket_path: accept trace uploads on this unix socket (one
            connection = one complete trace, spooled atomically);
            ``None`` disables the listener.
        max_retained: per-stream diagnostic retention cap (quarantine
            faults, degradation events).
        memoize: enable region memoization inside every stream's
            supervised checker (``--memoize``): repeated transaction
            shapes apply cached summaries instead of replaying, with
            per-stream memo counters folded into ``/metrics``.
        memo_max: per-stream memo table capacity (region shapes);
            least-recently-used shapes evict beyond it.
    """

    spool_dir: Path
    state_dir: Optional[Path] = None
    backends: tuple[str, ...] = ("velodrome",)
    jobs: int = 1
    checkpoint_every: int = 1024
    budgets: Budgets = field(default_factory=Budgets)
    on_pressure: str = "degrade"
    no_snapshot: str = "replay"
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    poll_interval: float = 0.25
    settle_seconds: float = 1.0
    http_port: Optional[int] = None
    socket_path: Optional[Path] = None
    max_retained: int = 1024
    memoize: bool = False
    memo_max: int = 1024
    #: Optional ``digest -> family`` map written by ``repro lab run
    #: --digests``; spooled streams whose content digest matches a
    #: lab-recorded trace are tagged with their ``workload_family`` in
    #: ``/streams`` and counted per family in ``/metrics``.
    lab_digests: Optional[Path] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "spool_dir", Path(self.spool_dir))
        if self.lab_digests is not None:
            object.__setattr__(
                self, "lab_digests", Path(self.lab_digests)
            )
        state = (
            Path(self.state_dir) if self.state_dir is not None
            else self.spool_dir / ".serve"
        )
        object.__setattr__(self, "state_dir", state)
        if self.no_snapshot not in NO_SNAPSHOT_POLICIES:
            raise ValueError(
                f"unknown no_snapshot policy {self.no_snapshot!r}; "
                f"expected one of {NO_SNAPSHOT_POLICIES}"
            )
        if not self.backends:
            raise ValueError("at least one backend is required")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.poll_interval < 0 or self.settle_seconds < 0:
            raise ValueError("intervals must be >= 0")

    # ------------------------------------------------------- derived layout
    @property
    def registry_dir(self) -> Path:
        return self.state_dir / "streams"

    @property
    def checkpoint_dir(self) -> Path:
        return self.state_dir / "checkpoints"

    @property
    def quarantine_dir(self) -> Path:
        return self.state_dir / "quarantine"

    def ensure_layout(self) -> None:
        for directory in (
            self.spool_dir, self.state_dir, self.registry_dir,
            self.checkpoint_dir, self.quarantine_dir,
        ):
            directory.mkdir(parents=True, exist_ok=True)
