"""Graceful SIGTERM/SIGINT handling for long-running commands.

``repro serve``, ``repro check --checkpoint``, and ``repro fuzz`` can
run for hours; an operator stopping one (or an orchestrator draining a
node) sends SIGTERM and expects the process to *finish cleanly*: take a
final checkpoint, flush its reports, and exit with a code that says
"interrupted on request" rather than "crashed" or "found warnings".

:class:`GracefulShutdown` installs handlers that only set a flag and
wake the sleepers registered with :meth:`GracefulShutdown.on_trigger`
— no work happens in signal context — and the long-running loops poll
it at their natural safe points (between events for the supervised
checker, between iterations for the fuzzer, between rounds for the
serve daemon).  :meth:`GracefulShutdown.check` raises
:class:`ShutdownRequested` from those points; callers catch it, finish
their shutdown work, and exit with :data:`EXIT_INTERRUPTED`.

The previous handlers are restored on exit, so nesting (a supervised
check inside a test harness) behaves.
"""

from __future__ import annotations

import signal
import threading
from typing import Callable, Optional

#: Exit status of a command stopped by SIGTERM/SIGINT after a clean
#: shutdown (final checkpoint written, reports flushed).  Distinct from
#: 0 (completed), 1 (warnings/divergences), and 2 (usage error);
#: 75 is EX_TEMPFAIL — "try again later", which a checkpointed
#: interruption literally is.
EXIT_INTERRUPTED = 75

#: Signals a graceful shutdown responds to.
SHUTDOWN_SIGNALS = (signal.SIGTERM, signal.SIGINT)


class ShutdownRequested(Exception):
    """A shutdown signal arrived; unwind to the cleanup point."""

    def __init__(self, signum: int):
        super().__init__(f"shutdown requested by signal {signum}")
        self.signum = signum


class GracefulShutdown:
    """Context manager: latch shutdown signals instead of dying.

    Usage::

        with GracefulShutdown() as shutdown:
            for item in work:
                shutdown.check()   # raises ShutdownRequested
                process(item)

    or poll :attr:`triggered` where an exception is inconvenient.
    Handlers are process-global, so enter this only from the main
    thread (Python delivers signals there); worker threads share the
    latch through the instance.
    """

    def __init__(self) -> None:
        self._event = threading.Event()
        self.signum: Optional[int] = None
        self._previous: dict[int, object] = {}
        self._on_trigger: list[Callable[[], None]] = []

    # ------------------------------------------------------------- lifecycle
    def __enter__(self) -> "GracefulShutdown":
        for signum in SHUTDOWN_SIGNALS:
            self._previous[signum] = signal.signal(signum, self._handle)
        return self

    def __exit__(self, *exc_info) -> None:
        for signum, handler in self._previous.items():
            signal.signal(signum, handler)
        self._previous.clear()

    def _handle(self, signum, _frame) -> None:
        # Only latch; all real work happens at the caller's safe point.
        self.signum = signum
        self._event.set()
        for wake in self._on_trigger:
            wake()

    # ---------------------------------------------------------------- status
    @property
    def triggered(self) -> bool:
        return self._event.is_set()

    def check(self) -> None:
        """Raise :class:`ShutdownRequested` if a signal has arrived."""
        if self._event.is_set():
            raise ShutdownRequested(self.signum or 0)

    def on_trigger(self, wake: Callable[[], None]) -> None:
        """Also call ``wake`` when shutdown triggers, so a loop that
        sleeps on its own wake-up channel still stops at once.

        ``wake`` runs in the signal handler, which interrupts the main
        thread anywhere, so it must not take a lock the main thread
        may hold: ``queue.SimpleQueue.put`` is reentrant, while
        ``Event.set`` deadlocks on an event the main thread is inside
        ``wait`` of.
        """
        self._on_trigger.append(wake)

    def request(self, signum: int = signal.SIGTERM) -> None:
        """Trigger programmatically (tests, in-process embedding)."""
        self._handle(signum, None)
