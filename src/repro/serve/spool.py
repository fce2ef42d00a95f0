"""The spool watcher: turn dropped files into streams, safely.

A spool directory is written by *other* processes, so every messy
arrival mode is normal here:

* **file appearing mid-write** — a recorder writing a large trace in
  place is visible with a growing size.  The scanner only accepts a
  file once it is *stable*: its size and mtime were unchanged across
  two consecutive scans, or its mtime is older than
  ``settle_seconds``.  Until then it is re-checked next scan, never
  quarantined for being half-written.  A file renamed into place
  waits out the same rule: a scan cannot tell a rename from a growing
  file.  Only the daemon's own socket uploads skip it
  (:meth:`SpoolScanner.mark_landed`): the listener received them to
  end of stream before publishing them in one step.
* **duplicate re-drop** — identity is the content digest
  (:func:`repro.fuzz.corpus.trace_digest`), so the same trace under a
  new name or in a different lossless format is skipped as a
  duplicate, not re-checked.
* **garbage** — a file that sniffs as no known trace format (empty
  files included) is moved to the quarantine directory and recorded,
  without touching its neighbors.

The scanner itself never parses beyond the digest; classification of
*records inside* a stream is the checker's hardened readers' job.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.store.sniff import UnknownTraceFormat, sniff_path


@dataclass(frozen=True)
class StableFile:
    """One spool file ready to become a stream."""

    path: Path
    format: Optional[str]    #: sniffed format, None when unknown
    digest: str              #: content digest (``raw-`` prefixed fallback)
    content_digest: bool     #: True when digest is over canonical ops
    error: str = ""          #: why format is None


@dataclass
class ScanResult:
    """One scan pass: what became ready, what is still settling."""

    stable: list[StableFile] = field(default_factory=list)
    settling: list[Path] = field(default_factory=list)


def file_digest(path: Path, fmt: Optional[str]) -> tuple[str, bool]:
    """Content identity of a spool file.

    Parseable traces digest by canonical operation tuples — format
    independent, so ``x.jsonl`` and its packed re-encoding dedupe.
    Anything unparseable (unknown format, or a recognized header over
    a corrupt body) falls back to a raw-byte hash, marked ``raw-`` so
    it can never collide with a content digest.
    """
    if fmt is not None:
        from repro.events.serialize import load_trace
        from repro.fuzz.corpus import trace_digest

        try:
            return trace_digest(load_trace(path)), True
        except Exception:  # noqa: BLE001 - fall through to raw identity
            pass
    raw = hashlib.sha256(path.read_bytes()).hexdigest()[:12]
    return f"raw-{raw}", False


class SpoolScanner:
    """Stateful scanner over one spool directory.

    ``known`` paths (already registered streams) are skipped without a
    stat-beyond-listing; everything else goes through the stability
    protocol above.  The scanner holds only in-memory state, and only
    for files not yet handed out: after a daemon restart every spool
    file is simply re-observed, and the registry's path/digest indexes
    make re-observation idempotent.
    """

    def __init__(self, spool_dir: Path, settle_seconds: float = 1.0):
        self.spool_dir = Path(spool_dir)
        self.settle_seconds = settle_seconds
        #: path -> (size, mtime_ns) of a file still settling.
        self._sightings: dict[Path, tuple[int, int]] = {}
        #: Uploads published whole since the last scan began; the
        #: ingest thread adds to it while the daemon loop scans.
        self._landed: set[Path] = set()
        self._landed_lock = threading.Lock()

    def mark_landed(self, path: Path) -> None:
        """Take ``path`` as stable on its next sighting: it was written
        to completion elsewhere and published in one atomic step."""
        with self._landed_lock:
            self._landed.add(Path(path))

    def scan(self, known: set[str], now: Optional[float] = None) -> ScanResult:
        """One pass over the spool; ``known`` are registered paths."""
        now = time.time() if now is None else now
        # Every path marked before the listing is in it (it was
        # published first), so this scan consumes the whole set.
        with self._landed_lock:
            landed, self._landed = self._landed, set()
        result = ScanResult()
        present: set[Path] = set()
        for path in sorted(self.spool_dir.iterdir()):
            if not path.is_file():
                continue
            if path.name.startswith(".") or path.name.endswith(".tmp"):
                continue   # daemon state, editors, in-flight ingest
            if str(path) in known:
                continue
            present.add(path)
            try:
                stat = path.stat()
            except OSError:
                continue   # raced a concurrent delete
            shape = (stat.st_size, stat.st_mtime_ns)
            settled = (
                path in landed
                or self._sightings.get(path) == shape
                or now - stat.st_mtime >= self.settle_seconds
            )
            if not settled:
                self._sightings[path] = shape
                result.settling.append(path)
                continue
            self._sightings.pop(path, None)
            result.stable.append(self._classify(path))
        # Forget files that vanished so a re-drop restarts the protocol.
        for path in list(self._sightings):
            if path not in present:
                del self._sightings[path]
        return result

    def _classify(self, path: Path) -> StableFile:
        try:
            fmt = sniff_path(path)
            error = ""
        except UnknownTraceFormat as exc:
            fmt = None
            error = str(exc)
        except OSError as exc:
            fmt = None
            error = f"unreadable: {exc}"
        digest, content = file_digest(path, fmt)
        return StableFile(
            path=path, format=fmt, digest=digest,
            content_digest=content, error=error,
        )
