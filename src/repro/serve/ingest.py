"""Unix-socket trace ingest: one connection, one complete trace.

A recorder that cannot (or should not) write into the spool directory
itself connects to the daemon's unix socket, streams one complete
trace — any on-disk format the sniffer knows — and closes its write
side.  The listener writes the bytes to a dot-prefixed temp file in
the spool (invisible to the scanner) and publishes it with one atomic
link, so the scanner can never observe a half-received upload.  The
``on_ingest`` callback then tells the daemon the file is complete: it
skips the spool's stability protocol and is checked on the daemon's
next round, with the same dedupe and the same quarantine path for
garbage as a dropped file.

A published name is never reused.  Uploads are named
``ingest-<pid>-<n>.trace``, ``n`` counting this process's uploads from
0; a daemon restarted under the same pid (routine for PID 1 in a
container) counts from 0 again, so a taken name gets a ``-<k>``
suffix instead of replacing an upload already in the spool.

The listener runs on its own daemon thread and never raises into the
daemon loop: a client that disconnects mid-upload just loses its temp
file; a flood of connections is bounded by the socket backlog.
"""

from __future__ import annotations

import itertools
import os
import socket
import threading
from pathlib import Path
from typing import Callable, Optional

#: Bound one upload to something a spool can hold (256 MiB).
MAX_UPLOAD_BYTES = 256 * 1024 * 1024
_CHUNK = 64 * 1024


class IngestListener:
    """Accepts trace uploads on a unix socket, spools them atomically.

    Args:
        socket_path: where to bind (an existing socket file is
            replaced — a previous daemon's leftover bind).
        spool_dir: the watched spool directory uploads land in.
        on_ingest: optional callback invoked, on the listener thread,
            with the published path after each successful upload.
    """

    def __init__(
        self,
        socket_path: Path,
        spool_dir: Path,
        on_ingest: Optional[Callable[[Path], None]] = None,
    ):
        self.socket_path = Path(socket_path)
        self.spool_dir = Path(spool_dir)
        self._on_ingest = on_ingest
        self._counter = itertools.count()
        self._closing = threading.Event()
        self.socket_path.unlink(missing_ok=True)
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.bind(str(self.socket_path))
        self._sock.listen(8)
        self._sock.settimeout(0.5)
        self._thread = threading.Thread(
            target=self._serve, name="repro-serve-ingest", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._closing.set()
        self._sock.close()
        self._thread.join(timeout=5)
        self.socket_path.unlink(missing_ok=True)

    # ----------------------------------------------------------- internals
    def _serve(self) -> None:
        while not self._closing.is_set():
            try:
                connection, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return   # socket closed under us: shutting down
            try:
                self._receive(connection)
            except Exception:  # noqa: BLE001 - a bad client is not fatal
                pass
            finally:
                connection.close()

    def _receive(self, connection: socket.socket) -> None:
        connection.settimeout(30.0)
        stem = f"ingest-{os.getpid()}-{next(self._counter)}"
        tmp = self.spool_dir / f".{stem}.tmp"
        received = 0
        try:
            with open(tmp, "wb") as sink:
                while True:
                    chunk = connection.recv(_CHUNK)
                    if not chunk:
                        break
                    received += len(chunk)
                    if received > MAX_UPLOAD_BYTES:
                        raise ValueError("upload exceeds size bound")
                    sink.write(chunk)
            if received == 0:
                raise ValueError("empty upload")
            final = self._publish(tmp, stem)
        finally:
            # A partial upload, or the temp name of a published one.
            tmp.unlink(missing_ok=True)
        if self._on_ingest is not None:
            self._on_ingest(final)

    def _publish(self, tmp: Path, stem: str) -> Path:
        """Link ``tmp`` into the spool under the first free name."""
        final = self.spool_dir / f"{stem}.trace"
        for suffix in itertools.count(1):
            try:
                os.link(tmp, final)
                return final
            except FileExistsError:
                final = self.spool_dir / f"{stem}-{suffix}.trace"


def upload_trace(socket_path: Path, payload: bytes) -> None:
    """Client helper: push one complete trace to a serve daemon."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.connect(str(socket_path))
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        sock.recv(1)   # wait for the daemon to close: upload published
