"""Serve launcher: the ``repro serve`` daemon, optionally traced.

Usage::

    python3 perfbench/serve_launcher.py STATS.json [--trace] -- SERVE_ARGS...

With ``src`` on ``PYTHONPATH``.  The launcher installs the span
wrappers (with ``--trace``), then calls the CLI's entry point with
``serve SERVE_ARGS...``, so this process is the daemon.  When the
daemon exits (the benchmark stops it with SIGTERM, which the daemon
handles as a graceful shutdown, or it drains the spool and exits with
``--oneshot``) the launcher writes to ``STATS.json`` the daemon's peak
RSS, the wall-clock times at which the entry-point call started and
returned (interpreter start-up and imports left out) and, when traced,
its spans.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402  (the benchmark's own module)


def main(argv: list[str]) -> int:
    split = argv.index("--")
    own, serve_args = argv[:split], argv[split + 1:]
    stats_path = Path(own[0])
    tracer = None
    if "--trace" in own[1:]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    import repro.serve  # noqa: F401  (imported before the clock starts)
    from repro.cli import main as repro_main

    started = time.time()
    code = repro_main(["serve", *serve_args])
    stats = {
        "exit_code": code,
        "started_wall": started,
        "ended_wall": time.time(),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF
        ).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        stats["trace"] = tracer.dump()
        stats["wrapper_cost_s"] = tracing.wrapper_cost_seconds()
    tmp = stats_path.with_name(stats_path.name + ".tmp")
    tmp.write_text(json.dumps(stats), encoding="utf-8")
    tmp.replace(stats_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
