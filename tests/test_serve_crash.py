"""Subprocess-level robustness tests: real signals, real kills.

``test_serve.py`` drives interruption in-process for speed; this file
pins the process-boundary contracts that only a real subprocess can
show:

* SIGTERM is graceful — a final checkpoint lands, state is persisted,
  and the exit status is 75 (``EX_TEMPFAIL``), distinct from both
  success and failure — for ``serve``, for ``check --checkpoint``,
  and for ``fuzz``;
* ``kill -9`` (which no handler can intercept) followed by a restart
  reproduces the exact verdicts of an uninterrupted daemon
  (:func:`repro.fuzz.faults.serve_crash_divergences`).
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.events.serialize import dump_jsonl
from repro.fuzz import trace_for_seed
from repro.fuzz.faults import serve_crash_divergences
from repro.resilience import EXIT_INTERRUPTED


def spawn(*argv, cwd=None):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=cwd, env=env,
    )


def wait_for(predicate, timeout=20.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestGracefulSigterm:
    def test_serve_exits_75_on_sigterm(self, tmp_path):
        spool = tmp_path / "spool"
        spool.mkdir()
        process = spawn(
            "serve", str(spool), "--http-port", "0",
            "--poll-interval", "0.05",
        )
        try:
            # The metrics line is printed after the handler is armed.
            banner = process.stdout.readline()
            assert banner.startswith("metrics on http://127.0.0.1:")
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
        assert process.returncode == EXIT_INTERRUPTED == 75

    def test_serve_sigterm_wakes_the_idle_wait(self, tmp_path):
        spool = tmp_path / "spool"
        spool.mkdir()
        process = spawn(
            "serve", str(spool), "--http-port", "0",
            "--poll-interval", "30",
        )
        try:
            banner = process.stdout.readline()
            assert banner.startswith("metrics on http://127.0.0.1:")
            time.sleep(1.0)   # an empty spool: the daemon is idle now
            process.send_signal(signal.SIGTERM)
            process.communicate(timeout=5)
        finally:
            if process.poll() is None:
                process.kill()
        assert process.returncode == EXIT_INTERRUPTED

    def test_check_checkpoint_sigterm_writes_final_checkpoint(
        self, tmp_path
    ):
        trace = tmp_path / "big.jsonl"
        with open(trace, "w", encoding="utf-8") as stream:
            for _ in range(60):   # long enough to signal mid-run
                dump_jsonl(trace_for_seed(33), stream)
        checkpoint = tmp_path / "state.ckpt"
        process = spawn(
            "check", str(trace), "--checkpoint", str(checkpoint),
            "--checkpoint-every", "16",
        )
        try:
            assert wait_for(checkpoint.exists), "run never got underway"
            process.send_signal(signal.SIGTERM)
            _, stderr = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
        assert process.returncode == EXIT_INTERRUPTED
        assert "interrupted by signal 15" in stderr
        assert "checkpoint written to" in stderr
        assert checkpoint.exists()
        # The interrupted run can be picked straight back up.
        resumed = spawn("check", str(trace), "--resume", str(checkpoint))
        stdout, _ = resumed.communicate(timeout=120)
        assert resumed.returncode in (0, 1)
        assert "resumed" in stdout

    def test_fuzz_sigterm_reports_partial_campaign(self, tmp_path):
        process = spawn(
            "fuzz", "--budget", "100000", "--seed", "1", cwd=tmp_path
        )
        try:
            assert wait_for(lambda: process.poll() is None, timeout=1)
            time.sleep(1.0)   # let a few iterations complete
            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
        assert process.returncode == EXIT_INTERRUPTED
        assert "interrupted" in stderr


class TestKillNineEquivalence:
    @pytest.mark.slow
    def test_daemon_killed_and_restarted_matches_uninterrupted(
        self, tmp_path
    ):
        divergences = serve_crash_divergences(
            seed=5, backends=("velodrome",), crash=True,
            tmp_root=tmp_path,
        )
        assert divergences == []

    @pytest.mark.slow
    def test_snapshotless_backend_replays_from_origin(self, tmp_path):
        """aerodrome has no snapshot codec: the daemon must declare
        its streams replay-from-origin and still converge to identical
        verdicts after a kill — never resume them lossily."""
        divergences = serve_crash_divergences(
            seed=6, backends=("velodrome", "aerodrome"), crash=True,
            tmp_root=tmp_path,
        )
        assert divergences == []
