"""The repository benchmark: check throughput and serve latency.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload server_dense --seed 1 \\
        --seconds 12 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen):

* ``server_dense`` — the five server families, closed-loop checks;
* ``request_loop`` — the high-repetition request loop, closed-loop checks;
* ``serve_coarse`` — paper programs under a coarse schedule, uploaded
  to a ``repro serve`` daemon in an open loop.

Set-up records and packs the workload's traces from ``--seed``, once
up front and again in every round of the run (``CHECK_ROUNDS``,
``SERVE_ROUNDS``); ``setup_s`` adds up each trace's fastest set-up.
The measured windows add up to about ``--seconds``.  Every verdict is
gated; a mismatch is counted in
``failed`` and the command exits 1.  With ``--trace 0`` the last line
of output is a JSON object carrying the end-to-end metrics; with
``--trace 1`` the same run is made with span wrappers installed and the
JSON carries the per-layer metrics instead.  ``--tiny`` shrinks every
workload for the self-tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402  (the benchmark's own modules)
import workloads  # noqa: E402

WORKLOADS = ("server_dense", "request_loop", "serve_coarse")

#: Rounds of a check workload (one in a traced run).  Each round makes
#: set-ups for ``SETUP_SHARE`` of its share of ``--seconds`` (at least
#: one), then checks closed loop for its share.  ``setup_s`` adds up
#: each trace's fastest set-up and the throughput takes each job's
#: fastest pass.  The box is shared, and a neighbour slows work by up to
#: 2x, for a fraction of a second or for a minute; interference only
#: ever slows work down, so the fastest of several repetitions of each
#: piece is the steadiest figure, and spreading the repetitions over the
#: run lets it outlast a slow spell.
CHECK_ROUNDS = 4
SETUP_SHARE = 0.25

#: How long a child may take beyond the measured window.
CHILD_GRACE_S = 90.0

#: Registry poll period while waiting for served verdicts.  It bounds
#: how soon the run notices completion, not the latency measured (that
#: comes from the record's modification time).
POLL_S = 0.05

#: Rounds of ``serve_coarse`` after its open loop (one in a traced
#: run).  Each round makes one more set-up, one closed-loop drain of
#: every served stream by a ``repro serve --oneshot`` daemon (untraced
#: runs only) and ``REFERENCE_PASSES`` passes of the plain reference
#: check over them.  Spreading each kind of repetition over the whole
#: run lets the fastest of them outlast a slow spell of the machine.
SERVE_ROUNDS = 4
REFERENCE_PASSES = 1

#: End-to-end metrics and units, in report order.
END_TO_END = {
    "setup_s": "s",
    "events_per_s": "events/s",
    "velodrome_events_per_s": "events/s",
    "aerodrome_events_per_s": "events/s",
    "stream_p50_s": "s",
    "stream_p90_s": "s",
    "peak_rss_mb": "MiB",
}


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a wrong verdict)."""


# -------------------------------------------------------------- statistics
def percentile(values, p: float) -> float:
    """The ``p``-th percentile (inclusive method); 0 with no values."""
    values = sorted(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(p) - 1
    ]


# ------------------------------------------------------------- environment
def environment(root: Path, seed: int) -> dict:
    commit = None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "loadavg_before": list(os.getloadavg()),
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


# ------------------------------------------------------------------ set-up
class SetUps:
    """Every set-up of a run; the first one's files are the input."""

    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.runs: list[workloads.SetupRun] = []
        #: One per repetition that recorded other bytes than the first.
        self.problems: list[str] = []

    def repeat(self) -> None:
        rep = len(self.runs)
        run = workloads.set_up(
            self.args.workload, self.args.seed, self.args.seconds,
            self.args.tiny, self.work / f"setup{rep}",
        )
        self.runs.append(run)
        if rep:
            if [t.digest for t in run.traces] != [
                t.digest for t in self.runs[0].traces
            ]:
                self.problems.append(
                    f"set-up rep {rep} recorded different traces than "
                    f"rep 0 from the same seed"
                )
            shutil.rmtree(self.work / f"setup{rep}")

    def seconds(self) -> float:
        """Each trace's fastest set-up, added up."""
        return sum(
            min(run.traces[i].seconds for run in self.runs)
            for i in range(len(self.runs[0].traces))
        )


# ------------------------------------------------------------------ checks
def run_checker(root: Path, work: Path, jobs: list[dict], seconds: float,
                passes: int, trace: bool, name: str) -> dict:
    from repro.core.memo import DEFAULT_MEMO_MAX

    spec = {
        "jobs": jobs, "seconds": seconds, "passes": passes, "trace": trace,
        "memo_max": DEFAULT_MEMO_MAX, "out": str(work / f"{name}.out.json"),
    }
    spec_path = work / f"{name}.spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "checker.py"), str(spec_path)],
            cwd=root, env=child_env(root), capture_output=True, text=True,
            timeout=seconds + CHILD_GRACE_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"check worker timed out after {exc.timeout}s")
    if done.returncode != 0:
        raise BenchError(f"check worker failed:\n{done.stderr[-3000:]}")
    return json.loads(Path(spec["out"]).read_text(encoding="utf-8"))


def check_jobs(traces) -> list[dict]:
    return [
        {"trace": str(trace.path), "backend": backend}
        for trace in traces for backend in workloads.BACKENDS
    ]


def gate_checks(workload: str, traces, results: list[dict],
                failed: set, problems: list) -> None:
    """Gate every job; ``failed`` collects indices into ``results``."""
    per_pass = len(traces) * len(workloads.BACKENDS)
    for index, result in enumerate(results):
        trace = traces[result["job"] // len(workloads.BACKENDS)]
        backend = workloads.BACKENDS[
            result["job"] % len(workloads.BACKENDS)
        ]
        problem = workloads.gate_job(workload, trace, backend, result)
        if problem is None and backend == "aerodrome":
            base = index - index % per_pass
            velodrome = results[base + result["job"] - 1]
            problem = workloads.gate_agreement(trace, velodrome, result)
        if problem is not None:
            failed.add(index)
            problems.append(problem)


def best_times(results: list[dict]) -> dict[int, tuple[int, float]]:
    """Job -> (events, fastest duration) over every pass.

    Interference from other tenants of the machine only ever slows a
    job down, so the fastest of a job's passes is its steadiest time.
    """
    best: dict[int, tuple[int, float]] = {}
    for result in results:
        seconds = result["end"] - result["start"]
        job = result["job"]
        if job not in best or seconds < best[job][1]:
            best[job] = (result["events"], seconds)
    return best


def throughput(best: dict[int, tuple[int, float]], backend=None) -> float:
    """Events per second over the fastest pass of each chosen job."""
    width = len(workloads.BACKENDS)
    chosen = [
        times for job, times in best.items()
        if backend is None or workloads.BACKENDS[job % width] == backend
    ]
    seconds = sum(elapsed for _events, elapsed in chosen)
    return sum(events for events, _ in chosen) / seconds if seconds else 0.0


# ------------------------------------------------------------------- serve
class Uploader(threading.Thread):
    """Open-loop generator: uploads each stream at its scheduled time.

    Arrival times are a Poisson process of rate ``SERVE_RATE``
    conditioned on the stream count: sorted uniform draws over the
    window, from the benchmark seed.
    """

    def __init__(self, socket_path: str, payloads: list[bytes],
                 offsets: list[float], start: float):
        super().__init__(name="perfbench-uploader", daemon=True)
        self.socket_path = socket_path
        self.payloads = payloads
        self.offsets = offsets
        self.start_at = start
        self.sent: list[float] = []
        self.error: str = ""

    def run(self) -> None:
        from repro.serve.ingest import upload_trace

        try:
            for payload, offset in zip(self.payloads, self.offsets):
                delay = self.start_at + offset - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                self.sent.append(time.perf_counter())
                upload_trace(Path(self.socket_path), payload)
        except OSError as exc:
            self.error = f"upload failed: {exc}"


def stop_process(process: subprocess.Popen, timeout: float = 30.0) -> None:
    """SIGTERM, wait, then SIGKILL; always reaps the child."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


def serve_window(args, root: Path, work: Path, traces) -> dict:
    """Launch the daemon, upload every stream, collect the verdicts."""
    rel = work.relative_to(root)
    spool = rel / "spool"
    socket_path = str(rel / "s.sock")
    stats_path = work / "daemon.json"
    registry = root / spool / ".serve" / "streams"
    command = [
        sys.executable, str(HERE / "serve_launcher.py"), str(stats_path),
        *(["--trace"] if args.trace else []),
        "--", str(spool), "--socket", socket_path, "--memoize",
    ]
    payloads = [trace.path.read_bytes() for trace in traces]
    window = len(traces) / workloads.SERVE_RATE
    rng = random.Random(args.seed)
    offsets = sorted(rng.uniform(0.0, window) for _ in traces)
    with open(work / "daemon.log", "wb") as log:
        daemon = subprocess.Popen(
            command, cwd=root, env=child_env(root), stdout=log,
            stderr=subprocess.STDOUT,
        )
        try:
            deadline = time.monotonic() + 60
            while not (root / socket_path).exists():
                if daemon.poll() is not None or time.monotonic() > deadline:
                    raise BenchError("serve daemon did not come up")
                time.sleep(0.02)
            start = time.perf_counter()
            start_wall = time.time()
            uploader = Uploader(str(root / socket_path), payloads, offsets,
                                start)
            uploader.start()
            verdicts = watch_registry(
                registry, len(traces), start + window + CHILD_GRACE_S,
                daemon,
            )
            uploader.join(timeout=CHILD_GRACE_S)
            if uploader.error:
                raise BenchError(uploader.error)
        finally:
            stop_process(daemon)
    if not stats_path.exists():
        raise BenchError("serve daemon exited without writing its stats")
    stats = json.loads(stats_path.read_text(encoding="utf-8"))
    return {
        "verdicts": verdicts,
        "scheduled_wall": [start_wall + offset for offset in offsets],
        "lag": [sent - (start + offset)
                for sent, offset in zip(uploader.sent, offsets)],
        "daemon": stats,
    }


_UPLOAD_INDEX = re.compile(r"^ingest-\d+-(\d+)-")


def read_registry(registry: Path, final: dict[int, dict],
                  seen: dict[str, int]) -> None:
    """Add to ``final`` every stream whose record turned terminal.

    ``final`` maps upload index -> record (with ``done_wall``, the record
    file's modification time).  Only records whose file changed since
    the last call (``seen``: file name -> mtime) are read.
    """
    from repro.serve.registry import TERMINAL

    if not registry.exists():
        return
    for entry in os.scandir(registry):
        if not entry.name.endswith(".json"):
            continue
        match = _UPLOAD_INDEX.match(entry.name)
        if match is None:
            continue
        index = int(match.group(1))
        if index in final:
            continue
        try:
            mtime = entry.stat().st_mtime_ns
            if seen.get(entry.name) == mtime:
                continue
            record = json.loads(Path(entry.path).read_text("utf-8"))
        except (OSError, ValueError):
            continue   # replaced under us; the next call sees it
        seen[entry.name] = mtime
        if record.get("status") in TERMINAL:
            record["done_wall"] = mtime / 1e9
            final[index] = record


def watch_registry(registry: Path, count: int, deadline: float,
                   daemon: subprocess.Popen) -> dict[int, dict]:
    """Read the daemon's registry records until every stream is final."""
    seen: dict[str, int] = {}
    final: dict[int, dict] = {}
    while len(final) < count:
        if time.perf_counter() > deadline:
            raise BenchError(
                f"only {len(final)} of {count} streams finished in time"
            )
        if daemon.poll() is not None:
            raise BenchError("serve daemon exited while streams were open")
        time.sleep(POLL_S)
        read_registry(registry, final, seen)
    return final


def drain(root: Path, work: Path, traces, name: str) -> dict:
    """One ``repro serve --oneshot`` drain of every stream, closed loop.

    The streams are in the spool before the daemon starts, with their
    modification time a minute back, so the first scan takes them all
    as settled and the daemon checks them back to back, then exits.

    The drain is cut into segments at each stream's final checkpoint
    write (its file's modification time), read after the daemon exits:
    the segment ending at stream ``i`` is keyed ``i``, the first one
    also holds start-up, scan and digest, and the one after the last
    checkpoint is keyed ``"tail"``.  Their durations add up to the wall
    time of the entry-point call.
    """
    spool = work / name
    spool.mkdir()
    settled = time.time() - 60.0
    for index, trace in enumerate(traces):
        path = spool / f"ingest-0-{index}-drain.trace"
        shutil.copyfile(trace.path, path)
        os.utime(path, (settled, settled))
    stats_path = work / f"{name}.json"
    command = [
        sys.executable, str(HERE / "serve_launcher.py"), str(stats_path),
        "--", str(spool.relative_to(root)), "--memoize", "--oneshot",
    ]
    try:
        done = subprocess.run(
            command, cwd=root, env=child_env(root), capture_output=True,
            text=True, timeout=CHILD_GRACE_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"drain timed out after {exc.timeout}s")
    if done.returncode != 0 or not stats_path.exists():
        raise BenchError(f"drain daemon failed:\n{done.stdout[-3000:]}"
                         f"{done.stderr[-3000:]}")
    verdicts: dict[int, dict] = {}
    read_registry(spool / ".serve" / "streams", verdicts, {})
    stats = json.loads(stats_path.read_text(encoding="utf-8"))
    ends = sorted(
        (entry.stat().st_mtime_ns / 1e9, int(match.group(1)))
        for entry in os.scandir(spool / ".serve" / "checkpoints")
        if entry.name.endswith(".ckpt")
        and (match := _UPLOAD_INDEX.match(entry.name)) is not None
    )
    segments = {}
    previous = stats["started_wall"]
    for end, index in ends:
        segments[index] = end - previous
        previous = end
    segments["tail"] = stats["ended_wall"] - previous
    return {"verdicts": verdicts, "segments": segments,
            "serve_s": stats["ended_wall"] - stats["started_wall"]}


# ----------------------------------------------------------------- metrics
def layer_metrics(dump: dict, wrapper_cost: float) -> dict:
    """Per-layer figures from one tracer dump."""
    selfs: dict[str, float] = {}
    calls: dict[str, int] = {}
    for name, _parent, count, self_s, _total in dump["aggregates"]:
        selfs[name] = selfs.get(name, 0.0) + self_s
        calls[name] = calls.get(name, 0) + count
    for name, _start, _end, _parent, _ident, self_s in dump["spans"]:
        selfs[name] = selfs.get(name, 0.0) + self_s
        calls[name] = calls.get(name, 0) + 1
    counters = dump["counters"]

    def s(name):
        return selfs.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    def c(name):
        return counters.get(name, 0)

    def ratio(top, bottom, scale=1.0):
        return top * scale / bottom if bottom else 0.0

    layers = {layer: 0.0 for layer in tracing.LAYER_OF_PREFIX.values()}
    for name, self_s in selfs.items():
        if name not in tracing.IDLE_SPANS:
            layers[tracing.layer_of(name)] += self_s
    wall = sum(layers.values())
    tracing_s = wrapper_cost * sum(
        count for name, count in calls.items()
        if name not in tracing.IDLE_SPANS
    )
    out = {
        "store.decode.calls": (n("store.decode"), "count"),
        "store.decode.s": (s("store.decode"), "s"),
        "store.decode.ns_per_event": (
            ratio(s("store.decode"), c("store.decode.events"), 1e9), "ns"),
        "store.open.calls": (n("store.open"), "count"),
        "store.open.s": (s("store.open"), "s"),
        "store.decodes_per_block": (
            ratio(n("store.decode"), n("store.block_summary")), "ratio"),
        "pipeline.self.s": (s("pipeline.run"), "s"),
        "pipeline.blocks_in": (c("pipeline.blocks_in"), "count"),
        "pipeline.blocks_decoded": (c("pipeline.blocks_decoded"), "count"),
        "velodrome.peak_nodes": (c("velodrome.peak_nodes"), "count"),
    }
    for backend in workloads.BACKENDS:
        process = f"{backend}.process"
        out[f"{process}.calls"] = (n(process), "count")
        out[f"{process}.s"] = (s(process), "s")
        out[f"{backend}.ns_per_event"] = (
            ratio(s(process), n(process), 1e9), "ns")
        region = f"{backend}.region"
        out[f"{region}.offered"] = (n(region), "count")
        out[f"{region}.accepted_events"] = (
            c(f"{region}.accepted_events"), "count")
        out[f"{region}.s"] = (s(region), "s")
        out[f"{region}.accept_ratio"] = (
            ratio(c(f"{region}.accepted"), n(region)), "ratio")
    out.update({
        "velodrome.block.offered": (n("velodrome.block"), "count"),
        "velodrome.block.accepted": (c("velodrome.block.accepted"), "count"),
        "velodrome.block.s": (s("velodrome.block"), "s"),
        "memo.assemble.s": (s("memo.assemble"), "s"),
        "memo.hits": (c("memo.hits"), "count"),
        "memo.misses": (c("memo.misses"), "count"),
        "memo.evictions": (c("memo.evictions"), "count"),
        "resilience.supervise.self.s": (s("resilience.supervise"), "s"),
        "resilience.checkpoint.calls": (n("resilience.checkpoint"), "count"),
        "resilience.checkpoint.s": (s("resilience.checkpoint"), "s"),
        "resilience.checkpoint_meta.s": (
            s("resilience.checkpoint_meta"), "s"),
        "resilience.snapshot_write.s": (s("resilience.snapshot_write"), "s"),
        "resilience.snapshot_bytes": (
            c("resilience.snapshot_bytes"), "bytes"),
        "resilience.recoveries": (c("resilience.recoveries"), "count"),
        "resilience.degradations": (c("resilience.degradations"), "count"),
        "serve.scan.s": (s("serve.scan"), "s"),
        "serve.digest.s": (s("serve.digest"), "s"),
        "serve.registry_save.calls": (n("serve.registry_save"), "count"),
        "serve.registry_save.s": (s("serve.registry_save"), "s"),
        "serve.rounds": (n("serve.round"), "count"),
        "serve.stream.self.s": (s("serve.stream"), "s"),
        "serve.idle.s": (s("serve.idle"), "s"),
        "bench.unattributed_s": (layers.pop("bench"), "s"),
        "bench.traced_wall_s": (wall, "s"),
        "bench.trace_overhead_ratio": (
            ratio(tracing_s, wall - tracing_s), "ratio"),
    })
    for layer, self_s in layers.items():
        out[f"layer.{layer}.s"] = (self_s, "s")
    return out


def stream_spans(dump: dict) -> dict[int, tuple[float, float]]:
    """Upload index -> (start, end) wall times of its first attempt."""
    out: dict[int, tuple[float, float]] = {}
    for name, start, end, _parent, ident, _self in dump["spans"]:
        if name != "serve.stream" or ident is None:
            continue
        match = _UPLOAD_INDEX.match(ident + "-")
        if match is not None:
            out.setdefault(int(match.group(1)), (start, end))
    return out


# --------------------------------------------------------------------- run
def check_window(args, root: Path, work: Path, setups: SetUps,
                 problems) -> dict:
    """The rounds of a check workload (see ``CHECK_ROUNDS``)."""
    traces = setups.runs[0].traces
    rounds = 1 if args.trace else CHECK_ROUNDS
    share = args.seconds / rounds
    results = []
    peak_rss_mb = window_s = 0.0
    for k in range(rounds):
        started = time.perf_counter()
        setups.repeat()
        while time.perf_counter() - started < SETUP_SHARE * share:
            setups.repeat()
        checked = run_checker(
            root, work, check_jobs(traces), share, 1, bool(args.trace),
            f"check{k}",
        )
        results += checked["results"]
        peak_rss_mb = max(peak_rss_mb, checked["peak_rss_mb"])
        window_s += checked["window_s"]
    failed: set = set()
    gate_checks(args.workload, traces, results, failed, problems)
    best = best_times(results)
    layers = {}
    if args.trace:
        layers = layer_metrics(checked["trace"], checked["wrapper_cost_s"])
        for key, value in checked["memo"].items():
            layers[f"memo.{key}"] = (value, "count")
        for key in ("serve.queue_wait_p50_s", "serve.service_p50_s",
                    "serve.service_p90_s", "bench.generator_lag_p90_s"):
            layers[key] = (0.0, "s")
    return {
        "results": results,
        "events_per_s": throughput(best),
        "latencies": [elapsed for _, elapsed in best.values()],
        "attempted": len(results),
        "failed": failed,
        "peak_rss_mb": peak_rss_mb,
        "layers": layers,
        "report": {
            "jobs": len(results),
            "passes": len(results) // max(1, 2 * len(traces)),
            "window_s": window_s,
        },
    }


def serve_run(args, root: Path, work: Path, setups: SetUps,
              problems) -> dict:
    """The open loop of ``serve_coarse``, then its rounds (see
    ``SERVE_ROUNDS``); the reference checks gate every served verdict."""
    traces = distinct(setups.runs[0].traces)[
        :workloads.stream_count(args.seconds, args.tiny)
    ]
    served = serve_window(args, root, work, traces)
    drains = []
    results = []
    for k in range(1 if args.trace else SERVE_ROUNDS):
        setups.repeat()
        if not args.trace:
            drains.append(drain(root, work, traces, f"drain{k}"))
        results += run_checker(
            root, work, check_jobs(traces), 0.0, REFERENCE_PASSES, False,
            f"reference{k}",
        )["results"]
    failed_jobs: set = set()
    gate_checks(args.workload, traces, results, failed_jobs, problems)
    width = len(workloads.BACKENDS)
    failed = {results[i]["job"] // width for i in failed_jobs}
    latencies = []
    scheduled = served["scheduled_wall"]
    for index, trace in enumerate(traces):
        record = served["verdicts"].get(index)
        for got in [record] + [d["verdicts"].get(index) for d in drains]:
            problem = workloads.gate_served(trace, got,
                                            results[width * index])
            if problem is not None:
                failed.add(index)
                problems.append(problem)
        if any(index not in d["segments"] for d in drains):
            failed.add(index)
            problems.append(f"{trace.name}: no final checkpoint in a drain")
        if record is not None:
            latencies.append(record["done_wall"] - scheduled[index])
    daemon = served["daemon"]
    events = sum(t.events for t in traces)
    # Interference only ever slows a segment down, so each segment
    # counts with its fastest drain, as each check job with its fastest
    # pass.
    drain_s = sum(
        min(d["segments"].get(key, float("inf")) for d in drains)
        for key in drains[0]["segments"]
    ) if drains else 0.0
    layers = {}
    if args.trace:
        dump = daemon["trace"]
        layers = layer_metrics(dump, daemon["wrapper_cost_s"])
        spans = stream_spans(dump)
        waits = [start - scheduled[i] for i, (start, _) in spans.items()]
        services = [end - start for start, end in spans.values()]
        layers["serve.queue_wait_p50_s"] = (percentile(waits, 50), "s")
        layers["serve.service_p50_s"] = (percentile(services, 50), "s")
        layers["serve.service_p90_s"] = (percentile(services, 90), "s")
        layers["bench.generator_lag_p90_s"] = (
            percentile(served["lag"], 90), "s")
    return {
        "results": results,
        "events_per_s": events / drain_s if drains else 0.0,
        "latencies": latencies,
        "attempted": len(traces),
        "failed": failed,
        "peak_rss_mb": daemon["peak_rss_mb"],
        "layers": layers,
        "report": {
            "streams": len(traces),
            "rate_per_s": workloads.SERVE_RATE,
            "events": events,
            "drains_s": [d["serve_s"] for d in drains],
            "drain_fastest_segments_s": drain_s,
            "generator_lag_p90_s": percentile(served["lag"], 90),
        },
    }


def measure(args, root: Path, work: Path) -> dict:
    env = environment(root, args.seed)
    setups = SetUps(args, work)
    setups.repeat()
    problems: list[str] = []
    window = serve_run if args.workload == "serve_coarse" else check_window
    run = window(args, root, work, setups, problems)
    problems += setups.problems
    env["loadavg_after"] = list(os.getloadavg())
    reps = setups.runs
    if args.trace:
        fastest = min(reps, key=lambda r: r.seconds)
        per_layer = {
            "runtime.record.s": (fastest.record_s, "s"),
            "runtime.record.events": (fastest.events, "count"),
            "store.write.s": (fastest.write_s, "s"),
            **run["layers"],
        }
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in per_layer.items()
        }
    else:
        best = best_times(run["results"])
        e2e = {
            "setup_s": setups.seconds(),
            "events_per_s": run["events_per_s"],
            "stream_p50_s": percentile(run["latencies"], 50),
            "stream_p90_s": percentile(run["latencies"], 90),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        for backend in workloads.BACKENDS:
            e2e[f"{backend}_events_per_s"] = throughput(best, backend)
        metrics = {
            name: {"value": e2e[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    # Set-up repetitions after the first are operations too: each must
    # record the same bytes as the first.
    attempted = run["attempted"] + len(reps) - 1
    failed = len(run["failed"]) + len(setups.problems)
    report = {
        "workload": args.workload,
        "env": env,
        "setup": {
            "reps_s": [r.seconds for r in reps],
            "traces": len(reps[0].traces),
            "events": reps[0].events,
        },
        "serve" if args.workload == "serve_coarse" else "check":
            run["report"],
        "samples": {"stream_latency": len(run["latencies"])},
        "failed_ratio": failed / attempted,
        "problems": problems,
    }
    return {
        "report": report,
        "result": {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def distinct(traces):
    """Traces with content not seen earlier in the list."""
    seen = set()
    out = []
    for trace in traces:
        if trace.digest not in seen:
            seen.add(trace.digest)
            out.append(trace)
    return out


def print_report(outcome: dict) -> None:
    report = outcome["report"]
    result = outcome["result"]
    env = report["env"]
    print(f"workload {report['workload']}  seed {env['seed']}  "
          f"cpu_count {env['cpu_count']}  python {env['python']}  "
          f"commit {env['commit'] or 'n/a'}  src {env['src_sha256']}")
    print(f"loadavg before {env['loadavg_before']}  "
          f"after {env['loadavg_after']}")
    for key in ("setup", "check", "serve", "samples"):
        if key in report:
            print(f"{key}: {json.dumps(report[key])}")
    for name, metric in result["metrics"].items():
        print(f"  {name:36s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'failed_ratio':36s} {report['failed_ratio']:>16.6g} ratio "
          f"({result['failed']} of {result['attempted']})")
    for problem in report["problems"]:
        print(f"FAILED: {problem}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (self-tests)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the root of a checkout (no src/repro here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    base = root / ".perfbench"
    work = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        outcome = measure(args, root, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (base / f"last-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(outcome, indent=1), encoding="utf-8"
    )
    print_report(outcome)
    print(json.dumps(outcome["result"]), flush=True)
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
