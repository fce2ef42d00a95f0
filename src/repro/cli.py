"""Command-line interface.

::

    python -m repro check TRACE_FILE [--backend NAME]... [--dot DIR]
                          [--jobs N]
                          [--checkpoint FILE [--checkpoint-every N]]
                          [--resume FILE] [--max-nodes N]
                          [--on-pressure {degrade,fail}]
    python -m repro run WORKLOAD [--seed N] [--scale S] [--adversarial]
    python -m repro random [--seed N] [--record FILE]
    python -m repro fuzz [--budget N] [--seed S] [--shrink] [--stats]
    python -m repro serve SPOOL_DIR [--jobs N] [--http-port P]
                          [--socket PATH] [--oneshot]
    python -m repro trace pack/unpack/info/cat ...
    python -m repro workloads
    python -m repro table1 / table2 / inject ...

``check`` analyses a recorded trace — packed binary (``.vtrc``),
``.jsonl``, or the textual DSL, told apart by content sniffing (see
``docs/traces.md``); ``--backend`` may be given several times (or as
``--backend all``) and the trace is loaded and traversed ONCE, fanned
out to every selected analysis.  ``--jobs N`` decodes a packed trace's
blocks across N worker processes before the (serial) analysis.  ``run`` executes one of the fifteen benchmark models under
the tool; ``table1``/``table2``/``inject`` regenerate the paper's
experiments (forwarding to :mod:`repro.harness`).  ``check`` and
``run`` accept ``--stats`` to print pipeline metrics (event counts by
kind, per-stage drops, per-backend cost).

``check`` with any of ``--checkpoint`` / ``--checkpoint-every`` /
``--resume`` / ``--max-nodes`` runs under the supervised runtime
(:mod:`repro.resilience`): the analysis state checkpoints to a
versioned snapshot file, resumes byte-identically from one, and
resource pressure degrades gracefully instead of crashing (see
``docs/resilience.md``).

``fuzz`` runs the differential fuzzer (:mod:`repro.fuzz`): seeded
random traces replayed across the full ablation grid and compared
against the serialization-graph oracle, with optional delta-debugging
shrinking (``--shrink``) and corpus persistence (``--corpus DIR``);
``fuzz --replay DIR`` re-checks an existing corpus instead of
generating new traces.  Exit status 1 signals a divergence.

``serve`` runs the always-on checking daemon (:mod:`repro.serve`):
every stable trace file dropped into the spool directory becomes one
supervised stream, sharded across ``--jobs`` workers, with per-stream
checkpoints, quarantine, retry-then-park, and a localhost metrics
endpoint.  ``kill -9`` at any instant is recoverable: restarting
against the same spool reproduces the exact verdicts of an
uninterrupted run (``fuzz --serve`` continuously tests this; see
``docs/serving.md``).  SIGTERM/SIGINT exit gracefully with status 75
after a final checkpoint; the same applies to long ``check
--checkpoint`` and ``fuzz`` runs.

``trace`` groups the packed-store utilities: ``pack`` re-encodes any
readable recording as packed VTRC, ``unpack`` converts back (or
between formats), ``info`` prints the block layout, and ``cat``
streams operations from an arbitrary position using the block index
(only the blocks actually shown are decoded).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Callable, Optional, Sequence

from repro.baselines import (
    Atomizer,
    BlockBasedChecker,
    EraserLockSet,
    HappensBeforeRaces,
    LockOrderMonitor,
    TwoPhaseLocking,
)
from repro.core import (
    VelodromeBasic,
    VelodromeCompact,
    VelodromeOptimized,
    explain_all,
    summarize_blame,
    warning_to_dot,
)
from repro.core.aerodrome import AeroDrome
from repro.core.backend import AnalysisBackend
from repro.core.memo import DEFAULT_MEMO_MAX
from repro.events.render import render_with_transactions
from repro.events.serialize import load_trace, save_trace
from repro.fuzz import (
    DEFAULT_CORPUS,
    FuzzConfig,
    FuzzEngine,
    default_grid,
    replay_corpus,
)
from repro import bench as bench_harness
from repro.harness import injection as harness_injection
from repro.harness import report as harness_report
from repro.harness import sensitivity as harness_sensitivity
from repro.harness import table1 as harness_table1
from repro.harness import table2 as harness_table2
from repro.pipeline import Pipeline, TraceSource
from repro.resilience import (
    EXIT_INTERRUPTED,
    Budgets,
    GracefulShutdown,
    ShutdownRequested,
    SupervisedChecker,
)
from repro.resilience.snapshot import supports as snapshot_supports
from repro.runtime.tool import run_velodrome
from repro.workloads import all_workloads, get
from repro.workloads.randomgen import random_program

BACKENDS: dict[str, Callable[[], AnalysisBackend]] = {
    "velodrome": VelodromeOptimized,
    "basic": VelodromeBasic,
    "compact": VelodromeCompact,
    "aerodrome": AeroDrome,
    "atomizer": Atomizer,
    "block-based": BlockBasedChecker,
    "eraser": EraserLockSet,
    "hb-races": HappensBeforeRaces,
    "2pl": TwoPhaseLocking,
    "lock-order": LockOrderMonitor,
}


def resolve_backend(name: str) -> Callable[[], AnalysisBackend]:
    """Look up a backend factory by CLI name.

    Argparse validates ``--backend`` against ``choices``, but
    programmatic callers (the fuzz grid, scripts) hit the registry
    directly; a bare ``KeyError`` from ``BACKENDS[name]`` names
    neither the problem nor the alternatives.
    """
    try:
        return BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; valid backends: "
            f"{', '.join(sorted(BACKENDS))}"
        ) from None


def _selected_backends(names: Optional[Sequence[str]]) -> list[str]:
    """Expand/deduplicate the ``--backend`` selection, keeping order."""
    if not names:
        return ["velodrome"]
    if "all" in names:
        return sorted(BACKENDS)
    selected: list[str] = []
    for name in names:
        if name not in selected:
            selected.append(name)
    return selected


def _report_warnings(args: argparse.Namespace, trace, backends) -> int:
    """Print each backend's warnings (and dot files); returns the count.

    ``trace`` may be a :class:`~repro.events.trace.Trace` or a
    zero-argument callable producing one — the resume path hands in a
    lazy loader so a packed recording's prefix is only decoded when
    ``--render``/``--explain`` actually need the full trace.
    """
    if callable(trace) and (args.render or args.explain):
        trace = trace()
    if args.render:
        print(render_with_transactions(trace))
        print()
    dot_index = 0
    out_dir = None
    if args.dot:
        out_dir = pathlib.Path(args.dot)
        out_dir.mkdir(parents=True, exist_ok=True)
    total = 0
    for backend in backends:
        if backend.warning_count == 0:
            print(f"{backend.name}: no warnings "
                  f"({backend.events_processed} events)")
            continue
        warnings = backend.warnings
        total += len(warnings)
        if args.explain:
            explained = explain_all(trace, warnings)
            if explained:
                print(explained)
                print()
        for warning in warnings:
            print(warning)
        atomicity = summarize_blame(warnings)
        if atomicity.total:
            print(atomicity)
        if out_dir is not None:
            for warning in warnings:
                if warning.cycle is None:
                    continue
                path = out_dir / f"warning_{dot_index}.dot"
                path.write_text(warning_to_dot(warning) + "\n")
                dot_index += 1
    if out_dir is not None:
        print(f"wrote {dot_index} dot file(s) to {out_dir}")
    return total


def _is_packed(path) -> bool:
    """True when ``path``'s magic bytes identify a VTRC packed trace."""
    from repro.store.sniff import FORMAT_PACKED, sniff_path

    return sniff_path(path) == FORMAT_PACKED


def _load_check_trace(path, jobs: int = 1):
    """Load a trace for analysis, fanning packed decode out to workers."""
    if jobs and jobs > 1 and _is_packed(path):
        from repro.store.parallel import load_packed_parallel

        return load_packed_parallel(path, jobs=jobs)
    return load_trace(path)


def _stream_trace_tail(path, position: int):
    """The operations of a non-packed trace from ``position`` on.

    JSONL recordings stream line by line
    (:func:`~repro.events.serialize.stream_jsonl`), so skipping the
    prefix is O(1) memory however large the recording — resuming
    must not cost a full materialization just to slice.  The textual
    DSL needs whole-file parsing anyway (it is a small hand-written
    format), so it loads eagerly and slices lazily.
    """
    import itertools

    from repro.store.sniff import FORMAT_JSONL, sniff_path

    if sniff_path(path) == FORMAT_JSONL:
        from repro.events.serialize import stream_jsonl

        return itertools.islice(stream_jsonl(path), position, None)
    return itertools.islice(iter(load_trace(path)), position, None)


def _check_supervised(args: argparse.Namespace) -> int:
    """The supervised `check` path: checkpoints, budgets, resume."""
    if args.checkpoint_every and not (args.checkpoint or args.resume):
        print("error: --checkpoint-every requires --checkpoint",
              file=sys.stderr)
        return 2
    if args.checkpoint:
        unsupported = [
            name for name in _selected_backends(args.backend)
            if not snapshot_supports(resolve_backend(name)())
        ]
        if unsupported:
            print(f"error: backend(s) {', '.join(unsupported)} have no "
                  f"snapshot codec and cannot be checkpointed",
                  file=sys.stderr)
            return 2
    # Probe roughly once per budget's worth of events: with a tight
    # node budget the default interval (256) would never fire on a
    # short trace, leaving everything to the exhaustion handler.
    budgets = Budgets(
        max_live_nodes=args.max_nodes,
        check_interval=(
            min(256, max(1, args.max_nodes)) if args.max_nodes else 256
        ),
    )
    packed = _is_packed(args.trace)
    with GracefulShutdown() as shutdown:
        return _check_supervised_body(args, budgets, packed, shutdown)


def _check_supervised_body(
    args: argparse.Namespace, budgets: Budgets, packed: bool,
    shutdown: GracefulShutdown,
) -> int:
    checkpoint_meta = None
    if packed:
        from repro.serve.stream import packed_checkpoint_meta

        checkpoint_meta = packed_checkpoint_meta(args.trace)
    options = dict(
        checkpoint_every=args.checkpoint_every,
        checkpoint_path=args.checkpoint,
        budgets=budgets,
        on_pressure=args.on_pressure,
        checkpoint_meta=checkpoint_meta,
        stop_check=shutdown.check,
        memo=_region_memo(args),
    )
    fast_forward = packed and not args.no_fast_forward
    packed_reader = None
    checker = None
    try:
        if args.resume:
            checker = SupervisedChecker.resume(args.resume, **{
                key: value for key, value in options.items()
                if key != "checkpoint_path"
            })
            print(f"resumed {len(checker.backends)} backend(s) at event "
                  f"{checker.position} from {args.resume}")
            if fast_forward:
                # Block-granular seek: the checkpoint's block is
                # replayed from its first op, later blocks may
                # fast-forward from their summaries.
                from repro.pipeline.source import PackedTraceSource

                checker.run(PackedTraceSource(
                    args.trace, start_seq=checker.position
                ))
            else:
                if packed:
                    # Seek via the block index: only the block
                    # containing the checkpoint position and its
                    # successors are read.
                    from repro.store.reader import PackedTraceReader

                    packed_reader = PackedTraceReader(args.trace)
                    remaining = packed_reader.seek(checker.position)
                else:
                    remaining = _stream_trace_tail(
                        args.trace, checker.position
                    )
                checker.run(TraceSource(remaining))
        else:
            names = _selected_backends(args.backend)
            checker = SupervisedChecker(
                [resolve_backend(name)() for name in names], **options
            )
            if fast_forward:
                from repro.pipeline.source import PackedTraceSource

                checker.run(PackedTraceSource(args.trace, jobs=args.jobs))
            else:
                checker.run(TraceSource(
                    iter(_load_check_trace(args.trace, args.jobs))
                ))
    except ShutdownRequested as exc:
        # Interrupted at a safe point: persist progress, exit clean.
        if checker is not None and (args.checkpoint or args.resume):
            written = checker.checkpoint()
            print(f"interrupted by signal {exc.signum} at event "
                  f"{checker.position}; checkpoint written to {written}",
                  file=sys.stderr)
        else:
            print(f"interrupted by signal {exc.signum}", file=sys.stderr)
        return EXIT_INTERRUPTED
    finally:
        if packed_reader is not None:
            packed_reader.close()
    if args.checkpoint and not args.resume:
        written = checker.checkpoint()
        print(f"final checkpoint written to {written}")
    warning_count = _report_warnings(
        args, lambda: _load_check_trace(args.trace, args.jobs),
        checker.backends,
    )
    report = checker.report()
    print(report.summary())
    for event in report.degradations:
        print(f"  event {event.position}: {event.rung} "
              f"({event.trigger}) -> {event.detail}")
    return 1 if warning_count else 0


def _fast_forward_enabled(args: argparse.Namespace) -> bool:
    """Packed input + fast-forward not disabled on the command line."""
    return not args.no_fast_forward and _is_packed(args.trace)


def _region_memo(args: argparse.Namespace):
    """The ``--memoize`` memo table, or ``None`` when the flag is off."""
    if not getattr(args, "memoize", False):
        return None
    from repro.core.memo import RegionMemo

    return RegionMemo(max_entries=args.memo_max)


def cmd_check(args: argparse.Namespace) -> int:
    if (
        args.resume
        or args.checkpoint
        or args.checkpoint_every
        or args.max_nodes
    ):
        return _check_supervised(args)
    names = _selected_backends(args.backend)
    backends = [resolve_backend(name)() for name in names]
    pipeline = Pipeline(backends, stats=args.stats, memo=_region_memo(args))
    if _fast_forward_enabled(args):
        # Block-granular source: backends fast-forward summarized
        # blocks, and the full trace is only decoded if the warning
        # report actually needs it (--render/--explain).
        from repro.pipeline.source import PackedTraceSource

        pipeline.run(PackedTraceSource(args.trace, jobs=args.jobs))
        trace = lambda: _load_check_trace(args.trace, args.jobs)
    else:
        trace = _load_check_trace(args.trace, args.jobs)
        pipeline.run(TraceSource(trace))
    warning_count = _report_warnings(args, trace, backends)
    if args.stats:
        print(pipeline.metrics().render())
    return 1 if warning_count else 0


def cmd_run(args: argparse.Namespace) -> int:
    program = get(args.workload).program(args.scale)
    result = run_velodrome(
        program,
        seed=args.seed,
        adversarial=args.adversarial,
        record_trace=args.record is not None,
        stats=args.stats,
    )
    labels = sorted(result.labels_from("VELODROME"))
    truth = program.non_atomic_methods
    print(f"{program.name}: {result.run.events} events, "
          f"{result.run.threads} threads, {result.elapsed:.3f}s")
    print(f"velodrome warnings: {labels or 'none'}")
    if labels:
        real = [label for label in labels if label in truth]
        print(f"  genuinely non-atomic: {len(real)}/{len(labels)} "
              f"(ground truth has {len(truth)})")
    if args.record is not None:
        count = save_trace(result.trace, args.record)
        print(f"recorded {count} events to {args.record}")
    if args.stats and result.metrics is not None:
        print(result.metrics.render())
    return 0 if not labels else 1


def cmd_random(args: argparse.Namespace) -> int:
    # Shares the fuzzer's seed-to-program mapping (including the
    # server-workload pool draw) so `repro random --seed N --record F`
    # reproduces fuzz iteration recordings byte-identically.
    from repro.fuzz.engine import program_for_seed

    program = program_for_seed(args.seed)
    result = run_velodrome(program, seed=args.seed, record_trace=True)
    print(f"{program.name}: {result.run.events} events, "
          f"{len(result.warnings)} warning(s)")
    if args.record is not None:
        count = save_trace(result.trace, args.record)
        print(f"recorded {count} events to {args.record}")
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    if args.serve:
        return _fuzz_serve(args)
    if args.replay is not None:
        checks = replay_corpus(args.replay, crash=args.crash, seed=args.seed,
                               jobs=args.jobs)
        if not checks:
            print(f"no corpus traces under {args.replay}")
            return 0
        dirty = 0
        for path, check in checks.items():
            verdict = "serializable" if check.serializable else "not serializable"
            if check.clean:
                print(f"{path}: agreement ({verdict})")
            else:
                dirty += 1
                print(f"{path}: DIVERGES ({verdict})")
                for divergence in check.divergences:
                    print(f"  {divergence}")
        print(f"replayed {len(checks)} trace(s), {dirty} diverging")
        return 1 if dirty else 0

    config = FuzzConfig(
        budget=args.budget,
        seed=args.seed,
        shrink=args.shrink,
        stats=args.stats,
        crash=args.crash,
        corpus_dir=pathlib.Path(args.corpus) if args.corpus else None,
        corpus_format=args.corpus_format,
        configs=default_grid() if args.quick else None,
        jobs=args.jobs,
    )

    def on_finding(finding):
        print(f"iteration {finding.index} (seed {finding.seed}): "
              f"{len(finding.divergences)} divergence(s)")
        for divergence in finding.divergences:
            print(f"  {divergence}")
        if finding.shrunk is not None:
            shrunk = finding.shrunk
            print(f"  shrunk {shrunk.original_events} -> {shrunk.events} "
                  f"events ({shrunk.evaluations} evaluations)")
        if finding.corpus_path is not None:
            print(f"  repro saved to {finding.corpus_path}")

    with GracefulShutdown() as shutdown:
        report = FuzzEngine(config).run(
            on_finding=on_finding, stop_check=shutdown.check
        )
        interrupted = shutdown.triggered
    print(report.summary())
    if args.stats and report.metrics is not None:
        print(report.metrics.render())
    if interrupted:
        print("fuzz campaign interrupted; report covers completed "
              "iterations only", file=sys.stderr)
        return EXIT_INTERRUPTED
    return 0 if report.clean else 1


def _fuzz_serve(args: argparse.Namespace) -> int:
    """The ``fuzz --serve`` lane: daemon crash-equivalence per seed.

    Each iteration builds a throwaway spool, runs a reference oneshot
    daemon, then a daemon that is ``kill -9``'d mid-ingest and
    restarted, and requires stream-for-stream identical verdicts (see
    :func:`repro.fuzz.faults.serve_crash_divergences`).  Odd
    iterations add the snapshot-less ``aerodrome`` backend to exercise
    the replay-from-origin path.
    """
    from repro.fuzz.engine import iteration_seeds
    from repro.fuzz.faults import serve_crash_divergences

    dirty = 0
    interrupted = False
    with GracefulShutdown() as shutdown:
        for index, seed in enumerate(
            iteration_seeds(args.seed, args.budget)
        ):
            if shutdown.triggered:
                interrupted = True
                break
            backends = (
                ("velodrome",) if index % 2 == 0
                else ("velodrome", "aerodrome")
            )
            divergences = serve_crash_divergences(
                seed, backends=backends, crash=args.crash
            )
            if divergences:
                dirty += 1
                print(f"iteration {index} (seed {seed}, "
                      f"backends {','.join(backends)}): "
                      f"{len(divergences)} divergence(s)")
                for divergence in divergences:
                    print(f"  {divergence}")
    print(f"serve equivalence: {args.budget} iteration(s), "
          f"{dirty} diverging")
    if interrupted:
        return EXIT_INTERRUPTED
    return 1 if dirty else 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import RetryPolicy, ServeConfig, ServeDaemon

    names = _selected_backends(args.backend)
    budgets = Budgets(
        max_live_nodes=args.max_nodes,
        check_interval=(
            min(256, max(1, args.max_nodes)) if args.max_nodes else 256
        ),
    )
    config = ServeConfig(
        spool_dir=pathlib.Path(args.spool),
        state_dir=(
            pathlib.Path(args.state_dir) if args.state_dir else None
        ),
        backends=tuple(names),
        jobs=args.jobs,
        checkpoint_every=args.checkpoint_every,
        budgets=budgets,
        on_pressure=args.on_pressure,
        no_snapshot=args.no_snapshot,
        retry=RetryPolicy(max_attempts=args.retry_attempts),
        poll_interval=args.poll_interval,
        settle_seconds=args.settle_seconds,
        http_port=args.http_port,
        socket_path=(
            pathlib.Path(args.socket) if args.socket else None
        ),
        memoize=args.memoize,
        memo_max=args.memo_max,
        lab_digests=(
            pathlib.Path(args.lab_digests) if args.lab_digests else None
        ),
    )
    with GracefulShutdown() as shutdown:
        daemon = ServeDaemon(config, shutdown=shutdown)
        daemon.start_endpoints()
        if daemon.metrics_server is not None:
            print(f"metrics on http://127.0.0.1:"
                  f"{daemon.metrics_server.port}/metrics", flush=True)
        if config.socket_path is not None:
            print(f"ingest socket at {config.socket_path}", flush=True)
        code = daemon.run(oneshot=args.oneshot,
                          max_rounds=args.max_rounds)
    counts = daemon.registry.counts()
    summary = ", ".join(
        f"{status}={count}" for status, count in sorted(counts.items())
    ) or "no streams"
    print(f"serve: {summary}", flush=True)
    return code


def cmd_trace_pack(args: argparse.Namespace) -> int:
    from repro.store.writer import save_packed

    trace = load_trace(args.source)
    written = save_packed(
        list(trace), args.dest,
        block_ops=args.block_size, compress_level=args.level,
    )
    src_bytes = pathlib.Path(args.source).stat().st_size
    dst_bytes = pathlib.Path(args.dest).stat().st_size
    ratio = src_bytes / dst_bytes if dst_bytes else 0.0
    print(f"packed {written} ops: {src_bytes} -> {dst_bytes} bytes "
          f"({ratio:.1f}x)")
    return 0


def cmd_trace_unpack(args: argparse.Namespace) -> int:
    if args.tolerant:
        from repro.resilience.quarantine import LENIENT
        from repro.store.reader import load_packed_tolerant

        trace, quarantine = load_packed_tolerant(args.source, LENIENT)
        if quarantine.faults:
            print(quarantine.summary(), file=sys.stderr)
    else:
        trace = _load_check_trace(args.source, args.jobs)
    count = save_trace(trace, args.dest)
    print(f"unpacked {count} ops to {args.dest}")
    return 0


def _summary_json(summary) -> dict:
    """One block summary as a JSON-ready dict (``trace info --json``)."""
    return {
        "block": summary.number,
        "first_seq": summary.first_seq,
        "last_seq": summary.last_seq,
        "ops": summary.op_count,
        "tids": list(summary.tids),
        "histogram": {
            "read": summary.reads, "write": summary.writes,
            "acquire": summary.acquires, "release": summary.releases,
            "begin": summary.begins, "end": summary.ends,
        },
        "variables": len(summary.variables),
        "locks": len(summary.locks),
        "foldable": summary.foldable,
    }


def _region_scan_json(scan) -> dict:
    """A :class:`~repro.core.memo.RegionScan` as a JSON-ready dict."""
    return {
        "regions": scan.regions,
        "repeated": scan.repeated,
        "contiguous": scan.contiguous,
        "region_events": scan.region_events,
        "total_events": scan.total_events,
        "repetition_ratio": round(scan.repetition_ratio, 4),
        "region_event_ratio": round(scan.region_event_ratio, 4),
        "top": [
            {
                "digest": digest, "count": count,
                "ops": op_count, "label": label,
            }
            for digest, count, op_count, label in scan.top
        ],
    }


def _render_region_scan(scan) -> str:
    """The ``trace info --regions`` table."""
    lines = [
        f"  regions: {scan.regions} "
        f"({scan.repeated} repeat occurrences, "
        f"{scan.contiguous} contiguous), "
        f"repetition {scan.repetition_ratio:.1%}, "
        f"{scan.region_events}/{scan.total_events} events in regions "
        f"({scan.region_event_ratio:.1%})",
    ]
    if scan.top:
        lines.append(f"  {'digest':>14} {'count':>7} {'ops':>5}  label")
        for digest, count, op_count, label in scan.top:
            lines.append(f"  {digest:>14} {count:>7} {op_count:>5}  "
                         f"{label or '-'}")
    return "\n".join(lines)


def cmd_trace_info(args: argparse.Namespace) -> int:
    import json

    from repro.store.reader import PackedTraceReader

    scan = None
    if args.regions:
        from repro.core.memo import scan_regions

        with PackedTraceReader(args.file) as reader:
            scan = scan_regions(reader.seek(0), top=args.top)
    with PackedTraceReader(args.file) as reader:
        if args.json:
            # v1 files have no stored summaries; reconstruct them from
            # one decode pass per block.
            info = reader.info()
            payload = {
                "path": str(args.file),
                "version": info.version,
                "block_ops": info.block_ops,
                "blocks": info.blocks,
                "ops": info.ops,
                "payload_bytes": info.payload_bytes,
                "summaries": [
                    _summary_json(
                        reader.block_summary(b.number, reconstruct=True)
                    )
                    for b in reader.blocks
                ],
            }
            if scan is not None:
                payload["regions"] = _region_scan_json(scan)
            print(json.dumps(payload, indent=2))
            return 0
        print(reader.info().render())
        if scan is not None:
            print(_render_region_scan(scan))
        if args.blocks:
            print(f"  {'block':>5} {'offset':>10} {'bytes':>8} "
                  f"{'ops':>6} {'seqs':>15}")
            for block in reader.blocks:
                print(f"  {block.number:>5} {block.byte_offset:>10} "
                      f"{block.comp_len:>8} {block.op_count:>6} "
                      f"{block.first_seq:>6}..{block.last_seq}")
        if args.summaries:
            print(f"  {'block':>5} {'seqs':>15} {'tids':>12} "
                  f"{'vars':>5} {'locks':>5} "
                  f"{'rd':>6} {'wr':>6} {'acq':>5} {'rel':>5} "
                  f"{'beg':>5} {'end':>5}  fold")
            for block in reader.blocks:
                s = reader.block_summary(block.number, reconstruct=True)
                seqs = f"{s.first_seq}..{s.last_seq}"
                tids = ",".join(str(t) for t in s.tids)
                if len(tids) > 12:
                    tids = tids[:9] + "..."
                print(f"  {s.number:>5} {seqs:>15} {tids:>12} "
                      f"{len(s.variables):>5} {len(s.locks):>5} "
                      f"{s.reads:>6} {s.writes:>6} {s.acquires:>5} "
                      f"{s.releases:>5} {s.begins:>5} {s.ends:>5}  "
                      f"{'yes' if s.foldable else 'no'}")
    return 0


def cmd_trace_cat(args: argparse.Namespace) -> int:
    from repro.store.reader import PackedTraceReader

    shown = 0
    with PackedTraceReader(args.file) as reader:
        start = args.start
        if start >= reader.total_ops:
            print(f"position {start} past the last operation "
                  f"({reader.total_ops} total)", file=sys.stderr)
            return 2
        for seq, op in enumerate(reader.seek(start), start=start):
            print(f"{seq}: {op}")
            shown += 1
            if args.limit is not None and shown >= args.limit:
                break
    return 0


def cmd_workloads(_args: argparse.Namespace) -> int:
    from repro.workloads.server import SERVER_FAMILIES

    for workload in all_workloads():
        table2 = workload.table2
        if workload.name in SERVER_FAMILIES:
            # Server families carry scale points and ground truth
            # instead of paper rows; `repro lab list` shows those.
            print(f"{workload.name:12s} {workload.description:40s} "
                  f"(server family; see `repro lab list`)")
            continue
        if table2 is None:
            # Synthetic workloads (e.g. request_loop) have no paper row.
            print(f"{workload.name:12s} {workload.description:40s} "
                  f"(synthetic; no paper row)")
            continue
        print(f"{workload.name:12s} {workload.description:40s} "
              f"(paper: {table2.velodrome_non_serial} non-atomic, "
              f"{table2.atomizer_false_alarms} Atomizer FAs)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Velodrome: sound and complete dynamic atomicity checking",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser("check", help="analyse a recorded trace file")
    check.add_argument("trace",
                       help="trace file (.vtrc packed, .jsonl, or DSL "
                            "text; format sniffed from content)")
    check.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="decode a packed trace's blocks across N "
                            "worker processes (default 1; no effect on "
                            "other formats)")
    check.add_argument("--backend", action="append",
                       choices=sorted(BACKENDS) + ["all"], default=None,
                       help="analysis to run; repeatable, 'all' selects "
                            "every backend (default: velodrome)")
    check.add_argument("--dot", metavar="DIR",
                       help="write dot error graphs into DIR")
    check.add_argument("--render", action="store_true",
                       help="print the thread-column trace diagram")
    check.add_argument("--explain", action="store_true",
                       help="print full explanations (cycle story, "
                            "marked diagram) for each warning")
    check.add_argument("--no-fast-forward", action="store_true",
                       help="always decode packed blocks and replay "
                            "op-by-op, ignoring stored block summaries")
    check.add_argument("--stats", action="store_true",
                       help="print pipeline metrics after the analysis")
    check.add_argument("--memoize", action="store_true",
                       help="memoize repeated transaction regions: the "
                            "first occurrence of a region shape is "
                            "certified op-by-op and summarized; later "
                            "occurrences apply the cached summary when "
                            "the backend's dynamic preconditions hold "
                            "(verdicts are replay-identical; see "
                            "docs/performance.md)")
    check.add_argument("--memo-max", type=int, default=DEFAULT_MEMO_MAX,
                       metavar="N",
                       help="memo table capacity in region shapes; least-"
                            "recently-used shapes evict beyond it, and 0 "
                            "disables caching while keeping the counters "
                            f"(default {DEFAULT_MEMO_MAX})")
    check.add_argument("--checkpoint", metavar="FILE",
                       help="snapshot file for the supervised runtime; a "
                            "final checkpoint is always written, and "
                            "--checkpoint-every adds periodic ones")
    check.add_argument("--checkpoint-every", type=int, metavar="N",
                       help="write a checkpoint every N events "
                            "(requires --checkpoint)")
    check.add_argument("--resume", metavar="FILE",
                       help="resume the analysis from a snapshot file; "
                            "the trace is skipped up to the snapshot's "
                            "position and verdicts match an "
                            "uninterrupted run")
    check.add_argument("--max-nodes", type=int, metavar="N",
                       help="budget on live happens-before nodes; "
                            "crossing it climbs the degradation ladder "
                            "instead of failing")
    check.add_argument("--on-pressure", choices=("degrade", "fail"),
                       default="degrade",
                       help="what the ladder's last rung may do: reset "
                            "the happens-before window (sound, flagged) "
                            "or re-raise the exhaustion (default: "
                            "degrade)")
    check.set_defaults(func=cmd_check)

    run = commands.add_parser("run", help="run a benchmark workload")
    run.add_argument("workload")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--scale", type=float, default=1.0)
    run.add_argument("--adversarial", action="store_true")
    run.add_argument("--record", metavar="FILE",
                     help="save the observed trace")
    run.add_argument("--stats", action="store_true",
                     help="print pipeline metrics after the run")
    run.set_defaults(func=cmd_run)

    rand = commands.add_parser("random", help="run a random program")
    rand.add_argument("--seed", type=int, default=0)
    rand.add_argument("--record", metavar="FILE")
    rand.set_defaults(func=cmd_random)

    fz = commands.add_parser(
        "fuzz", help="differential-fuzz the ablation grid vs the oracle"
    )
    fz.add_argument("--budget", type=int, default=100,
                    help="number of random traces to generate (default 100)")
    fz.add_argument("--seed", type=int, default=0,
                    help="base seed; every iteration seed derives from it")
    fz.add_argument("--shrink", action="store_true",
                    help="delta-debug diverging traces to a minimal repro")
    fz.add_argument("--crash", action="store_true",
                    help="also kill each configuration at a random event "
                         "and resume it from a checkpoint file, and replay "
                         "fault-laced recordings through the hardened "
                         "reader; recovered runs must match exactly")
    fz.add_argument("--quick", action="store_true",
                    help="sweep the four-configuration smoke grid instead "
                         "of the full ablation grid")
    fz.add_argument("--stats", action="store_true",
                    help="print aggregated pipeline metrics after the run")
    fz.add_argument("--corpus", metavar="DIR",
                    help="persist (shrunken) repros into DIR "
                         f"(conventionally {DEFAULT_CORPUS})")
    fz.add_argument("--corpus-format", choices=("jsonl", "vtrc"),
                    default="jsonl",
                    help="on-disk format for persisted repros; entries "
                         "dedupe by content hash across formats "
                         "(default jsonl)")
    fz.add_argument("--replay", metavar="DIR",
                    help="re-check the corpus under DIR instead of fuzzing")
    fz.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="shard iterations (or replayed files) across N "
                         "worker processes; output is byte-identical to "
                         "a serial run (default 1)")
    fz.add_argument("--serve", action="store_true",
                    help="fuzz the serve daemon instead: per seed, build "
                         "a spool, kill -9 a daemon mid-ingest, restart "
                         "it, and require verdicts identical to an "
                         "uninterrupted run (--crash adds checker-level "
                         "crash/fault lanes per stream)")
    fz.set_defaults(func=cmd_fuzz)

    serve = commands.add_parser(
        "serve", help="always-on checking daemon over a spool directory"
    )
    serve.add_argument("spool",
                       help="watched directory; every stable trace file "
                            "dropped into it becomes one checked stream")
    serve.add_argument("--state-dir", metavar="DIR",
                       help="registry/checkpoint/quarantine state "
                            "(default: SPOOL/.serve)")
    serve.add_argument("--backend", action="append",
                       choices=sorted(BACKENDS) + ["all"], default=None,
                       help="analysis each stream runs under; repeatable "
                            "(default: velodrome)")
    serve.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="shard concurrent streams across N worker "
                            "processes (default 1: serial, in-process)")
    serve.add_argument("--checkpoint-every", type=int, default=1024,
                       metavar="N",
                       help="events between periodic checkpoints within "
                            "each stream (default 1024)")
    serve.add_argument("--max-nodes", type=int, metavar="N",
                       help="global live-node budget, divided across "
                            "active streams each round")
    serve.add_argument("--on-pressure", choices=("degrade", "fail"),
                       default="degrade",
                       help="per-stream degradation ladder ceiling, as "
                            "in 'check' (default: degrade)")
    serve.add_argument("--no-snapshot", choices=("replay", "fail"),
                       default="replay",
                       help="policy when the backend selection cannot be "
                            "checkpointed: declare streams "
                            "replay-from-origin, or reject them up "
                            "front (default: replay)")
    serve.add_argument("--retry-attempts", type=int, default=3,
                       metavar="N",
                       help="attempts per stream before it is parked "
                            "(default 3; backoff doubles in between)")
    serve.add_argument("--poll-interval", type=float, default=0.25,
                       metavar="SECONDS",
                       help="spool scan interval when idle: bounds how "
                            "long a file dropped into the spool, or a "
                            "failed stream past its backoff, waits; "
                            "socket uploads wake the daemon at once "
                            "(default 0.25)")
    serve.add_argument("--settle-seconds", type=float, default=1.0,
                       metavar="SECONDS",
                       help="age before a still-changing file is "
                            "considered fully written (default 1.0)")
    serve.add_argument("--http-port", type=int, metavar="PORT",
                       help="serve /metrics, /streams, /healthz on this "
                            "localhost port (0 = ephemeral, printed on "
                            "startup)")
    serve.add_argument("--socket", metavar="PATH",
                       help="accept trace uploads on this unix socket "
                            "(one connection = one complete trace)")
    serve.add_argument("--memoize", action="store_true",
                       help="memoize repeated transaction regions inside "
                            "every stream's checker (as in 'check "
                            "--memoize'); memo counters appear on "
                            "/metrics")
    serve.add_argument("--memo-max", type=int, default=DEFAULT_MEMO_MAX,
                       metavar="N",
                       help="per-stream memo table capacity "
                            f"(default {DEFAULT_MEMO_MAX})")
    serve.add_argument("--lab-digests", metavar="FILE",
                       help="digest map from 'repro lab run --digests'; "
                            "streams whose content matches a lab trace "
                            "are tagged with their workload_family on "
                            "/streams and counted on /metrics")
    serve.add_argument("--oneshot", action="store_true",
                       help="exit once every known stream is terminal "
                            "instead of polling forever")
    serve.add_argument("--max-rounds", type=int, metavar="N",
                       help=argparse.SUPPRESS)
    serve.set_defaults(func=cmd_serve)

    tr = commands.add_parser(
        "trace", help="packed trace store utilities (pack/unpack/info/cat)"
    )
    verbs = tr.add_subparsers(dest="verb", required=True)

    pack = verbs.add_parser(
        "pack", help="re-encode a recording as a packed .vtrc file"
    )
    pack.add_argument("source", help="input recording (any format)")
    pack.add_argument("dest", help="output packed trace file")
    pack.add_argument("--block-size", type=int, default=512, metavar="N",
                      help="operations per block (default 512); smaller "
                           "blocks seek finer, larger compress better")
    pack.add_argument("--level", type=int, default=6, metavar="L",
                      help="zlib compression level 0-9 (default 6)")
    pack.set_defaults(func=cmd_trace_pack)

    unpack = verbs.add_parser(
        "unpack", help="convert a recording to the format DEST's "
                       "extension selects (.jsonl/.vtrc, else DSL)"
    )
    unpack.add_argument("source", help="input recording (any format)")
    unpack.add_argument("dest", help="output trace file")
    unpack.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="decode packed blocks across N workers")
    unpack.add_argument("--tolerant", action="store_true",
                        help="salvage a damaged packed trace: skip "
                             "quarantined blocks instead of failing "
                             "(prints the fault summary to stderr)")
    unpack.set_defaults(func=cmd_trace_unpack)

    info = verbs.add_parser(
        "info", help="print a packed trace's layout summary"
    )
    info.add_argument("file", help="packed .vtrc trace file")
    info.add_argument("--summaries", action="store_true",
                      help="print the per-block summary table (tids, "
                           "footprint sizes, op histogram, seq range); "
                           "v1 files reconstruct summaries by decoding")
    info.add_argument("--json", action="store_true",
                      help="emit layout and per-block summaries as JSON")
    info.add_argument("--blocks", action="store_true",
                      help="also list every block (offset, size, seqs)")
    info.add_argument("--regions", action="store_true",
                      help="scan for repeated transaction regions: "
                           "occurrence counts per region shape, "
                           "repetition ratio, and the top shapes — the "
                           "numbers that predict --memoize's payoff "
                           "(decodes the whole trace)")
    info.add_argument("--top", type=int, default=10, metavar="K",
                      help="shapes listed by --regions (default 10)")
    info.set_defaults(func=cmd_trace_info)

    cat = verbs.add_parser(
        "cat", help="print operations, seeking via the block index"
    )
    cat.add_argument("file", help="packed .vtrc trace file")
    cat.add_argument("--start", type=int, default=0, metavar="SEQ",
                     help="first stream position to print (default 0); "
                          "only the blocks shown are decoded")
    cat.add_argument("--limit", type=int, default=None, metavar="N",
                     help="stop after N operations")
    cat.set_defaults(func=cmd_trace_cat)

    wl = commands.add_parser("workloads", help="list benchmark workloads")
    wl.set_defaults(func=cmd_workloads)

    for name, module in (
        ("table1", harness_table1),
        ("table2", harness_table2),
        ("inject", harness_injection),
        ("report", harness_report),
        ("sensitivity", harness_sensitivity),
    ):
        sub = commands.add_parser(
            name, help=f"regenerate the paper's {name} experiment",
            add_help=False,
        )
        sub.set_defaults(func=None, harness_main=module.main)

    bench = commands.add_parser(
        "bench",
        help="'bench LANE [--output FILE] [--check-against FILE]' "
             "measures one lane at its baseline's shape and writes "
             "BENCH_<LANE>.json; lanes: " + "; ".join(
                 f"{name} ({lane.summary})"
                 for name, lane in bench_harness.LANES.items()),
        add_help=False,
    )
    bench.set_defaults(func=None, harness_main=bench_harness.main)

    lab = commands.add_parser(
        "lab",
        help="server-workload experiment driver: 'lab run' executes a "
             "workload × backend × scale matrix with per-cell "
             "ground-truth gates, 'lab list' shows the families, "
             "'lab report' renders stored results as markdown",
        add_help=False,
    )
    lab.set_defaults(func=None, harness_main=_lab_main)
    return parser


def _lab_main(argv):
    # Imported lazily: the experiments package pulls the parallel
    # executor and the server families, none of which the lightweight
    # CLI paths (check/run/random) need.
    from repro.experiments.lab import main as lab_main

    lab_main(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    # Harness subcommands forward their remaining arguments untouched.
    if argv and argv[0] in ("table1", "table2", "inject", "report",
                            "sensitivity", "bench", "lab"):
        args, rest = parser.parse_known_args(argv[:1])
        args.harness_main(argv[1:])
        return 0
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
