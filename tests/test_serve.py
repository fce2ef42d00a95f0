"""Tests for the serve daemon (repro.serve).

The robustness contract under test: many concurrent streams, each
isolated — a malformed neighbor quarantines alone, failures retry with
backoff then park, diagnostics stay bounded, shutdown is graceful, and
an interrupted stream resumes to verdicts identical to an
uninterrupted run (the subprocess ``kill -9`` flavor lives in
``test_serve_crash.py``; here interruption is driven in-process for
determinism and speed).
"""

import contextlib
import io
import json
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.events.serialize import dump_jsonl
from repro.fuzz import trace_for_seed
from repro.parallel.tasks import StreamTask
from repro.resilience import (
    EXIT_INTERRUPTED,
    Budgets,
    GracefulShutdown,
    RingLog,
    ShutdownRequested,
)
from repro.serve import (
    IngestListener,
    RetryPolicy,
    ServeConfig,
    ServeDaemon,
    StreamRecord,
    StreamRegistry,
    file_digest,
    stream_id,
    upload_trace,
)
from repro.serve.registry import (
    DONE,
    DUPLICATE,
    FAILED,
    PARKED,
    PENDING,
    QUARANTINED,
    REJECTED,
    RUNNING,
)
from repro.serve.spool import SpoolScanner
from repro.serve.stream import (
    packed_checkpoint_meta,
    process_stream,
    set_stop_check,
)
from repro.store.reader import PackedTraceReader
from repro.store.writer import save_packed


def write_jsonl(path, trace, with_seq=True):
    with open(path, "w", encoding="utf-8") as stream:
        dump_jsonl(trace, stream, with_seq=with_seq)


def task_for(path, fmt, checkpoint=None, checkpoint_every=16,
             backends=("velodrome",), budgets=None, max_retained=1024):
    return StreamTask(
        stream_id="s", path=str(path), format=fmt, backends=backends,
        checkpoint_path=str(checkpoint) if checkpoint else None,
        checkpoint_every=checkpoint_every,
        budgets=budgets or Budgets(), on_pressure="degrade",
        max_retained=max_retained,
    )


def jsonl_bytes(seed):
    buffer = io.StringIO()
    dump_jsonl(trace_for_seed(seed), buffer, with_seq=True)
    return buffer.getvalue().encode("utf-8")


def wait_for(predicate, timeout, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def oneshot(spool, **overrides):
    options = dict(spool_dir=spool, settle_seconds=0.0,
                   poll_interval=0.0, checkpoint_every=16)
    options.update(overrides)
    daemon = ServeDaemon(ServeConfig(**options))
    daemon.run(oneshot=True)
    return daemon


class TestRingLog:
    def test_caps_retention_keeps_totals(self):
        log = RingLog(maxlen=3)
        for value in range(10):
            log.append(value)
        assert list(log) == [7, 8, 9]
        assert log.total == 10
        assert log.dropped == 7
        assert len(log) == 3

    def test_unbounded_when_maxlen_none(self):
        log = RingLog(maxlen=None)
        log.extend(range(100))
        assert log.total == 100
        assert log.dropped == 0

    def test_compares_to_plain_sequences(self):
        log = RingLog()
        log.extend([1, 2])
        assert log == [1, 2]
        assert log != [2, 1]


class TestBudgetSlicing:
    def test_divides_across_streams(self):
        sliced = Budgets(max_live_nodes=1000,
                         max_state_entries=800).slice(4)
        assert sliced.max_live_nodes == 250
        assert sliced.max_state_entries == 200

    def test_floor_protects_tiny_slices(self):
        sliced = Budgets(max_live_nodes=100).slice(50, floor=64)
        assert sliced.max_live_nodes == 64

    def test_unlimited_stays_unlimited(self):
        sliced = Budgets().slice(8)
        assert sliced.max_live_nodes is None
        assert sliced.max_state_entries is None

    def test_rejects_zero_shares(self):
        with pytest.raises(ValueError):
            Budgets().slice(0)


class TestRegistry:
    def test_round_trips_records(self, tmp_path):
        registry = StreamRegistry(tmp_path)
        registry.save(StreamRecord(
            stream_id="a-1", path="/x/a", digest="d1", format="jsonl",
            status=DONE, result={"backends": []},
        ))
        fresh = StreamRegistry(tmp_path)
        fresh.load()
        record = fresh.get("a-1")
        assert record.status == DONE
        assert record.result == {"backends": []}

    def test_running_demotes_to_pending_on_load(self, tmp_path):
        registry = StreamRegistry(tmp_path)
        registry.save(StreamRecord(
            stream_id="a-1", path="/x/a", digest="d1", format="jsonl",
            status=RUNNING,
        ))
        fresh = StreamRegistry(tmp_path)
        fresh.load()
        assert fresh.get("a-1").status == PENDING

    def test_damaged_record_file_dropped_not_fatal(self, tmp_path):
        (tmp_path / "bad.json").write_text("{not json", encoding="utf-8")
        registry = StreamRegistry(tmp_path)
        registry.load()
        assert registry.records() == []
        assert not (tmp_path / "bad.json").exists()

    def test_duplicate_lookup_skips_duplicate_records(self, tmp_path):
        registry = StreamRegistry(tmp_path)
        registry.save(StreamRecord(
            stream_id="a-1", path="/x/a", digest="d1", status=DONE,
        ))
        registry.save(StreamRecord(
            stream_id="b-1", path="/x/b", digest="d1", status=DUPLICATE,
        ))
        assert registry.by_digest("d1").stream_id == "a-1"

    def test_stream_id_sanitizes(self):
        sid = stream_id("/spool/we ird$name.jsonl", "abcdef0123456789")
        assert sid == "we_ird_name-abcdef012345"


class TestSpoolScanner:
    def test_growing_file_settles_only_when_stable(self, tmp_path):
        scanner = SpoolScanner(tmp_path, settle_seconds=3600)
        target = tmp_path / "grow.jsonl"
        target.write_text("partial")
        first = scanner.scan(set())
        assert [p.name for p in first.settling] == ["grow.jsonl"]
        assert first.stable == []
        # Still being written: size changed between scans.
        target.write_text("partial plus more")
        second = scanner.scan(set())
        assert [p.name for p in second.settling] == ["grow.jsonl"]
        # Unchanged across two consecutive scans: now stable.
        third = scanner.scan(set())
        assert [f.path.name for f in third.stable] == ["grow.jsonl"]

    def test_known_paths_skipped(self, tmp_path):
        (tmp_path / "seen.jsonl").write_text("x")
        scanner = SpoolScanner(tmp_path, settle_seconds=0)
        result = scanner.scan({str(tmp_path / "seen.jsonl")})
        assert result.stable == [] and result.settling == []

    def test_hidden_and_tmp_files_ignored(self, tmp_path):
        (tmp_path / ".state").write_text("x")
        (tmp_path / "upload.tmp").write_text("x")
        (tmp_path / "sub").mkdir()
        result = SpoolScanner(tmp_path, settle_seconds=0).scan(set())
        assert result.stable == [] and result.settling == []

    def test_vanished_file_forgotten(self, tmp_path):
        scanner = SpoolScanner(tmp_path, settle_seconds=3600)
        target = tmp_path / "gone.jsonl"
        target.write_text("x")
        scanner.scan(set())
        target.unlink()
        scanner.scan(set())
        assert target not in scanner._sightings

    def test_landed_upload_is_stable_on_first_sight(self, tmp_path):
        scanner = SpoolScanner(tmp_path, settle_seconds=3600)
        write_jsonl(tmp_path / "upload.trace", trace_for_seed(11))
        write_jsonl(tmp_path / "drop.jsonl", trace_for_seed(12))
        scanner.mark_landed(tmp_path / "upload.trace")
        result = scanner.scan(set())
        assert [f.path.name for f in result.stable] == ["upload.trace"]
        assert [p.name for p in result.settling] == ["drop.jsonl"]

    def test_state_holds_only_files_still_settling(self, tmp_path):
        scanner = SpoolScanner(tmp_path, settle_seconds=3600)
        dropped = [tmp_path / f"drop{i}.jsonl" for i in range(6)]
        for path in dropped:
            path.write_text("x")
        landed = [tmp_path / f"upload{i}.trace" for i in range(3)]
        for path in landed:
            path.write_text("x")
            scanner.mark_landed(path)
        known = set()
        for _ in range(3):   # second sightings settle every drop
            result = scanner.scan(known)
            known |= {str(f.path) for f in result.stable}
        assert known == {str(p) for p in dropped + landed}
        (tmp_path / "growing.jsonl").write_text("x")
        scanner.scan(known)
        assert scanner._sightings.keys() == {tmp_path / "growing.jsonl"}
        assert scanner._landed == set()

    def test_marks_racing_scans_are_each_taken_once(self, tmp_path):
        """Uploads landing while scans run: no mark is lost (a lost
        one would sit out the hour-long settle window)."""
        scanner = SpoolScanner(tmp_path, settle_seconds=3600)
        paths = [tmp_path / f"upload{i}.trace" for i in range(200)]

        def land(share):
            for path in share:
                path.write_text("x")
                scanner.mark_landed(path)

        writers = [
            threading.Thread(target=land, args=(paths[i::4],))
            for i in range(4)
        ]
        taken = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for writer in writers:
                writer.start()
            deadline = time.monotonic() + 10
            while (any(writer.is_alive() for writer in writers)
                   and time.monotonic() < deadline):
                result = scanner.scan({str(p) for p in taken})
                taken += [stable.path for stable in result.stable]
            for writer in writers:
                writer.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(writer.is_alive() for writer in writers)
        result = scanner.scan({str(p) for p in taken})
        taken += [stable.path for stable in result.stable]
        assert sorted(taken) == sorted(paths)
        assert scanner._sightings == {} and scanner._landed == set()

    def test_content_digest_is_format_independent(self, tmp_path):
        trace = trace_for_seed(5)
        write_jsonl(tmp_path / "a.jsonl", trace)
        save_packed(trace, tmp_path / "b.vtrc", block_ops=16)
        digest_a, content_a = file_digest(tmp_path / "a.jsonl", "jsonl")
        digest_b, content_b = file_digest(tmp_path / "b.vtrc", "vtrc")
        assert content_a and content_b
        assert digest_a == digest_b

    def test_unparseable_gets_raw_digest(self, tmp_path):
        target = tmp_path / "noise.bin"
        target.write_bytes(b"\x00\x01garbage")
        digest, content = file_digest(target, None)
        assert digest.startswith("raw-")
        assert not content


class TestDaemonOneshot:
    def test_mixed_spool_checks_all_streams(self, tmp_path):
        spool = tmp_path / "spool"
        spool.mkdir()
        write_jsonl(spool / "a.jsonl", trace_for_seed(11))
        save_packed(trace_for_seed(22), spool / "b.vtrc", block_ops=32)
        daemon = oneshot(spool)
        statuses = {
            record.path.rsplit("/", 1)[-1]: record.status
            for record in daemon.registry.records()
        }
        assert statuses == {"a.jsonl": DONE, "b.vtrc": DONE}
        for record in daemon.registry.records():
            assert record.result["backends"][0]["backend"] == "VELODROME"

    def test_corrupt_neighbor_is_isolated(self, tmp_path):
        """The tentpole isolation claim: garbage next to good streams
        quarantines alone, and the good streams' verdicts equal a
        clean-spool run's exactly."""
        clean = tmp_path / "clean"
        dirty = tmp_path / "dirty"
        for spool in (clean, dirty):
            spool.mkdir()
            write_jsonl(spool / "a.jsonl", trace_for_seed(11))
            save_packed(trace_for_seed(22), spool / "b.vtrc",
                        block_ops=32)
        (dirty / "junk.bin").write_bytes(b"\x00\x01 not a trace")
        (dirty / "empty.jsonl").write_bytes(b"")
        reference = oneshot(clean)
        subject = oneshot(dirty)
        want = {
            record.digest: record.result
            for record in reference.registry.records()
        }
        got = {
            record.digest: record.result
            for record in subject.registry.records()
            if record.status == DONE
        }
        assert got == want
        quarantined = [
            record for record in subject.registry.records()
            if record.status == QUARANTINED
        ]
        assert len(quarantined) == 2
        assert sorted(
            path.name
            for path in subject.config.quarantine_dir.iterdir()
        ) == ["empty.jsonl", "junk.bin"]
        # Quarantined inputs leave the spool; only daemon state stays.
        assert sorted(p.name for p in dirty.iterdir()) == [
            ".serve", "a.jsonl", "b.vtrc",
        ]

    def test_duplicate_redrop_deduped_across_formats(self, tmp_path):
        spool = tmp_path / "spool"
        spool.mkdir()
        trace = trace_for_seed(11)
        write_jsonl(spool / "a.jsonl", trace)
        save_packed(trace, spool / "redrop.vtrc", block_ops=32)
        daemon = oneshot(spool)
        statuses = sorted(
            (record.path.rsplit("/", 1)[-1], record.status)
            for record in daemon.registry.records()
        )
        assert statuses == [
            ("a.jsonl", DONE), ("redrop.vtrc", DUPLICATE),
        ]
        assert daemon.metrics.duplicates_dropped == 1

    def test_failing_stream_retries_then_parks(self, tmp_path):
        spool = tmp_path / "spool"
        spool.mkdir()
        # Sniffs as packed but the body is garbage: every attempt fails.
        from repro.store.format import MAGIC

        (spool / "torn.vtrc").write_bytes(MAGIC + b"\x00" * 16)
        daemon = oneshot(
            spool,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0),
        )
        record = daemon.registry.records()[0]
        assert record.status == PARKED
        assert record.attempts == 2
        assert record.error
        assert daemon.metrics.streams_parked == 1
        assert daemon.exit_code() == 1

    def test_exit_code_clean_spool(self, tmp_path):
        spool = tmp_path / "spool"
        spool.mkdir()
        write_jsonl(spool / "a.jsonl", trace_for_seed(1))
        daemon = oneshot(spool)
        warnings = sum(
            backend["warnings"]
            for record in daemon.registry.records()
            for backend in record.result["backends"]
        )
        assert daemon.exit_code() == (1 if warnings else 0)

    def test_restart_does_not_recheck_done_streams(self, tmp_path):
        spool = tmp_path / "spool"
        spool.mkdir()
        write_jsonl(spool / "a.jsonl", trace_for_seed(11))
        first = oneshot(spool)
        done = first.registry.get(first.registry.records()[0].stream_id)
        second = oneshot(spool)
        assert second.metrics.streams_done == 0   # nothing re-run
        assert second.registry.records()[0].result == done.result

    def test_no_snapshot_fail_policy_rejects(self, tmp_path):
        spool = tmp_path / "spool"
        spool.mkdir()
        write_jsonl(spool / "a.jsonl", trace_for_seed(11))
        daemon = oneshot(
            spool, backends=("velodrome", "aerodrome"),
            no_snapshot="fail",
        )
        record = daemon.registry.records()[0]
        assert record.status == REJECTED
        assert "snapshot" in record.error
        assert daemon.exit_code() == 1

    def test_no_snapshot_replay_policy_checks_without_checkpoints(
        self, tmp_path
    ):
        spool = tmp_path / "spool"
        spool.mkdir()
        write_jsonl(spool / "a.jsonl", trace_for_seed(11))
        daemon = oneshot(spool, backends=("velodrome", "aerodrome"))
        record = daemon.registry.records()[0]
        assert record.status == DONE
        assert not record.checkpointable
        assert list(daemon.config.checkpoint_dir.iterdir()) == []
        names = [b["backend"] for b in record.result["backends"]]
        assert names == ["VELODROME", "AERODROME"]


class TestInterruptedStreamEquivalence:
    """In-process crash equivalence: stop a stream mid-ingest via the
    shutdown hook, re-run it, and require the verdict of a run that
    was never interrupted — including hardened-reader state (seq
    dedupe) that is *not* in the snapshot and must be rebuilt by
    re-reading the prefix."""

    def equivalent_after_interrupt(self, path, fmt, tmp_path,
                                   stop_after=25):
        reference = process_stream(task_for(path, fmt))
        assert reference["status"] == "done"

        checkpoint = tmp_path / "interrupted.ckpt"
        calls = {"n": 0}

        def stop(signum=15):
            calls["n"] += 1
            if calls["n"] == stop_after:
                raise ShutdownRequested(signum)

        previous = set_stop_check(stop)
        try:
            first = process_stream(
                task_for(path, fmt, checkpoint=checkpoint,
                         checkpoint_every=8)
            )
        finally:
            set_stop_check(previous)
        assert first["status"] == "interrupted"
        assert 0 < first["events"] < reference["events"]
        assert checkpoint.exists()

        second = process_stream(
            task_for(path, fmt, checkpoint=checkpoint,
                     checkpoint_every=8)
        )
        assert second["status"] == "done"
        assert second["resumed_from"] == str(checkpoint)
        assert second["events"] == reference["events"]
        assert second["backends"] == reference["backends"]
        return reference, second

    def test_jsonl_stream(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, trace_for_seed(33))
        self.equivalent_after_interrupt(path, "jsonl", tmp_path)

    def test_packed_stream(self, tmp_path):
        path = tmp_path / "b.vtrc"
        save_packed(trace_for_seed(33), path, block_ops=16)
        # Packed streams hit the stop hook once per *block*, so the
        # interrupt point must land within the block count.
        self.equivalent_after_interrupt(path, "vtrc", tmp_path,
                                        stop_after=3)

    def test_jsonl_with_seq_duplicates_resumes_dedupe_state(
        self, tmp_path
    ):
        """A resume that skipped the prefix at the *reader* level
        would deliver prefix duplicates a fresh reader no longer
        remembers; re-reading through the same hardened reader must
        keep the quarantine verdict identical too."""
        path = tmp_path / "dup.jsonl"
        write_jsonl(path, trace_for_seed(33))
        lines = path.read_text(encoding="utf-8").splitlines(True)
        # Duplicate an early and a late record.
        laced = (lines[:6] + [lines[5]] + lines[6:] + [lines[8]])
        path.write_text("".join(laced), encoding="utf-8")
        reference, resumed = self.equivalent_after_interrupt(
            path, "jsonl", tmp_path
        )
        assert reference["quarantine"]["counts"] == {"duplicate": 2}
        assert resumed["quarantine"] == reference["quarantine"]


def reference_checkpoint_meta(path, position):
    """Checkpoint metadata from a fresh reader, as every checkpoint
    once computed it."""
    entry = {"trace": str(path), "format": "vtrc", "resume_seq": position,
             "resume_block": None, "resume_block_offset": None}
    with PackedTraceReader(path) as reader:
        if 0 <= position < reader.total_ops:
            block = reader.block_for_seq(position)
            entry["resume_block"] = block.number
            entry["resume_block_offset"] = block.byte_offset
    return entry


class TestPackedCheckpointMeta:
    def test_index_read_once_per_stream(self, tmp_path, monkeypatch):
        path = tmp_path / "s.vtrc"
        save_packed(trace_for_seed(12), path, block_ops=16)
        opens = []
        open_reader = PackedTraceReader.__init__

        def counting_open(self, *args, **kwargs):
            opens.append(1)
            open_reader(self, *args, **kwargs)

        calls = []   # (position, entry, readers opened by the call)

        def recording_factory(trace_path):
            meta = packed_checkpoint_meta(trace_path)

            def recorded(position):
                before = len(opens)
                entry = meta(position)
                calls.append((position, entry, len(opens) - before))
                return entry

            return recorded

        monkeypatch.setattr(PackedTraceReader, "__init__", counting_open)
        monkeypatch.setattr(
            "repro.serve.stream.packed_checkpoint_meta", recording_factory
        )
        outcome = process_stream(task_for(
            path, "vtrc", checkpoint=tmp_path / "s.ckpt",
            checkpoint_every=16,
        ))
        monkeypatch.undo()
        assert outcome["status"] == "done"
        assert len(calls) == outcome["checkpoints_written"] >= 3
        assert sum(opened for _, _, opened in calls) == 1
        for position, entry, _ in calls:
            assert entry == reference_checkpoint_meta(path, position)

        meta = packed_checkpoint_meta(path)
        with PackedTraceReader(path) as reader:
            edges = {reader.total_ops}
            for block in reader.blocks:
                edges |= {block.first_seq, block.last_seq}
        for position in sorted(edges):
            assert meta(position) == reference_checkpoint_meta(path, position)


class TestMetricsEndpoint:
    def scrape(self, port, route):
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{route}", timeout=5
        ) as response:
            assert response.headers["Content-Type"] == "application/json"
            return json.loads(response.read())

    def test_endpoints_serve_json(self, tmp_path):
        spool = tmp_path / "spool"
        spool.mkdir()
        write_jsonl(spool / "a.jsonl", trace_for_seed(11))
        daemon = ServeDaemon(ServeConfig(
            spool_dir=spool, settle_seconds=0.0, http_port=0,
        ))
        daemon.start_endpoints()
        try:
            port = daemon.metrics_server.port
            assert self.scrape(port, "/healthz") == {"ok": True}
            events = daemon._round()
            daemon.metrics.observe_round(events)
            metrics = self.scrape(port, "/metrics")
            assert metrics["streams"]["done"] == 1
            assert metrics["events_total"] == events > 0
            assert metrics["registry"] == {"done": 1}
            assert metrics["checkpoints_written"] >= 1
            streams = self.scrape(port, "/streams")["streams"]
            assert streams[0]["status"] == DONE
            with pytest.raises(urllib.error.HTTPError):
                self.scrape(port, "/nope")
        finally:
            daemon._stop_endpoints()


class TestIngestSocket:
    def test_upload_lands_in_spool_atomically(self, tmp_path):
        spool = tmp_path / "spool"
        spool.mkdir()
        ingested = []
        listener = IngestListener(
            tmp_path / "ingest.sock", spool, on_ingest=ingested.append
        )
        listener.start()
        try:
            upload_trace(tmp_path / "ingest.sock", jsonl_bytes(11))
            assert wait_for(lambda: ingested, 5)
            assert len(ingested) == 1
            published = ingested[0]
            assert published.parent == spool
            assert not published.name.startswith(".")
            from repro.store.sniff import sniff_path

            assert sniff_path(published) == "jsonl"
            # No temp droppings left behind.
            assert [p for p in spool.iterdir()
                    if p.name.endswith(".tmp")] == []
        finally:
            listener.stop()
        assert not (tmp_path / "ingest.sock").exists()

    def test_uploaded_stream_is_checked(self, tmp_path):
        spool = tmp_path / "spool"
        spool.mkdir()
        listener = IngestListener(tmp_path / "ingest.sock", spool)
        listener.start()
        try:
            upload_trace(tmp_path / "ingest.sock", jsonl_bytes(11))
        finally:
            listener.stop()
        daemon = oneshot(spool)
        records = daemon.registry.records()
        assert len(records) == 1
        assert records[0].status == DONE

    def test_restarted_listener_never_overwrites_an_upload(self, tmp_path):
        """Two listeners in one process count uploads from 0 alike, as
        a daemon restarted under the same pid does."""
        spool = tmp_path / "spool"
        spool.mkdir()
        for seed in (11, 12):
            listener = IngestListener(tmp_path / "ingest.sock", spool)
            listener.start()
            try:
                upload_trace(tmp_path / "ingest.sock", jsonl_bytes(seed))
            finally:
                listener.stop()
            daemon = oneshot(spool)
        assert len([p for p in spool.iterdir() if p.is_file()]) == 2
        records = daemon.registry.records()
        assert [r.status for r in records] == [DONE, DONE]
        for record in records:
            assert file_digest(Path(record.path), "jsonl")[0] \
                == record.digest


@contextlib.contextmanager
def running(daemon):
    """Run ``daemon`` on a thread; on exit, signal it and require a
    prompt graceful stop."""
    codes = []
    thread = threading.Thread(
        target=lambda: codes.append(daemon.run()), daemon=True
    )
    thread.start()
    try:
        yield
    finally:
        daemon.shutdown.request()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert codes == [EXIT_INTERRUPTED]


def statuses(daemon):
    """Spool file name -> status, read from the records on disk."""
    out = {}
    for path in daemon.config.registry_dir.glob("*.json"):
        record = json.loads(path.read_text(encoding="utf-8"))
        out[Path(record["path"]).name] = record["status"]
    return out


class TestUploadWakesDaemon:
    """With a 30 s poll and settle window, only an upload's wake-up
    can get it checked within the 5 s these tests allow."""

    @pytest.fixture
    def daemon(self, tmp_path):
        daemon = ServeDaemon(
            ServeConfig(
                spool_dir=tmp_path / "spool", poll_interval=30,
                settle_seconds=30, socket_path=tmp_path / "ingest.sock",
                checkpoint_every=16,
            ),
            shutdown=GracefulShutdown(),
        )
        daemon.start_endpoints()
        yield daemon
        daemon._stop_endpoints()

    def test_upload_is_checked_without_waiting_for_the_poll(self, daemon):
        with running(daemon):
            assert wait_for(lambda: daemon.metrics.rounds >= 1, 5)
            upload_trace(daemon.config.socket_path, jsonl_bytes(11))
            assert wait_for(
                lambda: list(statuses(daemon).values()) == [DONE], 5
            )
        assert daemon.scanner._landed == set()
        assert daemon.scanner._sightings == {}

    def test_dropped_file_still_settles_on_second_sighting(self, daemon):
        scans = []
        scan = daemon.scanner.scan

        def recording_scan(known, now=None):
            result = scan(known, now)
            scans.append((
                {path.name for path in result.settling},
                {stable.path.name for stable in result.stable},
            ))
            return result

        daemon.scanner.scan = recording_scan
        spool = daemon.config.spool_dir
        with running(daemon):
            assert wait_for(lambda: daemon.metrics.rounds >= 1, 5)
            write_jsonl(spool / "drop.jsonl", trace_for_seed(12))
            upload_trace(daemon.config.socket_path, jsonl_bytes(11))
            assert wait_for(
                lambda: sorted(statuses(daemon).values()) == [DONE, DONE],
                5,
            )
        upload = next(
            name for name in statuses(daemon) if name != "drop.jsonl"
        )
        first = next(
            i for i, (settling, stable) in enumerate(scans)
            if "drop.jsonl" in settling | stable
        )
        # The upload's wake-up scan takes the upload, not the drop.
        assert scans[first] == ({"drop.jsonl"}, {upload})
        assert scans[first + 1][1] == {"drop.jsonl"}
        assert daemon.scanner._sightings == {}

    def test_upload_landing_mid_round_is_not_lost(self, daemon):
        """The upload lands after the round's scan, so the round ends
        with nothing to do: the wake-up must outlive it."""
        scan = daemon.scanner.scan
        uploaded = []

        def scan_then_upload(known, now=None):
            result = scan(known, now)
            if not uploaded:
                upload_trace(daemon.config.socket_path, jsonl_bytes(11))
                uploaded.append(True)
            return result

        daemon.scanner.scan = scan_then_upload
        with running(daemon):
            assert wait_for(
                lambda: list(statuses(daemon).values()) == [DONE], 5
            )


class TestBoundedDiagnostics:
    def test_quarantine_totals_survive_retention_cap(self, tmp_path):
        spool = tmp_path / "spool"
        spool.mkdir()
        path = spool / "noisy.jsonl"
        write_jsonl(path, trace_for_seed(11))
        with open(path, "a", encoding="utf-8") as stream:
            for index in range(40):
                stream.write(f"{{\"garbage\": {index}}}\n")
        daemon = oneshot(spool, max_retained=8)
        record = daemon.registry.records()[0]
        assert record.status == DONE
        quarantine = record.result["quarantine"]
        assert quarantine["total"] == 40
        assert quarantine["dropped"] == 32
        assert quarantine["counts"]["unknown-op"] == 40
        assert daemon.metrics.quarantined_records == 40
