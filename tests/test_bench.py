"""Tests for the bench harness (``repro.bench``).

Covers the two gates every lane shares (the drift comparator and the
floor checker, each at every lane's own bound), agreement before
timing, one reduced-size run per lane, the committed baselines under
``benchmarks/baseline/``, and the ``repro bench`` command line.  The
full-shape lanes run in CI's ``bench`` job; the reduced runs here
check figures, deterministic floors and ``env``, never a timing floor.
"""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro import bench
from repro.baselines.empty import EmptyAnalysis
from repro.bench import LANES, SCHEMA, check_floors, drift, render, run_lane

BASELINES = Path(__file__).resolve().parent.parent / "benchmarks" / "baseline"

#: The lane table: drift bound and floors of every lane.
TABLE = {
    "parallel": (0.30, {}),
    "store": (0.30, {"size.ratio": {"min": 3.0},
                     "decode.speedup": {"min": 1.5}}),
    "analyze": (0.30, {"sparse.speedup": {"min": 2.0},
                       "sparse.blocks_fast_forwarded": {"min": 1},
                       "dense.speedup": {"min": 0.95}}),
    "backends": (0.50, {"total.speedup": {"min": 1.0}}),
    "memo": (0.30, {"high_repetition.speedup": {"min": 2.0},
                    "low_repetition.overhead": {"max": 0.10}}),
    "workloads": (0.60, {}),
}

#: Reduced shapes: small enough for tier-1, same code paths.
REDUCED = {
    "parallel": {"copies": 2, "repeats": 1, "budget": 2},
    "store": {"copies": 5, "repeats": 1},
    "analyze": {"turns": 4, "repeats": 1},
    "backends": {"scale": 0.25, "repeats": 1},
    "memo": {"scale": 2.0, "repeats": 1, "low_rep_seeds": 5},
    "workloads": {"repeats": 1},
}


def report(lane, figures, **env):
    return {
        "schema": SCHEMA,
        "lane": lane,
        "env": {"cpu_count": 2, "python": "3", "zlib": "1", **env},
        "shape": dict(LANES[lane].shape),
        "threshold": LANES[lane].threshold,
        "figures": figures,
        "floors": LANES[lane].floors,
    }


def baseline(lane):
    return json.loads((BASELINES / f"BENCH_{lane}.json").read_text())


def shrink(monkeypatch, name):
    """Register lane ``name`` at its reduced shape."""
    lane = LANES[name]
    monkeypatch.setitem(
        LANES, name, replace(lane, shape={**lane.shape, **REDUCED[name]})
    )


def test_registry_is_the_lane_table():
    assert list(LANES) == list(TABLE)
    for name, (threshold, floors) in TABLE.items():
        assert LANES[name].threshold == threshold
        assert LANES[name].floors == floors


# ------------------------------------------------------- drift comparator
class TestDrift:
    RATE = "x.events_per_sec"

    @pytest.mark.parametrize("lane", TABLE)
    def test_within_the_bound_passes(self, lane):
        bound = TABLE[lane][0]
        new = report(lane, {self.RATE: 100.0 * (1 - bound) + 1.0})
        assert drift(new, report(lane, {self.RATE: 100.0})) == []

    @pytest.mark.parametrize("lane", TABLE)
    def test_beyond_the_bound_fails(self, lane):
        bound = TABLE[lane][0]
        new = report(lane, {self.RATE: 100.0 * (1 - bound) - 1.0})
        problems = drift(new, report(lane, {self.RATE: 100.0}))
        assert len(problems) == 1 and self.RATE in problems[0]

    def test_faster_never_fails(self):
        new = report("memo", {self.RATE: 1e9})
        assert drift(new, report("memo", {self.RATE: 100.0})) == []

    def test_a_figure_on_one_side_only_is_skipped(self):
        new = report("store", {"a.events_per_sec": 1.0})
        old = report("store", {"b.events_per_sec": 100.0})
        assert drift(new, old) == []
        assert drift(old, new) == []

    def test_only_events_per_sec_figures_are_compared(self):
        new = report("store", {"decode.packed.best_seconds": 100.0,
                               "decode.speedup": 0.1})
        old = report("store", {"decode.packed.best_seconds": 1.0,
                               "decode.speedup": 6.5})
        assert drift(new, old) == []

    def test_baseline_of_another_schema_or_lane_is_refused(self):
        new = report("store", {self.RATE: 100.0})
        assert drift(new, {"schema": 1, "lane": "store", "figures": {}})
        assert drift(new, report("memo", {self.RATE: 100.0}))


# ---------------------------------------------------------- floor checker
FLOORS = [
    (lane, figure, bound)
    for lane, (_, floors) in TABLE.items()
    for figure, bound in floors.items()
]


@pytest.mark.parametrize(
    "lane,figure,bound", FLOORS, ids=[f"{l}:{f}" for l, f, _ in FLOORS]
)
def test_every_floor_trips(lane, figure, bound):
    limit = bound.get("min", bound.get("max"))
    passing = {name: b.get("min", b.get("max"))
               for name, b in LANES[lane].floors.items()}
    assert check_floors(report(lane, passing)) == []
    beyond = limit - 0.01 if "min" in bound else limit + 0.01
    problems = check_floors(report(lane, {**passing, figure: beyond}))
    assert len(problems) == 1 and figure in problems[0]


def test_a_missing_floored_figure_fails():
    problems = check_floors(report("store", {"size.ratio": 52.0}))
    assert problems == ["decode.speedup: missing from the report"]


def test_floors_come_from_the_lane_not_the_report():
    waived = report("backends", {"total.speedup": 0.5})
    waived["floors"] = {}
    assert check_floors(waived)


# ------------------------------------------------ agreement before timing
def test_disagreement_raises_before_any_time_is_recorded(monkeypatch):
    timed = []
    monkeypatch.setattr(bench, "best_of",
                        lambda repeats, thunks: timed.append(thunks))
    with pytest.raises(bench.Disagreement, match="disagree"):
        bench.race("lane", {"a": lambda: 1, "b": lambda: 2}, 3,
                   outcome=lambda result: result)
    assert timed == []


def test_a_lane_whose_configurations_disagree_exits_2_untimed(
    monkeypatch, tmp_path, capsys,
):
    # An aerodrome that never warns disagrees with velodrome on the
    # first violating workload.
    timed = []
    monkeypatch.setattr(bench, "AeroDrome", EmptyAnalysis)
    monkeypatch.setattr(bench, "best_of",
                        lambda repeats, thunks: timed.append(thunks))
    shrink(monkeypatch, "backends")
    with pytest.raises(SystemExit) as exit_info:
        bench.main(["backends", "--output", str(tmp_path / "out.json")])
    assert exit_info.value.code == 2
    assert "elevator: configurations disagree" in capsys.readouterr().err
    assert timed == []
    assert not (tmp_path / "out.json").exists()


def test_agreeing_configurations_are_timed():
    results, seconds = bench.race(
        "lane", {"a": lambda: 1, "b": lambda: 1}, 2,
        outcome=lambda result: result,
    )
    assert results == {"a": 1, "b": 1}
    assert set(seconds) == {"a", "b"} and min(seconds.values()) >= 0


# ------------------------------------------------------ one run per lane
@pytest.fixture(scope="module")
def reduced():
    with pytest.MonkeyPatch.context() as monkeypatch:
        for name in REDUCED:
            shrink(monkeypatch, name)
        return {name: run_lane(name) for name in REDUCED}


@pytest.mark.parametrize("lane", TABLE)
def test_reduced_run_reports_the_schema(lane, reduced):
    result = reduced[lane]
    assert result["schema"] == SCHEMA and result["lane"] == lane
    assert set(result["env"]) == {"cpu_count", "python", "zlib"}
    assert result["env"]["cpu_count"] >= 1
    assert result["shape"] == {**LANES[lane].shape, **REDUCED[lane]}
    assert result["threshold"] == TABLE[lane][0]
    assert result["floors"] == TABLE[lane][1]
    for name, value in result["figures"].items():
        assert isinstance(value, (int, float)), name
    rates = [name for name in result["figures"]
             if name.endswith("events_per_sec")]
    assert rates and all(result["figures"][name] > 0 for name in rates)
    # Every floored figure is reported, and the committed baseline
    # names every figure the lane reports (first warnings aside, which
    # the recorded baselines predate).
    assert set(result["floors"]) <= set(result["figures"])
    recorded = set(baseline(lane)["figures"])
    missing = {name for name in set(result["figures"]) - recorded
               if not name.endswith(("first_warning", "jobs_ratio"))}
    assert missing == set()


def test_reduced_store_and_analyze_hold_their_deterministic_floors(reduced):
    assert reduced["store"]["figures"]["size.ratio"] >= 3.0
    analyze = reduced["analyze"]["figures"]
    assert analyze["sparse.blocks_fast_forwarded"] == analyze["sparse.blocks"]
    assert analyze["dense.blocks_fast_forwarded"] == 0


def test_reduced_backends_agree_per_workload(reduced):
    figures = reduced["backends"]["figures"]
    assert figures["total.events"] == sum(
        value for name, value in figures.items()
        if name.endswith(".events") and not name.startswith("total.")
    )
    assert figures["elevator.error_detected"] is True
    assert "raja.first_warning" not in figures


def test_reduced_workloads_match_the_recorded_ground_truth(reduced):
    # Same points and seed as the baseline, so everything but timing
    # equals the recorded figures.
    figures = reduced["workloads"]["figures"]
    recorded = baseline("workloads")["figures"]
    for name, value in recorded.items():
        if name.endswith(("events", "error_detected", "peak_nodes", "cells")):
            assert figures[name] == value, name


def test_reduced_parallel_reports_a_jobs_ratio(reduced):
    figures = reduced["parallel"]["figures"]
    assert figures["fuzz.jobs_ratio"] > 0
    assert not any(name.startswith(("stages.encode", "stages.decode"))
                   for name in figures)


# ------------------------------------------------------ committed baselines
@pytest.mark.parametrize("lane", TABLE)
def test_committed_baseline_is_schema_2_and_within_its_floors(lane):
    doc = baseline(lane)
    assert doc["schema"] == SCHEMA and doc["lane"] == lane
    assert set(doc["env"]) == {"cpu_count", "python", "zlib"}
    assert doc["threshold"] == TABLE[lane][0]
    assert doc["floors"] == TABLE[lane][1]
    assert doc["shape"] == LANES[lane].shape
    assert check_floors(doc) == []
    assert drift(doc, doc) == []


def test_jobs_ratio_on_fewer_cpus_than_jobs_is_not_a_speedup():
    text = render(baseline("parallel"))
    assert "not a speedup: cpu_count 1 < jobs 2" in text
    enough = report("parallel", {"fuzz.jobs_ratio": 1.8}, cpu_count=4)
    assert "not a speedup" not in render(enough)


# ------------------------------------------------------------------ CLI
def test_cli_writes_the_report_and_gates_drift(monkeypatch, tmp_path, capsys):
    shrink(monkeypatch, "store")
    output = tmp_path / "BENCH_store.json"
    bench.main(["store", "--output", str(output)])
    written = json.loads(output.read_text())
    assert written["lane"] == "store" and written["schema"] == SCHEMA

    def scaled(factor):
        doc = json.loads(json.dumps(written))
        for name in doc["figures"]:
            if name.endswith("events_per_sec"):
                doc["figures"][name] *= factor
        path = tmp_path / f"baseline_{factor}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    bench.main(["store", "--output", str(output),
                "--check-against", scaled(0.1)])
    assert "gates met" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exit_info:
        bench.main(["store", "--output", str(output),
                    "--check-against", scaled(10.0)])
    assert exit_info.value.code == 1
    assert "BENCH GATE FAILED" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--quick", "--scale", "--repeats",
                                    "--threshold", "--jobs"])
def test_cli_takes_no_shape_options(option, capsys):
    with pytest.raises(SystemExit) as exit_info:
        bench.main(["store", option, "1"])
    assert exit_info.value.code == 2


def test_help_lists_every_lane_from_the_registry():
    from repro.cli import build_parser

    top = " ".join(build_parser().format_help().split())
    module = subprocess.run(
        [sys.executable, "-m", "repro.bench", "--help"],
        capture_output=True, text=True, check=True,
    ).stdout
    for name, lane in LANES.items():
        assert f"{name} (" in top
        assert f"{name:<10} {lane.summary}" in module
