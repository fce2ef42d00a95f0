"""Self-tests of the benchmark, at tiny scale.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import run as bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench_result(workload: str, trace: int, cwd: Path = ROOT):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.3", "--trace", str(trace),
         "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return done


@pytest.mark.parametrize("workload", bench.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed(workload, trace):
    done = bench_result(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_traced_layers_sum_to_traced_wall(workload):
    done = bench_result(workload, 1)
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    value = {name: m["value"] for name, m in metrics.items()}
    layers = sum(v for name, v in value.items() if name.startswith("layer."))
    wall = value["bench.traced_wall_s"]
    assert wall > 0
    assert layers + value["bench.unattributed_s"] == pytest.approx(wall)
    assert value["bench.unattributed_s"] < 0.1 * wall


def test_wrong_declaration_trips_the_gate(monkeypatch, capsys):
    from repro.workloads.server import SERVER_FAMILIES, GroundTruth

    family = SERVER_FAMILIES["kv_store"]
    assert not family.truth_at(bench.workloads.SERVER_POINT_TINY).serializable
    monkeypatch.setitem(
        family.truth, bench.workloads.SERVER_POINT_TINY,
        GroundTruth(serializable=True),
    )
    monkeypatch.chdir(ROOT)
    code = bench.main([
        "--workload", "server_dense", "--seed", "3", "--seconds", "0.1",
        "--tiny",
    ])
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert code != 0
    assert not result["correct"]
    assert result["failed"] > 0
    assert "kv_store@smoke×velodrome" in out


def test_disagreeing_backends_trip_the_gate():
    trace = bench.workloads.Recorded("t", Path("t.vtrc"), 10, "d")
    velodrome = {"warnings": 1, "first_position": 7}
    assert bench.workloads.gate_agreement(trace, velodrome, velodrome) is None
    aerodrome = {"warnings": 1, "first_position": 8}
    assert bench.workloads.gate_agreement(trace, velodrome, aerodrome)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench_result("server_dense", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout
