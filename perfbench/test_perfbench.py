"""Self-tests of the benchmark at smoke size (no wall-clock asserts).

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench_runner
from bench_runner import END_TO_END, layer_unit

HERE = Path(__file__).resolve().parent

#: Smoke sizes: the same code paths, a few patients, a few rounds.
SMOKE = {
    "ward_stream": (
        {"beds": 2, "per_bed": 4, "third_party_every": 3}, 12,
    ),
    "clinic_bus": ({"patients": 12}, 14),
    "vitals_history": (
        {"beds": 2, "per_bed": 3, "seal_every": 64, "prefill_hours": 3.0}, 20,
    ),
}


def smoke(workload: str, seed: int, tmp_path: Path, trace: bool = False):
    sizes, rounds = SMOKE[workload]
    return bench_runner.run(
        workload, seed, trace=trace, rounds=rounds, setups=1,
        scratch=tmp_path, sizes=sizes,
    )


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_smoke_run_has_no_wrong_outcome(workload, tmp_path):
    result = smoke(workload, 3, tmp_path)
    check = result["check"]
    assert check.attempted > 0
    assert check.failed == 0, check.problems
    assert result["msgs"] > 0
    assert len(result["round_s"]) == SMOKE[workload][1]
    # Spill directories live under the run's scratch dir and are gone.
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_same_seed_gives_identical_counts(workload, tmp_path):
    first = smoke(workload, 5, tmp_path)["counts"]
    second = smoke(workload, 5, tmp_path)["counts"]
    assert first == second
    assert any(first.values())


def test_traced_run_reports_every_declared_layer_metric(tmp_path):
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    result = smoke("ward_stream", 3, tmp_path, trace=True)
    layers = result["layers"]
    assert result["check"].failed == 0
    assert result["absent"] == []
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        name: layer_unit(name) for name in layers
    }
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END
    assert 0.0 <= layers["unattributed_share"] < 0.1
    # The tracer restored every patched entry point.
    from repro.sim.events import Simulator

    assert not hasattr(Simulator.run_for, "__wrapped__")


def test_fails_without_the_program(tmp_path):
    # Only the benchmark's own files: no src/ to build or import.
    copy = tmp_path / "perfbench"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "ward_stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
