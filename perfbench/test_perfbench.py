"""Tests of the benchmark itself, run from the root of the repository:

    python3 -m pytest perfbench/test_perfbench.py

Every case calls ``perfbench/run.py`` in a subprocess with ``--seconds 1``,
the smallest run: one solve per solve workload, two runs per grid cell.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


_cache: dict[tuple[str, int, int], tuple[dict, dict]] = {}


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(result line, fingerprint) of one benchmark call, cached per argument set."""
    key = (workload, seed, trace)
    if key not in _cache:
        proc = bench(workload, seed, trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        prefix = "fingerprint "
        fingerprint = json.loads(next(l for l in lines if l.startswith(prefix))[len(prefix):])
        _cache[key] = json.loads(lines[-1]), fingerprint
    return _cache[key]


def declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_match_the_spec(workload):
    result, _ = run(workload, 1, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["dfa-short-routes", "grid-50"])
def test_traced_run_matches_the_spec_and_the_untraced_run(workload):
    traced, traced_fp = run(workload, 1, 1)
    _, untraced_fp = run(workload, 1, 0)
    # correct also covers the integrity checks: restored names, equal
    # fingerprints inside the run, self times summing to the traced wall
    assert traced["correct"] and traced["failed"] == 0
    printed = {name: m["unit"] for name, m in traced["metrics"].items()}
    assert printed == declared("per_layer")
    assert traced_fp == untraced_fp


def test_layer_split_follows_the_workload():
    dfa = run("dfa-short-routes", 1, 1)[0]["metrics"]
    grid = run("grid-50", 1, 1)[0]["metrics"]
    assert dfa["operators.hamming_distance.calls"]["value"] == dfa["operators.move_firefly.calls"]["value"] > 0
    assert dfa["operators.insertion_move.calls"]["value"] == 0
    assert grid["operators.hamming_distance.calls"]["value"] == 0
    assert grid["operators.insertion_move.calls"]["value"] > 0
    assert grid["solvers.metropolis_accept.accept_ratio"]["value"] > 0
    assert grid["evaluation.check_feasible.calls"]["value"] > 0


def test_same_seed_gives_identical_counts_and_fingerprints():
    first, first_fp = run("dfa-short-routes", 5, 0)
    proc = bench("dfa-short-routes", 5, 0)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    second = json.loads(lines[-1])
    assert (second["attempted"], second["failed"]) == (first["attempted"], first["failed"])
    assert f"fingerprint {json.dumps(first_fp, sort_keys=True)}" in lines
    assert second["metrics"]["best_cost.ratio"] == first["metrics"]["best_cost.ratio"]


def test_another_seed_changes_the_inputs():
    _, one = run("dfa-short-routes", 5, 0)
    _, other = run("dfa-short-routes", 6, 0)
    assert one["inputs"] != other["inputs"]
    assert one["solves"] != other["solves"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = bench("dfa-short-routes", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
