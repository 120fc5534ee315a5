"""Smoke tests of the study script under ``scripts/``."""

import json
import runpy
import sys
from pathlib import Path

import pytest

from rvrp import generator

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run_benchmark_experiment(monkeypatch, *argv) -> int:
    script = runpy.run_path(str(SCRIPTS / "run_benchmark_experiment.py"))
    monkeypatch.setattr(sys, "argv", ["run_benchmark_experiment.py", *map(str, argv)])
    return script["main"]()


def test_benchmark_experiment_script_generates_the_suite_and_runs_the_grid(tmp_path, monkeypatch):
    suite, out = tmp_path / "suite", tmp_path / "results"
    flags = ["--runs", 1, "--population", 2, "--jobs", 1, "--suite", suite, "--out", out]
    assert _run_benchmark_experiment(monkeypatch, "--seed", 3, *flags) == 0
    manifest = json.loads((suite / "suite-manifest.json").read_text())
    assert manifest["seed"] == 3 and len(manifest["instances"]) == 15
    report = json.loads((out / "report.json").read_text())
    assert report["algorithms"] == ["dfa", "ea", "esa"]
    assert len(report["cells"]) == 45


def test_benchmark_experiment_script_refuses_a_suite_of_another_seed(
    tmp_path, monkeypatch, capsys
):
    suite, out = tmp_path / "suite", tmp_path / "results"
    generator.write_suite([generator.small_instance(21, cluster_sizes=(3, 3))], suite, seed=2016)
    flags = ["--runs", 1, "--population", 2, "--jobs", 1, "--suite", suite, "--out", out]
    code = _run_benchmark_experiment(monkeypatch, "--seed", 7, *flags)
    assert code == 2
    err = capsys.readouterr().err
    assert "seed 2016" in err and "--seed 7" in err
    assert not out.exists()


@pytest.mark.parametrize("text", ["{not json", "[7]"], ids=["not-json", "array"])
def test_benchmark_experiment_script_rejects_a_bad_manifest(text, tmp_path, monkeypatch, capsys):
    suite, out = tmp_path / "suite", tmp_path / "results"
    suite.mkdir()
    (suite / "suite-manifest.json").write_text(text)
    flags = ["--runs", 1, "--population", 2, "--jobs", 1, "--suite", suite, "--out", out]
    assert _run_benchmark_experiment(monkeypatch, "--seed", 7, *flags) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(suite / "suite-manifest.json") in err
    assert not out.exists()
