"""Smoke tests of the study scripts under ``scripts/``."""

import json
import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_population_sweep_script_writes_one_cell_per_instance_and_size(
    tmp_path, monkeypatch, capsys
):
    sweep = runpy.run_path(str(SCRIPTS / "run_population_sweep.py"))
    out = tmp_path / "sweep.json"
    argv = ["--runs", "1", "--sizes", "2,3", "--jobs", "1", "--out", str(out)]
    monkeypatch.setattr(sys, "argv", ["run_population_sweep.py", *argv])
    assert sweep["main"]() == 0
    report = json.loads(out.read_text())
    names = sweep["SWEEP_INSTANCES"]
    assert report["instances"] == names
    assert report["algorithms"] == ["pop2", "pop3"]
    assert sorted(report["cells"]) == sorted(f"{n}/pop{size}" for n in names for size in (2, 3))
    assert all(cell["runs"] == 1 and not cell["errors"] for cell in report["cells"].values())
    printed = capsys.readouterr().out
    assert "Friedman statistic" in printed and f"wrote {out}" in printed
