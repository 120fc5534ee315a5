"""The benchmark's layer microbenchmarks (``perfbench/micro.py``) run only in
traced benchmark runs. They call public rvrp functions with fixed
signatures, so a changed signature must fail here rather than there."""

import importlib.util
import math
from pathlib import Path

from rvrp import generator

MICRO = Path(__file__).resolve().parents[1] / "perfbench" / "micro.py"


def test_microbench_times_every_layer(tmp_path):
    spec = importlib.util.spec_from_file_location("perfbench_micro", MICRO)
    micro = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(micro)
    inst = generator.generate_suite(1, only=["Osaba_50_1_1"])[0]
    inst.save(tmp_path / f"{inst.name}.json")
    timings = micro.microbench(inst, 1, tmp_path)
    assert len(timings) == 8
    assert all(math.isfinite(us) and us > 0 for us in timings.values()), timings
