"""Layer microbenchmarks: one call of each hot public function on fixed
inputs made from the seed, timed with ``timeit`` at a fixed repeat count.

Each entry reports the median over ``REPEAT`` repeats of ``number`` calls, in
microseconds per call. The call counts are fixed so that every run does the
same work; they are sized for roughly 50 ms per repeat at the defining
commit.
"""

from __future__ import annotations

import statistics
import timeit
from pathlib import Path

import numpy as np

from rvrp import evaluation, generator, operators
from rvrp.instance import Instance

REPEAT = 5


def microbench(inst: Instance, seed: int, suite_dir: Path) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    a = operators.random_solution(inst, rng)
    b = operators.random_solution(inst, rng)
    longest = max(a.routes, key=len)
    path = suite_dir / f"{inst.name}.json"
    cases = (
        ("evaluation.route_cost", 5000, lambda: evaluation.route_cost(longest, inst)),
        ("operators.insertion_move", 2000, lambda: operators.insertion_move(a, inst, rng)),
        ("operators.move_firefly", 500, lambda: operators.move_firefly(a, 5, inst, rng)),
        ("operators.hamming_distance", 1000, lambda: operators.hamming_distance(a, b, inst)),
        ("operators.random_solution", 25, lambda: operators.random_solution(inst, rng)),
        ("evaluation.check_feasible", 200, lambda: evaluation.check_feasible(a, inst)),
        ("generator.generate_suite", 3, lambda: generator.generate_suite(seed, only=[inst.name])),
        ("instance.Instance.load", 5, lambda: Instance.load(path)),
    )
    out = {}
    for name, number, call in cases:
        times = timeit.Timer(call).repeat(repeat=REPEAT, number=number)
        out[f"{name}.us_per_call"] = statistics.median(times) / number * 1e6
    return out
