"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 7 (comparative trend) and criterion 10 (cost magnitudes) are
directional, report-only checks by design: they print their outcome and never
fail the suite. The default trend run uses a reduced grid (6 instances x 3
algorithms x 3 runs at population 50); set RVRP_FULL_TREND=1 to run the full
15 x 3 x 10 protocol at population 100 instead.

Wall-clock columns (runs.csv time fields, timing.json, tables.txt) are
measurements and are excluded from the byte-determinism comparison; every
other artifact must reproduce exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import numpy as np
import pytest

from rvrp import check_feasible, hamming_distance, Solution
from rvrp import generator, stats
from rvrp.cli import main
from rvrp.operators import random_solution
from rvrp.solvers import SolverConfig, solve, termination_budget

from conftest import SUITE_SEED, enumerate_two_cluster_optimum

JOBS = min(4, os.cpu_count() or 1)

# cost scale of the original benchmark study: mean costs spanned ~49.3k-110.2k
REFERENCE_COST_RANGE = (49276.0, 110206.94)
MAGNITUDE_BAND = (0.3 * REFERENCE_COST_RANGE[0], 3.0 * REFERENCE_COST_RANGE[1])


def _line(criterion: int, ok: bool | None, detail: str) -> None:
    status = "REPORT" if ok is None else ("PASS" if ok else "FAIL")
    print(f"[criterion {criterion:02d}] {status}: {detail}")


# ------------------------------------------------------------------ criterion 1


def test_criterion_01_statistics_regression():
    started = time.monotonic()
    ranks = (1.2, 2.0667, 2.7333)
    fried = stats.friedman_from_ranks(ranks, n_instances=15)
    holm = stats.holm(ranks, n_instances=15, control=0, labels=["dfa", "esa", "ea"])
    esa, ea = ({c["algorithm"]: c for c in holm["comparisons"]}[label] for label in ("esa", "ea"))
    elapsed = time.monotonic() - started

    ok = (
        abs(fried["statistic"] - 17.73) <= 0.01
        and abs(fried["p_value"] - 0.000141) <= 2e-6
        and abs(esa["p_unadjusted"] - 0.017622) <= 1e-5
        and abs(ea["p_unadjusted"] - 0.000027) <= 1e-5
        and abs(esa["p_adjusted"] - 0.017622) <= 1e-5
        and abs(ea["p_adjusted"] - 0.000054) <= 1e-5
        and elapsed < 1.0
    )
    _line(
        1,
        ok,
        f"statistic={fried['statistic']:.4f} p={fried['p_value']:.6g} "
        f"holm=({esa['p_unadjusted']:.6f}, {ea['p_unadjusted']:.6f}; "
        f"adj {esa['p_adjusted']:.6f}, {ea['p_adjusted']:.6f}) "
        f"in {elapsed * 1000:.0f} ms",
    )
    assert ok


# ------------------------------------------------------------------ criterion 2


def test_criterion_02_hamming_worked_example():
    inst = generator.small_instance(70, cluster_sizes=(8,), capacity=1000)
    a = Solution.from_routes([[1, 2, 3, 4, 5, 6, 7, 8]])
    b = Solution.from_routes([[1, 2, 4, 3, 6, 5, 7, 8]])
    distance = hamming_distance(a, b, inst)
    _line(2, distance == 4, f"cluster distance={distance} (expected 4)")
    assert distance == 4


# ------------------------------------------------------------------ criterion 3


def test_criterion_03_termination_formula():
    ok = termination_budget(50) == 1325 and termination_budget(100) == 5150
    _line(3, ok, f"budget(50)={termination_budget(50)} budget(100)={termination_budget(100)}")
    assert ok


# ------------------------------------------------------------------ criterion 4


def test_criterion_04_cost_rule_properties(benchmark_suite):
    started = time.monotonic()
    for inst in benchmark_suite:
        ids = np.array([n.id for n in inst.nodes])
        off = np.array(inst.cost_offpeak)
        peak = np.array(inst.cost_peak)
        n = len(ids)
        upper = np.triu(np.ones((n, n), dtype=bool), k=1)  # a < b positions
        hi_id = np.maximum(ids[:, None], ids[None, :])
        forward_is_row = ids[:, None] < ids[None, :]

        fwd = np.where(forward_is_row & upper, off, off.T)[upper]
        rev = np.where(forward_is_row & upper, off.T, off)[upper]
        fwd_peak = np.where(forward_is_row & upper, peak, peak.T)[upper]
        rev_peak = np.where(forward_is_row & upper, peak.T, peak)[upper]
        odd = (hi_id[upper] % 2) == 1

        assert np.allclose(rev / fwd, np.where(odd, 1.2, 0.8), rtol=1e-9), inst.name
        assert np.allclose(fwd_peak / fwd, 1.3, rtol=1e-9), inst.name
        assert np.allclose(rev_peak / rev, np.where(odd, 1.2, 1.4), rtol=1e-9), inst.name
        mask = ~np.eye(n, dtype=bool)
        assert (off[mask] != off.T[mask]).all(), inst.name
        assert (peak[mask] != peak.T[mask]).all(), inst.name
    elapsed = time.monotonic() - started
    ok = elapsed < 5.0
    _line(4, ok, f"ratio/parity/asymmetry laws hold on all 15 instances in {elapsed:.2f} s")
    assert ok


# ------------------------------------------------------------------ criterion 5


def _verify_random_solutions(payload: dict) -> int:
    """Worker: build `count` seeded random solutions for one instance and hold
    every feasibility invariant against a plain prefix-sum oracle."""
    from rvrp import Instance

    inst = Instance.from_dict(payload["instance"])
    count = payload["count"]
    rng = np.random.default_rng(payload["seed"])
    capacity, forbidden = inst.capacity, inst.forbidden
    delivery, cluster_of = inst.delivery, inst.cluster_of
    pickup = {node.id: node.pickup for node in inst.nodes}
    customers = set(inst.customers)
    for k in range(count):
        sol = random_solution(inst, rng)
        if k % 20 == 0:
            report = check_feasible(sol, inst)
            assert report.feasible, (inst.name, report.violation_tags)
        visited: set[int] = set()
        visits = 0
        taken_clusters: set[int] = set()
        for route in sol.routes:
            total_delivery = 0
            for c in route:
                total_delivery += delivery[c]
            assert total_delivery <= capacity, inst.name
            load = total_delivery
            prev = 0
            run_labels: list[int] = []
            for c in route:
                load += pickup[c] - delivery[c]
                assert load <= capacity, inst.name
                assert (prev, c) not in forbidden, (inst.name, (prev, c))
                label = cluster_of[c]
                if not run_labels or run_labels[-1] != label:
                    run_labels.append(label)
                prev = c
                visited.add(c)
                visits += 1
            assert (prev, 0) not in forbidden, inst.name
            labels = set(run_labels)
            assert len(labels) == len(run_labels), inst.name  # contiguous blocks
            assert not labels & taken_clusters, inst.name  # one vehicle per cluster
            taken_clusters |= labels
        assert visited == customers and visits == len(customers), inst.name
    return count


def test_criterion_05_feasibility_invariants(benchmark_suite):
    from concurrent.futures import ProcessPoolExecutor

    started = time.monotonic()
    per_instance = 10_000
    payloads = [
        {
            "instance": inst.to_dict(),
            "count": per_instance,
            "seed": stats.run_seed(20_16, inst.name, "feasibility", 0),
        }
        for inst in benchmark_suite
    ]
    if JOBS > 1:
        with ProcessPoolExecutor(max_workers=JOBS) as pool:
            checked = sum(pool.map(_verify_random_solutions, payloads))
    else:
        checked = sum(map(_verify_random_solutions, payloads))
    elapsed = time.monotonic() - started
    ok = elapsed < 60.0
    _line(5, ok, f"{checked} random solutions across 15 instances verified in {elapsed:.1f} s")
    assert ok


# ------------------------------------------------------------------ criterion 6


def test_criterion_06_small_instance_optimality(oracle_instances):
    started = time.monotonic()
    bars = {"dfa": 18, "ea": 12, "esa": 12}
    all_ok = True
    details = []
    for inst in oracle_instances:
        _, optimum, feasible_count = enumerate_two_cluster_optimum(inst)
        hits = {}
        for algorithm in ("dfa", "ea", "esa"):
            count = 0
            for run in range(20):
                cfg = SolverConfig(algorithm=algorithm, seed=1000 + run, population_size=25)
                result = solve(inst, cfg)
                assert check_feasible(result.best_solution, inst).feasible
                if abs(result.best_cost - optimum) < 1e-6:
                    count += 1
            hits[algorithm] = count
            if count < bars[algorithm]:
                all_ok = False
        details.append(
            f"{inst.name}(|F|={feasible_count}): dfa {hits['dfa']}/20 ea {hits['ea']}/20 "
            f"esa {hits['esa']}/20"
        )
    elapsed = time.monotonic() - started
    ok = all_ok and elapsed < 120.0
    _line(6, ok, f"{'; '.join(details)} in {elapsed:.1f} s")
    assert ok


# ----------------------------------------------------------- criteria 7 and 10


TREND_INSTANCES = [
    "Osaba_50_1_1",
    "Osaba_50_1_3",
    "Osaba_50_2_2",
    "Osaba_80_1",
    "Osaba_80_3",
    "Osaba_100_2",
]


@pytest.fixture(scope="module")
def trend_report(benchmark_by_name):
    if os.environ.get("RVRP_FULL_TREND"):
        instances = list(benchmark_by_name.values())
        runs, population = 10, 100
    else:
        instances = [benchmark_by_name[name] for name in TREND_INSTANCES]
        runs, population = 3, 50
    configs = {alg: SolverConfig(alg, population_size=population) for alg in ("dfa", "ea", "esa")}
    return stats.run_experiment(
        instances, configs, runs_per_cell=runs, base_seed=SUITE_SEED, jobs=JOBS
    )


def test_criterion_07_comparative_trend(trend_report):
    report = trend_report
    assert report.friedman is not None
    ranks = dict(zip(report.labels, report.friedman["average_ranks"]))
    dfa_first = min(ranks, key=ranks.get) == "dfa"
    significant = report.friedman["p_value"] < 0.05
    scope = "full 15x3x10" if os.environ.get("RVRP_FULL_TREND") else "reduced 6x3x3"
    _line(
        7,
        None,
        f"{scope}: ranks {', '.join(f'{a}={r:.3f}' for a, r in ranks.items())}, "
        f"Friedman p={report.friedman['p_value']:.4g}; DFA lowest rank: {dfa_first}, "
        f"p<0.05: {significant} (directional check, reported not asserted)",
    )
    # report-only: the regenerated instances and the per-proposal stall budget
    # shift the comparison, so the expected ordering is printed, not enforced


def test_criterion_10_magnitude_soft_check(trend_report):
    report = trend_report
    lo, hi = MAGNITUDE_BAND
    flagged = []
    for name in report.instance_names:
        best = report.best_found.get(name)
        if best is None:
            flagged.append(f"{name}: no successful runs")
            continue
        if not lo <= best["cost"] <= hi:
            flagged.append(f"{name}: cost {best['cost']:.0f} outside [{lo:.0f}, {hi:.0f}]")
        if not 2 <= best["vehicles"] <= 5:
            flagged.append(f"{name}: vehicles {best['vehicles']}")
    _line(
        10,
        None,
        ("all best costs in band, vehicle counts plausible" if not flagged else "; ".join(flagged))
        + " (soft check, reported not asserted)",
    )


# ------------------------------------------------------------------ criterion 8


def test_criterion_08_runtime_sanity(benchmark_by_name):
    inst = benchmark_by_name["Osaba_50_1_1"]
    started = time.monotonic()
    result = solve(inst, SolverConfig(algorithm="dfa", seed=123, population_size=100))
    elapsed = time.monotonic() - started
    ok = elapsed < 60.0
    _line(
        8,
        ok,
        f"dfa on {inst.name}: {elapsed:.1f} s, cost {result.best_cost:.0f}, "
        f"{result.evaluations_total} evaluations",
    )
    assert ok


# ------------------------------------------------------------------ criterion 9


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _csv_without_time_columns(path) -> str:
    lines = path.read_text().splitlines()
    kept = []
    for line in lines:
        cols = line.split(",")
        kept.append(",".join(cols[:5] + cols[7:]))  # drop time_s, convergence_s
    return "\n".join(kept)


def test_criterion_09_byte_determinism(tmp_path):
    mismatches = []
    runs = {}
    for tag in ("r1", "r2"):
        root = tmp_path / tag
        bench = root / "bench"
        assert main(["generate", "--seed", "11", "--out", str(bench),
                     "--only", "Osaba_50_1_2", "--only", "Osaba_50_2_1"]) == 0
        sol = root / "sol.json"
        assert main(["solve", str(bench / "Osaba_50_1_2.json"), "--seed", "4",
                     "--algorithm", "dfa@p30", "--out", str(sol)]) == 0
        geo = root / "routes.geojson"
        assert main(["export-geojson", str(bench / "Osaba_50_1_2.json"), str(sol),
                     "--out", str(geo)]) == 0
        exp = root / "exp"
        assert main(["experiment", "--suite", str(bench), "--algorithms", "dfa@p20,ea@p20,esa@p20",
                     "--runs", "1", "--seed", "6", "--jobs", "1", "--out", str(exp)]) == 0
        runs[tag] = {
            "instance": _sha(bench / "Osaba_50_1_2.json"),
            "instance2": _sha(bench / "Osaba_50_2_1.json"),
            "manifest": _sha(bench / "suite-manifest.json"),
            "solution": _sha(sol),
            "geojson": _sha(geo),
            "report": _sha(exp / "report.json"),
            "csv_sans_time": hashlib.sha256(
                _csv_without_time_columns(exp / "runs.csv").encode()
            ).hexdigest(),
        }
    for key in runs["r1"]:
        if runs["r1"][key] != runs["r2"][key]:
            mismatches.append(key)
    ok = not mismatches
    _line(
        9,
        ok,
        "generate/solve/export-geojson/experiment artifacts byte-identical across reruns "
        "(csv compared without wall-clock columns)" if ok else f"mismatches: {mismatches}",
    )
    assert ok
