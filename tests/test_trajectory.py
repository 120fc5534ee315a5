"""Pinned search trajectory: a digest of random constructions and short
solves for fixed seeds. Any change to the RNG draw order of construction,
instance generation or the solvers changes the digest; a change that is meant
to alter the trajectory must update the expected value and say why."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from rvrp import generator, jsonio
from rvrp.instance import Instance
from rvrp.operators import random_solution
from rvrp.solvers import SolverConfig, solve
from rvrp.stats import run_experiment

from conftest import SUITE_SEED

# Osaba_50_1_4 and Osaba_50_2_4 need the exact-search fallback of
# random_solution within these draws
PINNED_INSTANCES = ["Osaba_50_1_4", "Osaba_50_2_4", "Osaba_80_3", "Osaba_100_1"]
EXPECTED_DIGEST = "328032e7f9c2937e7e6ba090369c9eddb057550681b0f3c2ef0f100335afc58f"
# the EA and the cluster-relocation extension, which trajectory_digest leaves out
EXPECTED_EXTENSIONS_DIGEST = "921d983228d339617990bae65cd222878278ef46c0b4aa1789b1d5c3d2631ede"
# relocation inside the EA and ESA, which neither digest above reaches
EXPECTED_DRAW_PATHS_DIGEST = "1f4b25a34e6660f86b6d5d1b616959666d8c2a9e48543c0a7053e9b727ea71ac"
# the report of a small experiment grid, one of whose instances is invalid
EXPECTED_REPORT_DIGEST = "4d54518bc2fd9944ffc6aa54a763310180835b82d004647deba03a9260815aea"
# every byte write_suite writes for the whole suite: 15 instance files and the
# manifest, each hashed with its file name
EXPECTED_SUITE_FILES_DIGEST = "12951cdac98fc9381b8a0210489b33fc4d376dbcf891b45a31f825db09d9fba5"


def trajectory_digest() -> str:
    digest = hashlib.sha256()
    suite = generator.generate_suite(SUITE_SEED, only=PINNED_INSTANCES)
    for inst in suite:
        digest.update(json.dumps(inst.to_dict(), sort_keys=True).encode())
        rng = np.random.default_rng(11)
        for _ in range(20):
            digest.update(repr(random_solution(inst, rng).routes).encode())
    small = generator.small_instance(77, cluster_sizes=(5, 5), forbidden_per_cluster=10)
    runs = [
        (small, SolverConfig(algorithm="dfa", seed=3, population_size=10)),
        (suite[1], SolverConfig(algorithm="dfa", seed=4, population_size=4)),
        (suite[0], SolverConfig(algorithm="esa", seed=5, population_size=10)),
    ]
    for inst, cfg in runs:
        result = solve(inst, cfg)
        digest.update(repr((result.evaluations_total, repr(result.best_cost))).encode())
    return digest.hexdigest()


def test_pinned_trajectory():
    assert trajectory_digest() == EXPECTED_DIGEST


def suite_files_digest(out_dir: Path) -> str:
    generator.write_suite(generator.generate_suite(SUITE_SEED), out_dir, SUITE_SEED)
    digest = hashlib.sha256()
    files = sorted(out_dir.iterdir())
    assert len(files) == 16
    for path in files:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def test_pinned_suite_files(tmp_path):
    assert suite_files_digest(tmp_path) == EXPECTED_SUITE_FILES_DIGEST


def extensions_digest() -> str:
    digest = hashlib.sha256()
    suite = generator.generate_suite(SUITE_SEED, only=["Osaba_50_1_1", "Osaba_80_3"])
    runs = [
        (suite[0], SolverConfig(algorithm="ea", seed=6, population_size=10)),
        (
            suite[1],
            SolverConfig(
                algorithm="dfa", seed=8, population_size=4, enable_cluster_relocation=True
            ),
        ),
    ]
    for inst, cfg in runs:
        result = solve(inst, cfg)
        digest.update(repr((result.evaluations_total, repr(result.best_cost))).encode())
        digest.update(repr(result.best_solution.routes).encode())
    return digest.hexdigest()


def test_pinned_extensions_trajectory():
    assert extensions_digest() == EXPECTED_EXTENSIONS_DIGEST


def draw_paths_digest() -> str:
    """The solver draws neither digest above reaches: the EA and ESA with
    cluster relocation, where the relocation test, both operators and ESA's
    Metropolis test draw from one stream; a plain EA run comes first."""
    digest = hashlib.sha256()
    suite = generator.generate_suite(SUITE_SEED, only=["Osaba_50_1_1", "Osaba_50_2_4"])
    runs = [
        (suite[0], SolverConfig(algorithm="ea", seed=9, population_size=10)),
        (
            suite[1],
            SolverConfig(
                algorithm="ea",
                seed=10,
                population_size=8,
                enable_cluster_relocation=True,
            ),
        ),
        (
            suite[0],
            SolverConfig(
                algorithm="esa", seed=11, population_size=10, enable_cluster_relocation=True
            ),
        ),
    ]
    for inst, cfg in runs:
        result = solve(inst, cfg)
        digest.update(repr((result.evaluations_total, repr(result.best_cost))).encode())
        digest.update(repr(result.best_solution.routes).encode())
    return digest.hexdigest()


def test_pinned_draw_paths_trajectory():
    assert draw_paths_digest() == EXPECTED_DRAW_PATHS_DIGEST


def report_digest(jobs: int) -> str:
    """The experiment report of two small instances and one with a negated
    off-peak matrix, which is never solved: its runs carry its issues."""
    a = generator.small_instance(21, cluster_sizes=(3, 3), forbidden_per_cluster=1)
    b = generator.small_instance(30, cluster_sizes=(3, 3), forbidden_per_cluster=1)
    data = {**b.to_dict(), "name": "negative"}
    data["cost_offpeak"] = [[-c for c in row] for row in data["cost_offpeak"]]
    configs = {alg: SolverConfig(alg, population_size=10) for alg in ("dfa", "ea", "esa")}
    report = run_experiment(
        [a, b, Instance.from_dict(data)], configs, runs_per_cell=2, base_seed=5, jobs=jobs
    )
    return hashlib.sha256(jsonio.dumps(report.to_dict()).encode()).hexdigest()


@pytest.mark.parametrize("jobs", [1, 2])
def test_pinned_experiment_report(jobs):
    assert report_digest(jobs) == EXPECTED_REPORT_DIGEST
