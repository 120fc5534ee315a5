"""Pinned search trajectory: a digest of random constructions and short
solves for fixed seeds. Any change to the RNG draw order of construction,
instance generation or the solvers changes the digest; a change that is meant
to alter the trajectory must update the expected value and say why."""

import hashlib
import json
from pathlib import Path

import numpy as np

from rvrp import generator
from rvrp.operators import random_solution
from rvrp.solvers import SolverConfig, solve

from conftest import SUITE_SEED

# Osaba_50_1_4 and Osaba_50_2_4 need the exact-search fallback of
# random_solution within these draws
PINNED_INSTANCES = ["Osaba_50_1_4", "Osaba_50_2_4", "Osaba_80_3", "Osaba_100_1"]
EXPECTED_DIGEST = "3ab064559487f841684feca9b320da750348f934f7bd1b6b1661e376f1ba9013"
# the EA and the cluster-relocation extension, which trajectory_digest leaves out
EXPECTED_EXTENSIONS_DIGEST = "921d983228d339617990bae65cd222878278ef46c0b4aa1789b1d5c3d2631ede"
# relocation inside the EA and ESA, which neither digest above reaches
EXPECTED_DRAW_PATHS_DIGEST = "1f4b25a34e6660f86b6d5d1b616959666d8c2a9e48543c0a7053e9b727ea71ac"
# every byte write_suite writes for the whole suite: 15 instance files and the
# manifest, each hashed with its file name
EXPECTED_SUITE_FILES_DIGEST = "0fa02176b7bf7f28f5f7b69364d5fd9c2c33dcfcf3b194fbcc26e98846dcd322"


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
