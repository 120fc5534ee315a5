"""The benchmark's workloads: inputs made from ``--seed``, the timed work, and
the correctness gate.

Every workload regenerates its instances from the seed, writes them with
``generator.write_suite`` and loads them back, so the solvers see exactly what
a user of ``rvrp generate`` would. The work done in a run is fixed by the
seed and ``--seconds`` (never by the clock), so the same seed gives the same
solves, evaluation counts and fingerprint on every run and every machine.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from rvrp import cli, evaluation, generator, operators, solvers
from rvrp.instance import Instance, Solution, decode

# random constructions per instance behind the best-cost reference
REFERENCE_DRAWS = 50

GRID_INSTANCES = tuple(row.name for row in generator.SUITE if row.name.startswith("Osaba_50_"))


@dataclass
class Solve:
    instance: str
    algorithm: str
    seed: int
    evaluations: int
    best_cost: float
    wall_s: float


@dataclass
class Phase:
    """What one pass over a workload's work produced."""

    attempted: int
    solves: list[Solve]
    wall_s: float
    workers: int
    failures: list[str] = field(default_factory=list)
    misses: int = 0  # returned bests the gate rejected
    time_resolution_s: float = 0.0  # rounding of the per-solve times, if any
    # (label, instance, best solution, reported cost) for the correctness gate
    bests: list[tuple[str, str, Solution, float]] = field(default_factory=list)
    report_sha256: str | None = None

    @property
    def failed(self) -> int:
        """Solves that raised, are missing from the output, or were rejected."""
        return self.attempted - len(self.solves) + self.misses

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for s in self.solves:
            h.update(f"{s.instance}|{s.algorithm}|{s.seed}|{s.evaluations}|{s.best_cost!r}\n".encode())
        return h.hexdigest()


def solver_seed(seed: int, workload: str, k: int) -> int:
    key = f"{seed}|{workload}|{k}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big") >> 1


def setup(names: tuple[str, ...], seed: int, suite_dir: Path) -> list[Instance]:
    """Generate, write and load back the workload's instances."""
    insts = generator.generate_suite(seed, only=names)
    generator.write_suite(insts, suite_dir, seed)
    return generator.load_suite(suite_dir)


def inputs_sha256(suite_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(suite_dir.glob("*.json")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_best(sol: Solution, cost: float, inst: Instance) -> str | None:
    """Why a returned best solution is wrong, or None when it is right."""
    report = evaluation.check_feasible(sol, inst)
    if not report.feasible:
        return f"infeasible best: {report.violation_tags}"
    recomputed = evaluation.solution_cost(sol, inst)
    if abs(recomputed - cost) > evaluation.COST_EQ_TOL:
        return f"cost mismatch: reported {cost!r}, recomputed {recomputed!r}"
    return None


def gate(phase: Phase, insts: list[Instance]) -> None:
    """Re-check every returned best solution; misses count as failures."""
    by_name = {inst.name: inst for inst in insts}
    for label, name, sol, cost in phase.bests:
        why = check_best(sol, cost, by_name[name])
        if why:
            phase.misses += 1
            phase.failures.append(f"{label}: {why}")


def reference_costs(insts: list[Instance], seed: int) -> dict[str, float]:
    """Mean cost of fixed random constructions per instance; dividing a best
    cost by it removes the instance's scale, which changes with the seed."""
    out = {}
    for inst in insts:
        rng = np.random.default_rng(seed)
        draws = [
            evaluation.solution_cost(operators.random_solution(inst, rng), inst)
            for _ in range(REFERENCE_DRAWS)
        ]
        out[inst.name] = sum(draws) / len(draws)
    return out


@dataclass(frozen=True)
class SolveWorkload:
    """Back-to-back in-process solves of one instance; always serial."""

    name: str
    instance: str
    algorithm: str
    population: int
    # one solve's wall time at the defining commit on a 2-core VM; sizes a run
    nominal_solve_s: float

    @property
    def instances(self) -> tuple[str, ...]:
        return (self.instance,)

    def units(self, seconds: int) -> int:
        return max(1, round(seconds / self.nominal_solve_s))

    def run(
        self, insts: list[Instance], seed: int, seconds: int, work_dir: Path, serial: bool,
        between: Callable[[], object] | None = None,
    ) -> Phase:
        """The solves back to back; ``between`` runs after each one, outside
        the timed work."""
        inst = insts[0]
        phase = Phase(attempted=self.units(seconds), solves=[], wall_s=0.0, workers=1)
        paused = 0.0
        started = time.perf_counter()
        for k in range(self.units(seconds)):
            cfg = solvers.SolverConfig(
                algorithm=self.algorithm,
                population_size=self.population,
                seed=solver_seed(seed, self.name, k),
            )
            t0 = time.perf_counter()
            try:
                result = solvers.solve(inst, cfg)
            except Exception as exc:  # a failed solve is counted, not fatal
                phase.failures.append(f"seed {cfg.seed}: {type(exc).__name__}: {exc}")
                continue
            wall = time.perf_counter() - t0
            phase.solves.append(
                Solve(inst.name, self.algorithm, cfg.seed, result.evaluations_total, result.best_cost, wall)
            )
            phase.bests.append((f"seed {cfg.seed}", inst.name, result.best_solution, result.best_cost))
            if between:
                t0 = time.perf_counter()
                between()
                paused += time.perf_counter() - t0
        phase.wall_s = time.perf_counter() - started - paused
        return phase


@dataclass(frozen=True)
class GridWorkload:
    """The ``rvrp experiment`` entry point over a small grid."""

    name: str
    instances: tuple[str, ...]
    algorithms: tuple[str, ...]
    # runs per cell per second of --seconds; 30 s gives 52 runs per cell, 416
    # runs in all, so p90 has 41 samples beyond it
    runs_per_cell_per_s: float

    def units(self, seconds: int) -> int:
        return max(1, round(seconds * self.runs_per_cell_per_s))

    def attempted(self, seconds: int) -> int:
        return self.units(seconds) * len(self.instances) * len(self.algorithms)

    def run(
        self, insts: list[Instance], seed: int, seconds: int, work_dir: Path, serial: bool
    ) -> Phase:
        suite_dir = work_dir / "suite"
        jobs = 1 if serial else grid_jobs()
        out_dir = work_dir / f"grid-{time.perf_counter_ns()}"
        argv = [
            "experiment",
            "--suite", str(suite_dir),
            "--algorithms", ",".join(self.algorithms),
            "--runs", str(self.units(seconds)),
            "--jobs", str(jobs),
            "--seed", str(seed),
            "--out", str(out_dir),
        ]
        started = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        wall = time.perf_counter() - started

        # runs.csv holds each run's time_s in whole milliseconds
        phase = Phase(
            attempted=self.attempted(seconds), solves=[], wall_s=wall, workers=jobs,
            time_resolution_s=0.001,
        )
        if code != 0:
            phase.failures.append(f"rvrp experiment exited with {code}")
            return phase
        report_bytes = (out_dir / "report.json").read_bytes()
        phase.report_sha256 = hashlib.sha256(report_bytes).hexdigest()
        report = json.loads(report_bytes)
        with open(out_dir / "runs.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        position: dict[str, int] = {}
        for row in rows:
            key = f"{row['instance']}/{row['algorithm']}"
            k = position.get(key, 0)
            position[key] = k + 1
            phase.solves.append(
                Solve(
                    row["instance"],
                    row["algorithm"],
                    int(row["seed"]),
                    report["cells"][key]["evaluations"][k],
                    float(row["cost"]),
                    float(row["time_s"]),
                )
            )
        for key, cell in report["cells"].items():
            phase.failures.extend(f"{key}: {err}" for err in cell["errors"])
        by_name = {inst.name: inst for inst in insts}
        for name, best in report["best_found"].items():
            sol = decode(best["encoding"], by_name[name])
            phase.bests.append((f"{name} best", name, sol, best["cost"]))
        return phase


def grid_jobs() -> int:
    """Worker processes for the grid: one per available core, at most four."""
    return max(1, min(4, len(os.sched_getaffinity(0))))


WORKLOADS = {
    w.name: w
    for w in (
        SolveWorkload("dfa-short-routes", "Osaba_100_1", "dfa", population=10, nominal_solve_s=1.9),
        # ESA only: its runs are short, so per-run costs dominate; with EA's
        # longer runs in the mix the run times split in two groups and the
        # median falls in the gap between them, which made it unsteady
        GridWorkload("grid-50", GRID_INSTANCES, ("esa",), runs_per_cell_per_s=1.75),
    )
}
