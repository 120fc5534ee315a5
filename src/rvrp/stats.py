"""Experiment harness and nonparametric solver comparison.

The harness runs an (instances x algorithms x runs) grid with a deterministic
seed schedule, aggregates per-cell means and standard deviations, records the
best solution found per instance, and feeds the per-cell means into a
Friedman rank test followed by a Holm step-down post-hoc against a control
algorithm (the best-ranked one). ``rvrp experiment`` and ``rvrp stats`` both
rank through ``rank_tests`` and print through ``render_stats_tables``.

Wall-clock times are kept apart from the deterministic payload: the report
dict is a pure function of (instances, config, base seed) while measured
times live in a separate timing dict and the per-run CSV columns.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .evaluation import check_feasible
from .instance import Instance, encode, validate_instance
from .solvers import SolverConfig, solve

# ------------------------------------------------------------ basic statistics


def mean_sd(values: Sequence[float]) -> tuple[float, float]:
    """Arithmetic mean and sample standard deviation (n-1 denominator; a
    single observation has deviation 0 by convention)."""
    if len(values) == 0:
        raise ValueError("cannot aggregate an empty cell")
    mean = sum(values) / len(values)
    if len(values) == 1:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return mean, math.sqrt(var)


def rank_row(values: Sequence[float]) -> list[float]:
    """Ranks with 1 = lowest value; ties receive midranks."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    pos = 0
    while pos < len(order):
        end = pos
        while end + 1 < len(order) and values[order[end + 1]] == values[order[pos]]:
            end += 1
        midrank = (pos + end) / 2 + 1
        for k in range(pos, end + 1):
            ranks[order[k]] = midrank
        pos = end + 1
    return ranks


def average_ranks(matrix: Sequence[Sequence[float]]) -> list[float]:
    """Column-wise average of per-row midranks (rows = instances)."""
    if not matrix:
        raise ValueError("empty matrix")
    k = len(matrix[0])
    sums = [0.0] * k
    for row in matrix:
        for j, r in enumerate(rank_row(row)):
            sums[j] += r
    return [s / len(matrix) for s in sums]


def chi2_sf(x: float, df: int) -> float:
    """Chi-squared survival function for integer df >= 1.

    Uses the closed forms Q(1, z) = e^-z and Q(1/2, z) = erfc(sqrt z) with the
    recurrence Q(a+1, z) = Q(a, z) + z^a e^-z / Gamma(a+1); all terms are
    positive so there is no cancellation.
    """
    if df < 1 or df != int(df):
        raise ValueError("df must be a positive integer")
    if x < 0:
        raise ValueError("x must be non-negative")
    z = x / 2.0
    if z == 0:
        return 1.0
    if df % 2 == 0:
        total = 1.0
        term = 1.0
        for i in range(1, df // 2):
            term *= z / i
            total += term
        return min(1.0, math.exp(-z) * total)
    total = math.erfc(math.sqrt(z))
    a = 0.5
    for _ in range((df - 1) // 2):
        total += math.pow(z, a) * math.exp(-z) / math.gamma(a + 1)
        a += 1.0
    return min(1.0, total)


def normal_two_sided_p(z: float) -> float:
    """Two-sided tail probability 2*Phi(-|z|) via the complementary error
    function."""
    return math.erfc(abs(z) / math.sqrt(2.0))


# ---------------------------------------------------------------- Friedman/Holm


@dataclass
class FriedmanResult:
    average_ranks: list[float]
    statistic: float
    dof: int
    p_value: float


def friedman_from_ranks(avg_ranks: Sequence[float], n_instances: int) -> FriedmanResult:
    k = len(avg_ranks)
    if k < 2 or n_instances < 1:
        raise ValueError("need at least two algorithms and one instance")
    center = (k + 1) / 2
    statistic = (12 * n_instances / (k * (k + 1))) * sum((r - center) ** 2 for r in avg_ranks)
    return FriedmanResult(
        average_ranks=list(avg_ranks),
        statistic=statistic,
        dof=k - 1,
        p_value=chi2_sf(statistic, k - 1),
    )


def friedman(matrix: Sequence[Sequence[float]]) -> FriedmanResult:
    """Friedman test over an instances x algorithms matrix of mean results."""
    if len(matrix) < 2:
        raise ValueError("need at least two instances")
    return friedman_from_ranks(average_ranks(matrix), len(matrix))


@dataclass
class HolmComparison:
    index: int
    label: str
    z: float
    p_unadjusted: float
    p_adjusted: float
    reject_at_05: bool


@dataclass
class HolmResult:
    control: int
    control_label: str
    comparisons: list[HolmComparison]  # ordered by ascending unadjusted p

    def to_dict(self) -> dict:
        return {
            "control": self.control_label,
            "comparisons": [
                {
                    "algorithm": c.label,
                    "z": c.z,
                    "p_unadjusted": c.p_unadjusted,
                    "p_adjusted": c.p_adjusted,
                    "reject_at_0.05": c.reject_at_05,
                }
                for c in self.comparisons
            ],
        }


def holm(
    avg_ranks: Sequence[float],
    n_instances: int,
    control: int,
    labels: Sequence[str] | None = None,
) -> HolmResult:
    """Holm step-down test of every algorithm against the control, using the
    standard error sqrt(k(k+1)/(6N)) of rank differences; ``reject_at_05``
    compares each adjusted p with 0.05."""
    k = len(avg_ranks)
    if not 0 <= control < k:
        raise ValueError("control index out of range")
    labels = list(labels) if labels is not None else [str(i) for i in range(k)]
    se = math.sqrt(k * (k + 1) / (6.0 * n_instances))
    raw = []
    for j in range(k):
        if j == control:
            continue
        z = (avg_ranks[j] - avg_ranks[control]) / se
        raw.append((normal_two_sided_p(z), z, j))
    raw.sort(key=lambda t: t[0])
    m = len(raw)
    comparisons: list[HolmComparison] = []
    running = 0.0
    for i, (p, z, j) in enumerate(raw):
        running = max(running, (m - i) * p)
        adjusted = min(1.0, running)
        comparisons.append(
            HolmComparison(
                index=j,
                label=labels[j],
                z=z,
                p_unadjusted=p,
                p_adjusted=adjusted,
                reject_at_05=adjusted < 0.05,
            )
        )
    return HolmResult(control=control, control_label=labels[control], comparisons=comparisons)


def rank_tests(
    costs: Mapping[tuple[str, str], Sequence[float]],
    instances: Sequence[str],
    algorithms: Sequence[str],
) -> tuple[list[str], FriedmanResult | None, HolmResult | None]:
    """Rank the algorithms on the mean of each (instance, algorithm) cell of
    run costs: the instances where every algorithm has a run, then Friedman
    over them and Holm against the control with the best (lowest) average
    rank. Both tests are None below two algorithms or two such instances."""
    ranked = [name for name in instances if all(costs.get((name, alg)) for alg in algorithms)]
    if len(algorithms) < 2 or len(ranked) < 2:
        return ranked, None, None
    matrix = [[mean_sd(costs[(name, alg)])[0] for alg in algorithms] for name in ranked]
    fried = friedman(matrix)
    control = min(range(len(algorithms)), key=fried.average_ranks.__getitem__)
    return ranked, fried, holm(fried.average_ranks, len(matrix), control, labels=list(algorithms))


# ------------------------------------------------------------------- harness


def run_seed(base_seed: int, instance_name: str, algorithm: str, run: int) -> int:
    """Deterministic, platform-stable 63-bit seed for one grid cell run."""
    key = f"{base_seed}|{instance_name}|{algorithm}|{run}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big") >> 1


@dataclass
class CellRuns:
    costs: list[float] = field(default_factory=list)
    times: list[float] = field(default_factory=list)
    convergence_times: list[float] = field(default_factory=list)
    vehicles: list[int] = field(default_factory=list)
    seeds: list[int] = field(default_factory=list)
    evaluations: list[int] = field(default_factory=list)
    best_encoding: list[int] | None = None
    best_cost: float = math.inf
    errors: list[str] = field(default_factory=list)


@dataclass
class ExperimentReport:
    instance_names: list[str]
    algorithms: list[str]
    runs_per_cell: int
    base_seed: int
    cells: dict[tuple[str, str], CellRuns]
    friedman: FriedmanResult | None
    holm: HolmResult | None
    ranked_instances: list[str]  # instances that entered the rank matrix

    def cell(self, instance: str, algorithm: str) -> CellRuns:
        return self.cells[(instance, algorithm)]

    def best_found(self, instance: str) -> tuple[float, int, str, list[int]] | None:
        """(cost, vehicles, algorithm, flat encoding) of the instance's best run."""
        best = None
        for alg in self.algorithms:
            cell = self.cells[(instance, alg)]
            if cell.best_encoding is None:
                continue
            vehicles = cell.best_encoding.count(0) + 1
            record = (cell.best_cost, vehicles, alg, cell.best_encoding)
            if best is None or record[0] < best[0]:
                best = record
        return best

    def to_dict(self) -> dict:
        """Deterministic payload: costs, ranks and tests, no wall-clock data."""
        cells = {}
        for (name, alg), cell in sorted(self.cells.items()):
            mean, sd = mean_sd(cell.costs) if cell.costs else (None, None)
            cells[f"{name}/{alg}"] = {
                "runs": len(cell.costs),
                "mean_cost": mean,
                "sd_cost": sd,
                "best_cost": None if cell.best_encoding is None else cell.best_cost,
                "vehicles": cell.vehicles,
                "seeds": cell.seeds,
                "evaluations": cell.evaluations,
                "errors": cell.errors,
            }
        best = {}
        for name in self.instance_names:
            record = self.best_found(name)
            if record:
                cost, vehicles, alg, flat = record
                best[name] = {
                    "cost": cost,
                    "vehicles": vehicles,
                    "algorithm": alg,
                    "encoding": flat,
                }
        data = {
            "base_seed": self.base_seed,
            "runs_per_cell": self.runs_per_cell,
            "instances": self.instance_names,
            "algorithms": self.algorithms,
            "cells": cells,
            "best_found": best,
        }
        if self.friedman:
            data["friedman"] = {
                "average_ranks": self.friedman.average_ranks,
                "statistic": self.friedman.statistic,
                "dof": self.friedman.dof,
                "p_value": self.friedman.p_value,
                "instances_ranked": self.ranked_instances,
            }
        if self.holm:
            data["holm"] = self.holm.to_dict()
        return data

    def timing_dict(self) -> dict:
        """Measured wall-clock aggregates; not byte-reproducible by nature."""
        out = {}
        for (name, alg), cell in sorted(self.cells.items()):
            if not cell.times:
                continue
            out[f"{name}/{alg}"] = {
                "mean_time_s": round(mean_sd(cell.times)[0], 3),
                "mean_convergence_s": round(mean_sd(cell.convergence_times)[0], 3),
            }
        return out

    def csv_text(self) -> str:
        """Raw per-run dump (time columns are wall-clock measurements)."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            ["instance", "algorithm", "run", "seed", "cost", "time_s", "convergence_s", "vehicles"]
        )
        for name in self.instance_names:
            for alg in self.algorithms:
                cell = self.cells[(name, alg)]
                for run in range(len(cell.costs)):
                    writer.writerow(
                        [
                            name,
                            alg,
                            run,
                            cell.seeds[run],
                            repr(cell.costs[run]),
                            f"{cell.times[run]:.3f}",
                            f"{cell.convergence_times[run]:.3f}",
                            cell.vehicles[run],
                        ]
                    )
        return buf.getvalue()


def _run_one(payload: tuple[dict, str, int, int, dict]) -> tuple[str, str, int, dict]:
    inst_data, algorithm, run, seed, overrides = payload
    inst = Instance.from_dict(inst_data)
    cfg = SolverConfig(algorithm=algorithm, seed=seed, **overrides)
    try:
        result = solve(inst, cfg)
        report = check_feasible(result.best_solution, inst)
        if not report.feasible:
            raise RuntimeError(f"solver emitted infeasible solution: {report.violation_tags}")
        out = {
            "cost": result.best_cost,
            "time_s": result.wall_time_s,
            "convergence_s": result.convergence_time_s,
            "vehicles": result.best_solution.vehicles,
            "evaluations": result.evaluations_total,
            "encoding": encode(result.best_solution),
        }
    except Exception as exc:  # cell failures are recorded, never fatal
        out = {"error": f"{type(exc).__name__}: {exc}"}
    return inst.name, algorithm, run, out


def run_experiment(
    instances: Sequence[Instance],
    algorithms: Sequence[str] = ("dfa", "ea", "esa"),
    runs_per_cell: int = 20,
    base_seed: int = 0,
    jobs: int = 1,
    config_overrides: dict | None = None,
) -> ExperimentReport:
    """Run the full grid and compute aggregates plus Friedman/Holm on means.

    The settings are checked before any solve: no algorithm, fewer than one
    run or job, an algorithm or override that ``SolverConfig`` rejects, or a
    name listed twice is a ValueError that names it. Each instance is
    validated once, also before any solve; an invalid one is never solved,
    and every run of its cells records the issues as its error."""
    if not instances:
        raise ValueError("suite must be nonempty")
    if not algorithms:
        raise ValueError("no algorithm given")
    if runs_per_cell < 1:
        raise ValueError(f"runs_per_cell must be positive, not {runs_per_cell}")
    if jobs < 1:
        raise ValueError(f"jobs must be positive, not {jobs}")
    overrides = dict(config_overrides or {})
    for alg in algorithms:
        SolverConfig(algorithm=alg, **overrides).validate()
    names = [inst.name for inst in instances]
    for kind, values in (("instance", names), ("algorithm", algorithms)):
        twice = next((v for i, v in enumerate(values) if v in values[:i]), None)
        if twice is not None:
            raise ValueError(f"{kind} {twice!r} is listed twice")
    payloads = []
    results: dict[tuple[str, str, int], dict] = {}
    for inst in instances:
        issues = validate_instance(inst).names
        inst_data = inst.to_dict()
        for alg in algorithms:
            for run in range(runs_per_cell):
                if issues:
                    results[(inst.name, alg, run)] = {"error": f"invalid instance: {issues}"}
                    continue
                seed = run_seed(base_seed, inst.name, alg, run)
                payloads.append((inst_data, alg, run, seed, overrides))

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for name, alg, run, out in pool.map(_run_one, payloads, chunksize=1):
                results[(name, alg, run)] = out
    else:
        for payload in payloads:
            name, alg, run, out = _run_one(payload)
            results[(name, alg, run)] = out

    cells: dict[tuple[str, str], CellRuns] = {}
    for name in names:
        for alg in algorithms:
            cell = CellRuns()
            for run in range(runs_per_cell):
                out = results[(name, alg, run)]
                seed = run_seed(base_seed, name, alg, run)
                if "error" in out:
                    cell.errors.append(f"run {run} (seed {seed}): {out['error']}")
                    continue
                cell.costs.append(out["cost"])
                cell.times.append(out["time_s"])
                cell.convergence_times.append(out["convergence_s"])
                cell.vehicles.append(out["vehicles"])
                cell.seeds.append(seed)
                cell.evaluations.append(out["evaluations"])
                if out["cost"] < cell.best_cost:
                    cell.best_cost = out["cost"]
                    cell.best_encoding = out["encoding"]
            cells[(name, alg)] = cell

    ranked, fried, holm_result = rank_tests(
        {key: cell.costs for key, cell in cells.items()}, names, algorithms
    )

    return ExperimentReport(
        instance_names=names,
        algorithms=list(algorithms),
        runs_per_cell=runs_per_cell,
        base_seed=base_seed,
        cells=cells,
        friedman=fried,
        holm=holm_result,
        ranked_instances=ranked,
    )


# ------------------------------------------------------------ population sweep


@dataclass
class SweepReport:
    instance_names: list[str]
    sizes: list[int]
    mean_costs: list[list[float]]  # instances x sizes
    mean_times: list[list[float]]
    average_ranks: list[float]

    def to_dict(self) -> dict:
        return {
            "instances": self.instance_names,
            "population_sizes": self.sizes,
            "mean_costs": self.mean_costs,
            "average_ranks": self.average_ranks,
        }


def population_sweep(
    instances: Sequence[Instance],
    sizes: Sequence[int] = (25, 50, 100, 150),
    runs: int = 20,
    base_seed: int = 0,
    jobs: int = 1,
) -> SweepReport:
    """Mean DFA cost/runtime per population size, plus average midranks."""
    if not sizes:
        raise ValueError("sizes must be nonempty")
    mean_costs: list[list[float]] = []
    mean_times: list[list[float]] = []
    for inst in instances:
        cost_row: list[float] = []
        time_row: list[float] = []
        for size in sizes:
            report = run_experiment(
                [inst],
                algorithms=("dfa",),
                runs_per_cell=runs,
                base_seed=run_seed(base_seed, inst.name, "sweep", size),
                jobs=jobs,
                config_overrides={"population_size": size},
            )
            cell = report.cell(inst.name, "dfa")
            cost_row.append(mean_sd(cell.costs)[0])
            time_row.append(mean_sd(cell.times)[0])
        mean_costs.append(cost_row)
        mean_times.append(time_row)
    return SweepReport(
        instance_names=[inst.name for inst in instances],
        sizes=list(sizes),
        mean_costs=mean_costs,
        mean_times=mean_times,
        average_ranks=average_ranks(mean_costs),
    )


# ----------------------------------------------------------------- rendering


def render_results_table(report: ExperimentReport) -> str:
    """Aligned per-instance results: mean, sd and (when available) mean times."""
    timing = report.timing_dict()
    header = ["Instance"]
    for alg in report.algorithms:
        header += [f"{alg}:avg", f"{alg}:sd", f"{alg}:time", f"{alg}:conv"]
    rows = [header]
    for name in report.instance_names:
        row = [name]
        for alg in report.algorithms:
            cell = report.cells[(name, alg)]
            if cell.costs:
                mean, sd = mean_sd(cell.costs)
                t = timing.get(f"{name}/{alg}", {})
                row += [
                    f"{mean:.1f}",
                    f"{sd:.1f}",
                    f"{t.get('mean_time_s', float('nan')):.1f}",
                    f"{t.get('mean_convergence_s', float('nan')):.1f}",
                ]
            else:
                row += ["-", "-", "-", "-"]
        rows.append(row)
    return align_table(rows)


def render_best_table(report: ExperimentReport) -> str:
    rows = [["Instance", "Best", "Vehicles", "Algorithm"]]
    for name in report.instance_names:
        record = report.best_found(name)
        if record:
            cost, vehicles, alg, _ = record
            rows.append([name, f"{cost:.2f}", str(vehicles), alg])
        else:
            rows.append([name, "-", "-", "-"])
    return align_table(rows)


def render_stats_tables(
    algorithms: Sequence[str], friedman: FriedmanResult | None, holm: HolmResult | None
) -> str:
    """Average ranks, the Friedman statistic and the Holm post-hoc table."""
    if friedman is None:
        return "No statistical tests (fewer than two algorithms or instances).\n"
    lines = [["Algorithm", "Average rank"]]
    for alg, rank in zip(algorithms, friedman.average_ranks):
        lines.append([alg, f"{rank:.4f}"])
    text = align_table(lines)
    text += (
        f"\nFriedman statistic: {friedman.statistic:.4f} "
        f"(df={friedman.dof}, p={friedman.p_value:.6g})\n"
    )
    rows = [["Algorithm", "z", "Unadjusted p", "Adjusted p", "Reject@0.05"]]
    for c in holm.comparisons:
        rows.append(
            [c.label, f"{c.z:.4f}", f"{c.p_unadjusted:.6f}", f"{c.p_adjusted:.6f}", str(c.reject_at_05)]
        )
    return text + f"\nHolm post-hoc (control: {holm.control_label})\n" + align_table(rows)


def render_sweep_table(report: SweepReport) -> str:
    header = ["Instance"]
    for size in report.sizes:
        header += [f"pop{size}:avg", f"pop{size}:time"]
    rows = [header]
    for i, name in enumerate(report.instance_names):
        row = [name]
        for j in range(len(report.sizes)):
            row += [f"{report.mean_costs[i][j]:.1f}", f"{report.mean_times[i][j]:.1f}"]
        rows.append(row)
    rows.append(["Ranking"] + [x for r in report.average_ranks for x in (f"{r:g}", "")])
    return align_table(rows)


def align_table(rows: list[list[str]]) -> str:
    widths = [max(len(row[i]) for row in rows if i < len(row)) for i in range(len(rows[0]))]
    out = []
    for row in rows:
        out.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(out) + "\n"
