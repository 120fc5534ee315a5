"""Experiment harness and nonparametric solver comparison.

The harness runs an (instances x labelled solver configs x runs) grid with a
deterministic seed schedule and keeps one ``Run`` record per run. The per-cell
means and standard deviations, the best solution found per instance and every
output derive from those records; the per-cell means feed a Friedman rank
test followed by a Holm step-down post-hoc against a control label (the
best-ranked one). The CLI's labels are its ``--algorithms`` entries, such as
``dfa`` or ``dfa@p25`` (``solvers.grid_configs``).

``ExperimentReport.csv_text`` writes the records as ``runs.csv`` and
``ExperimentReport.from_csv`` reads them back, so ``rvrp experiment`` and
``rvrp stats`` print the same ``render_tables`` from the same records.

Wall-clock times are kept apart from the deterministic payload: the report
dict is a pure function of (instances, configs, base seed) while measured
times live in a separate timing dict and the per-run CSV columns.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
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
    return HolmResult(control_label=labels[control], comparisons=comparisons)


# ------------------------------------------------------------------- harness


def run_seed(base_seed: int, instance_name: str, label: str, run: int) -> int:
    """Deterministic, platform-stable 63-bit seed for one grid cell run."""
    key = f"{base_seed}|{instance_name}|{label}|{run}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big") >> 1


@dataclass(frozen=True)
class Run:
    """One run of the grid: where it sits, its seed, and either its result or
    the error that stopped it (``error`` is None exactly when it succeeded)."""

    instance: str
    label: str
    run: int
    seed: int
    cost: float | None = None
    time_s: float | None = None
    convergence_s: float | None = None
    vehicles: int | None = None
    evaluations: int | None = None
    encoding: list[int] | None = None
    error: str | None = None


CSV_COLUMNS = ("instance", "algorithm", "run", "seed", "cost", "time_s", "convergence_s", "vehicles")


@dataclass
class ExperimentReport:
    """Every run of an (instances x labels x runs) grid, in grid order; the
    cells, the best runs, the rank tests and every output derive from them.

    The instances and labels are those of the runs, in order of first
    appearance, and ``runs_per_cell`` is the largest run index + 1. The
    labels are ranked on each cell's mean cost over the instances where every
    label has a successful run: Friedman, then Holm against the label with
    the best (lowest) average rank. Both tests are None below two labels or
    two such instances. ``base_seed`` is None when the grid's seed is
    unknown, as for a report read from ``runs.csv``."""

    runs: list[Run]
    base_seed: int | None = None
    instance_names: list[str] = field(init=False)
    labels: list[str] = field(init=False)
    runs_per_cell: int = field(init=False)
    ranked_instances: list[str] = field(init=False)  # instances in the rank matrix
    friedman: FriedmanResult | None = field(init=False)
    holm: HolmResult | None = field(init=False)

    def __post_init__(self) -> None:
        self.instance_names = list(dict.fromkeys(r.instance for r in self.runs))
        self.labels = list(dict.fromkeys(r.label for r in self.runs))
        self.runs_per_cell = max((r.run for r in self.runs), default=-1) + 1
        cells = self.cells()
        self.ranked_instances = [
            name for name in self.instance_names if all(cells[(name, label)] for label in self.labels)
        ]
        self.friedman = self.holm = None
        if len(self.labels) >= 2 and len(self.ranked_instances) >= 2:
            matrix = [
                [mean_sd([r.cost for r in cells[(name, label)]])[0] for label in self.labels]
                for name in self.ranked_instances
            ]
            self.friedman = friedman(matrix)
            control = min(range(len(self.labels)), key=self.friedman.average_ranks.__getitem__)
            self.holm = holm(self.friedman.average_ranks, len(matrix), control, labels=self.labels)

    @classmethod
    def from_csv(cls, text: str) -> ExperimentReport:
        """The report of the successful runs that ``csv_text`` wrote: times
        at its 3 decimals, no evaluations or encodings, no base seed. A
        missing column, a row of the wrong length, a number that does not
        parse, a non-finite cost or time, or a run that an earlier row
        already holds is a ValueError naming it."""
        reader = csv.reader(io.StringIO(text))
        try:
            rows = [(reader.line_num, row) for row in reader]
        except csv.Error as exc:
            raise ValueError(f"line {reader.line_num}: {exc}") from None
        header = rows[0][1] if rows else []
        for column in CSV_COLUMNS:
            if column not in header:
                raise ValueError(f"no {column!r} column")
        runs = []
        first_line: dict[tuple[str, str, int], int] = {}  # (instance, algorithm, run) -> line
        for line, row in rows[1:]:
            if len(row) != len(header):
                raise ValueError(f"line {line} has {len(row)} fields, not {len(header)}")
            fields = dict(zip(header, row))
            where = f"line {line} ({fields['instance']}/{fields['algorithm']})"
            values = {}
            for column, kind in zip(CSV_COLUMNS[2:], (int, int, float, float, float, int)):
                value = fields[column]
                try:
                    values[column] = kind(value)
                except ValueError:
                    wanted = "an integer" if kind is int else "a number"
                    raise ValueError(f"{where} has {column} {value!r}, not {wanted}") from None
                if kind is float and not math.isfinite(values[column]):
                    raise ValueError(f"{where} has {column} {value}, not a finite number")
            key = (fields["instance"], fields["algorithm"], values["run"])
            if first_line.setdefault(key, line) != line:
                raise ValueError(f"{where} repeats run {values['run']} of line {first_line[key]}")
            runs.append(Run(fields["instance"], fields["algorithm"], **values))
        if not runs:
            raise ValueError("no runs")
        return cls(runs)

    def cells(self) -> dict[tuple[str, str], list[Run]]:
        """(instance, label) -> the cell's successful runs, in run order."""
        cells = {(name, label): [] for name in self.instance_names for label in self.labels}
        for r in self.runs:
            if r.error is None:
                cells[(r.instance, r.label)].append(r)
        return cells

    def best_run(self, instance: str) -> Run | None:
        """The instance's lowest-cost run; the first in grid order on a tie."""
        done = (r for r in self.runs if r.instance == instance and r.error is None)
        return min(done, key=lambda r: r.cost, default=None)

    def to_dict(self) -> dict:
        """Deterministic payload: costs, ranks and tests, no wall-clock data."""
        cells = {}
        for (name, label), runs in sorted(self.cells().items()):
            costs = [r.cost for r in runs]
            mean, sd = mean_sd(costs) if runs else (None, None)
            cells[f"{name}/{label}"] = {
                "runs": len(runs),
                "mean_cost": mean,
                "sd_cost": sd,
                "best_cost": min(costs, default=None),
                "vehicles": [r.vehicles for r in runs],
                "seeds": [r.seed for r in runs],
                "evaluations": [r.evaluations for r in runs],
                "errors": [
                    f"run {r.run} (seed {r.seed}): {r.error}"
                    for r in self.runs
                    if r.error is not None and (r.instance, r.label) == (name, label)
                ],
            }
        best = {}
        for name in self.instance_names:
            run = self.best_run(name)
            if run is not None:
                best[name] = {
                    "cost": run.cost,
                    "vehicles": run.vehicles,
                    "algorithm": run.label,
                    "encoding": run.encoding,
                }
        data = {
            "base_seed": self.base_seed,
            "runs_per_cell": self.runs_per_cell,
            "instances": self.instance_names,
            "algorithms": self.labels,
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
        return {
            f"{name}/{label}": {
                "mean_time_s": round(mean_sd([r.time_s for r in runs])[0], 3),
                "mean_convergence_s": round(mean_sd([r.convergence_s for r in runs])[0], 3),
            }
            for (name, label), runs in sorted(self.cells().items())
            if runs
        }

    def csv_text(self) -> str:
        """Raw per-run dump (time columns are wall-clock measurements); ``run``
        is the run's index in its cell, failed runs included."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(CSV_COLUMNS)
        for r in self.runs:
            if r.error is None:
                times = [f"{r.time_s:.3f}", f"{r.convergence_s:.3f}"]
                writer.writerow([r.instance, r.label, r.run, r.seed, repr(r.cost), *times, r.vehicles])
        return buf.getvalue()


def _run_one(payload: tuple[Instance, list[str], str, int, SolverConfig]) -> Run:
    inst, issues, label, run, cfg = payload
    place = (inst.name, label, run, cfg.seed)
    if issues:
        return Run(*place, error=f"invalid instance: {issues}")
    try:
        result = solve(inst, cfg)
        report = check_feasible(result.best_solution, inst)
        if not report.feasible:
            raise RuntimeError(f"solver emitted infeasible solution: {report.violation_tags}")
        best = result.best_solution
        return Run(
            *place, cost=result.best_cost, time_s=result.wall_time_s,
            convergence_s=result.convergence_time_s, vehicles=best.vehicles,
            evaluations=result.evaluations_total, encoding=encode(best),
        )
    except Exception as exc:  # run failures are recorded, never fatal
        return Run(*place, error=f"{type(exc).__name__}: {exc}")


def run_experiment(
    instances: Sequence[Instance],
    configs: Mapping[str, SolverConfig],
    runs_per_cell: int = 20,
    base_seed: int = 0,
    jobs: int = 1,
) -> ExperimentReport:
    """Run every (instance, label, run) of the grid and rank the labels.

    Run ``k`` of a label on an instance solves the label's config with the
    seed ``run_seed(base_seed, instance, label, k)``, whatever seed the config
    carries. The settings are checked before any solve: no config, fewer than
    one run or job, a config that ``SolverConfig.validate`` rejects, or an
    instance listed twice is a ValueError that names it. Each instance is
    read back from its file form once, before any solve; every run solves
    that one object, which is validated once: an invalid one is never
    solved, and each of its runs records the issues as its error."""
    if not instances:
        raise ValueError("suite must be nonempty")
    if not configs:
        raise ValueError("no algorithm given")
    if runs_per_cell < 1:
        raise ValueError(f"runs_per_cell must be positive, not {runs_per_cell}")
    if jobs < 1:
        raise ValueError(f"jobs must be positive, not {jobs}")
    for cfg in configs.values():
        cfg.validate()
    names = [inst.name for inst in instances]
    twice = next((name for i, name in enumerate(names) if name in names[:i]), None)
    if twice is not None:
        raise ValueError(f"instance {twice!r} is listed twice")

    grid = []
    for inst in instances:
        inst = Instance.from_dict(inst.to_dict())  # the instance its file would give
        issues = validate_instance(inst).names
        for label, cfg in configs.items():
            for run in range(runs_per_cell):
                seed = run_seed(base_seed, inst.name, label, run)
                grid.append((inst, issues, label, run, replace(cfg, seed=seed)))
    # a fork pool starts all its workers at the first submit, so it gets no
    # more of them than the grid has runs
    workers = min(jobs, len(grid))
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        runs = list(pool.map(_run_one, grid, chunksize=1) if pool else map(_run_one, grid))

    return ExperimentReport(runs, base_seed)


# ----------------------------------------------------------------- rendering


def render_tables(report: ExperimentReport) -> str:
    """The experiment's results and best-found tables, then its average
    ranks, the Friedman statistic and the Holm post-hoc table."""
    text = render_results_table(report) + "\n" + render_best_table(report) + "\n"
    fried, holm_result = report.friedman, report.holm
    if fried is None:
        return text + "No statistical tests (fewer than two algorithms or instances).\n"
    ranks = [["Algorithm", "Average rank"]]
    ranks += [[label, f"{rank:.4f}"] for label, rank in zip(report.labels, fried.average_ranks)]
    text += (
        align_table(ranks)
        + f"\nFriedman statistic: {fried.statistic:.4f} (df={fried.dof}, p={fried.p_value:.6g})\n"
    )
    rows = [["Algorithm", "z", "Unadjusted p", "Adjusted p", "Reject@0.05"]]
    for c in holm_result.comparisons:
        rows.append(
            [c.label, f"{c.z:.4f}", f"{c.p_unadjusted:.6f}", f"{c.p_adjusted:.6f}", str(c.reject_at_05)]
        )
    return text + f"\nHolm post-hoc (control: {holm_result.control_label})\n" + align_table(rows)


def render_results_table(report: ExperimentReport) -> str:
    """Aligned per-instance results: mean, sd and mean times."""
    timing = report.timing_dict()
    cells = report.cells()
    header = ["Instance"]
    for label in report.labels:
        header += [f"{label}:avg", f"{label}:sd", f"{label}:time", f"{label}:conv"]
    rows = [header]
    for name in report.instance_names:
        row = [name]
        for label in report.labels:
            runs = cells[(name, label)]
            if runs:
                mean, sd = mean_sd([r.cost for r in runs])
                t = timing[f"{name}/{label}"]
                row += [
                    f"{mean:.1f}",
                    f"{sd:.1f}",
                    f"{t['mean_time_s']:.1f}",
                    f"{t['mean_convergence_s']:.1f}",
                ]
            else:
                row += ["-", "-", "-", "-"]
        rows.append(row)
    return align_table(rows)


def render_best_table(report: ExperimentReport) -> str:
    rows = [["Instance", "Best", "Vehicles", "Algorithm"]]
    for name in report.instance_names:
        run = report.best_run(name)
        if run is not None:
            rows.append([name, f"{run.cost:.2f}", str(run.vehicles), run.label])
        else:
            rows.append([name, "-", "-", "-"])
    return align_table(rows)


def align_table(rows: list[list[str]]) -> str:
    widths = [max(len(row[i]) for row in rows if i < len(row)) for i in range(len(rows[0]))]
    out = []
    for row in rows:
        out.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(out) + "\n"
