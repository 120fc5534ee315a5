"""Command-line surface: generate | validate | solve | experiment | stats |
export-geojson.

Every subcommand prints its effective configuration (including the resolved
seed) before doing any work, so any run can be reproduced from its header.
Output files are byte-reproducible for a fixed seed; wall-clock measurements
are confined to stdout summaries, timing.json, tables.txt and the time
columns of runs.csv.

A solver config has one name, its entry <algorithm>[@p<size>][+reloc]
(solvers.grid_configs): solve --algorithm takes one entry and experiment
--algorithms a comma-separated list of them. The entry is the solution
file's algorithm, and the label of the experiment's cells and runs.csv rows.

Exit codes: 0 ok (warnings allowed), 1 validation found violations, 2 bad
input/output (an instance that solve or export-geojson finds invalid too; a
stdout closed by its reader, with no traceback), 3 generation infeasibility,
5 every experiment cell failed. Code 4 is unassigned.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import generator, stats
from .evaluation import check_feasible
from .export import solution_feature_collection
from .instance import Instance, Solution, encode, validate_instance
from .jsonio import require_directory, write_json
from .solvers import grid_configs, solve

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2
EXIT_GENERATION = 3
EXIT_ALL_FAILED = 5


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    return int.from_bytes(os.urandom(4), "big")


def _print_header(command: str, **params) -> None:
    print(f"# rvrp {command}")
    for key, value in params.items():
        print(f"#   {key} = {value}")


class CommandError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message
        super().__init__(message)


def _load_instance(path: str | Path) -> Instance:
    try:
        return Instance.load(path)
    except (OSError, ValueError) as exc:
        raise CommandError(EXIT_IO, f"cannot read instance {path}: {exc}")


def _valid_instance(path: str) -> Instance:
    """The instance in ``path``; any :func:`validate_instance` finding exits 2 naming the file."""
    inst = _load_instance(path)
    report = validate_instance(inst)
    if not report.feasible:
        raise CommandError(EXIT_IO, f"invalid instance {path}: {report.violation_tags}")
    return inst


# ---------------------------------------------------------------- subcommands


def cmd_generate(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    only = args.only or None
    _print_header("generate", seed=seed, out=args.out, only=only or "all")
    try:
        instances = generator.generate_suite(seed, only=only)
        manifest = generator.write_suite(instances, args.out, seed)
    except ValueError as exc:  # a negative seed or an unknown name, refused before any draw
        raise CommandError(EXIT_IO, f"cannot generate: {exc}")
    except generator.GenerationError as exc:
        raise CommandError(EXIT_GENERATION, f"generation failed: {exc}")
    except OSError as exc:
        raise CommandError(EXIT_IO, f"cannot write suite: {exc}")
    rows = [["Instance", "Nodes", "Clusters", "Capacity", "Forbidden/cluster"]]
    for inst in instances:
        per_cluster = len(inst.forbidden) // len(inst.clusters)
        rows.append(
            [inst.name, str(inst.n_customers), str(len(inst.clusters)), str(inst.capacity), str(per_cluster)]
        )
    print(stats.align_table(rows), end="")
    print(f"wrote {len(instances)} instance file(s) + {manifest}")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    _print_header("validate", instance=args.instance)
    inst = _load_instance(args.instance)
    report = validate_instance(inst)
    if report.feasible:
        print(f"{inst.name}: ok")
        return EXIT_OK
    for issue in report.violations:
        print(f"{inst.name}: violation {issue.name}: {issue.detail}")
    return EXIT_INVALID


def cmd_solve(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    try:
        configs = grid_configs(args.algorithm)
        if len(configs) != 1:
            raise ValueError(f"--algorithm {args.algorithm!r} holds {len(configs)} entries, not one")
        [(label, cfg)] = configs.items()
        cfg = replace(cfg, seed=seed)
    except ValueError as exc:
        raise CommandError(EXIT_IO, f"invalid solver settings: {exc}")
    out_path = Path(args.out) if args.out else Path(args.instance).with_suffix(f".{label}.solution.json")
    _print_header(
        "solve", instance=args.instance, algorithm=label, seed=seed, population=cfg.population_size,
        out=out_path,
    )
    inst = _valid_instance(args.instance)
    # a valid instance cannot fail construction: each cluster fits a fresh route
    result = solve(inst, cfg)
    # the entry, not cfg.algorithm, so that the file names its whole config
    data = {"algorithm": label, "seed": seed, **result.to_dict(), "instance": inst.name,
            "encoding": encode(result.best_solution)}
    try:
        write_json(out_path, data)
    except OSError as exc:
        raise CommandError(EXIT_IO, f"cannot write solution: {exc}")
    print(
        f"{inst.name} {label} {result.best_cost:.2f} {result.best_solution.vehicles} "
        f"{result.wall_time_s:.3f} {result.convergence_time_s:.3f} {seed}"
    )
    return EXIT_OK


def cmd_experiment(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    try:
        configs = grid_configs(args.algorithms)
    except ValueError as exc:
        raise CommandError(EXIT_IO, f"invalid experiment settings: {exc}")
    try:
        suite_seed, files = generator.read_manifest(args.suite)
    except (OSError, ValueError) as exc:
        raise CommandError(EXIT_IO, f"cannot load suite {args.suite}: {exc}")
    out_dir = Path(args.out)
    _print_header(
        "experiment",
        suite=args.suite,
        suite_seed=suite_seed,
        algorithms=",".join(configs),
        runs=args.runs,
        seed=seed,
        jobs=args.jobs,
        out=out_dir,
    )
    # checked before any solve, so that no grid's results are lost to a path
    # that cannot be made a directory
    try:
        require_directory(out_dir)
    except OSError as exc:
        raise CommandError(EXIT_IO, f"cannot write to {out_dir}: {exc}")
    instances = [_load_instance(path) for path in files]
    try:
        report = stats.run_experiment(
            instances, configs, runs_per_cell=args.runs, base_seed=seed, jobs=args.jobs
        )
    except ValueError as exc:  # raised before any solve: the grid's settings are invalid
        raise CommandError(EXIT_IO, f"invalid experiment settings: {exc}")
    data = report.to_dict()
    for key, cell in data["cells"].items():
        for err in cell["errors"]:
            print(f"warning: cell {key}: {err}", file=sys.stderr)
    successes = sum(cell["runs"] for cell in data["cells"].values())
    failures = len(report.runs) - successes
    tables = stats.render_tables(report)
    # written before the tables are printed, so that a reader who closes
    # stdout early loses no results
    try:
        write_json(out_dir / "report.json", data)  # makes out_dir
        write_json(out_dir / "timing.json", report.timing_dict())
        (out_dir / "runs.csv").write_text(report.csv_text(), encoding="utf-8")
        (out_dir / "tables.txt").write_text(tables, encoding="utf-8")
    except OSError as exc:
        raise CommandError(EXIT_IO, f"cannot write experiment output to {out_dir}: {exc}")
    print(tables, end="")
    print(f"recorded {successes} run(s), {failures} failure(s) -> {out_dir}")
    if successes == 0:
        return EXIT_ALL_FAILED
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    _print_header("stats", runs=args.runs_csv)
    try:
        with open(args.runs_csv, encoding="utf-8-sig", newline="") as fh:
            report = stats.ExperimentReport.from_csv(fh.read())
    except (OSError, ValueError) as exc:
        raise CommandError(EXIT_IO, f"cannot read {args.runs_csv}: {exc}")
    print(stats.render_tables(report), end="")
    if args.out:
        try:
            write_json(args.out, {"friedman": report.friedman, "holm": report.holm})
        except OSError as exc:
            raise CommandError(EXIT_IO, f"cannot write {args.out}: {exc}")
    return EXIT_OK


def cmd_export_geojson(args: argparse.Namespace) -> int:
    _print_header("export-geojson", instance=args.instance, solution=args.solution, out=args.out)
    inst = _valid_instance(args.instance)
    try:
        sol = Solution.load(args.solution, inst)
    except (OSError, ValueError) as exc:
        raise CommandError(EXIT_IO, f"cannot read solution {args.solution}: {exc}")
    collection = solution_feature_collection(inst, sol)
    feasibility = check_feasible(sol, inst)
    if not feasibility.feasible:
        print(f"warning: exported solution is infeasible: {feasibility.violation_tags}", file=sys.stderr)
    try:
        write_json(args.out, collection)
    except OSError as exc:
        raise CommandError(EXIT_IO, f"cannot write geojson: {exc}")
    print(f"wrote {args.out}")
    return EXIT_OK


# --------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rvrp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="regenerate the 15-instance benchmark suite")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="benchmark")
    p.add_argument("--only", action="append", metavar="NAME")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("validate", help="check an instance file's invariants")
    p.add_argument("instance")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="run one solver on one instance")
    p.add_argument("instance")
    p.add_argument("--algorithm", default="dfa")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("experiment", help="run the instances x algorithms x runs grid")
    p.add_argument("--suite", default="benchmark")
    p.add_argument("--algorithms", default="dfa,ea,esa")
    p.add_argument("--runs", type=int, default=20)
    p.add_argument("--seed", type=int, default=None)
    # one worker per CPU this process may run on, not per CPU of the machine
    jobs = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    p.add_argument("--jobs", type=int, default=jobs)
    p.add_argument("--out", default="experiment")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("stats", help="recompute aggregates and tests from a runs.csv")
    p.add_argument("runs_csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("export-geojson", help="render an instance + solution as GeoJSON")
    p.add_argument("instance")
    p.add_argument("solution")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_geojson)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except CommandError as exc:
        print(exc.message, file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        # the reader closed stdout; what is still buffered goes to devnull,
        # so that Python's flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
