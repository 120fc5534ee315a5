#!/usr/bin/env python3
"""Population-size study for the DFA on four suite instances.

Runs one experiment grid whose labels are the DFA at each population size
(``pop<size>``), with the package's seed schedule, and prints the experiment's
results, best-found and rank tables (average ranks, Friedman and Holm over
the sizes). ``--out`` writes the experiment's report JSON.
"""

import argparse
import sys

from rvrp import generator
from rvrp.jsonio import write_json
from rvrp.solvers import SolverConfig
from rvrp.stats import render_tables, run_experiment

SWEEP_INSTANCES = ["Osaba_50_1_1", "Osaba_50_1_2", "Osaba_80_3", "Osaba_100_1"]


def _sizes(text: str) -> list[int]:
    """The population sizes listed in ``--sizes``; a ValueError names an entry
    that is not a positive integer or that is listed twice, or says the list is
    empty."""
    sizes: list[int] = []
    for entry in filter(None, text.split(",")):
        try:
            size = int(entry)
        except ValueError:
            raise ValueError(f"size {entry!r} is not an integer") from None
        if size < 1:
            raise ValueError(f"size {size} is not positive")
        if size in sizes:
            raise ValueError(f"size {size} is listed twice")
        sizes.append(size)
    if not sizes:
        raise ValueError("no size given")
    return sizes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--runs", type=int, default=20)
    parser.add_argument("--sizes", default="25,50,100,150")
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--out", default=None, help="optional JSON report path")
    args = parser.parse_args()

    try:
        sizes = _sizes(args.sizes)
        configs = {f"pop{size}": SolverConfig("dfa", population_size=size) for size in sizes}
        print(f"# population sweep: seed={args.seed} runs={args.runs} sizes={sizes}")
        instances = generator.generate_suite(args.seed, only=SWEEP_INSTANCES)
        report = run_experiment(
            instances, configs, runs_per_cell=args.runs, base_seed=args.seed, jobs=args.jobs
        )
    except ValueError as exc:  # raised before any solve: the grid's settings are invalid
        print(f"invalid sweep settings: {exc}", file=sys.stderr)
        return 2
    print(render_tables(report), end="")
    if args.out:
        write_json(args.out, report.to_dict())
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
