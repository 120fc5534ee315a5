#!/usr/bin/env python3
"""Population-size study for the DFA on four suite instances.

Reports mean cost, mean runtime and the average rank of each population size
(midranks on ties), mirroring the package's experiment conventions.
"""

import argparse
import sys

from rvrp import generator
from rvrp.jsonio import write_json
from rvrp.stats import population_sweep, render_sweep_table

SWEEP_INSTANCES = ["Osaba_50_1_1", "Osaba_50_1_2", "Osaba_80_3", "Osaba_100_1"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--runs", type=int, default=20)
    parser.add_argument("--sizes", default="25,50,100,150")
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--out", default=None, help="optional JSON report path")
    args = parser.parse_args()

    sizes = [int(s) for s in args.sizes.split(",") if s]
    print(f"# population sweep: seed={args.seed} runs={args.runs} sizes={sizes}")
    instances = generator.generate_suite(args.seed, only=SWEEP_INSTANCES)
    report = population_sweep(
        instances, sizes=sizes, runs=args.runs, base_seed=args.seed, jobs=args.jobs
    )
    print(render_sweep_table(report), end="")
    if args.out:
        write_json(args.out, report.to_dict())
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
