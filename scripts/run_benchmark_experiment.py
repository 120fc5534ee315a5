#!/usr/bin/env python3
"""Regenerate the benchmark suite and run the full comparison protocol.

Equivalent to `rvrp generate` followed by `rvrp experiment`; kept as one
script so the whole study is a single reproducible command. A suite directory
that already has a manifest is reused only if it was generated with the same
seed; otherwise, or when the manifest is not a JSON object, the script exits
with status 2.
"""

import argparse
import json
import sys
from pathlib import Path

from rvrp.cli import main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--runs", type=int, default=20)
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--population", type=int, default=100)
    parser.add_argument("--suite", default="benchmark")
    parser.add_argument("--out", default="results")
    args = parser.parse_args()

    manifest = Path(args.suite) / "suite-manifest.json"
    if manifest.exists():
        try:
            data = json.loads(manifest.read_text(encoding="utf-8"))
            if type(data) is not dict:
                raise ValueError("not a JSON object")
        except (OSError, ValueError) as exc:
            print(f"cannot read {manifest}: {exc}", file=sys.stderr)
            return 2
        suite_seed = data.get("seed")
        if suite_seed != args.seed:
            print(
                f"{manifest}: suite generated with seed {suite_seed}, not --seed {args.seed}",
                file=sys.stderr,
            )
            return 2
    else:
        code = cli_main(["generate", "--seed", str(args.seed), "--out", args.suite])
        if code != 0:
            return code
    return cli_main(
        [
            "experiment",
            "--suite", args.suite,
            "--runs", str(args.runs),
            "--seed", str(args.seed),
            "--jobs", str(args.jobs),
            "--population", str(args.population),
            "--out", args.out,
        ]
    )


if __name__ == "__main__":
    sys.exit(main())
