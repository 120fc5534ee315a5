"""rvrp benchmark: one workload per call, end-to-end or per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dfa-short-routes --seed 1 --seconds 30 --trace 0

``--trace 0`` sets up the workload's instances several times, runs its work
untraced and prints the end-to-end metrics. ``--trace 1`` prints the
per-layer metrics instead: layer microbenchmarks, the same untraced work (for
the fingerprint and the tracing overhead), then the set-up and the work again
with every rvrp module boundary wrapped by ``tracer.Tracer``. Both modes
re-check every returned best solution and print a fingerprint of the solves.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with status 2 before printing a result.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
WORKLOAD_NAMES = ("dfa-short-routes", "grid-50")

# set-ups before and after the work; setup_s is the median of these and,
# on the solve workloads, of one more after each solve
SETUP_REPS = 21
# relative slack between the sum of self times and the traced wall time
SELF_SUM_TOL = 1e-3

LAYER_CALLS = (
    "instance.Instance.from_dict",
    "evaluation.route_cost",
    "evaluation.solution_cost",
    "evaluation.check_feasible",
    "operators.move_firefly",
    "operators.hamming_distance",
    "operators.insertion_move",
    "operators.random_solution",
)
LAYER_SELF_ONLY = (
    "instance.Instance.load",
    "instance.validate_instance",
    "solvers.solve",
    "generator.generate_suite",
    "generator.select_forbidden",
    "stats.run_experiment",
)


def import_program() -> bool:
    src = ROOT / "src"
    if not (src / "rvrp" / "__init__.py").is_file():
        print(f"perfbench: no rvrp sources under {src}", file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    import rvrp

    if Path(rvrp.__file__).resolve().parent != (src / "rvrp").resolve():
        print(f"perfbench: imported rvrp from {rvrp.__file__}, not {src}", file=sys.stderr)
        return False
    return True


def percentile(values: list[float], q: int, resolution: float) -> float:
    """The q-th percentile. Values rounded to ``resolution`` (the grid's
    per-run times are whole milliseconds) are read as spread evenly over
    their rounding interval, so many equal values still give a measured,
    not a rounded, percentile."""
    values = sorted(values)
    if not resolution:
        if len(values) == 1:
            return values[0]
        return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    rank = q / 100 * len(values)
    value = values[min(int(rank), len(values) - 1)]
    below = bisect.bisect_left(values, value)
    tied = bisect.bisect_right(values, value) - below
    return value - resolution / 2 + resolution * (rank - below) / tied


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(phase, setup_s: float, refs: dict[str, float]) -> dict[str, tuple[float, str]]:
    walls = [s.wall_s for s in phase.solves] or [0.0]
    evals = sum(s.evaluations for s in phase.solves)
    rel = [s.best_cost / refs[s.instance] for s in phase.solves]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (phase.wall_s, "s"),
        "evals_per_s": (ratio(evals, phase.wall_s), "1/s"),
        "solve_s.p50": (percentile(walls, 50, phase.time_resolution_s), "s"),
        "solve_s.p90": (percentile(walls, 90, phase.time_resolution_s), "s"),
        "runs_per_s": (ratio(len(phase.solves), phase.wall_s), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "best_cost.ratio": (statistics.fmean(rel) if rel else 0.0, "ratio"),
    }


def per_layer(
    tracer, untraced, serial, traced, micro: dict[str, float]
) -> dict[str, tuple[float, str]]:
    totals = tracer.totals()
    counters = tracer.counters
    metrics: dict[str, tuple[float, str]] = {}
    for name in LAYER_CALLS:
        calls, self_s = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    for name in LAYER_SELF_ONLY:
        metrics[f"{name}.self_s"] = (totals.get(name, (0, 0.0))[1], "s")

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0))[0]

    metrics["operators.movement_length.mean"] = (
        ratio(counters["operators.movement_length.sum"], calls("operators.movement_length")),
        "count",
    )
    metrics["operators.insertion_move.identity_ratio"] = (
        ratio(counters["operators.insertion_move.identity"], calls("operators.insertion_move")),
        "ratio",
    )
    metrics["solvers.metropolis_accept.accept_ratio"] = (
        ratio(counters["solvers.metropolis_accept.accepted"], calls("solvers.metropolis_accept")),
        "ratio",
    )
    metrics["solvers.evaluations"] = (sum(s.evaluations for s in traced.solves), "count")
    # solve time over the workers' wall time: how well the pool is used
    busy = sum(s.wall_s for s in untraced.solves)
    metrics["stats.pool_efficiency"] = (ratio(busy, untraced.workers * untraced.wall_s), "ratio")
    metrics["trace.overhead"] = (ratio(traced.wall_s, serial.wall_s), "ratio")
    metrics.update({name: (value, "us") for name, value in micro.items()})
    return metrics


def run(workload_name: str, seed: int, seconds: int, trace: bool, work_dir: Path) -> dict:
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[workload_name]
    suite_dir = work_dir / "suite"
    setup_times: list[float] = []

    def timed_setup(reps: int, into: Path) -> list:
        for _ in range(reps):
            t0 = time.perf_counter()
            insts = workloads.setup(workload.instances, seed, into)
            setup_times.append(time.perf_counter() - t0)
        return insts

    # set-ups before, during (between solves, where the work allows it) and
    # after the work, so that setup_s samples the machine's phases over the
    # whole run, as the timings of the work do
    insts = timed_setup(1 if trace else SETUP_REPS // 2 + 1, suite_dir)
    fingerprint = {"inputs": workloads.inputs_sha256(suite_dir)}
    problems: list[str] = []

    micro = {}
    if trace:
        import micro as micro_mod

        micro = micro_mod.microbench(insts[0], seed, suite_dir)

    if trace or not isinstance(workload, workloads.SolveWorkload):
        phase = workload.run(insts, seed, seconds, work_dir, serial=False)
    else:
        between = functools.partial(timed_setup, 1, work_dir / "setup")
        phase = workload.run(insts, seed, seconds, work_dir, serial=False, between=between)
    workloads.gate(phase, insts)
    fingerprint["solves"] = phase.fingerprint()
    if phase.report_sha256:
        fingerprint["report_json"] = phase.report_sha256
    attempted, failed = phase.attempted, phase.failed
    problems += phase.failures

    if trace:
        # the traced work runs in one process, so the wrappers see every call;
        # its untraced twin is the base of trace.overhead
        serial = phase
        if phase.workers > 1:
            serial = workload.run(insts, seed, seconds, work_dir, serial=True)
            workloads.gate(serial, insts)
            attempted += serial.attempted
            failed += serial.failed
            problems += serial.failures
        tracer = Tracer()
        t0 = time.perf_counter()
        tracer.install()
        try:
            with tracer.span("bench.setup"):
                insts = workloads.setup(workload.instances, seed, suite_dir)
            with tracer.span("bench.work"):
                traced = workload.run(insts, seed, seconds, work_dir, serial=True)
        finally:
            tracer.restore()
        traced_wall = time.perf_counter() - t0
        workloads.gate(traced, insts)
        attempted += traced.attempted
        failed += traced.failed
        problems += traced.failures
        # integrity: tracing must not change the search or leave wrappers behind
        if not tracer.restored():
            problems.append("trace: a wrapped name was not restored")
        for other in (serial, traced):
            if (other.fingerprint(), other.report_sha256) != (phase.fingerprint(), phase.report_sha256):
                problems.append("trace: a serial or traced pass changed the fingerprint")
        self_sum = sum(self_s for _, self_s in tracer.totals().values())
        if abs(self_sum - traced_wall) > SELF_SUM_TOL * traced_wall:
            problems.append(f"trace: self times sum to {self_sum:.6f} s, traced wall {traced_wall:.6f} s")
        if min(self_s for _, self_s in tracer.totals().values()) < 0:
            problems.append("trace: a negative self time")
        tracer.write(OUT / f"trace-{workload_name}.json")
        metrics = per_layer(tracer, phase, serial, traced, micro)
    else:
        timed_setup(SETUP_REPS // 2, work_dir / "setup")
        refs = workloads.reference_costs(insts, seed)
        metrics = end_to_end(phase, statistics.median(setup_times), refs)
        rel = metrics["best_cost.ratio"][0]
        mean_cost = statistics.fmean(s.best_cost for s in phase.solves) if phase.solves else 0.0
        print(f"  best_cost.mean {mean_cost:.2f} cost-s (best_cost.ratio {rel:.6f} of a random construction)")

    print(f"  solves {attempted} attempted, {failed} failed, failed_ratio {ratio(failed, attempted):.4f}")
    for problem in problems:
        print(f"  problem: {problem}", file=sys.stderr)
    samples = len(phase.solves)
    for name, (value, unit) in metrics.items():
        note = f"  (n={samples})" if name.startswith("solve_s.") else ""
        print(f"  {name:<44} {value:>16.6f} {unit}{note}")
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not import_program():
        return 2
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    work_dir = OUT / f"run-{args.workload}-{args.seed}-{time.time_ns()}"
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
