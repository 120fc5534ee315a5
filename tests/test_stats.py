import csv
import io
from dataclasses import replace

import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from rvrp import generator, jsonio, stats
from rvrp.solvers import SolverConfig
from rvrp.stats import (
    ExperimentReport,
    Run,
    average_ranks,
    chi2_sf,
    friedman,
    friedman_from_ranks,
    holm,
    mean_sd,
    normal_two_sided_p,
    rank_row,
    run_experiment,
    run_seed,
)

REFERENCE_RANKS = (1.2, 2.0667, 2.7333)


def test_mean_sd_constant():
    assert mean_sd([5.0, 5.0, 5.0]) == (5.0, 0.0)


def test_mean_sd_hand_arithmetic():
    mean, sd = mean_sd([1.0, 2.0, 3.0])
    assert mean == pytest.approx(2.0)
    assert sd == pytest.approx(1.0)  # n-1 denominator


def test_mean_sd_single_run():
    assert mean_sd([7.0]) == (7.0, 0.0)


def test_mean_sd_empty_rejected():
    with pytest.raises(ValueError):
        mean_sd([])


def test_rank_row_midranks():
    assert rank_row([10.0, 30.0, 20.0]) == [1.0, 3.0, 2.0]
    assert rank_row([10.0, 10.0, 20.0]) == [1.5, 1.5, 3.0]
    assert rank_row([4.0, 4.0, 4.0]) == [2.0, 2.0, 2.0]


def test_friedman_reference_regression():
    result = friedman_from_ranks(REFERENCE_RANKS, n_instances=15)
    assert result.statistic == pytest.approx(17.73, abs=0.01)
    assert result.dof == 2
    assert result.p_value == pytest.approx(0.000141, abs=2e-6)


def test_friedman_all_equal_rows():
    result = friedman([[3.0, 3.0, 3.0], [9.0, 9.0, 9.0]])
    assert result.statistic == pytest.approx(0.0)
    assert result.p_value == pytest.approx(1.0)


def test_friedman_matches_scipy():
    matrix = [
        [51.0, 53.0, 52.0],
        [48.0, 50.0, 49.0],
        [60.0, 61.0, 62.0],
        [55.0, 57.0, 56.0],
        [40.0, 42.0, 41.0],
    ]
    ours = friedman(matrix)
    stat, p = scipy.stats.friedmanchisquare(*[[row[j] for row in matrix] for j in range(3)])
    assert ours.statistic == pytest.approx(stat, rel=1e-12)
    assert ours.p_value == pytest.approx(p, rel=1e-9)


@given(
    st.lists(
        st.lists(
            st.floats(min_value=1.0, max_value=1e6, allow_nan=False, allow_infinity=False),
            min_size=3,
            max_size=3,
            unique=True,
        ),
        min_size=2,
        max_size=8,
    )
)
@settings(max_examples=80, deadline=None)
def test_friedman_invariant_under_monotone_transform(matrix):
    cubed = [[v**3 for v in row] for row in matrix]
    a = friedman(matrix)
    b = friedman(cubed)
    assert a.average_ranks == b.average_ranks
    assert a.statistic == pytest.approx(b.statistic, rel=1e-12)


@pytest.mark.parametrize(
    "x, df, expected, tol",
    [
        (9.21, 2, 0.0100, 1e-4),
        (0.0, 2, 1.0, 0.0),
        (17.73, 2, 0.000141, 2e-6),
    ],
)
def test_chi2_sf_reference_points(x, df, expected, tol):
    assert chi2_sf(x, df) == pytest.approx(expected, abs=tol)


def test_chi2_sf_matches_scipy_within_1e_10():
    for df in range(1, 11):
        for x in (0.01, 0.5, 1.0, 2.5, 5.0, 9.21, 17.73, 30.0, 60.0):
            assert abs(chi2_sf(x, df) - scipy.stats.chi2.sf(x, df)) < 1e-10, (x, df)


def test_chi2_sf_strictly_decreasing():
    grid = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    for df in (1, 2, 5):
        values = [chi2_sf(x, df) for x in grid]
        assert all(b < a for a, b in zip(values, values[1:]))


def test_normal_two_sided_p_matches_erfc_identity():
    for z in (0.0, 0.5, 1.0, 2.3735, 4.1991):
        assert normal_two_sided_p(z) == pytest.approx(2 * scipy.stats.norm.sf(abs(z)), rel=1e-12)


def test_holm_reference_regression():
    result = holm(REFERENCE_RANKS, n_instances=15, control=0, labels=["dfa", "esa", "ea"])
    by_label = {c.label: c for c in result.comparisons}
    assert by_label["esa"].p_unadjusted == pytest.approx(0.017622, abs=1e-5)
    assert by_label["ea"].p_unadjusted == pytest.approx(0.000027, abs=1e-5)
    assert by_label["ea"].p_adjusted == pytest.approx(0.000054, abs=1e-5)
    assert by_label["esa"].p_adjusted == pytest.approx(0.017622, abs=1e-5)
    assert by_label["ea"].reject_at_05 and by_label["esa"].reject_at_05
    assert [c.label for c in result.comparisons] == ["ea", "esa"]  # ascending p order


def test_holm_properties():
    result = holm([1.0, 2.0, 2.5, 3.5], n_instances=10, control=0)
    ps = [c.p_unadjusted for c in result.comparisons]
    adj = [c.p_adjusted for c in result.comparisons]
    assert all(a >= p for a, p in zip(adj, ps))
    assert all(b >= a for a, b in zip(adj, adj[1:]))
    assert all(c.index != 0 for c in result.comparisons)


def test_holm_control_must_exist():
    with pytest.raises(ValueError):
        holm([1.0, 2.0], n_instances=5, control=2)


def test_population_sweep_ranking_matches_reference_means():
    # mean matrix of a 4-instance x 4-size sweep; ranking row (4, 3, 1.5, 1.5)
    means = [
        [51945.7, 51561.3, 50989.5, 50934.3],
        [57398.7, 56721.8, 56203.8, 56213.7],
        [92990.39, 91663.8, 89512.0, 89531.0],
        [110206.94, 108241.6, 107799.5, 107745.7],
    ]
    assert average_ranks(means) == [4.0, 3.0, 1.5, 1.5]


def test_population_sweep_single_cell():
    # the population study is one grid whose labels are population sizes
    inst = generator.small_instance(21, cluster_sizes=(3, 3), forbidden_per_cluster=1)
    configs = {"pop10": SolverConfig("dfa", population_size=10)}
    report = run_experiment([inst], configs, runs_per_cell=1, base_seed=3)
    assert list(report.to_dict()["cells"]) == [f"{inst.name}/pop10"]
    assert report.runs[0].seed == run_seed(3, inst.name, "pop10", 0)
    assert report.friedman is None


def test_population_sweep_rejects_a_population_of_zero(monkeypatch):
    solved = []
    monkeypatch.setattr(stats, "solve", lambda inst, cfg: solved.append(inst.name))
    inst = generator.small_instance(21, cluster_sizes=(3, 3), forbidden_per_cluster=1)
    configs = {f"pop{size}": SolverConfig("dfa", population_size=size) for size in (10, 0)}
    with pytest.raises(ValueError, match="population_size"):
        run_experiment([inst], configs, runs_per_cell=1)
    assert solved == []


def test_population_sweep_midranks_on_ties():
    assert average_ranks([[5.0, 5.0, 7.0]]) == [1.5, 1.5, 3.0]


def test_run_seed_is_stable_and_distinct():
    assert run_seed(1, "a", "dfa", 0) == run_seed(1, "a", "dfa", 0)
    assert run_seed(1, "a", "dfa", 0) != run_seed(1, "a", "dfa", 1)
    assert run_seed(1, "a", "dfa", 0) != run_seed(1, "a", "ea", 0)
    assert run_seed(1, "a", "dfa", 0) != run_seed(2, "a", "dfa", 0)


SMALL_CONFIGS = {alg: SolverConfig(alg, population_size=10) for alg in ("dfa", "ea", "esa")}


@pytest.fixture(scope="module")
def small_experiment():
    instances = [
        generator.small_instance(21, cluster_sizes=(3, 3), forbidden_per_cluster=1),
        generator.small_instance(30, cluster_sizes=(3, 3), forbidden_per_cluster=1),
    ]
    report = run_experiment(instances, SMALL_CONFIGS, runs_per_cell=2, base_seed=5)
    return instances, report


def test_experiment_cardinality(small_experiment):
    _, report = small_experiment
    assert len(report.runs) == 2 * 3 * 2
    assert all(r.error is None for r in report.runs)
    assert sum(map(len, report.cells().values())) == 2 * 3 * 2
    assert report.friedman is not None


def test_experiment_deterministic_rerun(small_experiment):
    instances, report = small_experiment
    again = run_experiment(instances, SMALL_CONFIGS, runs_per_cell=2, base_seed=5)
    assert again.to_dict() == report.to_dict()


def test_experiment_parallel_matches_serial(small_experiment):
    instances, report = small_experiment
    parallel = run_experiment(instances, SMALL_CONFIGS, runs_per_cell=2, base_seed=5, jobs=2)
    assert parallel.to_dict() == report.to_dict()


def test_experiment_parallel_matches_serial_on_tight_clusters():
    # every cluster has a free-order mask, which each worker receives with
    # the pickled instance
    inst = generator.small_instance(90, cluster_sizes=(4, 5, 6), forbidden_per_cluster=9)
    assert all(mask is not None for mask in inst.tight_orders.values())
    reports = [
        run_experiment([inst], SMALL_CONFIGS, runs_per_cell=2, base_seed=5, jobs=jobs)
        for jobs in (1, 2)
    ]
    assert jsonio.dumps(reports[0].to_dict()) == jsonio.dumps(reports[1].to_dict())


@pytest.mark.parametrize("runs, pools", [(2, [2]), (1, [])], ids=["two-runs", "one-run"])
def test_experiment_starts_no_more_workers_than_the_grid_has_runs(monkeypatch, runs, pools):
    opened = []

    class RecordingPool:
        """Stands in for the process pool: records its size, runs in process."""

        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(stats, "ProcessPoolExecutor", RecordingPool)
    inst = generator.small_instance(21, cluster_sizes=(3, 3), forbidden_per_cluster=1)
    configs = {"dfa": SolverConfig("dfa", population_size=4)}
    report = run_experiment([inst], configs, runs_per_cell=runs, jobs=8)
    assert opened == pools
    assert len(report.runs) == runs and all(r.error is None for r in report.runs)


def test_experiment_ignores_the_seed_a_config_carries(small_experiment):
    # every run takes its seed from the grid's schedule, so a config's own
    # seed changes nothing
    instances, report = small_experiment
    seeded = {label: replace(cfg, seed=3) for label, cfg in SMALL_CONFIGS.items()}
    again = run_experiment(instances, seeded, runs_per_cell=2, base_seed=5)
    assert again.to_dict() == report.to_dict()
    assert all(r.seed == run_seed(5, r.instance, r.label, r.run) for r in again.runs)


def test_experiment_best_found_is_cell_minimum(small_experiment):
    instances, report = small_experiment
    cells = report.cells()
    for inst in instances:
        best = report.best_run(inst.name)
        assert best is not None
        assert best.cost == min(r.cost for label in report.labels for r in cells[(inst.name, label)])
        assert best.vehicles == best.encoding.count(0) + 1


def test_experiment_single_algorithm_skips_tests():
    instances = [
        generator.small_instance(seed, cluster_sizes=(3, 3), forbidden_per_cluster=1)
        for seed in (21, 30)
    ]
    report = run_experiment(
        instances, {"dfa": SolverConfig("dfa", population_size=8)}, runs_per_cell=1, base_seed=1
    )
    assert report.friedman is None
    assert report.holm is None


def test_experiment_validates_the_instance_it_solves():
    # an arc pair 0.004 apart is asymmetric in memory and symmetric at the
    # file's two decimals, which is what every run solves
    inst = generator.small_instance(21, cluster_sizes=(3, 3), forbidden_per_cluster=1)
    off = [list(row) for row in inst.cost_offpeak]
    off[2][1] = off[1][2] + 0.004
    report = run_experiment([replace(inst, cost_offpeak=off)], SMALL_CONFIGS, runs_per_cell=1)
    assert [r.error for r in report.runs] == ["invalid instance: ['asymmetry-violated']"] * 3


@pytest.mark.parametrize("seeds, named", [((21, 30, 21), "'small_21'")], ids=["instance"])
def test_experiment_rejects_a_name_listed_twice(seeds, named):
    # an instance listed twice would be solved twice per cell and ranked as
    # two; a label cannot repeat, it is a key of the configs
    instances = [generator.small_instance(seed, cluster_sizes=(3, 3)) for seed in seeds]
    with pytest.raises(ValueError, match=named):
        run_experiment(instances, SMALL_CONFIGS, runs_per_cell=1)


@pytest.mark.parametrize(
    "settings, named",
    [
        ({"configs": {}}, "algorithm"),
        ({"runs_per_cell": 0}, "runs_per_cell"),
        ({"jobs": 0}, "jobs"),
        ({"configs": {"dfa": SolverConfig("dfa", population_size=0)}}, "population_size"),
        ({"configs": {"dfa": SolverConfig("dfa"), "nope": SolverConfig("nope")}}, "'nope'"),
    ],
    ids=["no-algorithm", "runs-0", "jobs-0", "population-0", "unknown-algorithm"],
)
def test_experiment_rejects_invalid_settings_before_any_solve(monkeypatch, settings, named):
    solved = []
    monkeypatch.setattr(stats, "solve", lambda inst, cfg: solved.append(inst.name))
    instances = [generator.small_instance(21, cluster_sizes=(3, 3))]
    with pytest.raises(ValueError, match=named):
        run_experiment(instances, **{"configs": SMALL_CONFIGS, "runs_per_cell": 1, **settings})
    assert solved == []


def _run(instance, label, run, cost=None):
    # a run without a cost failed
    return Run(instance, label, run, seed=run, cost=cost, error=None if cost is not None else "failed")


def test_rank_tests_rank_only_instances_where_every_algorithm_ran():
    runs = [
        _run("a", "x", 0, 1.0), _run("a", "y", 0, 2.0),
        _run("b", "x", 0, 3.0), _run("b", "x", 1, 5.0), _run("b", "y", 0, 1.0), _run("b", "y", 1),
        _run("c", "x", 0, 1.0), _run("c", "y", 0),
        _run("d", "x", 0), _run("d", "y", 0),
    ]
    report = ExperimentReport(runs)
    assert (report.instance_names, report.labels, report.runs_per_cell) == (list("abcd"), ["x", "y"], 2)
    assert report.ranked_instances == ["a", "b"]
    assert report.friedman.average_ranks == [1.5, 1.5]
    assert report.holm.control_label == "x"
    only_a_c = ExperimentReport([r for r in runs if r.instance in ("a", "c")])
    assert (only_a_c.ranked_instances, only_a_c.friedman, only_a_c.holm) == (["a"], None, None)
    only_x = ExperimentReport([r for r in runs if r.instance in ("a", "b") and r.label == "x"])
    assert (only_x.ranked_instances, only_x.friedman, only_x.holm) == (["a", "b"], None, None)


NAMES = st.text(alphabet='ab ,"\n', min_size=1, max_size=4)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
TIMES = st.floats(min_value=0.0, max_value=1e6)
RUNS = st.builds(
    Run, NAMES, NAMES, st.integers(0, 5), st.integers(0, 2**63 - 1), cost=FINITE, time_s=TIMES,
    convergence_s=TIMES, vehicles=st.integers(1, 50), evaluations=st.integers(0, 10**6),
    encoding=st.lists(st.integers(0, 9)), error=st.none() | st.just("RuntimeError: failed"),
)


# each (instance, label, run) once, as a grid holds it: from_csv rejects a repeat
GRID_RUNS = st.lists(RUNS, min_size=1, max_size=12, unique_by=lambda r: (r.instance, r.label, r.run))


@given(GRID_RUNS.filter(lambda runs: any(r.error is None for r in runs)))
@settings(max_examples=80, deadline=None)
def test_from_csv_reads_back_the_successful_runs(runs):
    # runs.csv keeps times to 3 decimals and holds no evaluations or encodings
    read = ExperimentReport.from_csv(ExperimentReport(runs).csv_text())
    assert read.runs == [
        replace(
            r, time_s=float(f"{r.time_s:.3f}"), convergence_s=float(f"{r.convergence_s:.3f}"),
            evaluations=None, encoding=None,
        )
        for r in runs
        if r.error is None
    ]
    assert read.base_seed is None


def test_experiment_csv_layout(small_experiment):
    _, report = small_experiment
    lines = report.csv_text().strip().splitlines()
    assert lines[0] == "instance,algorithm,run,seed,cost,time_s,convergence_s,vehicles"
    assert len(lines) == 1 + 12


def test_experiment_csv_numbers_runs_by_their_place_in_the_grid(monkeypatch):
    # run 0 fails, so the CSV holds runs 1 and 2 under their own numbers
    inst = generator.small_instance(21, cluster_sizes=(3, 3), forbidden_per_cluster=1)
    failing = run_seed(5, inst.name, "dfa", 0)
    real_solve = stats.solve

    def solve(inst, cfg):
        if cfg.seed == failing:
            raise RuntimeError("injected failure")
        return real_solve(inst, cfg)

    monkeypatch.setattr(stats, "solve", solve)
    configs = {"dfa": SolverConfig("dfa", population_size=10)}
    report = run_experiment([inst], configs, runs_per_cell=3, base_seed=5)
    rows = list(csv.DictReader(io.StringIO(report.csv_text())))
    assert [int(row["run"]) for row in rows] == [1, 2]
    assert [int(row["seed"]) for row in rows] == [run_seed(5, inst.name, "dfa", k) for k in (1, 2)]
    errors = report.to_dict()["cells"][f"{inst.name}/dfa"]["errors"]
    assert errors == [f"run 0 (seed {failing}): RuntimeError: injected failure"]


@given(
    st.lists(
        st.lists(
            st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False),
            min_size=4,
            max_size=4,
        ),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=60, deadline=None)
def test_average_ranks_sum_is_conserved(matrix):
    k = 4
    ranks = average_ranks(matrix)
    assert sum(ranks) == pytest.approx(k * (k + 1) / 2, rel=1e-9)
