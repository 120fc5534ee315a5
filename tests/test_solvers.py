import dataclasses
import math

import numpy as np
import pytest

from rvrp import check_feasible, solution_cost
from rvrp import generator
from rvrp.solvers import (
    SolverConfig,
    esa_initial_temperature,
    grid_configs,
    metropolis_accept,
    solve,
    survivor_counts,
    termination_budget,
)

from conftest import enumerate_two_cluster_optimum


@pytest.mark.parametrize("n, expected", [(50, 1325), (1, 2), (100, 5150)])
def test_termination_budget(n, expected):
    assert termination_budget(n) == expected


def test_termination_budget_rejects_zero():
    with pytest.raises(ValueError):
        termination_budget(0)


def test_config_validation():
    cfg = SolverConfig()
    with pytest.raises(ValueError, match="^unknown algorithm 'tabu'$"):
        SolverConfig(algorithm="tabu")
    with pytest.raises(ValueError, match="^population_size must be positive$"):
        SolverConfig(population_size=0)
    with pytest.raises(ValueError, match="^seed must be non-negative, not -1$"):
        SolverConfig(seed=-1)
    # a built config stays valid: it cannot be changed, and a copy with a
    # changed field is checked again
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.population_size = 0
    with pytest.raises(ValueError, match="^seed must be non-negative, not -1$"):
        dataclasses.replace(cfg, seed=-1)
    # the paper's fixed parameters are module constants, not settings
    with pytest.raises(TypeError):
        SolverConfig(gamma=0.9)


def test_grid_configs_label_each_entry():
    assert grid_configs("dfa,ea,esa") == {alg: SolverConfig(alg) for alg in ("dfa", "ea", "esa")}
    # every field but the seed is in the entry; the seed is the caller's
    configs = grid_configs(" dfa+reloc , ea@p30,esa@p7+reloc,,")
    assert configs == {
        "dfa+reloc": SolverConfig("dfa", enable_cluster_relocation=True),
        "ea@p30": SolverConfig("ea", population_size=30),
        "esa@p7+reloc": SolverConfig("esa", population_size=7, enable_cluster_relocation=True),
    }


@pytest.mark.parametrize("pop, expected", [(100, (70, 30)), (7, (5, 2)), (3, (3, 0)), (1, (1, 0))])
def test_survivor_counts(pop, expected):
    assert survivor_counts(pop) == expected


@pytest.mark.parametrize("algorithm", ["dfa", "ea", "esa"])
def test_runs_are_deterministic(oracle_instances, algorithm):
    inst = oracle_instances[0]
    cfg = SolverConfig(algorithm=algorithm, seed=77, population_size=10)
    a = solve(inst, cfg)
    b = solve(inst, cfg)
    assert a.best_solution == b.best_solution
    assert a.best_cost == b.best_cost
    assert a.evaluations_total == b.evaluations_total
    assert a.cost_history == b.cost_history
    assert a.convergence_evaluations == b.convergence_evaluations


@pytest.mark.parametrize("algorithm", ["dfa", "ea", "esa"])
def test_best_is_feasible_and_cost_consistent(oracle_instances, algorithm):
    for inst in oracle_instances[:2]:
        result = solve(inst, SolverConfig(algorithm=algorithm, seed=3, population_size=12))
        assert check_feasible(result.best_solution, inst).feasible
        assert result.best_cost == pytest.approx(
            solution_cost(result.best_solution, inst), abs=1e-6
        )
        assert result.convergence_time_s <= result.wall_time_s + 1e-9


@pytest.mark.parametrize("algorithm", ["dfa", "ea", "esa"])
def test_history_is_strictly_decreasing(oracle_instances, algorithm):
    result = solve(
        oracle_instances[1], SolverConfig(algorithm=algorithm, seed=11, population_size=15)
    )
    costs = [c for _, c in result.cost_history]
    evals = [e for e, _ in result.cost_history]
    assert all(b < a for a, b in zip(costs, costs[1:]))
    assert all(b > a for a, b in zip(evals, evals[1:]))
    assert result.cost_history[-1][1] == result.best_cost


@pytest.mark.parametrize("algorithm", ["dfa", "ea", "esa"])
def test_evaluations_at_least_population(oracle_instances, algorithm):
    result = solve(
        oracle_instances[0], SolverConfig(algorithm=algorithm, seed=5, population_size=8)
    )
    assert result.evaluations_total >= 8


def test_dfa_population_of_one_returns_initial(oracle_instances):
    inst = oracle_instances[0]
    result = solve(inst, SolverConfig(algorithm="dfa", seed=21, population_size=1))
    assert result.evaluations_total == 1
    assert check_feasible(result.best_solution, inst).feasible


def test_dfa_finds_small_optimum_in_most_runs(oracle_instances):
    inst = oracle_instances[2]
    _, optimum, _ = enumerate_two_cluster_optimum(inst)
    hits = sum(
        1
        for seed in range(10)
        if abs(
            solve(inst, SolverConfig(algorithm="dfa", seed=1000 + seed, population_size=25)).best_cost
            - optimum
        )
        < 1e-6
    )
    assert hits >= 8


@pytest.mark.parametrize("algorithm", ["dfa", "ea", "esa"])
@pytest.mark.parametrize("cluster_sizes, evaluations", [((1,), 3), ((1, 1), 6)])
def test_budget_can_expire_while_the_initial_population_is_priced(
    algorithm, cluster_sizes, evaluations
):
    # budget n + n(n+1)/2: 2 for one customer, 5 for two; every solution of
    # these instances costs the same, so each individual after the first stalls
    inst = generator.small_instance(5, cluster_sizes=cluster_sizes)
    result = solve(inst, SolverConfig(algorithm=algorithm, seed=0, population_size=10))
    assert result.evaluations_total == evaluations
    assert check_feasible(result.best_solution, inst).feasible


def test_ea_elitists_keep_global_best(oracle_instances):
    # the run's best cost must appear in the final population history: the
    # sorted survivor step can never drop the pool minimum
    inst = oracle_instances[3]
    result = solve(inst, SolverConfig(algorithm="ea", seed=9, population_size=10))
    assert result.cost_history[-1][1] == result.best_cost


def test_ea_stops_exactly_at_budget_after_last_improvement(oracle_instances):
    # every EA proposal is one evaluation, so the run ends exactly `budget`
    # evaluations after the last improvement, even mid-generation
    inst = oracle_instances[0]
    result = solve(inst, SolverConfig(algorithm="ea", seed=2, population_size=10))
    budget = termination_budget(inst.n_customers)
    assert result.evaluations_total == result.convergence_evaluations + budget


def test_esa_initial_temperature_arithmetic():
    t0 = esa_initial_temperature([100.0, 120.0, 151.3])
    assert t0 == pytest.approx(51.3 / -math.log(0.95), rel=1e-12)
    assert t0 == pytest.approx(1000.13, abs=0.01)


def test_esa_initial_temperature_zero_spread():
    assert esa_initial_temperature([5.0, 5.0, 5.0]) == 0.0


def test_esa_initial_temperature_scales_linearly():
    base = esa_initial_temperature([100.0, 150.0])
    doubled = esa_initial_temperature([100.0, 200.0])
    assert doubled == pytest.approx(2 * base, rel=1e-12)


def test_metropolis_zero_delta_always_accepted():
    rng = np.random.default_rng(0)
    assert all(metropolis_accept(0.0, 10.0, rng) for _ in range(100))
    assert all(metropolis_accept(-1.0, 0.0, rng) for _ in range(100))


def test_metropolis_zero_temperature_is_hill_climbing():
    rng = np.random.default_rng(0)
    assert not any(metropolis_accept(1e-9, 0.0, rng) for _ in range(100))


def test_metropolis_acceptance_frequency_matches_closed_form():
    rng = np.random.default_rng(31415)
    delta, temperature = 2.5, 10.0
    expected = math.exp(-delta / temperature)
    trials = 100_000
    accepted = sum(1 for _ in range(trials) if metropolis_accept(delta, temperature, rng))
    assert abs(accepted / trials - expected) < 0.01


@pytest.mark.parametrize("algorithm", ["dfa", "ea", "esa"])
def test_relocation_flag_keeps_runs_feasible(algorithm):
    inst = generator.small_instance(80, cluster_sizes=(3, 3), capacity=120)
    cfg = SolverConfig(
        algorithm=algorithm, seed=4, population_size=10, enable_cluster_relocation=True
    )
    result = solve(inst, cfg)
    assert check_feasible(result.best_solution, inst).feasible


def test_result_dict_shape(oracle_instances):
    result = solve(oracle_instances[0], SolverConfig(algorithm="dfa", seed=1, population_size=8))
    data = result.to_dict()
    assert data["vehicles"] == result.best_solution.vehicles
    assert data["evaluations"] == result.evaluations_total
    assert data["cost_history"] == [list(point) for point in result.cost_history]
    assert data["cost_history"][-1][1] == result.best_cost
