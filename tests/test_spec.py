"""``rvrp.solve`` against the executable specification (``spec.py``): the
same evaluation count, best cost to the bit, cost history and best solution,
for each search with cluster relocation off and on."""

import pytest

from rvrp import Solution, SolverConfig, encode, generator, solve, validate_instance

import spec
from conftest import rising_loads

SMALL = {
    inst.name: inst
    for inst in [
        # 10 forbidden arcs per 5-member cluster: construction falls back to the depth-first search
        generator.small_instance(77, cluster_sizes=(5, 5), forbidden_per_cluster=10),
        # every cluster tight (Instance.tight_orders)
        generator.small_instance(90, cluster_sizes=(4, 5, 6), forbidden_per_cluster=9),
        # loads that rise en route, so the insertion checks the load
        rising_loads(generator.small_instance(84, cluster_sizes=(1, 5, 3), capacity=60)),
    ]
}

# (instance, population): the spec prices every candidate in full, so the
# 50-customer runs are kept short
CASES = [(name, 10) for name in SMALL] + [("Osaba_50_2_4", 4), ("Osaba_50_1_1", 4)]


@pytest.mark.parametrize("relocation", [False, True], ids=["insertion", "relocation"])
@pytest.mark.parametrize("algorithm", ["dfa", "ea", "esa"])
@pytest.mark.parametrize("name, population", CASES, ids=[name for name, _ in CASES])
def test_solve_is_the_spec(benchmark_by_name, name, population, algorithm, relocation):
    inst = SMALL.get(name) or benchmark_by_name[name]
    assert validate_instance(inst).feasible
    cfg = SolverConfig(algorithm, population, seed=3, enable_cluster_relocation=relocation)
    result = solve(inst, cfg)
    run = spec.solve(inst, algorithm, population, seed=3, relocation=relocation)
    assert result.evaluations_total == run.evaluations
    assert repr(result.best_cost) == repr(run.best_cost)
    assert result.cost_history == run.history
    assert encode(result.best_solution) == encode(Solution.from_routes(run.best_routes))


def test_the_small_instances_reach_the_branches_they_are_named_for(monkeypatch):
    fallback, tight, rising = SMALL.values()
    assert all(tight.tight_orders[members] is not None for members in tight.clusters.values())
    assert rising.rising_clusters
    calls = []
    order = spec.depth_first_order
    monkeypatch.setattr(spec, "depth_first_order", lambda *args: calls.append(args) or order(*args))
    spec.solve(fallback, "ea", 10, seed=3)
    assert calls
