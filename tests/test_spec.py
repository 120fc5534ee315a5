"""``rvrp.solve`` against the executable specification (``spec.py``): the
same evaluation count, best cost to the bit, cost history and best solution,
for each search with cluster relocation off and on, on five fixed instances
and on drawn ones."""

import dataclasses
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rvrp import Instance, Solution, SolverConfig, encode, generator, operators, solve, validate_instance
from rvrp.instance import EMPTY_LOAD
from rvrp.solvers import ALGORITHMS

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


def _assert_solve_is_the_spec(
    inst: Instance, algorithm: str, population: int, seed: int, relocation: bool
) -> None:
    cfg = SolverConfig(algorithm, population, seed, enable_cluster_relocation=relocation)
    result = solve(inst, cfg)
    run = spec.solve(inst, algorithm, population, seed=seed, relocation=relocation)
    assert result.evaluations_total == run.evaluations
    assert repr(result.best_cost) == repr(run.best_cost)
    assert result.cost_history == run.history
    assert encode(result.best_solution) == encode(Solution.from_routes(run.best_routes))


@pytest.mark.parametrize("relocation", [False, True], ids=["insertion", "relocation"])
@pytest.mark.parametrize("algorithm", ["dfa", "ea", "esa"])
@pytest.mark.parametrize("name, population", CASES, ids=[name for name, _ in CASES])
def test_solve_is_the_spec(benchmark_by_name, name, population, algorithm, relocation):
    inst = SMALL.get(name) or benchmark_by_name[name]
    assert validate_instance(inst).feasible
    _assert_solve_is_the_spec(inst, algorithm, population, 3, relocation)


def test_the_small_instances_reach_the_branches_they_are_named_for(monkeypatch):
    fallback, tight, rising = SMALL.values()
    assert all(tight.tight_orders[label] is not None for label in tight.clusters)
    assert rising.rising_clusters
    calls = []
    order = spec.depth_first_order
    monkeypatch.setattr(spec, "depth_first_order", lambda *args: calls.append(args) or order(*args))
    spec.solve(fallback, "ea", 10, seed=3)
    assert calls


@st.composite
def drawn_runs(draw) -> tuple[Instance, str, int, int, bool]:
    """A small instance and the settings of one run on it. The capacity is
    the largest cluster's delivery sum plus 0-2, so loads meet it exactly
    and most blocks cannot join an open route; a 4-6-member cluster may get
    dense forbidden arcs, all but those of one drawn order, so it stays
    valid and is mostly tight; some clusters may pick up more than they
    deliver."""
    sizes = draw(st.lists(st.integers(1, 7), min_size=2, max_size=5))
    ids = iter(range(1, sum(sizes) + 1))  # small_instance's ids, cluster by cluster
    loads = [sum(generator.demand_for(next(ids))[0] for _ in range(m)) for m in sizes]
    capacity = max(loads) + draw(st.integers(0, 2))
    inst = generator.small_instance(draw(st.integers(0, 2**16)), cluster_sizes=sizes, capacity=capacity)
    forbidden = set()
    for members in inst.clusters.values():
        if 4 <= len(members) <= 6 and draw(st.booleans()):
            free = draw(st.permutations(members))
            arcs = [(a, b) for a in members for b in members if a != b and (a, b) not in zip(free, free[1:])]
            forbidden.update(draw(st.lists(st.sampled_from(arcs), min_size=len(arcs) // 2, unique=True)))
    inst = dataclasses.replace(inst, forbidden=frozenset(forbidden))
    rising = draw(st.lists(st.sampled_from(list(inst.clusters)), unique=True, max_size=2))
    if rising:
        inst = rising_loads(inst, rising)
    algorithm, population = draw(st.sampled_from(ALGORITHMS)), draw(st.integers(1, 10))
    return inst, algorithm, population, draw(st.integers(0, 2**16)), draw(st.booleans())


@given(drawn_runs())
@settings(max_examples=50, deadline=None, derandomize=True)
def test_solve_is_the_spec_on_drawn_instances(run):
    assume(validate_instance(run[0]).feasible)
    _assert_solve_is_the_spec(*run)


def test_the_drawn_instances_reach_the_branches_of_the_fixed_ones(monkeypatch):
    # the property's own examples (the same derandomized draws, with the
    # comparison replaced by a list), solved once by rvrp under wrappers that
    # note each branch: a tight cluster's free-order mask, a doomed block, the
    # depth-first fallback and an insertion's load check on a rising cluster
    runs = []
    monkeypatch.setitem(globals(), "_assert_solve_is_the_spec", lambda *run: runs.append(run))
    test_solve_is_the_spec_on_drawn_instances()
    reached = dict.fromkeys(["tight mask", "doomed block", "depth-first fallback", "rising check"], 0)
    shuffled_block, cluster_order, route_load_ok = (
        operators._shuffled_block, operators.cluster_order, operators.route_load_ok,
    )

    def noted_block(label, prefix, inst, rng):
        total, _, peak = prefix or EMPTY_LOAD
        if total + sum(map(inst.delivery.__getitem__, inst.clusters[label])) + peak > inst.capacity:
            reached["doomed block"] += 1
        elif inst.tight_orders[label] is not None:
            reached["tight mask"] += 1
        return shuffled_block(label, prefix, inst, rng)

    def noted_order(*args, **kwargs):
        reached["depth-first fallback"] += 1
        return cluster_order(*args, **kwargs)

    def noted_load(route, inst, *prefix):
        fits = route_load_ok(route, inst, *prefix)
        if fits is None and sys._getframe(1).f_code is operators._insertion.__code__:
            reached["rising check"] += 1  # a candidate that the check refused
        return fits

    monkeypatch.setattr(operators, "_shuffled_block", noted_block)
    monkeypatch.setattr(operators, "cluster_order", noted_order)
    monkeypatch.setattr(operators, "route_load_ok", noted_load)
    for inst, algorithm, population, seed, relocation in runs:
        solve(inst, SolverConfig(algorithm, population, seed, enable_cluster_relocation=relocation))
    assert len(runs) == 50 and all(reached.values()), reached
