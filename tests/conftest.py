"""Shared fixtures: a hand-checkable 3-customer instance, the five small
oracle instances used for exhaustive-enumeration tests, and one generated
benchmark suite."""

from __future__ import annotations

import itertools
from typing import Collection

import pytest

from rvrp import Instance, Node, Solution, check_feasible, solution_cost
from rvrp import generator

SUITE_SEED = 7

# (seed, cluster sizes, forbidden arcs per cluster) of the enumeration oracle
# instances; all are 6-customer, 2-cluster problems whose capacity forces one
# cluster per route, so the feasible space stays exhaustively enumerable.
ORACLE_CASES = [
    (25, (2, 4), 1),
    (27, (4, 2), 1),
    (21, (3, 3), 1),
    (30, (3, 3), 1),
    (32, (4, 2), 1),
]


def make_tiny_instance(first_arc: float = 3000.0) -> Instance:
    """Depot plus customers 1..3 in one cluster with explicit matrices.

    Off-peak costs are hand-picked; the peak matrix is exactly 1.3x off-peak.
    With the default first arc the route [1, 2, 3] crosses into the peak
    window between customers 2 and 3.
    """
    nodes = (
        Node(0, 0.0, 0.0, 0, 0, 0),
        Node(1, 1.0, 0.0, 10, 5, 1),
        Node(2, 2.0, 0.0, 10, 0, 1),
        Node(3, 3.0, 0.0, 5, 3, 1),
    )
    off = [
        [0.0, first_arc, 5000.0, 2000.0],
        [3600.0, 0.0, 5000.0, 7000.0],
        [4000.0, 6000.0, 0.0, 1000.0],
        [2400.0, 8400.0, 800.0, 0.0],
    ]
    peak = [[c * 1.3 for c in row] for row in off]
    return Instance(
        name="tiny",
        nodes=nodes,
        capacity=100,
        cost_offpeak=off,
        cost_peak=peak,
    )


def rising_loads(inst: Instance, labels: Collection[int] | None = None) -> Instance:
    """``inst`` with pickups 7 above deliveries at every odd customer (of the
    clusters in ``labels``, or of all), so that a route's load rises en route
    and can fail at a later peak (generated instances never pick up more
    than they deliver)."""
    data = inst.to_dict()
    for node in data["nodes"][1:]:
        if node["id"] % 2 and (labels is None or node["cluster"] in labels):
            node["pickup"] = node["delivery"] + 7
    return Instance.from_dict(data)


def make_joint_infeasible_instance() -> Instance:
    """The tiny instance with deliveries 5/5/1, pickups 0/0/9, capacity 11 and
    arcs (1,3) and (2,3) forbidden: customer 3 must come first to avoid them,
    and then its pickup overflows the vehicle."""
    tiny = make_tiny_instance()
    demands = {1: (5, 0), 2: (5, 0), 3: (1, 9)}
    nodes = tuple(
        Node(n.id, n.x, n.y, *demands[n.id], n.cluster) if n.id else n for n in tiny.nodes
    )
    return Instance(
        name="joint",
        nodes=nodes,
        capacity=11,
        cost_offpeak=tiny.cost_offpeak,
        cost_peak=tiny.cost_peak,
        forbidden=frozenset({(1, 3), (2, 3)}),
    )


def enumerate_two_cluster_optimum(inst: Instance) -> tuple[Solution, float, int]:
    """Exhaustive oracle over a 2-cluster instance: every intra-cluster order
    in every route structure. Returns (best, best_cost, feasible_count)."""
    labels = sorted(inst.clusters)
    assert len(labels) == 2
    a_orders = [list(p) for p in itertools.permutations(inst.clusters[labels[0]])]
    b_orders = [list(p) for p in itertools.permutations(inst.clusters[labels[1]])]
    best, best_cost, feasible = None, float("inf"), 0
    for ao in a_orders:
        for bo in b_orders:
            for routes in ([ao + bo], [bo + ao], [ao, bo]):
                sol = Solution.from_routes(routes)
                if check_feasible(sol, inst).feasible:
                    feasible += 1
                    cost = solution_cost(sol, inst)
                    if cost < best_cost:
                        best, best_cost = sol, cost
    assert best is not None
    return best, best_cost, feasible


@pytest.fixture
def tiny_instance() -> Instance:
    return make_tiny_instance()


@pytest.fixture(scope="session")
def oracle_instances() -> list[Instance]:
    return [
        generator.small_instance(seed, cluster_sizes=sizes, forbidden_per_cluster=fpc)
        for seed, sizes, fpc in ORACLE_CASES
    ]


@pytest.fixture(scope="session")
def benchmark_suite() -> list[Instance]:
    return generator.generate_suite(SUITE_SEED)


@pytest.fixture(scope="session")
def benchmark_by_name(benchmark_suite) -> dict[str, Instance]:
    return {inst.name: inst for inst in benchmark_suite}
