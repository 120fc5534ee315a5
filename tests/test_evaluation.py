from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from rvrp import (
    Instance,
    Solution,
    check_feasible,
    route_cost,
    solution_cost,
)
from rvrp import evaluation, generator
from rvrp.instance import OFFPEAK, PEAK, PEAK_END_S, PEAK_START_S, route_load, validate_instance
from rvrp.operators import random_solution

from conftest import make_tiny_instance, rising_loads
from spec import route_loads, route_timeline

TOL = 1e-6


def test_timeline_matches_hand_simulation(tiny_instance):
    # depart depot at 0 (off-peak, 3000), leave 1 at 3000 (off-peak, 5000),
    # leave 2 at 8000 -> inside the peak window (1000 * 1.3), leave 3 at 9300
    # still peak (2400 * 1.3); total 3000 + 5000 + 1300 + 3120 = 12420
    timeline = route_timeline([1, 2, 3], tiny_instance)
    assert [s.node for s in timeline.steps] == [0, 1, 2, 3]
    assert [s.matrix for s in timeline.steps] == [OFFPEAK, OFFPEAK, PEAK, PEAK]
    assert [s.departure_s for s in timeline.steps] == [0.0, 3000.0, 8000.0, 9300.0]
    assert timeline.total_cost_s == pytest.approx(12420.0, abs=TOL)
    assert timeline.end_time_s == pytest.approx(12420.0, abs=TOL)


@pytest.mark.parametrize("first_arc, expected", [(7199.0, OFFPEAK), (7200.0, PEAK)])
def test_peak_window_boundary_is_half_open(first_arc, expected):
    inst = make_tiny_instance(first_arc=first_arc)
    timeline = route_timeline([1, 2], inst)
    assert timeline.steps[1].matrix == expected


def test_route_before_window_all_offpeak(tiny_instance):
    timeline = route_timeline([3], tiny_instance)  # 2000 out, 2400 back
    assert all(s.matrix == OFFPEAK for s in timeline.steps)
    assert timeline.total_cost_s == pytest.approx(4400.0, abs=TOL)


def test_route_cost_agrees_with_timeline(tiny_instance):
    for route in ([1, 2, 3], [3, 1, 2], [2], [3, 2]):
        assert route_cost(route, tiny_instance) == route_timeline(route, tiny_instance).total_cost_s


def _listed_out_of_id_order(inst: Instance) -> Instance:
    """``inst``, which has no forbidden arc, with its customers listed in
    descending id order and every id k made 3k, so that no customer's id is
    its position; the matrices follow."""
    order = [0, *range(len(inst.nodes) - 1, 0, -1)]

    def permuted(matrix):
        return [[matrix[a][b] for b in order] for a in order]

    return Instance(
        name=f"{inst.name}_reordered",
        nodes=tuple(replace(inst.nodes[p], id=3 * inst.nodes[p].id) for p in order),
        capacity=inst.capacity,
        cost_offpeak=permuted(inst.cost_offpeak),
        cost_peak=permuted(inst.cost_peak),
    )


SMALL_61 = generator.small_instance(61, cluster_sizes=(5, 4, 3))
REORDERED_61 = _listed_out_of_id_order(SMALL_61)

PRICED_INSTANCES = [
    ("Osaba_50_1_1", None),
    ("Osaba_100_1", None),
    (None, generator.small_instance(21, cluster_sizes=(3, 3), forbidden_per_cluster=1)),
    (None, SMALL_61),
    (None, REORDERED_61),
]


@given(
    which=st.integers(0, len(PRICED_INSTANCES) - 1),
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(1, 40),
    day_start=st.one_of(
        st.integers(0, PEAK_START_S - 1),  # before the window
        st.sampled_from([PEAK_START_S, PEAK_END_S]),  # on either edge
        st.integers(PEAK_START_S + 1, PEAK_END_S - 1),  # inside
        st.integers(PEAK_END_S + 1, PEAK_END_S + 20000),  # after
    ),
    land_on=st.sampled_from([None, PEAK_START_S, PEAK_END_S]),
    zero_arcs=st.lists(st.integers(0, 40), max_size=6),
)
@settings(max_examples=300, deadline=None)
def test_route_cost_matches_timeline_bit_for_bit(
    benchmark_by_name, which, seed, length, day_start, land_on, zero_arcs
):
    # route_cost stops moving the clock once a departure is past the peak
    # window; the timeline always moves it, so their totals must agree to
    # the last bit wherever a route starts and however it crosses the window
    name, inst = PRICED_INSTANCES[which]
    inst = inst or benchmark_by_name[name]
    customers = np.random.default_rng(seed).permutation(inst.customers)
    route = [int(c) for c in customers[:length]]
    arcs = list(zip([0, *route], [*route, 0]))
    off = [row[:] for row in inst.cost_offpeak]
    peak = [row[:] for row in inst.cost_peak]

    def set_cost(arc, cost):
        i, j = inst.index[arc[0]], inst.index[arc[1]]
        off[i][j] = peak[i][j] = cost

    for k in zero_arcs:
        set_cost(arcs[k % len(arcs)], 0.0)
    if land_on is not None and day_start < land_on:
        set_cost(arcs[0], float(land_on - day_start))  # the second departure is on the edge
    priced = Instance(
        name=inst.name,
        nodes=inst.nodes,
        capacity=inst.capacity,
        cost_offpeak=off,
        cost_peak=peak,
        day_start_s=day_start,
    )
    timeline = route_timeline(route, priced)
    assert route_cost(route, priced).hex() == timeline.total_cost_s.hex()
    departures = [step.departure_s for step in timeline.steps]
    if departures[-1] >= PEAK_END_S:
        event("past the window" if departures[0] < PEAK_END_S else "starts past the window")
    if PEAK_START_S in departures or PEAK_END_S in departures:
        event("departs on an edge")


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_listing_order_and_ids_do_not_change_a_price(seed):
    # route_cost and the spec's timeline both look ids up in the instance, so
    # their agreement cannot show it; the relabelled, reordered copy must price every route
    # of the original as the original does
    assert validate_instance(REORDERED_61).feasible
    sol = random_solution(SMALL_61, np.random.default_rng(seed))
    for route in sol.routes:
        twin = [3 * c for c in route]
        expected = route_cost(route, SMALL_61).hex()
        assert route_cost(twin, REORDERED_61).hex() == expected
        assert route_timeline(twin, REORDERED_61).total_cost_s.hex() == expected


def test_departure_times_strictly_increase(benchmark_by_name):
    inst = benchmark_by_name["Osaba_50_1_1"]
    sol = random_solution(inst, np.random.default_rng(0))
    for route in sol.routes:
        times = [s.departure_s for s in route_timeline(route, inst).steps]
        assert all(b > a for a, b in zip(times, times[1:]))


def test_solution_cost_invariant_under_route_reordering(tiny_instance):
    a = Solution.from_routes([[1, 2], [3]])
    b = Solution.from_routes([[3], [1, 2]])
    assert solution_cost(a, tiny_instance) == pytest.approx(
        solution_cost(b, tiny_instance), abs=TOL
    )


def test_identical_matrices_make_window_irrelevant(tiny_instance):
    degenerate = type(tiny_instance)(
        name="flat",
        nodes=tiny_instance.nodes,
        capacity=tiny_instance.capacity,
        cost_offpeak=tiny_instance.cost_offpeak,
        cost_peak=tiny_instance.cost_offpeak,
    )
    plain = sum(
        degenerate.cost_offpeak[i][j]  # the tiny instance's ids are its matrix indices
        for i, j in [(0, 1), (1, 2), (2, 3), (3, 0)]
    )
    assert route_cost([1, 2, 3], degenerate) == pytest.approx(plain, abs=TOL)


def test_unknown_node_rejected(tiny_instance):
    # ids index a list: a negative id must not wrap, nor a large or a
    # fractional one escape as another error
    for node_id in (9, -1, 10**6, 1.5):
        with pytest.raises(ValueError):
            route_timeline([1, node_id], tiny_instance)
        with pytest.raises(ValueError):
            tiny_instance.node(node_id)


def test_load_profile_hand_simulation(tiny_instance):
    # leaves the depot with 10 + 10 + 5, then -10+5, -10+0, -5+3: the net
    # change ends at -17 and never rises above 0, so the peak load is 25
    assert route_loads([1, 2, 3], tiny_instance) == [25, 20, 10, 8]
    assert route_load([1, 2, 3], tiny_instance) == (25, -17, 0)


def test_load_profile_boundary_at_capacity():
    inst = generator.small_instance(60, cluster_sizes=(2, 2))
    # a route carrying exactly the capacity is feasible
    label = sorted(inst.clusters)[0]
    route = list(inst.clusters[label])
    exact = type(inst)(
        name="exact",
        nodes=inst.nodes,
        capacity=route_loads(route, inst)[0],
        cost_offpeak=inst.cost_offpeak,
        cost_peak=inst.cost_peak,
    )
    report = check_feasible(
        Solution.from_routes([route, list(exact.clusters[sorted(exact.clusters)[1]])]), exact
    )
    assert "capacity-exceeded" not in report.violation_tags


def test_zero_pickup_route_is_monotone(tiny_instance):
    profile = route_loads([2], tiny_instance)  # pickup 0
    assert profile[1:] == [0]
    assert profile[0] >= profile[1]
    assert route_load([2], tiny_instance) == (10, -10, 0)


def test_check_feasible_flags_cluster_split():
    inst = generator.small_instance(61, cluster_sizes=(3, 3), capacity=1000)
    a = list(inst.clusters[1])
    b = list(inst.clusters[2])
    split = Solution.from_routes([[a[0]] + b, a[1:]])
    tags = check_feasible(split, inst).violation_tags
    assert "cluster-split" in tags


def test_check_feasible_flags_noncontiguous_cluster():
    inst = generator.small_instance(62, cluster_sizes=(3, 3), capacity=1000)
    a = list(inst.clusters[1])
    b = list(inst.clusters[2])
    sandwich = Solution.from_routes([[a[0], b[0], a[1], a[2], b[1], b[2]]])
    tags = check_feasible(sandwich, inst).violation_tags
    assert "cluster-noncontiguous" in tags


def test_check_feasible_flags_forbidden_arc():
    inst = generator.small_instance(63, cluster_sizes=(4, 4), forbidden_per_cluster=3)
    i, j = sorted(inst.forbidden)[0]
    label = inst.cluster_of[i]
    others = [c for c in inst.clusters[label] if c not in (i, j)]
    bad_route = [i, j] + others
    rest = [list(inst.clusters[lab]) for lab in sorted(inst.clusters) if lab != label]
    report = check_feasible(Solution.from_routes([bad_route] + rest), inst)
    assert any(v.name == "forbidden-arc-used" and f"({i},{j})" in v.detail for v in report.violations)


def test_check_feasible_flags_visit_count(tiny_instance):
    report = check_feasible(Solution.from_routes([[1, 2, 2]]), tiny_instance)
    assert "visit-count" in report.violation_tags
    assert not report.feasible


def test_check_feasible_flags_capacity():
    inst = generator.small_instance(64, cluster_sizes=(3, 3), capacity=100)
    merged = list(inst.clusters[1]) + list(inst.clusters[2])
    squeezed = type(inst)(
        name="squeezed",
        nodes=inst.nodes,
        capacity=route_loads(merged, inst)[0] - 1,
        cost_offpeak=inst.cost_offpeak,
        cost_peak=inst.cost_peak,
    )
    report = check_feasible(Solution.from_routes([merged]), squeezed)
    assert "capacity-exceeded" in report.violation_tags


@pytest.mark.parametrize(
    "rising, capacity, routes, named",
    [
        # loads [25, 20, 10, 8]: two positions are over, the route is named once
        (False, 19, [[1, 2, 3]], [("capacity-exceeded", "route 0 peak load 25")]),
        # route 0 carries 5; route 1 leaves the depot with 20
        (
            False,
            19,
            [[3], [1, 2]],
            [("cluster-split", "cluster 1 in routes 0 and 1"), ("capacity-exceeded", "route 1 peak load 20")],
        ),
        # pickups 17/0/12 against deliveries 10/10/5: loads [25, 32, 22, 29]
        (True, 30, [[1, 2, 3]], [("capacity-exceeded", "route 0 peak load 32")]),
    ],
    ids=["one-route", "only-route-1", "peak-en-route"],
)
def test_check_feasible_names_each_overloaded_route(tiny_instance, rising, capacity, routes, named):
    inst = replace(rising_loads(tiny_instance) if rising else tiny_instance, capacity=capacity)
    report = check_feasible(Solution.from_routes(routes), inst)
    assert [(v.name, v.detail) for v in report.violations] == named


@pytest.mark.parametrize(
    "routes, named",
    [
        ([[1, 9, 2], [3, 0]], [("unknown-customer", "0"), ("unknown-customer", "9")]),
        ([[1, 2], [], [3]], [("empty-route", "route 1")]),
        ([[], [3, -4, 1, 2]], [("unknown-customer", "-4"), ("empty-route", "route 0")]),
    ],
    ids=["unknown-customer", "empty-route", "both"],
)
def test_check_feasible_prices_no_route_it_cannot_simulate(tiny_instance, routes, named):
    # an unknown id (the depot among them) or an empty route is reported
    # alone: no other check runs
    report = check_feasible(Solution.from_routes(routes), tiny_instance)
    assert [(v.name, v.detail) for v in report.violations] == named
    assert report.feasible is False


def test_check_feasible_prices_no_route(tiny_instance, monkeypatch):
    # the same findings with a route_cost that refuses every call: on a
    # feasible solution, on infeasible ones and on the early-return cases
    squeezed = replace(tiny_instance, capacity=19)
    cases = [
        (tiny_instance, [[1, 2, 3]]),
        (squeezed, [[1, 2, 3]]),
        (tiny_instance, [[1, 2, 2]]),
        (tiny_instance, [[1, 9, 2], [3, 0]]),
        (tiny_instance, [[1, 2], [], [3]]),
    ]

    def findings():
        return [check_feasible(Solution.from_routes(routes), inst).violations for inst, routes in cases]

    expected = findings()
    assert [not violations for violations in expected] == [True, False, False, False, False]

    def refuse(route, inst):
        raise AssertionError("check_feasible priced a route")

    monkeypatch.setattr(evaluation, "route_cost", refuse)
    assert findings() == expected


def test_day_end_warning_counts_from_the_day_start(tiny_instance):
    # an instance has no working day, so nothing bounds when a route ends.
    # From a 5000 s day start the route costs 12900 s, ends at 17900 s and
    # is feasible
    late = replace(tiny_instance, day_start_s=5000)
    assert check_feasible(Solution.from_routes([[1, 2, 3]]), late).feasible
    assert route_timeline([1, 2, 3], late).end_time_s == 17900.0


def test_long_route_warns_but_stays_feasible(tiny_instance):
    # at ten times the costs the route runs ten times as long; no working
    # day bounds it, so it stays feasible
    stretched = type(tiny_instance)(
        name="slow",
        nodes=tiny_instance.nodes,
        capacity=tiny_instance.capacity,
        cost_offpeak=[[c * 10 for c in row] for row in tiny_instance.cost_offpeak],
        cost_peak=[[c * 10 for c in row] for row in tiny_instance.cost_peak],
    )
    assert check_feasible(Solution.from_routes([[1, 2, 3]]), stretched).feasible


def test_feasible_report_for_random_solutions(oracle_instances):
    rng = np.random.default_rng(123)
    for inst in oracle_instances:
        for _ in range(25):
            sol = random_solution(inst, rng)
            report = check_feasible(sol, inst)
            assert report.feasible, report.violation_tags
            # independent prefix-sum oracle for the load profile
            for route in sol.routes:
                d = np.array([inst.delivery[c] for c in route])
                p = np.array([inst.node(c).pickup for c in route])
                loads = d.sum() - np.cumsum(d) + np.cumsum(p)
                assert max(d.sum(), loads.max()) <= inst.capacity
