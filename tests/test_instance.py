import dataclasses
import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvrp import (
    DecodeError,
    Instance,
    Node,
    Solution,
    decode,
    encode,
    validate_instance,
)
from rvrp import generator
from rvrp.evaluation import load_profile
from rvrp.instance import (
    EMPTY_LOAD,
    ORDER_TABLE_MAX_MEMBERS,
    cluster_order,
    free_orders,
    round_costs,
    route_load_ok,
)
from rvrp.operators import InfeasibleClusterError, random_solution

from conftest import make_joint_infeasible_instance, make_tiny_instance

def test_encode_two_routes():
    sol = Solution.from_routes([[1, 2, 3], [4, 5]])
    assert encode(sol) == [1, 2, 3, 0, 4, 5]


def test_encode_single_route_has_no_separator():
    assert encode(Solution.from_routes([[7]])) == [7]


def test_decode_inverse_of_encode(tiny_instance):
    sol = decode([1, 2, 0, 3], tiny_instance)
    assert sol.routes == ((1, 2), (3,))


@pytest.mark.parametrize(
    "flat, reason",
    [
        ([1, 2, 0, 0, 3], "non-canonical-separator"),
        ([0, 1, 2, 3], "non-canonical-separator"),
        ([1, 2, 3, 0], "non-canonical-separator"),
        ([1, 2, 2, 0, 3], "duplicate-customer"),
        ([1, 2], "missing-customer"),
        ([1, 2, 3, 9], "unknown-customer"),
        ([], "non-canonical-separator"),
    ],
)
def test_decode_rejects_invalid_forms(tiny_instance, flat, reason):
    with pytest.raises(DecodeError) as exc:
        decode(flat, tiny_instance)
    assert exc.value.reason == reason


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_encode_decode_round_trip(data):
    inst = generator.small_instance(33, cluster_sizes=(3, 3), forbidden_per_cluster=0)
    seed = data.draw(st.integers(min_value=0, max_value=2**31))
    sol = random_solution(inst, np.random.default_rng(seed))
    assert decode(encode(sol), inst) == sol


def test_separator_count_matches_routes(oracle_instances):
    rng = np.random.default_rng(3)
    for inst in oracle_instances:
        sol = random_solution(inst, rng)
        assert encode(sol).count(0) == sol.vehicles - 1


def test_id_lookups_hold_every_node_and_forbidden_arc(benchmark_by_name):
    # Osaba_50_2_4's ids run to 100 over 51 nodes, not in step with positions
    inst = benchmark_by_name["Osaba_50_2_4"]
    assert [inst.index[node.id] for node in inst.nodes] == list(range(len(inst.nodes)))
    assert len(inst.index) == 101 and inst.index.count(None) == 101 - len(inst.nodes)
    after = inst.forbidden_after
    assert {(i, j) for i, ids in enumerate(after) for j in ids} == inst.forbidden
    assert len(after) == len(inst.index) and len({id(ids) for ids in after if not ids}) == 1


def test_validate_accepts_tiny(tiny_instance):
    assert validate_instance(tiny_instance).ok


def test_validate_rejects_cross_cluster_forbidden_arc():
    inst = generator.small_instance(40, cluster_sizes=(3, 3))
    members_a = inst.clusters[1]
    members_b = inst.clusters[2]
    broken = Instance(
        name="broken",
        nodes=inst.nodes,
        capacity=inst.capacity,
        cost_offpeak=inst.cost_offpeak,
        cost_peak=inst.cost_peak,
        forbidden=frozenset({(members_a[0], members_b[0])}),
    )
    report = validate_instance(broken)
    assert "forbidden-arc-crosses-clusters" in report.names


def test_validate_rejects_depot_forbidden_arc(tiny_instance):
    broken = Instance(
        name="broken",
        nodes=tiny_instance.nodes,
        capacity=tiny_instance.capacity,
        cost_offpeak=tiny_instance.cost_offpeak,
        cost_peak=tiny_instance.cost_peak,
        forbidden=frozenset({(0, 1)}),
    )
    assert "forbidden-arc-touches-depot" in validate_instance(broken).names


def test_validate_rejects_symmetric_matrix(tiny_instance):
    symmetric = [[1.0 * (i != j) for j in range(4)] for i in range(4)]
    broken = Instance(
        name="broken",
        nodes=tiny_instance.nodes,
        capacity=tiny_instance.capacity,
        cost_offpeak=symmetric,
        cost_peak=tiny_instance.cost_peak,
    )
    assert "asymmetry-violated" in validate_instance(broken).names


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_validate_rejects_non_finite_cost(tiny_instance, bad):
    off = [list(row) for row in tiny_instance.cost_offpeak]
    off[2][1] = bad
    broken = Instance(
        name="broken",
        nodes=tiny_instance.nodes,
        capacity=tiny_instance.capacity,
        cost_offpeak=off,
        cost_peak=tiny_instance.cost_peak,
    )
    report = validate_instance(broken)
    assert report.names == ["non-finite-cost"]
    assert report.violations[0].detail == "offpeak[2][1]"


def test_validate_rejects_all_nan_instance(tiny_instance):
    nan = [[float("nan")] * 4 for _ in range(4)]
    broken = Instance(
        name="broken",
        nodes=tiny_instance.nodes,
        capacity=tiny_instance.capacity,
        cost_offpeak=nan,
        cost_peak=nan,
    )
    report = validate_instance(broken)
    assert not report.ok
    # one issue per matrix, with the count and the first entry
    assert report.names == ["non-finite-cost"] * 2
    assert [v.detail for v in report.violations] == [
        "16 entries, first offpeak[0][0]",
        "16 entries, first peak[0][0]",
    ]


@pytest.mark.parametrize(
    "window, names",
    [
        ((14400, 7200), ["peak-window-invalid"]),
        ((7200, 7200), ["peak-window-invalid"]),
        ((-1, 7200), ["peak-window-invalid"]),
        ((7200, 32401), ["peak-window-invalid"]),
        ((40000, 50000), ["peak-window-invalid"]),
        ((0, 32400), []),  # the whole day is a valid window
    ],
)
def test_validate_rejects_invalid_peak_window(tiny_instance, window, names):
    broken = Instance(
        name="broken",
        nodes=tiny_instance.nodes,
        capacity=tiny_instance.capacity,
        cost_offpeak=tiny_instance.cost_offpeak,
        cost_peak=tiny_instance.cost_peak,
        peak_window_s=window,
    )
    assert validate_instance(broken).names == names


def test_validate_rejects_blocked_cluster(tiny_instance):
    # forbid every arc between the three customers: no visiting order remains
    arcs = {(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j}
    broken = Instance(
        name="broken",
        nodes=tiny_instance.nodes,
        capacity=tiny_instance.capacity,
        cost_offpeak=tiny_instance.cost_offpeak,
        cost_peak=tiny_instance.cost_peak,
        forbidden=frozenset(arcs),
    )
    assert "cluster-path-infeasible" in validate_instance(broken).names


def test_validate_rejects_undersized_capacity(tiny_instance):
    broken = Instance(
        name="broken",
        nodes=tiny_instance.nodes,
        capacity=10,
        cost_offpeak=tiny_instance.cost_offpeak,
        cost_peak=tiny_instance.cost_peak,
    )
    assert "cluster-load-exceeds-capacity" in validate_instance(broken).names


def test_validate_rejects_cluster_whose_rules_admit_no_common_order():
    inst = make_joint_infeasible_instance()
    members = inst.clusters[1]
    # each rule alone admits an order, so only the joint check can flag it
    assert cluster_order(members, inst.forbidden) is not None
    assert route_load_ok((1, 2, 3), inst) is not None
    assert validate_instance(inst).names == ["cluster-order-infeasible"]
    with pytest.raises(InfeasibleClusterError):
        random_solution(inst, np.random.default_rng(0))


@pytest.mark.parametrize("capacity", [0, -5])
def test_validate_rejects_non_positive_capacity(tiny_instance, capacity):
    broken = Instance(
        name="broken",
        nodes=tiny_instance.nodes,
        capacity=capacity,
        cost_offpeak=tiny_instance.cost_offpeak,
        cost_peak=tiny_instance.cost_peak,
    )
    report = validate_instance(broken)
    assert report.names == ["capacity-invalid"]
    assert report.violations[0].detail == str(capacity)


def test_validate_reports_one_issue_per_matrix_and_name(tiny_instance):
    off = [row[:] for row in tiny_instance.cost_offpeak]
    off[1][2] = off[1][3] = -1.0
    off[2][1] = off[1][2]  # also makes the pair (1, 2) symmetric
    broken = Instance(
        name="broken",
        nodes=tiny_instance.nodes,
        capacity=tiny_instance.capacity,
        cost_offpeak=off,
        cost_peak=tiny_instance.cost_peak,
    )
    report = validate_instance(broken)
    assert report.names == ["negative-cost", "asymmetry-violated"]
    assert [v.detail for v in report.violations] == [
        "3 entries, first offpeak[1][2]",
        "offpeak arc (1,2)",
    ]


def test_validate_rejects_bad_depot_demands():
    nodes = (
        Node(0, 0.0, 0.0, 3, 0, 0),
        Node(1, 1.0, 0.0, 10, 5, 1),
    )
    off = [[0.0, 10.0], [12.0, 0.0]]
    peak = [[0.0, 13.0], [15.0, 0.0]]
    broken = Instance(name="broken", nodes=nodes, capacity=50, cost_offpeak=off, cost_peak=peak)
    assert "depot-invalid" in validate_instance(broken).names


def test_json_round_trip(tmp_path, tiny_instance):
    path = tiny_instance.save(tmp_path / "tiny.json")
    loaded = Instance.load(path)
    assert loaded.name == tiny_instance.name
    assert loaded.nodes == tiny_instance.nodes
    assert loaded.capacity == tiny_instance.capacity
    assert loaded.forbidden == tiny_instance.forbidden
    assert loaded.peak_window_s == (7200, 14400)
    # costs come back rounded to two decimals
    assert loaded.cost_offpeak[0][1] == round(tiny_instance.cost_offpeak[0][1], 2)


def _round_exactly(value) -> tuple:
    """What ``round(c, 2)`` must reproduce: type, and every bit of a float
    (``float.hex`` tells the sign of zero and spells NaN)."""
    return (type(value), value.hex() if isinstance(value, float) else value)


NEAR_HALF = st.builds(
    lambda k, step: math.nextafter((k + 0.5) / 100, math.inf * step) if step else (k + 0.5) / 100,
    st.integers(-(10**9), 10**9),
    st.sampled_from([-1, 0, 1]),
)
HARD_COSTS = st.sampled_from(
    [2.675, 1.005, 0.125, -0.001, -0.0, 2**52 / 100, math.nextafter(2**52 / 100, math.inf),
     2**53 / 100, 1e300, math.nan, math.inf, -math.inf]
)
COSTS = st.floats(allow_nan=True, allow_infinity=True) | NEAR_HALF | HARD_COSTS


@given(
    st.integers(0, 6).flatmap(
        lambda width: st.lists(st.lists(COSTS, min_size=width, max_size=width), max_size=6)
    )
    | st.lists(st.lists(COSTS | st.integers(-(10**6), 10**6), max_size=5), max_size=5)
)
@settings(max_examples=300, deadline=None)
def test_round_costs_is_round_bit_for_bit(matrix):
    # rectangular float matrices take the numpy path; ragged and int-valued
    # ones must fall back, keeping round's int result for an int
    expected = [[_round_exactly(round(c, 2)) for c in row] for row in matrix]
    assert [[_round_exactly(c) for c in row] for row in round_costs(matrix)] == expected


def test_json_recomputes_missing_matrices(tmp_path):
    inst = generator.small_instance(50, cluster_sizes=(3, 3))
    data = inst.to_dict()
    del data["cost_offpeak"]
    del data["cost_peak"]
    rebuilt = Instance.from_dict(data)
    # full-precision regeneration from coordinates, not the rounded file values
    assert rebuilt.cost_offpeak[0][1] == pytest.approx(inst.cost_offpeak[0][1], abs=1e-9)
    assert validate_instance(rebuilt).ok


def test_save_is_deterministic(tmp_path):
    inst = generator.small_instance(51, cluster_sizes=(3, 3))
    a = inst.save(tmp_path / "a.json").read_bytes()
    b = inst.save(tmp_path / "b.json").read_bytes()
    assert a == b


@given(st.lists(st.integers(min_value=-3, max_value=12), max_size=12))
@settings(max_examples=200, deadline=None)
def test_decode_never_crashes_with_other_errors(flat):
    inst = make_tiny_instance()
    try:
        sol = decode(flat, inst)
    except DecodeError:
        return
    assert decode(encode(sol), inst) == sol


def test_matrix_recompute_preserves_parity_on_derived_instance(benchmark_by_name):
    # Osaba_50_2_1 keeps original ids 11..20, 31..40, ...: the odd/even cost
    # rules must key on those ids when matrices are rebuilt from coordinates
    inst = benchmark_by_name["Osaba_50_2_1"]
    data = inst.to_dict()
    del data["cost_offpeak"]
    del data["cost_peak"]
    rebuilt = Instance.from_dict(data)
    for a in (0, 1, 7, 25):
        for b in (3, 12, 40):
            assert rebuilt.cost_offpeak[a][b] == pytest.approx(
                inst.cost_offpeak[a][b], rel=1e-12
            )
            assert rebuilt.cost_peak[a][b] == pytest.approx(inst.cost_peak[a][b], rel=1e-12)


LOAD_NODES = generator.small_instance(83, cluster_sizes=(3, 3, 2)).nodes


@given(
    seed=st.integers(0, 2**32 - 1),
    capacity=st.integers(1, 400),
    cuts=st.lists(st.integers(0, 8), max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_route_load_ok_chains_summaries_exactly(seed, capacity, cuts):
    # reference verdict: the per-position load simulation of check_feasible;
    # checking the pieces of a route one after another from the previous
    # piece's summary must give the verdict and summary of the whole route
    inst = Instance(
        name="load",
        nodes=LOAD_NODES,
        capacity=capacity,
        cost_offpeak=[[1.0] * len(LOAD_NODES)] * len(LOAD_NODES),
        cost_peak=[[2.0] * len(LOAD_NODES)] * len(LOAD_NODES),
    )
    route = [int(c) for c in np.random.default_rng(seed).permutation(inst.customers)]
    fits = max(load_profile(route, inst)) <= capacity
    whole = route_load_ok(route, inst)
    assert (whole is not None) == fits
    summary, start = EMPTY_LOAD, 0
    for cut in sorted(cuts) + [len(route)]:
        summary = route_load_ok(route[start:cut], inst, summary)
        if summary is None:
            break
        start = cut
    assert summary == whole


def _with_rising_loads(inst):
    """``inst`` with pickups above deliveries at its odd customers, so that
    orders reach load peaks above 0."""
    data = inst.to_dict()
    for node in data["nodes"][1:]:
        if node["id"] % 2:
            node["pickup"] = node["delivery"] + 7
    return Instance.from_dict(data)


def _rising(inst, members):
    return any(inst.node(c).pickup > inst.delivery[c] for c in members)


TIGHT_90 = generator.small_instance(90, cluster_sizes=(4, 5, 6), forbidden_per_cluster=9)
RISING_90 = _with_rising_loads(TIGHT_90)
TABLE_INSTANCES = [
    TIGHT_90,
    RISING_90,
    generator.small_instance(86, cluster_sizes=(5, 6, 4), forbidden_per_cluster=8),
    _with_rising_loads(generator.small_instance(84, cluster_sizes=(1, 5, 3), capacity=60)),
    # cluster 1 keeps exactly 3 of its 24 orders free, the tight share: not tight
    dataclasses.replace(
        generator.small_instance(90, cluster_sizes=(4, 3)),
        forbidden={(1, 2), (1, 3), (1, 4), (2, 1), (3, 2)},
    ),
]


def test_free_order_mask_marks_exactly_the_forbidden_free_orders_of_a_tight_cluster(
    benchmark_by_name,
):
    osaba_50 = [inst for name, inst in benchmark_by_name.items() if name.startswith("Osaba_50")]
    assert all(_rising(RISING_90, members) for members in RISING_90.clusters.values())
    for inst in TABLE_INSTANCES + osaba_50:
        for members in inst.clusters.values():
            m = len(members)
            masks = free_orders(members, inst), inst.tight_orders[members]
            if m > ORDER_TABLE_MAX_MEMBERS or _rising(inst, members):
                assert masks == (None, None)
                continue
            expected = [False] * m**m
            free = 0
            for positions in permutations(range(m)):
                order = [members[p] for p in positions]
                if inst.forbidden.isdisjoint(zip(order, order[1:])):
                    code = sum(p * m ** (m - 1 - i) for i, p in enumerate(positions))
                    expected[code] = True
                    free += 1
            for mask in masks:
                if free < math.factorial(m) / 8:
                    assert mask.dtype == bool and mask.tolist() == expected
                else:
                    assert mask is None


def test_tight_clusters_of_the_suite_are_those_of_the_two_tight_instances(benchmark_suite):
    for inst in benchmark_suite:
        tight = [inst.tight_orders[members] is not None for members in inst.clusters.values()]
        assert tight == [inst.name in ("Osaba_50_1_4", "Osaba_50_2_4")] * len(tight)
    assert all(TIGHT_90.tight_orders[members] is not None for members in TIGHT_90.clusters.values())
