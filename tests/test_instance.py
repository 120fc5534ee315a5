import dataclasses
import math
import tempfile
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from rvrp import (
    DecodeError,
    Instance,
    Node,
    Solution,
    check_feasible,
    decode,
    encode,
    validate_instance,
)
from rvrp import generator
from rvrp import instance as instance_module
from rvrp.instance import (
    EMPTY_LOAD,
    ORDER_TABLE_MAX_MEMBERS,
    cluster_order,
    free_orders,
    round_costs,
    route_load,
    route_load_ok,
)
from rvrp.operators import InfeasibleClusterError, random_solution

from conftest import SUITE_SEED, make_joint_infeasible_instance, make_tiny_instance, rising_loads
from spec import route_loads

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
        # an entry equal to an id is still not one
        ([1.9, 2, 0, 3], "non-integer-entry"),
        ([1, 2, 0, 3.0], "non-integer-entry"),
        ([1, 2, 0.0, 3], "non-integer-entry"),
        ([True, 2, 0, 3], "non-integer-entry"),
        ([1, 2, 0, "3"], "non-integer-entry"),
    ],
)
def test_decode_rejects_invalid_forms(tiny_instance, flat, reason):
    with pytest.raises(DecodeError) as exc:
        decode(flat, tiny_instance)
    assert exc.value.reason == reason


@pytest.mark.parametrize("flat", [5, None, "12", {1: 2}, range(1, 4), b"\x01\x02"])
def test_decode_rejects_an_encoding_that_is_not_an_array(tiny_instance, flat):
    # a string or a range iterates, but is no list of customer ids
    with pytest.raises(DecodeError) as exc:
        decode(flat, tiny_instance)
    assert exc.value.reason == "non-array-encoding"
    assert repr(flat) in str(exc.value)


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
    assert validate_instance(tiny_instance).feasible


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
    assert "forbidden-arc-crosses-clusters" in report.violation_tags


def test_validate_rejects_depot_forbidden_arc(tiny_instance):
    broken = Instance(
        name="broken",
        nodes=tiny_instance.nodes,
        capacity=tiny_instance.capacity,
        cost_offpeak=tiny_instance.cost_offpeak,
        cost_peak=tiny_instance.cost_peak,
        forbidden=frozenset({(0, 1)}),
    )
    assert "forbidden-arc-touches-depot" in validate_instance(broken).violation_tags


def test_validate_rejects_symmetric_matrix(tiny_instance):
    symmetric = [[1.0 * (i != j) for j in range(4)] for i in range(4)]
    broken = Instance(
        name="broken",
        nodes=tiny_instance.nodes,
        capacity=tiny_instance.capacity,
        cost_offpeak=symmetric,
        cost_peak=tiny_instance.cost_peak,
    )
    assert "asymmetry-violated" in validate_instance(broken).violation_tags


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
    assert report.violation_tags == ["non-finite-cost"]
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
    assert not report.feasible
    # one issue per matrix, with the count and the first entry
    assert report.violation_tags == ["non-finite-cost"] * 2
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
        # no working day bounds the window from above
        ((7200, 32401), []),
        ((40000, 50000), []),
        ((0, 32400), []),
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
    assert validate_instance(broken).violation_tags == names


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
    assert "cluster-path-infeasible" in validate_instance(broken).violation_tags


def test_validate_rejects_undersized_capacity(tiny_instance):
    broken = Instance(
        name="broken",
        nodes=tiny_instance.nodes,
        capacity=10,
        cost_offpeak=tiny_instance.cost_offpeak,
        cost_peak=tiny_instance.cost_peak,
    )
    assert "cluster-load-exceeds-capacity" in validate_instance(broken).violation_tags


def test_validate_rejects_cluster_whose_rules_admit_no_common_order():
    inst = make_joint_infeasible_instance()
    members = inst.clusters[1]
    # each rule alone admits an order, so only the joint check can flag it
    assert cluster_order(members, inst.forbidden) is not None
    assert route_load_ok((1, 2, 3), inst) is not None
    assert validate_instance(inst).violation_tags == ["cluster-order-infeasible"]
    with pytest.raises(InfeasibleClusterError):
        random_solution(inst, np.random.default_rng(0))


def _brute_force_cluster_findings(inst: Instance) -> list[tuple[str, str]]:
    """The cluster findings by enumeration: each cluster's orders, each
    tested for a forbidden arc and walked by the spec's load simulation."""
    findings = []
    for label, members in inst.clusters.items():
        orders = list(permutations(members))
        free = [all(arc not in inst.forbidden for arc in zip(o, o[1:])) for o in orders]
        fits = [max(route_loads(o, inst)) <= inst.capacity for o in orders]
        if not any(free):
            findings.append(("cluster-path-infeasible", f"cluster {label}"))
        if not any(fits):
            findings.append(("cluster-load-exceeds-capacity", f"cluster {label}"))
        elif any(free) and not any(map(all, zip(free, fits))):
            findings.append(("cluster-order-infeasible", f"cluster {label}"))
    return findings


@given(
    seed=st.integers(0, 2**16),
    sizes=st.lists(st.integers(1, 6), min_size=1, max_size=3),
    arc_share=st.sampled_from([0.3, 0.5, 0.7, 0.9]),
    slack=st.integers(-3, 10),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_cluster_findings_match_brute_force(seed, sizes, arc_share, slack):
    # dense forbidden arcs, rising clusters and a capacity near the lowest
    # peak load a cluster can reach make each finding, and none, common
    inst = rising_loads(generator.small_instance(seed, cluster_sizes=sizes))
    pick = np.random.default_rng(seed)
    arcs = [(i, j) for ms in inst.clusters.values() for i in ms for j in ms if i != j]
    lowest = min(max(route_loads(sorted(ms, key=inst.load_change.get), inst)) for ms in inst.clusters.values())
    inst = dataclasses.replace(
        inst,
        capacity=max(1, lowest + slack),
        forbidden=frozenset(arc for arc in arcs if pick.random() < arc_share),
    )
    found = [(v.name, v.detail) for v in validate_instance(inst).violations if v.name.startswith("cluster-")]
    expected = _brute_force_cluster_findings(inst)
    for name, _ in expected:
        event(name)
    assert found == expected


def test_cluster_order_proof_is_bounded_by_its_states():
    # member 1 of 10 has every in-arc and out-arc forbidden, so no order
    # exists; a search that forgets its dead ends tries every order of the
    # other nine (1,972,818 arc tests), one that records each dead (last
    # member, members left) state searches it once: at most m * m * 2**m
    class CountingArcs(frozenset):
        tests = 0

        def __contains__(self, arc):
            CountingArcs.tests += 1
            return frozenset.__contains__(self, arc)

    inst = generator.small_instance(0, cluster_sizes=(10,))
    members = inst.clusters[1]
    m = len(members)
    arcs = CountingArcs((i, j) for i in members for j in members if i != j and members[0] in (i, j))
    for with_loads in (None, inst):
        CountingArcs.tests = 0
        assert cluster_order(members, arcs, inst=with_loads) is None
        assert 0 < CountingArcs.tests <= m * m * 2**m
    assert validate_instance(dataclasses.replace(inst, forbidden=arcs)).violation_tags == ["cluster-path-infeasible"]


def _count_cluster_orders(monkeypatch) -> list:
    """The member tuples that ``validate_instance`` asks ``cluster_order``
    about from now on, one entry per call."""
    calls = []
    search = instance_module.cluster_order

    def counting(members, *args, **kwargs):
        calls.append(tuple(members))
        return search(members, *args, **kwargs)

    monkeypatch.setattr(instance_module, "cluster_order", counting)
    return calls


def test_a_member_that_can_only_come_first_and_last_is_refused_without_a_search(monkeypatch):
    # the hang case at 18 members: member 1 has every in-arc and out-arc
    # forbidden. Both memoized searches fail after about 18 * 18 * 2**18
    # arc tests (about 45 s); the degree test runs neither
    inst = generator.small_instance(0, cluster_sizes=(18,))
    members = inst.clusters[1]
    arcs = frozenset((i, j) for i in members for j in members if i != j and members[0] in (i, j))
    calls = _count_cluster_orders(monkeypatch)
    for capacity, tags in (
        (inst.capacity, ["cluster-path-infeasible"]),
        (1, ["cluster-path-infeasible", "cluster-load-exceeds-capacity"]),
    ):
        blocked = dataclasses.replace(inst, forbidden=arcs, capacity=capacity)
        assert validate_instance(blocked).violation_tags == tags
    assert calls == []


@pytest.mark.parametrize(
    "firsts, lasts, searched",
    [
        ((0, 1), (), False),  # two members that no other may precede
        ((), (2, 3), False),  # two that none may follow
        ((1,), (1,), False),  # one member that is both
        ((0,), (3,), True),  # one of each: 0 first and 3 last is a path
    ],
    ids=["two-firsts", "two-lasts", "first-and-last", "one-of-each"],
)
@pytest.mark.parametrize("capacity", [None, 1])
def test_degree_test_skips_only_a_cluster_without_a_path(monkeypatch, firsts, lasts, searched, capacity):
    # forbid every arc into the members at positions ``firsts`` and out of
    # those at ``lasts`` of a 4-member cluster; the findings stay those of
    # the searches (the enumeration), and a search runs only where the
    # degree test cannot rule out a path
    inst = generator.small_instance(5, cluster_sizes=(4, 3))
    members = inst.clusters[1]
    arcs = {(i, members[k]) for k in firsts for i in members if i != members[k]}
    arcs |= {(members[k], j) for k in lasts for j in members if j != members[k]}
    inst = dataclasses.replace(inst, forbidden=frozenset(arcs), capacity=capacity or inst.capacity)
    calls = _count_cluster_orders(monkeypatch)
    found = [(v.name, v.detail) for v in validate_instance(inst).violations if v.name.startswith("cluster-")]
    assert found == _brute_force_cluster_findings(inst)
    assert (members in calls) == searched


def test_degree_test_counts_a_repeated_id_in_its_own_cluster():
    # id 5 is listed in cluster 1 and again in cluster 2, where its arcs are
    # forbidden from 7 and to 8; those arcs do not bar it in cluster 1,
    # whose two members still have a path
    nodes = (
        Node(0, 0.0, 0.0, 0, 0, 0),
        Node(5, 1.0, 0.0, 1, 0, 1),
        Node(6, 2.0, 0.0, 1, 0, 1),
        Node(5, 3.0, 0.0, 1, 0, 2),
        Node(7, 4.0, 0.0, 1, 0, 2),
        Node(8, 5.0, 0.0, 1, 0, 2),
    )
    costs = [[0.0 if a == b else float(10 * a + b + 1) for b in range(6)] for a in range(6)]
    inst = Instance("repeated", nodes, 10, costs, costs, frozenset({(7, 5), (5, 8)}))
    assert validate_instance(inst).violation_tags == ["duplicate-node-id"]


@given(
    seed=st.integers(0, 2**16),
    sizes=st.lists(st.integers(1, 6), min_size=1, max_size=4),
    arc_share=st.sampled_from([0.0, 0.3, 0.6, 0.9, 1.0]),
    slack=st.integers(-10, 20),
    rising=st.booleans(),
)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_a_valid_instance_is_always_constructed(seed, sizes, arc_share, slack, rising):
    # validation proves each cluster on a fresh route, which is where
    # construction falls back to, so only an instance with a cluster finding
    # can fail construction; capacities near the cluster loads, random
    # forbidden subsets and rising clusters make both outcomes common
    inst = generator.small_instance(seed, cluster_sizes=sizes)
    pick = np.random.default_rng(seed)
    arcs = [(i, j) for ms in inst.clusters.values() for i in ms for j in ms if i != j]
    loads = [sum(inst.delivery[c] for c in ms) for ms in inst.clusters.values()]
    inst = dataclasses.replace(
        inst,
        capacity=max(1, max(loads) + slack),
        forbidden=frozenset(arc for arc in arcs if pick.random() < arc_share),
    )
    if rising:
        inst = rising_loads(inst)
    report = validate_instance(inst)
    for rng_seed in range(3):
        try:
            sol = random_solution(inst, np.random.default_rng(rng_seed))
        except InfeasibleClusterError:
            assert any(tag.startswith("cluster-") for tag in report.violation_tags)
            continue
        if report.feasible:
            assert check_feasible(sol, inst).feasible


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
    assert report.violation_tags == ["capacity-invalid"]
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
    assert report.violation_tags == ["negative-cost", "asymmetry-violated"]
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
    assert "depot-invalid" in validate_instance(broken).violation_tags


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


def test_derived_instance_keeps_the_skeleton_arc_costs(benchmark_suite):
    # rows keep their original ids (Osaba_50_2_1 keeps 11..20, 31..40, ...,
    # Osaba_50_1_3 keeps 1..5, 11..15, ...): the odd/even cost rules key on
    # those ids, so every arc a row keeps costs what it costs over the whole
    # skeleton. Keyed on matrix positions instead, a row that keeps five
    # members of each cluster would flip the parity of every other cluster
    base = generator.generate_base(SUITE_SEED)
    off, peak = generator.assign_costs(base)
    for inst in benchmark_suite:
        kept = [base.index(node) for node in inst.nodes]
        assert inst.cost_offpeak == [[off[a][b] for b in kept] for a in kept], inst.name
        assert inst.cost_peak == [[peak[a][b] for b in kept] for a in kept], inst.name


def _assert_file_round_trips(inst: Instance, directory: Path) -> None:
    """save -> load -> save writes the same bytes, and the second load equals
    the first: its costs, forbidden arcs, window and every other field."""
    written = inst.save(directory / "first.json")
    first = Instance.load(written)
    rewritten = first.save(directory / "second.json")
    assert rewritten.read_bytes() == written.read_bytes()
    assert Instance.load(rewritten) == first


@pytest.mark.parametrize("name", [row.name for row in generator.SUITE])
def test_suite_instance_file_round_trips(benchmark_by_name, tmp_path, name):
    _assert_file_round_trips(benchmark_by_name[name], tmp_path)


@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(2, 6), min_size=1, max_size=4),
    forbidden_per_cluster=st.integers(0, 1),
)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_small_instance_file_round_trips(seed, sizes, forbidden_per_cluster):
    # a temporary directory per example: a function-scoped fixture would be
    # shared by all of them
    inst = generator.small_instance(seed, cluster_sizes=sizes, forbidden_per_cluster=forbidden_per_cluster)
    with tempfile.TemporaryDirectory() as tmp:
        _assert_file_round_trips(inst, Path(tmp))


LOAD_INSTANCE = generator.small_instance(83, cluster_sizes=(3, 3, 2))


@given(
    seed=st.integers(0, 2**32 - 1),
    capacity=st.integers(1, 400),
    cuts=st.lists(st.integers(0, 8), max_size=3),
    rising=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_route_load_ok_chains_summaries_exactly(seed, capacity, cuts, rising):
    # reference: the executable spec's load walk. Walking the pieces of a
    # route one after another from the previous piece's summary must give the
    # summary of the whole route, within the capacity or not, and checking
    # them must give the whole route's verdict
    nodes = (rising_loads(LOAD_INSTANCE) if rising else LOAD_INSTANCE).nodes
    inst = Instance(
        name="load",
        nodes=nodes,
        capacity=capacity,
        cost_offpeak=[[1.0] * len(nodes)] * len(nodes),
        cost_peak=[[2.0] * len(nodes)] * len(nodes),
    )
    route = [int(c) for c in np.random.default_rng(seed).permutation(inst.customers)]
    whole = route_load(route, inst)
    total, _, peak = whole
    assert total + peak == max(route_loads(route, inst))
    verdict = route_load_ok(route, inst)
    assert verdict == (whole if total + peak <= capacity else None)
    summary, checked, start = EMPTY_LOAD, EMPTY_LOAD, 0
    for cut in sorted(cuts) + [len(route)]:
        summary = route_load(route[start:cut], inst, summary)
        checked = checked and route_load_ok(route[start:cut], inst, checked)
        start = cut
    assert summary == whole
    assert checked == verdict


def _rising(inst, members):
    return any(inst.node(c).pickup > inst.delivery[c] for c in members)


TIGHT_90 = generator.small_instance(90, cluster_sizes=(4, 5, 6), forbidden_per_cluster=9)
RISING_90 = rising_loads(TIGHT_90)
TABLE_INSTANCES = [
    TIGHT_90,
    RISING_90,
    generator.small_instance(86, cluster_sizes=(5, 6, 4), forbidden_per_cluster=8),
    rising_loads(generator.small_instance(84, cluster_sizes=(1, 5, 3), capacity=60)),
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
        for label, members in inst.clusters.items():
            m = len(members)
            masks = free_orders(members, inst), inst.tight_orders[label]
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


def test_tight_orders_are_keyed_by_label(benchmark_suite):
    # every per-cluster table is keyed by label, in ``clusters`` order
    for inst in TABLE_INSTANCES + benchmark_suite:
        assert list(inst.tight_orders) == list(inst.clusters)
        for label, members in inst.clusters.items():
            mask, expected = inst.tight_orders[label], free_orders(members, inst)
            assert mask is expected is None or np.array_equal(mask, expected)


def test_tight_clusters_of_the_suite_are_those_of_the_two_tight_instances(benchmark_suite):
    for inst in benchmark_suite:
        tight = [inst.tight_orders[label] is not None for label in inst.clusters]
        assert tight == [inst.name in ("Osaba_50_1_4", "Osaba_50_2_4")] * len(tight)
    assert all(TIGHT_90.tight_orders[label] is not None for label in TIGHT_90.clusters)
