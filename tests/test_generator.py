import itertools
import math

import numpy as np
import pytest

from rvrp import validate_instance
from rvrp import generator
from rvrp.generator import (
    SUITE,
    GenerationError,
    assign_costs,
    demand_for,
    generate_base,
    row_seed,
    select_forbidden,
)
from rvrp.instance import Instance, Node, cluster_order
from rvrp.operators import random_solution

from conftest import SUITE_SEED


def test_demand_rules():
    assert demand_for(1) == (10, 5)
    assert demand_for(2) == (10, 0)
    assert demand_for(3) == (5, 3)
    assert demand_for(100) == (5, 0)
    assert demand_for(97) == (10, 5)


def test_cluster_demand_totals_alternate_by_parity():
    # ids 10(s-1)+1..10s: odd clusters start on residue 1 (three d=10/p=5
    # members), even clusters start on residue 3; totals alternate 80/21 and
    # 70/19 rather than being equal across clusters
    base = generate_base(3)
    totals = {}
    for node in base[1:]:
        d, p = totals.setdefault(node.cluster, [0, 0])
        totals[node.cluster] = [d + node.delivery, p + node.pickup]
    for label, (d, p) in totals.items():
        assert [d, p] == ([80, 21] if label % 2 == 1 else [70, 19])


def test_base_skeleton_layout():
    base = generate_base(11)
    assert len(base) == 101
    depot = base[0]
    assert (depot.id, depot.cluster, depot.delivery, depot.pickup) == (0, 0, 0, 0)
    assert (depot.x, depot.y) == generator.DEPOT_XY
    for node in base[1:]:
        assert node.cluster == (node.id - 1) // 10 + 1
        assert 0 - generator.CLUSTER_RADIUS <= node.x <= generator.BOX_W + generator.CLUSTER_RADIUS
    # every customer sits within the cluster disc radius of its centre
    for label in range(1, 11):
        members = [n for n in base[1:] if n.cluster == label]
        cx = sum(n.x for n in members) / len(members)
        cy = sum(n.y for n in members) / len(members)
        for n in members:
            assert math.hypot(n.x - cx, n.y - cy) <= 2 * generator.CLUSTER_RADIUS


def test_cost_rule_multipliers():
    base = generate_base(5)
    nodes = base[:4]
    off, peak = assign_costs(nodes)
    euclid = lambda a, b: math.hypot(nodes[a].x - nodes[b].x, nodes[a].y - nodes[b].y)
    # pair (1, 3): j=3 odd
    e = euclid(1, 3)
    assert off[1][3] == pytest.approx(e, rel=1e-12)
    assert off[3][1] == pytest.approx(1.2 * e, rel=1e-12)
    assert peak[1][3] == pytest.approx(1.3 * e, rel=1e-12)
    assert peak[3][1] == pytest.approx(1.44 * e, rel=1e-12)
    # pair (1, 2): j=2 even
    e = euclid(1, 2)
    assert off[2][1] == pytest.approx(0.8 * e, rel=1e-12)
    assert peak[2][1] == pytest.approx(1.12 * e, rel=1e-12)
    # depot arcs follow the same rule with i=0
    e = euclid(0, 1)
    assert off[0][1] == pytest.approx(e, rel=1e-12)
    assert off[1][0] == pytest.approx(1.2 * e, rel=1e-12)
    e = euclid(0, 2)
    assert off[2][0] == pytest.approx(0.8 * e, rel=1e-12)


def test_cost_ratio_laws_hold_on_generated_instance(benchmark_by_name):
    inst = benchmark_by_name["Osaba_50_2_3"]
    ids = [n.id for n in inst.nodes]
    off = np.array(inst.cost_offpeak)
    peak = np.array(inst.cost_peak)
    for a in range(len(ids)):
        for b in range(a + 1, len(ids)):
            i, j = ids[a], ids[b]
            lo, hi = (a, b) if i < j else (b, a)
            reverse = 1.2 if max(i, j) % 2 == 1 else 0.8
            assert off[hi][lo] / off[lo][hi] == pytest.approx(reverse, rel=1e-9)
            assert peak[lo][hi] / off[lo][hi] == pytest.approx(1.3, rel=1e-9)
            assert peak[hi][lo] / off[hi][lo] == pytest.approx(
                1.2 if max(i, j) % 2 == 1 else 1.4, rel=1e-9
            )
            assert off[lo][hi] != off[hi][lo]
            assert peak[lo][hi] != peak[hi][lo]


def test_peak_strictly_exceeds_offpeak(benchmark_suite):
    for inst in benchmark_suite[:3]:
        off = np.array(inst.cost_offpeak)
        peak = np.array(inst.cost_peak)
        mask = ~np.eye(len(off), dtype=bool)
        assert (peak[mask] > off[mask]).all()


def test_suite_table_matches_expected_shape():
    assert len(SUITE) == 15
    assert [r.name for r in SUITE[:4]] == [
        "Osaba_50_1_1",
        "Osaba_50_1_2",
        "Osaba_50_1_3",
        "Osaba_50_1_4",
    ]
    by_name = {r.name: r for r in SUITE}
    assert (by_name["Osaba_50_1_1"].capacity, by_name["Osaba_50_1_1"].forbidden_per_cluster) == (240, 5)
    assert (by_name["Osaba_100_1"].nodes, by_name["Osaba_100_1"].capacity) == (100, 140)
    assert (by_name["Osaba_100_3"].capacity, by_name["Osaba_100_3"].forbidden_per_cluster) == (320, 10)
    assert by_name["Osaba_80_3"].clusters == 10


def test_suite_instances_match_table(benchmark_suite):
    for row, inst in zip(SUITE, benchmark_suite):
        assert inst.name == row.name
        assert inst.n_customers == row.nodes
        assert len(inst.clusters) == row.clusters
        assert inst.capacity == row.capacity
        per_cluster = {
            label: sum(1 for i, j in inst.forbidden if inst.cluster_of[i] == label)
            for label in inst.clusters
        }
        assert all(count == row.forbidden_per_cluster for count in per_cluster.values())


def test_selection_rules(benchmark_by_name):
    odd = benchmark_by_name["Osaba_50_1_1"]
    assert sorted(odd.clusters) == [1, 3, 5, 7, 9]
    assert set(odd.clusters[3]) == set(range(21, 31))

    even = benchmark_by_name["Osaba_50_2_1"]
    assert sorted(even.clusters) == [2, 4, 6, 8, 10]

    first5 = benchmark_by_name["Osaba_50_1_3"]
    assert set(first5.clusters[2]) == set(range(11, 16))

    last5 = benchmark_by_name["Osaba_50_2_3"]
    assert set(last5.clusters[2]) == set(range(16, 21))

    first8c = benchmark_by_name["Osaba_80_1"]
    assert sorted(first8c.clusters) == list(range(1, 9))

    first8n = benchmark_by_name["Osaba_80_3"]
    assert all(len(first8n.clusters[c]) == 8 for c in first8n.clusters)
    assert set(first8n.clusters[10]) == set(range(91, 99))

    full = benchmark_by_name["Osaba_100_3"]
    assert full.n_customers == 100


def test_all_instances_validate_and_construct(benchmark_suite):
    rng = np.random.default_rng(0)
    for inst in benchmark_suite:
        assert validate_instance(inst).feasible
        random_solution(inst, rng)


def test_forbidden_arcs_are_intra_cluster(benchmark_suite):
    for inst in benchmark_suite:
        for i, j in inst.forbidden:
            assert i != 0 and j != 0
            assert inst.cluster_of[i] == inst.cluster_of[j]


def test_cluster_order_trivial_cases():
    assert cluster_order([1, 2, 3], set()) == [1, 2, 3]
    assert cluster_order([1, 2], {(1, 2), (2, 1)}) is None
    assert cluster_order([4], {(4, 4)}) == [4]


def _avoids(order, forbidden):
    return all((a, b) not in forbidden for a, b in zip(order, order[1:]))


def _fits(order, inst):
    load = sum(inst.delivery[c] for c in order)
    loads = [load]
    for c in order:
        load += inst.node(c).pickup - inst.delivery[c]
        loads.append(load)
    return max(loads) <= inst.capacity


def test_cluster_order_agrees_with_enumeration():
    rng = np.random.default_rng(8)
    members = [1, 2, 3, 4, 5]
    arcs = [(i, j) for i in members for j in members if i != j]
    # pickups exceed deliveries at 2, 3 and 5, so the peak load (31 to 46)
    # depends on the order
    demands = {1: (10, 2), 2: (2, 12), 3: (5, 9), 4: (8, 1), 5: (3, 7)}
    nodes = [Node(0, 0.0, 0.0, 0, 0, 0)]
    nodes += [Node(m, float(m), 0.0, d, p, 1) for m, (d, p) in demands.items()]
    costs = [[float(a != b) for b in range(6)] for a in range(6)]
    load_only_failures = 0
    for capacity in (30, 31, 34, 38, 46):
        load_inst = Instance("loads", nodes, capacity, costs, costs)
        for _ in range(30):
            picks = rng.choice(len(arcs), size=10, replace=False)
            forbidden = {arcs[int(p)] for p in picks}
            perms = list(itertools.permutations(members))
            brute = any(_avoids(p, forbidden) for p in perms)
            order = cluster_order(members, forbidden)
            assert (order is not None) == brute
            if order is not None:
                assert sorted(order) == members and _avoids(order, forbidden)
            brute_load = any(_avoids(p, forbidden) and _fits(p, load_inst) for p in perms)
            load_only_failures += brute and not brute_load
            for search_rng in (None, np.random.default_rng(capacity)):
                order = cluster_order(members, forbidden, rng=search_rng, inst=load_inst)
                assert (order is not None) == brute_load
                if order is not None:
                    assert sorted(order) == members
                    assert _avoids(order, forbidden) and _fits(order, load_inst)
    assert load_only_failures > 0  # the load check decides some cases on its own


def test_select_forbidden_counts_and_feasibility():
    rng = np.random.default_rng(12)
    clusters = {1: tuple(range(1, 6)), 2: tuple(range(6, 11))}
    forbidden = select_forbidden(clusters, 10, rng)
    assert len(forbidden) == 20
    for label, members in clusters.items():
        arcs = {(i, j) for i, j in forbidden if i in members}
        assert len(arcs) == 10
        assert cluster_order(members, arcs) is not None


def test_select_forbidden_rejects_impossible_count():
    rng = np.random.default_rng(0)
    with pytest.raises(GenerationError):
        select_forbidden({1: (1, 2)}, 5, rng)


def test_select_forbidden_gives_up_on_a_cluster_with_no_free_order():
    # forbidding both arcs of a pair leaves no order, however often it redraws
    with pytest.raises(GenerationError, match="^cluster 1: no feasible forbidden set found$"):
        select_forbidden({1: (1, 2)}, 2, np.random.default_rng(0))


def test_small_instance_that_fails_validation_is_a_generation_error():
    with pytest.raises(GenerationError, match=r"^small_21: invalid instance: .*'cluster-load-exceeds-capacity'"):
        generator.small_instance(21, cluster_sizes=(3, 3), capacity=10)


def test_row_seed_stability():
    assert row_seed(7, 0) == row_seed(7, 0)
    assert row_seed(7, 0) != row_seed(7, 1)
    assert row_seed(7, 0) != row_seed(8, 0)


def test_suite_files_are_byte_identical(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    for out in (a_dir, b_dir):
        generator.write_suite(generator.generate_suite(3, only=["Osaba_50_1_4"]), out, 3)
    a = (a_dir / "Osaba_50_1_4.json").read_bytes()
    b = (b_dir / "Osaba_50_1_4.json").read_bytes()
    assert a == b
    ma = (a_dir / "suite-manifest.json").read_bytes()
    mb = (b_dir / "suite-manifest.json").read_bytes()
    assert ma == mb


def test_load_suite_reads_back_what_write_suite_wrote(tmp_path):
    written = [generator.small_instance(seed, cluster_sizes=(3, 3), forbidden_per_cluster=1) for seed in (21, 22)]
    generator.write_suite(written, tmp_path / "suite", seed=1)
    loaded = generator.load_suite(tmp_path / "suite")
    assert [inst.to_dict() for inst in loaded] == [inst.to_dict() for inst in written]


def test_only_subset_matches_full_generation(tmp_path, benchmark_by_name):
    sub = generator.generate_suite(SUITE_SEED, only=["Osaba_80_2"])
    assert len(sub) == 1
    full = benchmark_by_name["Osaba_80_2"]
    assert sub[0].to_dict() == full.to_dict()


def test_small_instance_is_valid_and_forced_split():
    inst = generator.small_instance(21, cluster_sizes=(3, 3), forbidden_per_cluster=1)
    assert validate_instance(inst).feasible
    total = sum(inst.delivery[c] for c in inst.customers)
    assert total > inst.capacity  # both clusters cannot share one vehicle
