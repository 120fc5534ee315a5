import math

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from rvrp import Instance, Solution, check_feasible, solution_cost
from rvrp import generator
from rvrp.evaluation import route_cost
from rvrp.draws import Draws
from rvrp.instance import route_load_ok
from rvrp.operators import (
    MAX_RESAMPLES,
    _insertion,
    _shuffled_block,
    _with_search_state,
    cluster_relocation,
    hamming_distance,
    insertion_move,
    move_firefly,
    movement_length,
    random_solution,
)


@pytest.fixture(scope="module")
def eight_node_instance():
    return generator.small_instance(70, cluster_sizes=(8,), capacity=1000)


@pytest.fixture(scope="module")
def two_cluster_instance():
    return generator.small_instance(71, cluster_sizes=(4, 4))


def test_hamming_worked_example(eight_node_instance):
    # one 8-customer cluster; two visit orders differing by two adjacent swaps
    a = Solution.from_routes([[1, 2, 3, 4, 5, 6, 7, 8]])
    b = Solution.from_routes([[1, 2, 4, 3, 6, 5, 7, 8]])
    assert hamming_distance(a, b, eight_node_instance) == 4


def test_hamming_identity(eight_node_instance):
    a = Solution.from_routes([[2, 1, 3, 4, 5, 6, 7, 8]])
    assert hamming_distance(a, a, eight_node_instance) == 0


def test_hamming_adjacent_swap_is_two(eight_node_instance):
    a = Solution.from_routes([[1, 2, 3, 4, 5, 6, 7, 8]])
    b = Solution.from_routes([[1, 2, 3, 4, 5, 6, 8, 7]])
    assert hamming_distance(a, b, eight_node_instance) == 2


def test_hamming_sums_over_clusters(two_cluster_instance):
    inst = two_cluster_instance
    a_members = list(inst.clusters[1])
    b_members = list(inst.clusters[2])
    a = Solution.from_routes([a_members, b_members])
    swapped_a = [a_members[1], a_members[0], *a_members[2:]]
    swapped_b = [b_members[1], b_members[0], *b_members[2:]]
    b = Solution.from_routes([swapped_a, swapped_b])
    assert hamming_distance(a, b, inst) == 4


def test_hamming_rejects_foreign_solution(eight_node_instance):
    a = Solution.from_routes([[1, 2, 3, 4, 5, 6, 7, 8]])
    unknown_customer = Solution.from_routes([[1, 2, 3, 4, 5, 6, 7, 9]])
    with pytest.raises(ValueError):
        hamming_distance(a, unknown_customer, eight_node_instance)
    with pytest.raises(ValueError):
        hamming_distance(Solution.from_routes([[1, 2]]), a, eight_node_instance)


@given(seeds=st.tuples(*[st.integers(0, 2**31)] * 3))
@settings(max_examples=40, deadline=None)
def test_hamming_is_a_metric_on_random_triples(seeds):
    inst = generator.small_instance(72, cluster_sizes=(3, 4))
    a, b, c = (random_solution(inst, np.random.default_rng(s)) for s in seeds)
    dab = hamming_distance(a, b, inst)
    dba = hamming_distance(b, a, inst)
    dac = hamming_distance(a, c, inst)
    dbc = hamming_distance(b, c, inst)
    assert dab == dba
    assert hamming_distance(a, a, inst) == 0
    assert dac <= dab + dbc


def test_movement_length_clamps_to_two():
    rng = np.random.default_rng(0)
    assert all(movement_length(4, 0.95, 200, rng) == 2 for _ in range(50))
    assert movement_length(0, 0.95, 1, rng) == 2


def test_movement_length_uniform_on_range():
    rng = np.random.default_rng(42)
    draws = [movement_length(20, 0.95, 1, rng) for _ in range(100_000)]
    # floor(20 * 0.95) = 19 -> uniform over the 18 integers [2, 19]
    counts = {v: 0 for v in range(2, 20)}
    for d in draws:
        assert 2 <= d <= 19
        counts[d] += 1
    expected = len(draws) / 18
    for v, c in counts.items():
        assert abs(c - expected) < 6 * math.sqrt(expected), (v, c)


def test_movement_length_upper_bound_shrinks_with_generation():
    bounds = [
        max(2, math.floor(30 * 0.95**g)) for g in range(1, 80)
    ]
    assert all(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:]))


def test_insertion_move_identity_on_single_node_clusters():
    inst = generator.small_instance(73, cluster_sizes=(1, 1))
    sol = random_solution(inst, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    assert insertion_move(sol, inst, rng) == sol


def test_insertion_move_reaches_exactly_the_one_insertion_neighborhood():
    inst = generator.small_instance(74, cluster_sizes=(3,), capacity=1000)
    start = Solution.from_routes([[3, 1, 2]])

    block = [3, 1, 2]
    expected = set()
    for i, customer in enumerate(block):
        rest = block[:i] + block[i + 1 :]
        for slot in range(len(block)):
            candidate = rest[:slot] + [customer] + rest[slot:]
            expected.add(tuple(candidate))
    observed = set()
    for seed in range(400):
        moved = insertion_move(start, inst, np.random.default_rng(seed))
        observed.add(moved.routes[0])
    assert observed == expected
    assert (1, 2, 3) in observed  # extracting 3 and reinserting it at the end


def test_insertion_move_preserves_feasibility(oracle_instances):
    rng = np.random.default_rng(5)
    for inst in oracle_instances:
        sol = random_solution(inst, rng)
        for _ in range(100):
            sol = insertion_move(sol, inst, rng)
            assert check_feasible(sol, inst).feasible


def test_insertion_move_keeps_cluster_route_assignment(two_cluster_instance):
    inst = two_cluster_instance
    rng = np.random.default_rng(9)
    sol = random_solution(inst, rng)
    assignment = {
        label: next(r for r, route in enumerate(sol.routes) if inst.cluster_of[route[0]] == label)
        for label in inst.clusters
    }
    for _ in range(50):
        sol = insertion_move(sol, inst, rng)
        for label, r in assignment.items():
            members = set(inst.clusters[label])
            assert members <= set(sol.routes[r])


def test_move_firefly_returns_pool_minimum(two_cluster_instance):
    inst = two_cluster_instance
    sol = random_solution(inst, np.random.default_rng(11))
    seen = []
    best, best_cost = move_firefly(
        sol, 8, inst, np.random.default_rng(12), on_candidate=seen.append
    )
    assert len(seen) == 8
    assert best_cost == min(seen)
    assert best_cost == pytest.approx(solution_cost(best, inst), abs=1e-9)


def test_move_firefly_requires_pool_of_two(two_cluster_instance):
    sol = random_solution(two_cluster_instance, np.random.default_rng(1))
    with pytest.raises(ValueError):
        move_firefly(sol, 1, two_cluster_instance, np.random.default_rng(2))


def test_move_firefly_finds_best_neighbor_at_predicted_rate():
    # 5-customer single cluster: the one-insertion neighborhood has 25
    # equally likely (customer, slot) outcomes; a pool of n=20 finds a
    # minimum-cost outcome with probability 1 - (1 - m/25)**20
    inst = generator.small_instance(75, cluster_sizes=(5,), capacity=1000)
    start = Solution.from_routes([[2, 4, 1, 5, 3]])
    block = list(start.routes[0])
    outcomes = []
    for i, customer in enumerate(block):
        rest = block[:i] + block[i + 1 :]
        for slot in range(len(block)):
            candidate = rest[:slot] + [customer] + rest[slot:]
            outcomes.append(solution_cost(Solution.from_routes([candidate]), inst))
    best_neighbor = min(outcomes)
    m = sum(1 for c in outcomes if abs(c - best_neighbor) < 1e-9)
    predicted = 1.0 - (1.0 - m / 25.0) ** 20

    trials = 1000
    hits = 0
    for seed in range(trials):
        _, cost = move_firefly(start, 20, inst, np.random.default_rng(seed))
        if abs(cost - best_neighbor) < 1e-9:
            hits += 1
    freq = hits / trials
    sigma = math.sqrt(predicted * (1 - predicted) / trials)
    assert abs(freq - predicted) < 5 * sigma + 1e-9, (freq, predicted)


def test_cluster_relocation_merges_routes(two_cluster_instance):
    inst = two_cluster_instance
    roomy = type(inst)(
        name="roomy",
        nodes=inst.nodes,
        capacity=1000,
        cost_offpeak=inst.cost_offpeak,
        cost_peak=inst.cost_peak,
        forbidden=inst.forbidden,
    )
    two_routes = Solution.from_routes([list(roomy.clusters[1]), list(roomy.clusters[2])])
    merged = set()
    for seed in range(60):
        out = cluster_relocation(two_routes, roomy, np.random.default_rng(seed))
        assert check_feasible(out, roomy).feasible
        merged.add(out.vehicles)
    assert merged == {1, 2}


def test_cluster_relocation_respects_capacity(two_cluster_instance):
    # default capacity forbids merging; relocation must never produce it
    inst = two_cluster_instance
    two_routes = Solution.from_routes([list(inst.clusters[1]), list(inst.clusters[2])])
    for seed in range(40):
        out = cluster_relocation(two_routes, inst, np.random.default_rng(seed))
        assert out.vehicles == 2
        assert check_feasible(out, inst).feasible


def test_cluster_relocation_reaches_both_assignments_on_two_clusters():
    inst = generator.small_instance(76, cluster_sizes=(2, 2), capacity=1000)
    sol = random_solution(inst, np.random.default_rng(0))
    seen_structures = set()
    for seed in range(80):
        out = cluster_relocation(sol, inst, np.random.default_rng(seed))
        seen_structures.add(out.vehicles)
    assert seen_structures == {1, 2}


def test_cluster_relocation_preserves_block_order(two_cluster_instance):
    inst = two_cluster_instance
    order = list(inst.clusters[1])
    sol = Solution.from_routes([order, list(inst.clusters[2])])
    for seed in range(30):
        out = cluster_relocation(sol, inst, np.random.default_rng(seed))
        flattened = [c for route in out.routes for c in route if inst.cluster_of[c] == 1]
        assert flattened == order


def test_random_solution_deterministic(two_cluster_instance):
    a = random_solution(two_cluster_instance, np.random.default_rng(99))
    b = random_solution(two_cluster_instance, np.random.default_rng(99))
    c = random_solution(two_cluster_instance, np.random.default_rng(100))
    assert a == b
    assert a != c


def test_random_solution_splits_when_capacity_forces_it(two_cluster_instance):
    # cluster pair sums exceed capacity: every route holds exactly one cluster
    rng = np.random.default_rng(7)
    for _ in range(50):
        sol = random_solution(two_cluster_instance, rng)
        assert sol.vehicles == 2
        for route in sol.routes:
            assert len({two_cluster_instance.cluster_of[c] for c in route}) == 1


def test_random_solution_feasible_on_benchmark(benchmark_suite):
    rng = np.random.default_rng(2024)
    for inst in benchmark_suite:
        for _ in range(50):
            assert check_feasible(random_solution(inst, rng), inst).feasible


def test_random_solution_survives_dense_forbidden_sets():
    # 10 forbidden arcs in 5-node clusters: the fallback exact search matters
    inst = generator.small_instance(77, cluster_sizes=(5, 5), forbidden_per_cluster=10)
    rng = np.random.default_rng(1)
    for _ in range(200):
        assert check_feasible(random_solution(inst, rng), inst).feasible


# ------------------------------------------------ carried search state


def _scan_block(routes, customer, inst):
    """Reference for the block index: scan the routes for the first visit of
    the customer's cluster and extend over its run."""
    label = inst.cluster_of[customer]
    cluster_of = inst.cluster_of
    for r, route in enumerate(routes):
        for pos, c in enumerate(route):
            if cluster_of[c] == label:
                end = pos
                while end < len(route) and cluster_of[route[end]] == label:
                    end += 1
                return r, pos, end
    raise ValueError(f"customer {customer} not present in solution")


def _cluster_sequences(sol, inst):
    """Each cluster's members in visiting order over the whole solution."""
    seqs = {label: [] for label in inst.clusters}
    for c in sol.customers():
        seqs[inst.cluster_of[c]].append(c)
    return seqs


def _reference_hamming(a, b, inst):
    """Reference distance: each cluster's members in visiting order over the
    whole solution, compared position by position."""
    seq_a, seq_b = _cluster_sequences(a, inst), _cluster_sequences(b, inst)
    return sum(sum(1 for x, y in zip(seq_a[k], seq_b[k]) if x != y) for k in inst.clusters)


def _reference_visits(sol, inst):
    """Reference cluster-major visit order: the cluster sequences, clusters in
    ``inst.clusters`` order."""
    seqs = _cluster_sequences(sol, inst)
    return tuple(c for label in inst.clusters for c in seqs[label])


CLUSTER_RULES = {"visit-count", "cluster-split", "cluster-noncontiguous"}

STATE_INSTANCES = [
    generator.small_instance(80, cluster_sizes=(3, 4, 2, 5), capacity=1000),
    generator.small_instance(81, cluster_sizes=(4, 3, 3), forbidden_per_cluster=2),
    generator.small_instance(82, cluster_sizes=(1, 2, 1, 3), capacity=1000),
]


def _blocked_solution(inst, rng):
    """Random routes that keep every cluster in one block, with no regard to
    the capacity or the forbidden arcs."""
    labels = sorted(inst.clusters)
    blocks = [list(inst.clusters[labels[i]]) for i in rng.permutation(len(labels))]
    for block in blocks:
        rng.shuffle(block)
    routes = [blocks[0]]
    for block in blocks[1:]:
        if rng.random() < 0.5:
            routes.append([])
        routes[-1].extend(block)
    return Solution.from_routes(routes)


@given(
    which=st.integers(0, len(STATE_INSTANCES) - 1),
    seed=st.integers(0, 2**32 - 1),
    steps=st.lists(st.sampled_from(["insert", "firefly", "relocate"]), min_size=1, max_size=12),
)
@settings(max_examples=60, deadline=None)
def test_carried_state_matches_references(which, seed, steps):
    inst = STATE_INSTANCES[which]
    rng = np.random.default_rng(seed)
    chain = [random_solution(inst, rng)]
    assert chain[0].visits is None
    for step in steps:
        parent = chain[-1]
        if step == "insert":
            sol = insertion_move(parent, inst, rng)
            assert (sol.visits is None) == (parent.visits is None)
        elif step == "firefly":
            sol, cost = move_firefly(parent, 3, inst, rng, relocation_rate=0.3)
            assert cost == sum(sol.costs)
            assert sol.visits is not None
        else:
            sol = cluster_relocation(parent, inst, rng)
            assert sol.visits is parent.visits
        chain.append(sol)

    for sol in chain:
        assert sol.blocks == {
            label: _scan_block(sol.routes, members[0], inst)
            for label, members in inst.clusters.items()
        }
        carried = [c.hex() for c in sol.costs]
        assert carried == [route_cost(route, inst).hex() for route in sol.routes]
        if sol.visits is not None:
            assert sol.visits == _reference_visits(sol, inst)

    others = [_blocked_solution(inst, rng) for _ in range(3)]
    pool = chain + others + [Solution.from_routes(sol.routes) for sol in chain]
    for a in pool:
        assert not CLUSTER_RULES & set(check_feasible(a, inst).violation_tags)
    for a in pool:
        for b in pool:
            assert hamming_distance(a, b, inst) == _reference_hamming(a, b, inst)


# ------------------------------------------------ construction shuffles


@pytest.mark.parametrize("pending", [False, True], ids=["aligned", "pending-half"])
@pytest.mark.parametrize("m", range(1, 13))
def test_doomed_block_draws_the_loops_shuffles(m, pending):
    # a prefix whose total alone overflows takes the bulk draw; it must leave
    # the generator where MAX_RESAMPLES shuffles of a list would, or a numpy
    # release that changes either scheme would shift every later draw
    inst = generator.small_instance(5, cluster_sizes=(m,))
    members = inst.clusters[1]
    for seed in range(8):
        fast, loop = np.random.default_rng(seed), np.random.default_rng(seed)
        if pending:  # leaves half of a 64-bit draw buffered in the generator
            fast.integers(7)
            loop.integers(7)
            assert fast.bit_generator.state["has_uint32"] == 1
        assert _shuffled_block(members, (inst.capacity + 1, 0, 0), inst, fast) is None
        for _ in range(MAX_RESAMPLES):
            loop.shuffle(list(members))
        assert fast.bit_generator.state == loop.bit_generator.state


def _reference_shuffled_block(members, prefix, inst, rng, drawn=None):
    """Reference: the MAX_RESAMPLES-shuffle loop, every order checked; each
    order drawn goes into ``drawn``."""
    drawn = [] if drawn is None else drawn
    for _ in range(MAX_RESAMPLES):
        block = list(members)
        rng.shuffle(block)
        drawn.append(block)
        if inst.forbidden.isdisjoint(zip(block, block[1:])):
            summary = route_load_ok(block, inst, prefix)
            if summary is not None:
                return block, summary
    return None


def _rising_loads(inst, labels=None):
    """``inst`` with pickups above deliveries at every odd customer (of the
    clusters in ``labels``, or of all), so that a route's load rises en route
    and can fail at a later peak (generated instances never pick up more
    than they deliver)."""
    data = inst.to_dict()
    for node in data["nodes"][1:]:
        if node["id"] % 2 and (labels is None or node["cluster"] in labels):
            node["pickup"] = node["delivery"] + 7
    return Instance.from_dict(data)


RISING_84 = _rising_loads(generator.small_instance(84, cluster_sizes=(1, 5, 3), capacity=60))
# every cluster tight (Instance.tight_orders): 1 of 24, 6 of 120 and 76 of 720
# orders free of forbidden arcs
TIGHT_90 = generator.small_instance(90, cluster_sizes=(4, 5, 6), forbidden_per_cluster=9)

SHUFFLE_INSTANCES = [
    *STATE_INSTANCES,
    *generator.generate_suite(7, only=["Osaba_50_1_4", "Osaba_100_1"]),
    _rising_loads(STATE_INSTANCES[1]),
    RISING_84,
    TIGHT_90,
    _rising_loads(TIGHT_90),
]


@given(
    which=st.integers(0, len(SHUFFLE_INSTANCES) - 1),
    pick=st.integers(0, 2**16),
    peak=st.integers(0, 60),
    drop=st.integers(0, 10),
    shift=st.integers(-12, 12),
    beyond=st.sampled_from([False, False, True]),
    seed=st.integers(0, 2**32 - 1),
    pending=st.booleans(),
)
# a single member after an overflowing total, a 5-member cluster with 10
# forbidden arcs whose deliveries overflow, and a prefix under which every
# order fails at a later peak
@example(which=2, pick=0, peak=0, drop=0, shift=3, beyond=True, seed=1, pending=False)
@example(which=3, pick=0, peak=10, drop=4, shift=2, beyond=False, seed=2, pending=True)
@example(which=5, pick=1, peak=10, drop=0, shift=0, beyond=False, seed=3, pending=False)
# tight clusters, whose orders are drawn at once: the first fit on row 0, on a
# middle row (once with a load peak equal to the room left), on the last row,
# and no fit; each with and without a pending 32-bit half
@example(which=8, pick=2, peak=5, drop=8, shift=-3, beyond=False, seed=153, pending=False)
@example(which=7, pick=2, peak=9, drop=6, shift=-2, beyond=False, seed=185, pending=True)
@example(which=7, pick=0, peak=0, drop=5, shift=-12, beyond=False, seed=116, pending=False)
@example(which=7, pick=1, peak=0, drop=1, shift=-1, beyond=False, seed=15, pending=True)
@example(which=8, pick=1, peak=12, drop=1, shift=-9, beyond=False, seed=67, pending=True)
@example(which=7, pick=0, peak=27, drop=4, shift=-10, beyond=False, seed=37, pending=False)
@example(which=7, pick=1, peak=8, drop=5, shift=-9, beyond=False, seed=167, pending=True)
@example(which=8, pick=1, peak=16, drop=3, shift=-12, beyond=False, seed=35, pending=False)
@example(which=8, pick=1, peak=15, drop=5, shift=0, beyond=False, seed=81, pending=True)
@settings(max_examples=300, deadline=None)
def test_shuffled_block_matches_the_shuffle_loop(
    which, pick, peak, drop, shift, beyond, seed, pending
):
    inst = SHUFFLE_INSTANCES[which]
    labels = sorted(inst.clusters)
    members = inst.clusters[labels[pick % len(labels)]]
    deliveries = sum(inst.delivery[c] for c in members)
    # the prefix's total either overflows alone or leaves the members within
    # a few units of the capacity at the prefix's peak, where the verdict
    # turns on the order-free test or on a later peak
    peak = min(peak, inst.capacity)
    if beyond:
        total = inst.capacity + 1 + abs(shift)
    else:
        total = max(0, inst.capacity - deliveries - peak + shift)
    prefix = (total, peak - drop, peak)
    fast, loop = np.random.default_rng(seed), np.random.default_rng(seed)
    if pending:
        fast.integers(7)
        loop.integers(7)
    found = _shuffled_block(members, prefix, inst, fast)
    drawn = []
    expected = _reference_shuffled_block(members, prefix, inst, loop, drawn)
    assert found == expected
    assert fast.bit_generator.state == loop.bit_generator.state
    if len(members) == 1:
        event("single member")
    if total > inst.capacity:
        event("total overflows alone")
    elif total + deliveries + peak > inst.capacity:
        event("deliveries overflow")
    else:
        if found is None and route_load_ok(members, inst, prefix) is None:
            event("fails at a later peak")
        if inst.tight_orders[members] is not None:
            row = len(drawn) - 1
            outcome = {0: "row 0", MAX_RESAMPLES - 1: "the last row"}.get(row, "a middle row")
            outcome = "no fit" if found is None else f"a fit on {outcome}"
            event(f"batched: {outcome}, {'a' if pending else 'no'} pending half")
    event("fits" if found is not None else "no order")


# ------------------------------------------------ move-local checks


def _reference_insertion(sol, inst, rng, rejected=None):
    """Reference reinsertion: every arc of the new block against the
    forbidden set and the load along the whole new route. The reason of each
    rejected candidate goes into ``rejected``."""
    rejected = [] if rejected is None else rejected
    customer = inst.customers[int(rng.integers(len(inst.customers)))]
    r, start, end = sol.blocks[inst.cluster_of[customer]]
    route = sol.routes[r]
    block = list(route[start:end])
    m = len(block)
    if m == 1:
        return None
    at = block.index(customer)
    rest = block[:at] + block[at + 1 :]
    for _ in range(MAX_RESAMPLES):
        slot = int(rng.integers(m))
        if slot == at:
            return None
        new_block = rest[:slot] + [customer] + rest[slot:]
        if not inst.forbidden.isdisjoint(zip(new_block, new_block[1:])):
            rejected.append("forbidden arc")
            continue
        new_route = (*route[:start], *new_block, *route[end:])
        if not route_load_ok(new_route, inst):
            rejected.append("over capacity")
            continue
        return r, new_route, route_cost(new_route, inst)
    return None


def _reference_candidate(sol, found):
    if found is None:
        return sol
    r, route, cost = found
    routes, costs = list(sol.routes), list(sol.costs)
    routes[r], costs[r] = route, cost
    return Solution(tuple(routes), sol.blocks, tuple(costs))


def _reference_pool(sol, n, inst, rng, on_candidate, relocation_rate, rejected):
    """Reference firefly pool: every candidate built and priced in full."""
    best, best_cost = None, math.inf
    for _ in range(n):
        if relocation_rate > 0.0 and rng.random() < relocation_rate:
            cand = cluster_relocation(sol, inst, rng)
        else:
            cand = _reference_candidate(sol, _reference_insertion(sol, inst, rng, rejected))
        cost = sum(cand.costs)
        on_candidate(cost)
        if cost < best_cost:
            best, best_cost = cand, cost
    return best, best_cost


def _same_solution(a, b):
    assert a.routes == b.routes
    assert a.blocks == b.blocks
    assert [c.hex() for c in a.costs] == [c.hex() for c in b.costs]


def _twin_streams(seed, replay):
    """Two identical draw streams, optionally through ``Draws``."""
    pair = [np.random.default_rng(seed) for _ in range(2)]
    return [Draws(g) for g in pair] if replay else pair


# deliveries over pickups in cluster 3 and pickups over deliveries at two
# members of cluster 2, under a capacity that every route of both clusters
# fills: one chain both skips the load walk and rejects candidates by it
MIXED_LOADS = _rising_loads(
    generator.small_instance(84, cluster_sizes=(1, 5, 3), capacity=60), labels={2}
)

# dense forbidden arcs (2 per cluster of 3-4 members, 8 per cluster of 4-6,
# 10 per cluster of 5 on Osaba_50_1_4 and Osaba_50_2_4, whose ids are not
# their positions) and loads that rise en route to a tight capacity, so that
# both checks reject candidates
EXACT_INSTANCES = [
    STATE_INSTANCES[1],
    generator.small_instance(86, cluster_sizes=(5, 6, 4), forbidden_per_cluster=8),
    next(inst for inst in SHUFFLE_INSTANCES if inst.name == "Osaba_50_1_4"),
    *generator.generate_suite(7, only=["Osaba_50_2_4"]),
    _rising_loads(STATE_INSTANCES[1]),
    RISING_84,
    MIXED_LOADS,
]


def _check_moves_against_references(inst, seed, pools, relocation_rate, replay, rejected):
    """A chain of moves from a random construction; at each step the fast
    ``_insertion``, ``insertion_move`` and ``move_firefly`` must give what
    the references give from the same draws, and take as many."""
    sol = random_solution(inst, np.random.default_rng(seed))
    for step, n in enumerate(pools):
        assert check_feasible(sol, inst).feasible
        fast, ref = _twin_streams([seed, step, 0], replay)
        found = _insertion(sol, inst, fast)
        expected = _reference_insertion(sol, inst, ref, rejected)
        if found is not None:
            found = found[0], found[1], found[2].hex()
        if expected is not None:
            expected = expected[0], expected[1], expected[2].hex()
        assert found == expected
        assert fast.random() == ref.random()

        fast, ref = _twin_streams([seed, step, 1], replay)
        moved = insertion_move(sol, inst, fast)
        expected = _reference_candidate(sol, _reference_insertion(sol, inst, ref, rejected))
        _same_solution(moved, expected)
        assert fast.random() == ref.random()

        fast, ref = _twin_streams([seed, step, 2], replay)
        seen, seen_ref = [], []
        best, cost = move_firefly(sol, n, inst, fast, seen.append, relocation_rate)
        best_ref, cost_ref = _reference_pool(
            sol, n, inst, ref, seen_ref.append, relocation_rate, rejected
        )
        assert [c.hex() for c in seen] == [c.hex() for c in seen_ref]
        assert cost.hex() == cost_ref.hex()
        _same_solution(best, best_ref)
        assert fast.random() == ref.random()
        sol = best if step % 2 else moved


@given(
    which=st.integers(0, len(EXACT_INSTANCES) - 1),
    seed=st.integers(0, 2**32 - 1),
    pools=st.lists(st.integers(2, 12), min_size=1, max_size=8),
    relocation_rate=st.sampled_from([0.0, 0.0, 0.3]),
    replay=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_move_local_checks_match_full_route_checks(which, seed, pools, relocation_rate, replay):
    rejected = []
    _check_moves_against_references(
        EXACT_INSTANCES[which], seed, pools, relocation_rate, replay, rejected
    )
    for reason in sorted(set(rejected)):
        event(f"{reason} rejected")


def test_rising_clusters_are_those_with_a_member_picking_up_more():
    for inst in (*SHUFFLE_INSTANCES, MIXED_LOADS):
        assert inst.rising_clusters == {
            label
            for label, members in inst.clusters.items()
            if any(inst.node(c).pickup > inst.delivery[c] for c in members)
        }
    assert not any(inst.rising_clusters for inst in STATE_INSTANCES)
    multi = {label for label, members in MIXED_LOADS.clusters.items() if len(members) > 1}
    assert set() < MIXED_LOADS.rising_clusters & multi < multi


def test_load_skip_matches_full_route_checks_on_both_branches():
    # a block outside rising_clusters skips the load check and one inside it
    # is checked with route_load_ok; on one chain both must match the
    # full-route reference, and the check must reject some candidate that the
    # skip would have let pass
    rejected = []
    for seed in range(40):
        _check_moves_against_references(MIXED_LOADS, seed, [6] * 6, 0.0, seed % 2, rejected)
    assert "over capacity" in rejected


class _Script:
    """Duck-typed draw stream that returns fixed values and counts them."""

    def __init__(self, values):
        self.values = list(values)
        self.used = 0

    def integers(self, *bounds):
        self.used += 1
        return self.values[self.used - 1]


@pytest.mark.parametrize(
    "customer, slots, forbidden, expected",
    [
        # extracting 3 closes the gap with the forbidden (2, 4): every slot
        # fails until the draw hits the extraction point or runs out
        (3, [0, 1, 4, 3, 2], {(2, 4)}, None),
        (3, [0, 4] * 25, {(2, 4)}, None),
        # ends of the block: extraction at either end, insertion at either end
        (1, [4, 3], {(5, 1)}, (2, 3, 4, 1, 5)),
        (5, [0, 1], {(5, 1)}, (1, 5, 2, 3, 4)),
        (1, [0], {(5, 1)}, None),
        (5, [4], {(5, 1)}, None),
        (3, [0, 4], {(3, 1)}, (1, 2, 4, 5, 3)),
        (3, [4, 0], {(5, 3)}, (3, 1, 2, 4, 5)),
        (2, [4, 0], {(3, 1), (5, 2)}, (2, 1, 3, 4, 5)),
    ],
    ids=[
        "gap-arc-until-identity", "gap-arc-until-exhausted", "first-to-last", "last-to-first",
        "first-stays", "last-stays", "middle-to-first-blocked", "middle-to-last-blocked",
        "reversed-gap-arc",
    ],
)
def test_insertion_pinned_cases_match_full_route_checks(customer, slots, forbidden, expected):
    base = generator.small_instance(74, cluster_sizes=(5,), capacity=1000)
    inst = Instance(
        name="pinned",
        nodes=base.nodes,
        capacity=base.capacity,
        cost_offpeak=base.cost_offpeak,
        cost_peak=base.cost_peak,
        forbidden=frozenset(forbidden),
    )
    sol = _with_search_state(Solution.from_routes([[1, 2, 3, 4, 5]]), inst)
    script = [inst.customers.index(customer), *slots]
    fast, ref = _Script(script), _Script(script)
    found = _insertion(sol, inst, fast)
    assert (found and found[:3]) == _reference_insertion(sol, inst, ref)
    assert fast.used == ref.used
    assert (found and found[1]) == expected


@given(
    which=st.sampled_from([0, 2]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_insertion_candidate_is_the_block_rebuilt_around_the_customer(which, seed, data):
    # the candidate is cut from the parent route; for every block, extraction
    # point and slot it must equal the block rebuilt without and then with
    # the customer (no forbidden arc and room to spare: every draw is taken)
    inst = STATE_INSTANCES[which]
    sol = random_solution(inst, np.random.default_rng(seed))
    pick = data.draw(st.integers(0, inst.n_customers - 1))
    customer = inst.customers[pick]
    r, start, end = sol.blocks[inst.cluster_of[customer]]
    route = sol.routes[r]
    block = route[start:end]
    slot = data.draw(st.integers(0, len(block) - 1))
    at = block.index(customer)
    rest = block[:at] + block[at + 1 :]
    found = _insertion(sol, inst, _Script([pick, slot]))
    if slot == at:
        assert found is None
    else:
        assert found[:2] == (r, route[:start] + rest[:slot] + (customer,) + rest[slot:] + route[end:])
