"""Discrete search operators shared by the solvers.

The firefly geometry is permutation-based: distance between two solutions is
a cluster-wise positional Hamming distance, and a movement (its length drawn
by the solvers) samples a pool of single-insertion candidates and keeps the
cheapest. Insertions stay inside a customer's own cluster block, so cluster
contiguity is preserved by construction and only the load profile and
intra-cluster forbidden arcs need re-checking, and only inside the block.
The same fact makes the moves incremental: a candidate shares its parent's
block index and re-prices only the route it changed, copying the other route
costs (``Solution.blocks`` and ``Solution.costs``). A firefly move also
carries the cluster-major visit order (``Solution.visits``) that the Hamming
distance compares, and an insertion keeps a carried one, with the one block it
changed spliced in.
"""

from __future__ import annotations

import functools
import math
from itertools import groupby
from operator import ne
from typing import Callable, Sequence

import numpy as np

from .draws import Rng
from .evaluation import route_cost
from .instance import (
    EMPTY_LOAD,
    Instance,
    LoadSummary,
    Solution,
    _code_weights,
    cluster_order,
    route_load,
    route_load_ok,
)

MAX_RESAMPLES = 50


class InfeasibleClusterError(RuntimeError):
    """A cluster admits no feasible intra-cluster order."""


# ---------------------------------------------------------------- search state


Block = tuple[int, int, int]  # route index, start, end


def _block_index(routes: Sequence[Sequence[int]], inst: Instance) -> dict[int, Block]:
    """Cluster label -> (route_index, start, end) of the label's first block."""
    blocks: dict[int, Block] = {}
    try:
        for r, route in enumerate(routes):
            start = 0
            for label, run in groupby(map(inst.cluster_of.__getitem__, route)):
                end = start + len(list(run))
                blocks.setdefault(label, (r, start, end))
                start = end
    except KeyError as exc:
        raise ValueError(f"solution visits unknown customer {exc.args[0]}") from None
    return blocks


def _with_search_state(sol: Solution, inst: Instance) -> Solution:
    """``sol`` carrying its block index and route costs; derived from its
    routes unless it already carries them."""
    if sol.costs is not None:
        return sol
    costs = tuple(route_cost(route, inst) for route in sol.routes)
    return Solution(sol.routes, _block_index(sol.routes, inst), costs)


def _visit_order(sol: Solution, inst: Instance) -> tuple[int, ...]:
    """``sol``'s cluster-major visit order: every cluster's block, clusters
    in ``inst.clusters`` order; derived from its blocks (or its routes)
    unless it carries one."""
    if sol.visits is not None:
        return sol.visits
    blocks = sol.blocks if sol.blocks is not None else _block_index(sol.routes, inst)
    visits: list[int] = []
    for label, members in inst.clusters.items():
        # a cluster without a block counts as an empty one
        r, start, end = blocks.get(label, (0, 0, 0))
        if end - start != len(members):
            raise ValueError("solutions do not cover the same instance")
        visits += sol.routes[r][start:end]
    return tuple(visits)


# ---------------------------------------------------------------- distance


def hamming_distance(a: Solution, b: Solution, inst: Instance) -> int:
    """Positional mismatches between the two visit orders, cluster by cluster:
    each cluster's block in ``a`` against its block in ``b``, which is one
    pass over the two cluster-major orders (``Solution.visits``)."""
    return sum(map(ne, _visit_order(a, inst), _visit_order(b, inst)))


# ---------------------------------------------------------------- insertion move


Insertion = tuple[int, tuple[int, ...], float, int]  # route index, new route, its cost, label


def _insertion(sol: Solution, inst: Instance, rng: Rng) -> Insertion | None:
    """One random intra-cluster reinsertion on ``sol``, which carries its
    search state and must be feasible.

    Returns the changed route with its index, its cost and the label of the
    block it changed, or None when the draw degenerates to the identity
    (single-member block or resampling exhausted). Only what the move changes
    is checked: the parent's block uses no forbidden arc, so only the arcs
    the move adds can. The load is walked only for a rising block (the rule
    at :func:`route_load_ok`), as the feasible parent's order of it fits."""
    customers = inst.customers
    customer = customers[rng.integers(len(customers))]
    label = inst.cluster_of[customer]
    r, start, end = sol.blocks[label]
    m = end - start
    if m == 1:
        return None
    route = sol.routes[r]
    pos = route.index(customer, start, end)
    at = pos - start
    after = inst.forbidden_after
    # the arc that closes the gap at ``pos`` is in every candidate but the identity
    gap_forbidden = start < pos < end - 1 and route[pos + 1] in after[route[pos - 1]]
    banned = after[customer]
    rising = label in inst.rising_clusters
    for _ in range(MAX_RESAMPLES):
        slot = rng.integers(m)
        if slot == at:
            return None  # reinserted where it was extracted
        # the customer moves in front of the parent's position ``cut``
        cut = start + slot if slot < at else start + slot + 1
        if (
            gap_forbidden
            or (cut > start and customer in after[route[cut - 1]])
            or (cut < end and route[cut] in banned)
        ):
            continue
        if cut < pos:
            new_route = route[:cut] + (customer,) + route[cut:pos] + route[pos + 1 :]
        else:
            new_route = route[:pos] + route[pos + 1 : cut] + (customer,) + route[cut:]
        if rising and route_load_ok(new_route, inst) is None:
            continue
        return r, new_route, route_cost(new_route, inst), label
    return None


def _with_insertion(sol: Solution, found: Insertion, inst: Instance) -> Solution:
    """``sol`` with the route ``found`` changed and its cost replaced; every
    block stays in place, and a carried visit order gets the changed block
    spliced in."""
    r, route, cost, label = found
    routes = list(sol.routes)
    routes[r] = route
    costs = list(sol.costs)
    costs[r] = cost
    visits = sol.visits
    if visits is not None:
        _, start, end = sol.blocks[label]
        offset = inst.cluster_offset[label]
        visits = visits[:offset] + route[start:end] + visits[offset + end - start :]
    return Solution(tuple(routes), sol.blocks, tuple(costs), visits)


def insertion_move(sol: Solution, inst: Instance, rng: Rng) -> Solution:
    """Extract one random customer and reinsert it at a random position inside
    its own cluster block; breaches are resampled, then the identity is kept.

    ``sol`` must be feasible, as every solver state is."""
    state = _with_search_state(sol, inst)
    found = _insertion(state, inst, rng)
    return sol if found is None else _with_insertion(state, found, inst)


def move_firefly(
    sol: Solution,
    n: int,
    inst: Instance,
    rng: Rng,
    on_candidate: Callable[[float], None] | None = None,
    relocation_rate: float = 0.0,
) -> tuple[Solution, float]:
    """Generate a pool of ``n`` one-insertion candidates, each drawn
    independently from ``sol``, and keep the cheapest (first generated wins
    ties).

    ``sol`` must be feasible, as every solver state is. ``on_candidate`` is
    invoked once per candidate with its cost, which is how solvers account
    one objective evaluation per candidate. A candidate is priced from the
    parent's route costs with the changed one replaced, and only the pool's
    winner is built as a ``Solution``, with the parent's visit order and the
    changed block spliced in. When ``relocation_rate`` > 0, a candidate is
    drawn from ``cluster_relocation`` with that probability instead of an
    insertion.
    """
    if n < 2:
        raise ValueError("movement length must be at least 2")
    sol = _with_search_state(sol, inst)
    if sol.visits is None:
        sol = Solution(sol.routes, sol.blocks, sol.costs, _visit_order(sol, inst))
    sol_cost = sum(sol.costs)
    costs = list(sol.costs)
    best: Solution | Insertion = sol
    best_cost = math.inf
    for _ in range(n):
        if relocation_rate > 0.0 and rng.random() < relocation_rate:
            cand = cluster_relocation(sol, inst, rng)
            cand_cost = sum(cand.costs)
        else:
            found = _insertion(sol, inst, rng)
            if found is None:
                cand, cand_cost = sol, sol_cost
            else:
                r, _, cost, _ = found
                costs[r] = cost
                # the floats a built candidate would sum, in the same order
                cand, cand_cost = found, sum(costs)
                costs[r] = sol.costs[r]
        if on_candidate is not None:
            on_candidate(cand_cost)
        if cand_cost < best_cost:
            best, best_cost = cand, cand_cost
    if not isinstance(best, Solution):
        best = _with_insertion(sol, best, inst)
    return best, best_cost


# ---------------------------------------------------------------- cluster relocation


def cluster_relocation(sol: Solution, inst: Instance, rng: Rng) -> Solution:
    """Move one whole cluster block between routes (or into a new route).

    The block's internal order is preserved, so the candidate keeps its
    parent's visit order; a target fits by :func:`route_load_ok`'s rule, and
    infeasible draws are resampled. This extension is used only when enabled.

    ``sol`` must keep each cluster in one block, as every solver state does.
    """
    state = _with_search_state(sol, inst)
    labels = list(inst.clusters)
    label = labels[int(rng.integers(len(labels)))]
    src, start, end = state.blocks[label]
    block = state.routes[src][start:end]
    remaining: list[tuple[int, ...]] = []
    remaining_costs: list[float] = []
    for r, (route, cost) in enumerate(zip(state.routes, state.costs)):
        if r == src:
            route = (*route[:start], *route[end:])
            if not route:
                continue
            cost = route_cost(route, inst)
        remaining.append(route)
        remaining_costs.append(cost)

    # insertion slots: the start of every block, the end of every route and a new route
    slots = [(r, start) for r, start, _ in _block_index(remaining, inst).values()]
    slots += [(r, len(route)) for r, route in enumerate(remaining)]
    options = sorted([(-1, 0), *slots])
    room = inst.capacity - sum(map(inst.delivery.__getitem__, block))

    for _ in range(MAX_RESAMPLES):
        r, b = options[int(rng.integers(len(options)))]
        if sum(map(inst.delivery.__getitem__, remaining[r] if r >= 0 else ())) > room:
            continue  # the deliveries alone overflow: no order fits
        new_routes = list(remaining)
        costs = list(remaining_costs)
        if r < 0:
            new_routes.append(block)  # a new route, so index r = -1 finds it
            costs.append(0.0)  # priced below once the route fits
        else:
            new_routes[r] = (*remaining[r][:b], *block, *remaining[r][b:])
        if not inst.rising_clusters or route_load_ok(new_routes[r], inst):
            costs[r] = route_cost(new_routes[r], inst)
            blocks = _block_index(new_routes, inst)
            return Solution(tuple(new_routes), blocks, tuple(costs), state.visits)
    return sol


# ---------------------------------------------------------------- random construction


def _draw_orders(rng: np.random.Generator, rows: int, m: int) -> np.ndarray:
    """``rows`` (at most MAX_RESAMPLES) random orders of ``range(m)``, one per
    row, in one call that draws what ``rows`` calls of ``rng.shuffle`` on an
    m-member list would: the same Fisher-Yates swaps, from the same stream."""
    return rng.permuted(_positions(m)[:rows], axis=1)


@functools.cache
def _positions(m: int) -> np.ndarray:
    """MAX_RESAMPLES rows of ``range(m)``, as a read-only view."""
    return np.broadcast_to(np.arange(m), (MAX_RESAMPLES, m))


def _shuffled_block(
    label: int, prefix: LoadSummary | None, inst: Instance, rng: np.random.Generator
) -> tuple[list[int], LoadSummary] | None:
    """Up to MAX_RESAMPLES random orders of cluster ``label``'s members; the
    first that uses no forbidden arc and fits the capacity when appended to
    a route whose load summary is ``prefix``, with the summary of the
    extended route. A fresh route (``prefix`` None) then falls back to the
    randomized :func:`cluster_order`, or raises InfeasibleClusterError.

    The load follows :func:`route_load_ok`'s rule: when the deliveries alone
    overflow, no order fits, and the shuffles are drawn in one call that
    leaves ``rng`` as the loop would; else only a rising block's orders are
    walked (a rising fallback order for its summary alone, as
    ``cluster_order`` proves it fits). A tight cluster
    (``Instance.tight_orders``), whose shuffles mostly fail, has all of them
    drawn and looked up in its free-order mask at once; the generator is
    then rewound and advanced by the orders the loop would have drawn."""
    members = inst.clusters[label]
    before = prefix or EMPTY_LOAD
    total, net, peak = before
    total += sum(map(inst.delivery.__getitem__, members))
    m = len(members)
    rising = label in inst.rising_clusters
    shed = None if rising else (total, net + sum(map(inst.load_change.__getitem__, members)), peak)
    if total + peak > inst.capacity:
        _draw_orders(rng, MAX_RESAMPLES, m)
    elif (free := inst.tight_orders[label]) is not None:
        state = rng.bit_generator.state
        orders = _draw_orders(rng, MAX_RESAMPLES, m)
        fits = free[orders @ _code_weights(m)]
        k = int(fits.argmax())
        if fits[k]:
            rng.bit_generator.state = state
            _draw_orders(rng, k + 1, m)
            return [members[i] for i in orders[k].tolist()], shed  # a tight cluster never rises
    else:
        forbidden = inst.forbidden
        for _ in range(MAX_RESAMPLES):
            block = list(members)
            rng.shuffle(block)
            if forbidden.isdisjoint(zip(block, block[1:])):
                summary = shed or route_load_ok(block, inst, before)
                if summary is not None:
                    return block, summary
    if prefix is not None:
        return None
    block = cluster_order(members, inst.forbidden, rng=rng, inst=inst)
    if block is None:
        raise InfeasibleClusterError(f"cluster {label} admits no feasible order")
    return block, shed or route_load(block, inst)


def random_solution(inst: Instance, rng: np.random.Generator) -> Solution:
    """Random feasible construction shared by all solvers.

    Clusters are shuffled and greedily appended to the current route whenever
    a random intra-cluster order fits the capacity and avoids forbidden arcs
    (up to 50 order resamples, ``_shuffled_block``); otherwise a new route is
    opened, where ``_shuffled_block`` falls back to a randomized exact order
    search when resampling fails. The solution carries its search state."""
    labels = list(inst.clusters)
    order = [labels[i] for i in rng.permutation(len(labels))]
    routes: list[tuple[int, ...]] = []
    blocks: dict[int, Block] = {}
    current: list[int] = []
    load = None  # the load summary of ``current``, None while it is fresh
    for label in order:
        found = _shuffled_block(label, load, inst, rng)
        if found is None:  # only an open route refuses a block
            routes.append(tuple(current))
            current = []
            found = _shuffled_block(label, None, inst, rng)
        block, load = found
        blocks[label] = (len(routes), len(current), len(current) + len(block))
        current.extend(block)
    routes.append(tuple(current))
    return Solution(tuple(routes), blocks, tuple(route_cost(route, inst) for route in routes))
