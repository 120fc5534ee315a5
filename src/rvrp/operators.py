"""Discrete search operators shared by the solvers.

The firefly geometry is permutation-based: distance between two solutions is
a cluster-wise positional Hamming distance, the movement length shrinks over
generations through the light-absorption factor gamma, and a movement samples
a pool of single-insertion candidates and keeps the cheapest. Insertions stay
inside a customer's own cluster block, so cluster contiguity is preserved by
construction and only the load profile and intra-cluster forbidden arcs need
re-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .evaluation import route_cost
from .instance import Instance, Solution, cluster_order, route_load_ok

MAX_RESAMPLES = 50


class InfeasibleClusterError(RuntimeError):
    """A cluster admits no feasible intra-cluster order."""


@dataclass(frozen=True)
class MoveParams:
    """Movement-length controls: light absorption gamma and generation count."""

    gamma: float = 0.95
    generation: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if self.generation < 1:
            raise ValueError("generation starts at 1")


# ---------------------------------------------------------------- distance


def _cluster_sequences(sol: Solution, inst: Instance) -> dict[int, list[int]]:
    cluster_of = inst.cluster_of
    seqs: dict[int, list[int]] = {label: [] for label in inst.clusters}
    for c in sol.customers():
        try:
            seqs[cluster_of[c]].append(c)
        except KeyError:
            raise ValueError(f"solution visits unknown customer {c}") from None
    return seqs


def hamming_distance(a: Solution, b: Solution, inst: Instance) -> int:
    """Positional mismatches between the two visit orders, cluster by cluster."""
    seq_a = _cluster_sequences(a, inst)
    seq_b = _cluster_sequences(b, inst)
    total = 0
    for label, sa in seq_a.items():
        sb = seq_b[label]
        if len(sa) != len(sb) or len(sa) != len(inst.clusters[label]):
            raise ValueError("solutions do not cover the same instance")
        total += sum(1 for x, y in zip(sa, sb) if x != y)
    return total


def movement_length(r: int, params: MoveParams, rng: np.random.Generator) -> int:
    """Uniform integer in [2, max(2, floor(r * gamma**generation))]."""
    upper = max(2, math.floor(r * params.gamma**params.generation))
    return int(rng.integers(2, upper + 1))


# ---------------------------------------------------------------- feasibility helpers


def _find_block(routes: Sequence[Sequence[int]], customer: int, inst: Instance):
    """Locate (route_index, start, end) of the customer's cluster block."""
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


# ---------------------------------------------------------------- insertion move


def _insertion_routes(
    sol: Solution, inst: Instance, rng: np.random.Generator, max_resamples: int = MAX_RESAMPLES
):
    """One random intra-cluster reinsertion on ``sol``.

    Returns (new_routes, changed_route_index) or None when the draw degenerates
    to the identity (single-member block or resampling exhausted).
    """
    customers = inst.customers
    customer = customers[int(rng.integers(len(customers)))]
    r, start, end = _find_block(sol.routes, customer, inst)
    route = sol.routes[r]
    block = list(route[start:end])
    m = len(block)
    if m == 1:
        return None
    at = block.index(customer)
    rest = block[:at] + block[at + 1 :]
    forbidden = inst.forbidden
    for _ in range(max_resamples):
        slot = int(rng.integers(m))
        if slot == at:
            return None  # reinserted where it was extracted
        new_block = rest[:slot] + [customer] + rest[slot:]
        if not forbidden.isdisjoint(zip(new_block, new_block[1:])):
            continue
        new_route = (*route[:start], *new_block, *route[end:])
        if not route_load_ok(new_route, inst):
            continue
        new_routes = list(sol.routes)
        new_routes[r] = new_route
        return new_routes, r
    return None


def insertion_move(
    sol: Solution, inst: Instance, rng: np.random.Generator, max_resamples: int = MAX_RESAMPLES
) -> Solution:
    """Extract one random customer and reinsert it at a random position inside
    its own cluster block; breaches are resampled, then the identity is kept."""
    out = _insertion_routes(sol, inst, rng, max_resamples)
    if out is None:
        return sol
    new_routes, _ = out
    return Solution(tuple(new_routes))


def move_firefly(
    sol: Solution,
    n: int,
    inst: Instance,
    rng: np.random.Generator,
    on_candidate: Callable[[Solution, float], None] | None = None,
    relocation_rate: float = 0.0,
) -> tuple[Solution, float]:
    """Generate a pool of ``n`` one-insertion candidates, each drawn
    independently from ``sol``, and keep the cheapest (first generated wins
    ties).

    ``on_candidate`` is invoked once per candidate with its cost, which is how
    solvers account one objective evaluation per candidate. When
    ``relocation_rate`` > 0, a candidate is drawn from ``cluster_relocation``
    with that probability instead of an insertion.
    """
    if n < 2:
        raise ValueError("movement length must be at least 2")
    base_costs = [route_cost(route, inst) for route in sol.routes]
    best: Solution | None = None
    best_cost = math.inf
    for _ in range(n):
        if relocation_rate > 0.0 and rng.random() < relocation_rate:
            cand = cluster_relocation(sol, inst, rng)
            cand_costs = [route_cost(route, inst) for route in cand.routes]
        else:
            out = _insertion_routes(sol, inst, rng)
            if out is None:
                cand, cand_costs = sol, base_costs
            else:
                new_routes, r = out
                cand_costs = list(base_costs)
                cand_costs[r] = route_cost(new_routes[r], inst)
                cand = Solution(tuple(new_routes))
        cand_cost = sum(cand_costs)
        if on_candidate is not None:
            on_candidate(cand, cand_cost)
        if cand_cost < best_cost:
            best, best_cost = cand, cand_cost
    assert best is not None
    return best, best_cost


# ---------------------------------------------------------------- cluster relocation


def cluster_relocation(
    sol: Solution, inst: Instance, rng: np.random.Generator, max_resamples: int = MAX_RESAMPLES
) -> Solution:
    """Move one whole cluster block between routes (or into a new route).

    The block's internal order is preserved; the target route is re-checked
    with the exact load simulation and infeasible draws are resampled. This
    operator is an extension: it is only used when explicitly enabled.
    """
    labels = sorted(inst.clusters)
    label = labels[int(rng.integers(len(labels)))]
    member = inst.clusters[label][0]
    src, start, end = _find_block(sol.routes, member, inst)
    block = sol.routes[src][start:end]
    remaining: list[tuple[int, ...]] = []
    for r, route in enumerate(sol.routes):
        if r == src:
            shrunk = (*route[:start], *route[end:])
            if shrunk:
                remaining.append(shrunk)
        else:
            remaining.append(route)

    # insertion slots: between blocks of every other route, plus a new route
    cluster_of = inst.cluster_of
    options: list[tuple[int, int]] = [(-1, 0)]
    for r, route in enumerate(remaining):
        boundaries = [0]
        for pos in range(1, len(route)):
            if cluster_of[route[pos]] != cluster_of[route[pos - 1]]:
                boundaries.append(pos)
        boundaries.append(len(route))
        options.extend((r, b) for b in boundaries)

    for _ in range(max_resamples):
        r, b = options[int(rng.integers(len(options)))]
        new_routes = list(remaining)
        if r < 0:
            new_routes.append(block)  # a new route, so index r = -1 finds it
        else:
            new_routes[r] = (*remaining[r][:b], *block, *remaining[r][b:])
        if route_load_ok(new_routes[r], inst):
            return Solution(tuple(new_routes))
    return sol


# ---------------------------------------------------------------- random construction


def _shuffled_block(
    members: Sequence[int], prefix: list[int], inst: Instance, rng: np.random.Generator
) -> list[int] | None:
    """Up to MAX_RESAMPLES random orders of ``members``; the first that uses
    no forbidden arc and fits the capacity when appended to ``prefix``."""
    forbidden = inst.forbidden
    for _ in range(MAX_RESAMPLES):
        block = list(members)
        rng.shuffle(block)
        if forbidden.isdisjoint(zip(block, block[1:])) and route_load_ok(prefix + block, inst):
            return block
    return None


def random_solution(inst: Instance, rng: np.random.Generator) -> Solution:
    """Random feasible construction shared by all solvers.

    Clusters are shuffled and greedily appended to the current route whenever
    a random intra-cluster order passes the exact load simulation and avoids
    forbidden arcs (up to 50 order resamples); otherwise a new route is opened,
    falling back to a randomized exact order search when resampling fails.
    """
    labels = sorted(inst.clusters)
    order = [labels[i] for i in rng.permutation(len(labels))]
    routes: list[list[int]] = []
    current: list[int] = []
    for label in order:
        members = inst.clusters[label]
        if current:
            block = _shuffled_block(members, current, inst, rng)
            if block is not None:
                current.extend(block)
                continue
            routes.append(current)
        block = _shuffled_block(members, [], inst, rng)
        if block is None:
            block = cluster_order(members, inst.forbidden, rng=rng, inst=inst)
            if block is None:
                raise InfeasibleClusterError(f"cluster {label} admits no feasible order")
        current = block
    routes.append(current)
    return Solution.from_routes(routes)
