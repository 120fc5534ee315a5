"""An executable specification of the three searches: the discrete firefly
algorithm (DFA), the mutation-only EA and the population simulated annealing
(ESA), written as plainly as the paper states them.

It draws from numpy ``Generator``s laid out as ``rvrp.solve`` lays them out
(``SeedSequence(seed).spawn(P + 1)``: one stream per population slot, then the
EA's selection stream), but takes none of the program's shortcuts:

- every candidate is priced in full, route by route, by the per-arc
  :func:`route_timeline`;
- every candidate is checked in full: no forbidden arc and no load over the
  capacity along any of its routes;
- a move finds a cluster's block by scanning the routes (:func:`block_of`);
- construction shuffles a cluster up to 50 times and falls back to a
  randomized depth-first search (:func:`depth_first_order`).

``tests/test_spec.py`` asserts that ``rvrp.solve`` gives the evaluation count,
best cost, cost history and best solution that :func:`solve` gives, and the
operator tests check the program's fast paths against the functions here. A
change to the searches (a new draw, another float) changes this file first.

A solution is a tuple of routes, each a tuple of customer ids; the depot is
implicit at both ends of a route. The instance must be valid
(``rvrp.validate_instance``).
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from rvrp.instance import OFFPEAK, PEAK, Instance

Route = tuple[int, ...]
Routes = tuple[Route, ...]

MAX_RESAMPLES = 50  # draws a move or a construction step makes before it gives up
RELOCATION_RATE = 0.2  # share of proposals that relocate a cluster, when enabled
GAMMA = 0.95  # DFA: light absorption
ELITIST_FRACTION = 0.7  # EA: share of survivors taken best-first, rounded up
COOLING_CONSTANT = 0.95  # ESA: geometric cooling per generation
ACCEPTANCE_P = 0.95  # ESA: acceptance of the initial cost spread at the start temperature


# ------------------------------------------------------------------ pricing


class TimelineStep(NamedTuple):
    """One traversed arc: origin node, departure time, priced cost, matrix tag."""

    node: int
    departure_s: float
    arc_cost_s: float
    matrix: str


class Timeline(NamedTuple):
    steps: list[TimelineStep]
    total_cost_s: float
    end_time_s: float


def route_timeline(route: Sequence[int], inst: Instance) -> Timeline:
    """Drive one route depot -> customers -> depot from ``day_start_s``.

    An arc costs its peak price when its departure lies in the half-open peak
    window, else its off-peak price; travel time equals cost. A ValueError
    for an empty route, the depot inside one, or an id no node has.
    """
    if not route:
        raise ValueError("route must be nonempty")
    if 0 in route:
        raise ValueError("the depot (0) inside a route")
    nodes = (0, *route, 0)
    at = [inst.position(i) for i in nodes]
    lo, hi = inst.peak_window_s
    t = float(inst.day_start_s)
    total = 0.0
    steps: list[TimelineStep] = []
    for k in range(len(route) + 1):
        in_peak = lo <= t < hi
        cost = (inst.cost_peak if in_peak else inst.cost_offpeak)[at[k]][at[k + 1]]
        steps.append(TimelineStep(nodes[k], t, cost, PEAK if in_peak else OFFPEAK))
        t += cost
        total += cost
    return Timeline(steps, total, t)


def solution_cost(routes: Routes, inst: Instance) -> float:
    """The sum of the route costs, in route order."""
    return sum(route_timeline(route, inst).total_cost_s for route in routes)


# -------------------------------------------------------------- feasibility


def route_loads(route: Sequence[int], inst: Instance) -> list[int]:
    """The load leaving the depot (every delivery of the route), then the
    load after each visit, which drops off its delivery and takes its pickup."""
    nodes = [inst.node(c) for c in route]
    load = sum(node.delivery for node in nodes)
    loads = [load]
    for node in nodes:
        load += node.pickup - node.delivery
        loads.append(load)
    return loads


def breach(routes: Sequence[Sequence[int]], inst: Instance) -> str | None:
    """Why the routes are infeasible, checked along every route in full: a
    forbidden arc, or a load over the capacity; None when they are feasible.
    (The moves and the construction keep each cluster in one block.)"""
    for route in routes:
        if any(arc in inst.forbidden for arc in zip((0, *route), (*route, 0))):
            return "forbidden arc"
        if max(route_loads(route, inst)) > inst.capacity:
            return "over capacity"
    return None


# ------------------------------------------------------------ construction


def draw_block(
    members: Sequence[int],
    fits: Callable[[list[int]], bool],
    rng: np.random.Generator,
    drawn: list[list[int]] | None = None,
) -> list[int] | None:
    """The first of up to MAX_RESAMPLES shuffles of ``members`` that
    ``fits``; every order drawn goes into ``drawn``."""
    for _ in range(MAX_RESAMPLES):
        block = list(members)
        rng.shuffle(block)
        if drawn is not None:
            drawn.append(block)
        if fits(block):
            return block
    return None


def depth_first_order(
    members: Sequence[int], inst: Instance, rng: np.random.Generator
) -> list[int] | None:
    """A random order of ``members`` that a fresh route can serve alone: a
    depth-first search that shuffles the members left at every step and
    skips one that closes a forbidden arc or overloads the vehicle; None when
    no order exists."""
    load = sum(inst.node(c).delivery for c in members)
    if load > inst.capacity:
        return None

    def extend(path: list[int], load: int) -> list[int] | None:
        if len(path) == len(members):
            return path
        order = [c for c in members if c not in path]
        rng.shuffle(order)
        for c in order:
            node = inst.node(c)
            after = load + node.pickup - node.delivery
            if (path and (path[-1], c) in inst.forbidden) or after > inst.capacity:
                continue
            found = extend([*path, c], after)
            if found is not None:
                return found
        return None

    return extend([], load)


def construct(inst: Instance, rng: np.random.Generator) -> Routes:
    """A random feasible solution: the clusters in a random order, each
    appended to the open route in the first of up to MAX_RESAMPLES random
    orders that keeps the route feasible; otherwise the route is closed and
    the cluster opens a new one, in a random order that fits a route alone,
    or else in the order of :func:`depth_first_order`."""
    labels = sorted(inst.clusters)
    routes: list[Route] = []
    current: list[int] = []
    for k in rng.permutation(len(labels)):
        members = inst.clusters[labels[k]]
        if current:
            block = draw_block(members, lambda b: breach([current + b], inst) is None, rng)
            if block is not None:
                current += block
                continue
            routes.append(tuple(current))
        block = draw_block(members, lambda b: breach([b], inst) is None, rng)
        if block is None:
            block = depth_first_order(members, inst, rng)
            if block is None:
                raise ValueError(f"cluster {labels[k]} admits no feasible order")
        current = block
    routes.append(tuple(current))
    return tuple(routes)


# ---------------------------------------------------------------- distance


def visit_order(routes: Routes, inst: Instance) -> tuple[int, ...]:
    """Each cluster's customers in visiting order, clusters in
    ``inst.clusters`` order."""
    seqs: dict[int, list[int]] = {label: [] for label in inst.clusters}
    for route in routes:
        for c in route:
            seqs[inst.cluster_of[c]].append(c)
    return tuple(c for seq in seqs.values() for c in seq)


def hamming_distance(a: Routes, b: Routes, inst: Instance) -> int:
    """Cluster by cluster, the positions at which ``a`` and ``b`` visit
    different customers."""
    return sum(x != y for x, y in zip(visit_order(a, inst), visit_order(b, inst)))


def movement_length(r: int, generation: int, rng: np.random.Generator) -> int:
    """Uniform integer in [2, max(2, floor(r * GAMMA**generation))]."""
    return int(rng.integers(2, max(2, math.floor(r * GAMMA**generation)) + 1))


# ------------------------------------------------------------------- moves


def block_of(
    routes: Sequence[Sequence[int]], label: int, inst: Instance
) -> tuple[int, int, int]:
    """(route, start, end) of the first run of ``label``'s customers,
    found by scanning the routes."""
    cluster_of = inst.cluster_of
    for r, route in enumerate(routes):
        for start, c in enumerate(route):
            if cluster_of[c] == label:
                end = start
                while end < len(route) and cluster_of[route[end]] == label:
                    end += 1
                return r, start, end
    raise ValueError(f"no customer of cluster {label}")


def insertion(
    routes: Routes, inst: Instance, rng: np.random.Generator, rejected: list[str] | None = None
) -> tuple[int, Route] | None:
    """Extract a random customer and reinsert it at a random slot of its own
    cluster's block: the changed route's index and the new route, or None
    when the move is the identity (a one-member block, the slot it was
    taken from, or MAX_RESAMPLES infeasible slots). The reason of each
    infeasible slot goes into ``rejected``."""
    customer = inst.customers[int(rng.integers(len(inst.customers)))]
    r, start, end = block_of(routes, inst.cluster_of[customer], inst)
    route = routes[r]
    block = list(route[start:end])
    if len(block) == 1:
        return None
    at = block.index(customer)
    rest = block[:at] + block[at + 1 :]
    for _ in range(MAX_RESAMPLES):
        slot = int(rng.integers(len(block)))
        if slot == at:
            return None
        new_route = (*route[:start], *rest[:slot], customer, *rest[slot:], *route[end:])
        reason = breach([new_route], inst)  # the other routes are the parent's
        if reason is None:
            return r, new_route
        if rejected is not None:
            rejected.append(reason)
    return None


def insertion_move(
    routes: Routes, inst: Instance, rng: np.random.Generator, rejected: list[str] | None = None
) -> Routes:
    """``routes`` with one :func:`insertion` made, or unchanged."""
    found = insertion(routes, inst, rng, rejected)
    if found is None:
        return routes
    r, route = found
    return (*routes[:r], route, *routes[r + 1 :])


def cluster_relocation(routes: Routes, inst: Instance, rng: np.random.Generator) -> Routes:
    """Move a random cluster's block, in its order, to a random slot: in
    front of any block, at the end of any route, or into a new route after
    the others; a route left empty is dropped. An infeasible slot is
    redrawn, up to MAX_RESAMPLES times, and then ``routes`` stays."""
    labels = sorted(inst.clusters)
    label = labels[int(rng.integers(len(labels)))]
    src, start, end = block_of(routes, label, inst)
    block = routes[src][start:end]
    remaining = [route for r, route in enumerate(routes) if r != src]
    if start > 0 or end < len(routes[src]):
        remaining.insert(src, routes[src][:start] + routes[src][end:])
    slots = [(-1, 0)]  # a new route, sorted first
    for r, route in enumerate(remaining):
        labels_along = [inst.cluster_of[c] for c in route]
        slots += [
            (r, pos)
            for pos in range(len(route) + 1)
            if pos in (0, len(route)) or labels_along[pos] != labels_along[pos - 1]
        ]
    for _ in range(MAX_RESAMPLES):
        r, pos = slots[int(rng.integers(len(slots)))]
        if r < 0:
            candidate = (*remaining, block)
        else:
            target = remaining[r][:pos] + block + remaining[r][pos:]
            candidate = (*remaining[:r], target, *remaining[r + 1 :])
        if breach(candidate, inst) is None:
            return candidate
    return routes


def propose(
    routes: Routes,
    inst: Instance,
    rng: np.random.Generator,
    relocation_rate: float,
    rejected: list[str] | None = None,
) -> Routes:
    """One candidate: a cluster relocation with probability
    ``relocation_rate`` (no draw when it is 0), else an insertion."""
    if relocation_rate > 0.0 and rng.random() < relocation_rate:
        return cluster_relocation(routes, inst, rng)
    return insertion_move(routes, inst, rng, rejected)


def firefly_move(
    routes: Routes,
    n: int,
    inst: Instance,
    rng: np.random.Generator,
    on_candidate: Callable[[float], None],
    relocation_rate: float = 0.0,
    rejected: list[str] | None = None,
) -> tuple[Routes, float]:
    """The cheapest of ``n`` candidates, each proposed from ``routes`` and
    priced in full (the first wins a tie), with its cost; ``on_candidate``
    gets every candidate's cost."""
    best, best_cost = routes, math.inf
    for _ in range(n):
        cand = propose(routes, inst, rng, relocation_rate, rejected)
        cost = solution_cost(cand, inst)
        on_candidate(cost)
        if cost < best_cost:
            best, best_cost = cand, cost
    return best, best_cost


# ----------------------------------------------------------- the stall rule


class Stalled(Exception):
    """The stall budget ran out."""


class Run:
    """Counts evaluations, keeps the best solution and applies the stall
    rule: a run ends once n + n(n+1)/2 proposals in a row (n customers) have
    not lowered the best cost. A proposal is one evaluated initial solution,
    EA offspring or annealing candidate, or one whole firefly move."""

    def __init__(self, inst: Instance):
        n = inst.n_customers
        self.budget = n + n * (n + 1) // 2
        self.stall = 0
        self.evaluations = 0
        self.best_cost = math.inf
        self.best_routes: Routes | None = None
        self.history: list[tuple[int, float]] = []
        self._improved = False

    def evaluate(self, cost: float) -> None:
        """Count one priced candidate."""
        self.evaluations += 1
        if cost < self.best_cost:
            self.best_cost = cost
            self.history.append((self.evaluations, cost))
            self._improved = True

    def close(self, winner: Routes) -> None:
        """End a proposal whose cheapest candidate is ``winner``."""
        if self._improved:
            self.best_routes = winner
            self.stall = 0
            self._improved = False
        else:
            self.stall += 1
            if self.stall >= self.budget:
                raise Stalled

    def propose(self, routes: Routes, inst: Instance) -> float:
        """Price ``routes`` as a one-candidate proposal; its cost."""
        cost = solution_cost(routes, inst)
        self.evaluate(cost)
        self.close(routes)
        return cost


# --------------------------------------------------------------- the searches


def dfa(
    inst: Instance, run: Run, pop: list[Routes], costs: list[float],
    rngs: list[np.random.Generator], relocation_rate: float,
) -> None:
    """Discrete firefly algorithm: in generation g, every firefly i moves
    toward each brighter (cheaper) firefly j, one pair after the other: the
    Hamming distance r between them sets a movement length drawn from
    [2, max(2, floor(r * GAMMA**g))], and firefly i becomes the cheapest of
    that many candidates. It ends when a generation moves no firefly."""
    g = 0
    moved = True
    while moved:
        g += 1
        moved = False
        for i in range(len(pop)):
            for j in range(len(pop)):
                if costs[j] < costs[i]:
                    n = movement_length(hamming_distance(pop[i], pop[j], inst), g, rngs[i])
                    pop[i], costs[i] = firefly_move(
                        pop[i], n, inst, rngs[i], run.evaluate, relocation_rate
                    )
                    run.close(pop[i])
                    moved = True


def ea(
    inst: Instance, run: Run, pop: list[Routes], costs: list[float],
    rngs: list[np.random.Generator], relocation_rate: float,
) -> None:
    """Mutation-only EA: every individual proposes one offspring; of the 2P
    parents and offspring, the ceil(0.7 P) cheapest survive (the earlier on a
    tie) and the rest of the P survivors are drawn from the others, without
    replacement, from the selection stream."""
    size = len(pop)
    elites = math.ceil(ELITIST_FRACTION * size)
    selection = rngs[size]
    while True:
        offspring = [propose(pop[i], inst, rngs[i], relocation_rate) for i in range(size)]
        pool = pop + offspring
        pool_costs = costs + [run.propose(child, inst) for child in offspring]
        ranked = sorted(range(2 * size), key=pool_costs.__getitem__)
        keep = ranked[:elites]
        if size > elites:
            picks = selection.choice(2 * size - elites, size=size - elites, replace=False)
            keep += [ranked[elites + int(p)] for p in sorted(picks)]
        pop = [pool[t] for t in keep]
        costs = [pool_costs[t] for t in keep]


def esa(
    inst: Instance, run: Run, pop: list[Routes], costs: list[float],
    rngs: list[np.random.Generator], relocation_rate: float,
) -> None:
    """Population simulated annealing: every chain proposes one candidate
    per generation and takes it by the Metropolis rule at a shared
    temperature, which starts where the initial cost spread is accepted with
    probability ACCEPTANCE_P and cools by COOLING_CONSTANT per generation."""
    spread = max(costs) - min(costs)
    temperature = 0.0 if spread == 0 else -spread / math.log(ACCEPTANCE_P)
    while True:
        for i in range(len(pop)):
            cand = propose(pop[i], inst, rngs[i], relocation_rate)
            cost = run.propose(cand, inst)
            delta = cost - costs[i]
            if delta <= 0 or (
                temperature > 0 and rngs[i].random() < math.exp(-delta / temperature)
            ):
                pop[i], costs[i] = cand, cost
        temperature *= COOLING_CONSTANT


SEARCHES = {"dfa": dfa, "ea": ea, "esa": esa}


def solve(
    inst: Instance, algorithm: str, population_size: int, seed: int, relocation: bool = False
) -> Run:
    """Construct and price P solutions, one proposal each, then run the
    search until the stall rule stops it (or DFA ends); the finished
    :class:`Run`."""
    children = np.random.SeedSequence(seed).spawn(population_size + 1)
    rngs = [np.random.default_rng(child) for child in children]
    run = Run(inst)
    try:
        pop = [construct(inst, rngs[i]) for i in range(population_size)]
        costs = [run.propose(routes, inst) for routes in pop]
        SEARCHES[algorithm](inst, run, pop, costs, rngs, RELOCATION_RATE if relocation else 0.0)
    except Stalled:
        pass
    return run
