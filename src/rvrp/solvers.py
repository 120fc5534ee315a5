"""The three metaheuristics: discrete firefly (DFA), mutation-only EA, and
population simulated annealing (ESA).

All three share the random construction, the insertion neighborhood and the
stall-based stop rule: a run ends once ``n + n(n+1)/2`` consecutive proposals
(n = number of customers) pass without improving the global best. A proposal
is one evaluation event of the main loop: one initial individual, one EA
offspring, one annealing proposal (rejected ones included), or one firefly
move; the candidates inside a firefly's pool belong to a single move. The
counter is checked after every proposal and resets on any strict improvement,
so a run can stop mid-generation. ``evaluations_total`` nevertheless reports
every objective call, pool candidates included.

Runs are fully reproducible: the config seed spawns one child RNG stream per
population slot plus the EA's selection stream, which DFA and ESA spawn too
and leave unused (a spawned child does not depend on the count), so results
do not depend on evaluation scheduling. Once the initial population is
built, each slot's stream is read through ``draws.Draws``, which returns the
values the ``Generator`` would, at a fraction of its per-call cost.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .draws import Draws, Rng
from .evaluation import solution_cost
from .instance import Instance, Solution
from .operators import (
    cluster_relocation,
    hamming_distance,
    insertion_move,
    move_firefly,
    random_solution,
)

ALGORITHMS = ("dfa", "ea", "esa")

# share of proposals drawn from cluster_relocation when the extension is on
RELOCATION_RATE = 0.2
# DFA: light absorption; a movement spans at most floor(r * GAMMA**generation)
GAMMA = 0.95
# EA: share of survivors taken best-first, rounded up; the rest are random
ELITIST_FRACTION = 0.7
# ESA: geometric cooling factor applied after every generation
COOLING_CONSTANT = 0.95
# ESA: acceptance probability of the worst initial spread at the start temperature
ACCEPTANCE_P = 0.95


def movement_length(r: int, generation: int, rng: Rng) -> int:
    """Uniform integer in [2, max(2, floor(r * GAMMA**generation))]."""
    return int(rng.integers(2, max(2, math.floor(r * GAMMA**generation)) + 1))


def termination_budget(n: int) -> int:
    """Stall budget for an n-customer problem: consecutive proposals allowed
    without improving the global best."""
    if n < 1:
        raise ValueError("problem size must be at least 1")
    return n + n * (n + 1) // 2


@dataclass(frozen=True)
class SolverConfig:
    """One run's settings, checked when built: an unknown algorithm, a
    population below one or a negative seed is a ValueError."""

    algorithm: str = "dfa"
    population_size: int = 100
    seed: int = 0
    enable_cluster_relocation: bool = False

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.population_size < 1:
            raise ValueError("population_size must be positive")
        if self.seed < 0:  # numpy's SeedSequence takes no negative entropy
            raise ValueError(f"seed must be non-negative, not {self.seed}")


def grid_configs(text: str) -> dict[str, SolverConfig]:
    """The label -> config map of a comma-separated list of grid entries.

    An entry is ``<algorithm>[@p<size>][+reloc]``, in that order, and is its
    own label. ``@p<size>`` sets the entry's population size and ``+reloc``
    turns cluster relocation on; every other field comes from
    ``SolverConfig``. Blank entries are skipped. A ValueError names an entry
    that is not of that form, with ``<size>`` a positive decimal integer
    without sign, underscore or leading zero; whose settings ``SolverConfig``
    rejects; or that an earlier entry repeats.
    """
    configs: dict[str, SolverConfig] = {}
    for label in filter(None, (entry.strip() for entry in text.split(","))):
        match = re.fullmatch(r"([^@+]*)(?:@p([1-9][0-9]*))?(\+reloc)?", label)
        if match is None:
            raise ValueError(
                f"entry {label!r} is not <algorithm>[@p<size>][+reloc], with <size> a positive"
                " integer with no sign, underscore or leading zero"
            )
        if label in configs:
            raise ValueError(f"entry {label!r} is listed twice")
        algorithm, size, reloc = match.groups()
        settings = {"population_size": int(size)} if size else {}
        try:
            configs[label] = SolverConfig(algorithm, enable_cluster_relocation=bool(reloc), **settings)
        except ValueError as exc:
            raise ValueError(f"entry {label!r}: {exc}") from None
    return configs


@dataclass
class SolveResult:
    best_solution: Solution
    best_cost: float
    evaluations_total: int
    wall_time_s: float
    convergence_time_s: float
    cost_history: list[tuple[int, float]]  # (evaluations, cost) at each improvement of the best

    @property
    def convergence_evaluations(self) -> int:
        """The evaluations made when the best cost was last improved."""
        return self.cost_history[-1][0]


class BudgetExhausted(Exception):
    """Internal control flow: the stall counter reached the budget."""


class _Tracker:
    """Counts objective evaluations, tracks the global best and stops the run.

    ``record`` accounts a single objective call of the given cost;
    ``end_proposal`` closes one proposal (which may have recorded several
    pool candidates), stores its winner when the proposal improved the global
    best, and advances or resets the stall counter.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.evaluations = 0
        self.stall = 0
        self._improved = False
        self.best_solution: Solution | None = None
        self.best_cost = math.inf
        self.history: list[tuple[int, float]] = []
        self.started = time.monotonic()
        self.convergence_time_s = 0.0

    def record(self, cost: float) -> None:
        self.evaluations += 1
        if cost < self.best_cost:
            self.best_cost = cost
            self._improved = True
            self.history.append((self.evaluations, cost))
            self.convergence_time_s = time.monotonic() - self.started

    def end_proposal(self, winner: Solution) -> None:
        """Close a proposal whose cheapest candidate (the first, on ties) is
        ``winner``: when it improved the global best, it is the candidate
        that did."""
        if self._improved:
            self.best_solution = winner
            self.stall = 0
            self._improved = False
        else:
            self.stall += 1
            if self.stall >= self.budget:
                raise BudgetExhausted

    def propose(self, sol: Solution, cost: float) -> float:
        """Record one single-candidate proposal (initialization, EA offspring,
        annealing proposal) of the given cost."""
        self.record(cost)
        self.end_proposal(sol)
        return cost

    def result(self) -> SolveResult:
        assert self.best_solution is not None, "no evaluation was recorded"
        wall = time.monotonic() - self.started
        return SolveResult(
            best_solution=self.best_solution,
            best_cost=self.best_cost,
            evaluations_total=self.evaluations,
            wall_time_s=round(wall, 3),
            convergence_time_s=round(self.convergence_time_s, 3),
            cost_history=self.history,
        )


def _propose(sol: Solution, inst: Instance, rng: Rng, relocation_rate: float) -> Solution:
    """One EA offspring or annealing proposal; it carries its route costs."""
    if relocation_rate > 0.0 and rng.random() < relocation_rate:
        return cluster_relocation(sol, inst, rng)
    return insertion_move(sol, inst, rng)


# ------------------------------------------------------------------- DFA


def _dfa(
    inst: Instance, tracker: _Tracker, pop: list[Solution], costs: list[float],
    draws: list[Draws], selection: np.random.Generator, relocation: float,
) -> None:
    """Discrete firefly search.

    Per generation g, every firefly i is pulled toward each brighter firefly j
    (lower cost; raw cost is the light intensity): the cluster-wise Hamming
    distance r gives a movement length n drawn uniformly from
    [2, max(2, floor(r * GAMMA**g))], and the firefly is replaced by the best
    of n independent one-insertion candidates. Intensities update immediately,
    so later pairs in the same sweep see moved fireflies. The brightest
    firefly never moves. Returns once no firefly is brighter than another
    (e.g. a population of one, or all costs equal).
    """
    pop_n = len(pop)
    g = 0
    moved = True
    while moved:
        g += 1
        moved = False
        for i in range(pop_n):
            for j in range(pop_n):
                if costs[j] < costs[i]:
                    r = hamming_distance(pop[i], pop[j], inst)
                    n = movement_length(r, g, draws[i])
                    pop[i], costs[i] = move_firefly(
                        pop[i],
                        n,
                        inst,
                        draws[i],
                        on_candidate=tracker.record,
                        relocation_rate=relocation,
                    )
                    tracker.end_proposal(pop[i])
                    moved = True


# -------------------------------------------------------------------- EA


def survivor_counts(population_size: int) -> tuple[int, int]:
    """(elite, random) survivor counts; elites are rounded up."""
    elites = min(population_size, math.ceil(ELITIST_FRACTION * population_size))
    return elites, population_size - elites


def _ea(
    inst: Instance, tracker: _Tracker, pop: list[Solution], costs: list[float],
    draws: list[Draws], selection: np.random.Generator, relocation: float,
) -> None:
    """Mutation-only evolutionary algorithm.

    Each generation every individual spawns one offspring through the
    insertion move; survivors over the pooled 2P candidates are the best
    ceil(0.7 P) plus floor(0.3 P) drawn uniformly from the remainder with the
    ``selection`` stream.
    """
    pop_n = len(pop)
    elites_n, random_n = survivor_counts(pop_n)
    while True:
        offspring: list[Solution] = []
        off_costs: list[float] = []
        for i in range(pop_n):
            child = _propose(pop[i], inst, draws[i], relocation)
            offspring.append(child)
            off_costs.append(tracker.propose(child, sum(child.costs)))
        pool = pop + offspring
        pool_costs = costs + off_costs
        order = sorted(range(len(pool)), key=pool_costs.__getitem__)
        keep = order[:elites_n]
        rest = order[elites_n:]
        if random_n:
            picks = selection.choice(len(rest), size=random_n, replace=False)
            keep += [rest[p] for p in sorted(int(p) for p in picks)]
        pop = [pool[t] for t in keep]
        costs = [pool_costs[t] for t in keep]


# ------------------------------------------------------------------- ESA


def esa_initial_temperature(costs: Sequence[float]) -> float:
    """Starting temperature from the initial population's cost spread:
    -(worst - best) / ln(ACCEPTANCE_P)."""
    spread = max(costs) - min(costs)
    if spread == 0:
        return 0.0
    return -spread / math.log(ACCEPTANCE_P)


def metropolis_accept(delta: float, temperature: float, rng: Rng) -> bool:
    """Accept a proposal worse by ``delta`` (>0) with probability
    exp(-delta/temperature); improvements and ties are always accepted."""
    if delta <= 0:
        return True
    if temperature <= 0:
        return False
    return rng.random() < math.exp(-delta / temperature)


def _esa(
    inst: Instance, tracker: _Tracker, pop: list[Solution], costs: list[float],
    draws: list[Draws], selection: np.random.Generator, relocation: float,
) -> None:
    """Population of Metropolis chains under one shared geometric cooling."""
    temperature = esa_initial_temperature(costs)
    while True:
        for i in range(len(pop)):
            cand = _propose(pop[i], inst, draws[i], relocation)
            cost = tracker.propose(cand, sum(cand.costs))
            if metropolis_accept(cost - costs[i], temperature, draws[i]):
                pop[i], costs[i] = cand, cost
        temperature *= COOLING_CONSTANT


# ------------------------------------------------------------ entry point


_LOOPS = {"dfa": _dfa, "ea": _ea, "esa": _esa}


def solve(inst: Instance, cfg: SolverConfig) -> SolveResult:
    """Run ``cfg.algorithm`` on ``inst``: the one entry point of the solvers.

    It owns what the three share: the streams, the construction and pricing
    of the initial population (one proposal each, so the budget can run out
    here), the ``Draws`` wrapping and the stop rule. The algorithm itself is
    a generation loop that updates the population it is handed.
    """
    pop_n = cfg.population_size
    streams = [np.random.default_rng(c) for c in np.random.SeedSequence(cfg.seed).spawn(pop_n + 1)]
    tracker = _Tracker(termination_budget(inst.n_customers))
    relocation = RELOCATION_RATE if cfg.enable_cluster_relocation else 0.0
    try:
        pop = [random_solution(inst, streams[i]) for i in range(pop_n)]
        costs = [tracker.propose(s, solution_cost(s, inst)) for s in pop]
        draws = [Draws(streams[i]) for i in range(pop_n)]
        _LOOPS[cfg.algorithm](inst, tracker, pop, costs, draws, streams[pop_n], relocation)
    except BudgetExhausted:
        pass
    return tracker.result()
