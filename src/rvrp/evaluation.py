"""Time-dependent route costing and feasibility checking.

Every vehicle leaves the depot at 06:00 (t = 0 s). An arc is priced from the
peak matrix when the departure time from its origin falls inside the half-open
peak window [08:00, 10:00), otherwise from the off-peak matrix; travel time
equals travel cost and service times are zero. Loads are simulated exactly:
the vehicle leaves the depot carrying the sum of the route's deliveries and
each visit applies ``-delivery +pickup``.

Routes that run past the 15:00 end of day only raise a warning; the working
day informs pricing, not feasibility.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instance import Instance, OFFPEAK, PEAK, Solution

COST_EQ_TOL = 1e-6  # absolute tolerance for cost equality in tests/reports


@dataclass(frozen=True)
class TimelineStep:
    """One traversed arc: origin node, departure time, priced cost, matrix tag."""

    node: int
    departure_s: float
    arc_cost_s: float
    matrix: str


@dataclass
class Timeline:
    steps: list[TimelineStep]
    total_cost_s: float
    end_time_s: float


@dataclass
class LoadProfile:
    initial_load: int
    loads: list[int]

    @property
    def max_load(self) -> int:
        return max(self.initial_load, *self.loads) if self.loads else self.initial_load


def _require_known(route, inst: Instance) -> None:
    for node_id in route:
        if node_id not in inst.index or node_id == 0:
            raise ValueError(f"unknown node id in route: {node_id}")


def route_timeline(route, inst: Instance) -> Timeline:
    """Simulate one route depot -> customers -> depot with per-arc pricing."""
    if not route:
        raise ValueError("route must be nonempty")
    _require_known(route, inst)
    index = inst.index
    off, peak = inst.cost_offpeak, inst.cost_peak
    lo, hi = inst.peak_window_s
    t = float(inst.day_start_s)
    steps: list[TimelineStep] = []
    prev_id, prev = 0, index[0]
    total = 0.0
    for node_id in (*route, 0):
        cur = index[node_id]
        in_peak = lo <= t < hi
        cost = (peak if in_peak else off)[prev][cur]
        steps.append(TimelineStep(prev_id, t, cost, PEAK if in_peak else OFFPEAK))
        t += cost
        total += cost
        prev_id, prev = node_id, cur
    return Timeline(steps=steps, total_cost_s=total, end_time_s=t)


def route_cost(route, inst: Instance) -> float:
    """Cost of one route; the same floats, added in the same order, as
    :func:`route_timeline`, without materialising steps (hot path).

    Once the clock reaches the end of the peak window, the remaining arcs are
    added at off-peak cost without moving or testing the clock. That is exact
    because costs are non-negative (``validate_instance`` rejects
    ``negative-cost``), so no later departure falls back inside the window; a
    NaN clock never passes the test, so it prices as the timeline does.
    """
    index = inst.index
    off, peak = inst.cost_offpeak, inst.cost_peak
    lo, hi = inst.peak_window_s
    t = float(inst.day_start_s)
    total = 0.0
    prev = index[0]
    stops = iter(route)
    for node_id in stops:
        cur = index[node_id]
        cost = (peak if lo <= t < hi else off)[prev][cur]
        t += cost
        total += cost
        prev = cur
        if t >= hi:
            break
    else:
        return total + (peak if lo <= t < hi else off)[prev][index[0]]
    for node_id in stops:
        cur = index[node_id]
        total += off[prev][cur]
        prev = cur
    return total + off[prev][index[0]]


def solution_cost(sol: Solution, inst: Instance) -> float:
    """Total cost: the sum of all route costs."""
    return sum(route_cost(route, inst) for route in sol.routes)


def load_profile(route, inst: Instance) -> LoadProfile:
    """Exact load simulation: start with all deliveries, apply -d+p per visit."""
    if not route:
        raise ValueError("route must be nonempty")
    _require_known(route, inst)
    delivery, pickup = inst.delivery, inst.pickup
    load = sum(delivery[c] for c in route)
    profile = LoadProfile(initial_load=load, loads=[])
    for c in route:
        load += pickup[c] - delivery[c]
        profile.loads.append(load)
    return profile


@dataclass(frozen=True)
class Violation:
    tag: str
    detail: str


@dataclass
class EvaluationReport:
    total_cost: float
    route_costs: list[float]
    feasible: bool
    violations: list[Violation]
    warnings: list[str]

    @property
    def violation_tags(self) -> list[str]:
        return [v.tag for v in self.violations]


def check_feasible(sol: Solution, inst: Instance) -> EvaluationReport:
    """Evaluate an arbitrary candidate and enumerate all constraint breaches.

    Violation tags: visit-count, cluster-split, cluster-noncontiguous,
    capacity-exceeded, forbidden-arc-used, empty-route, unknown-customer.
    Degree/flow constraints hold by construction of the route representation.
    """
    violations: list[Violation] = []
    warnings: list[str] = []

    known = set(inst.customers)
    unknown = sorted({c for c in sol.customers() if c not in known})
    for c in unknown:
        violations.append(Violation("unknown-customer", str(c)))
    for r, route in enumerate(sol.routes):
        if not route:
            violations.append(Violation("empty-route", f"route {r}"))
    if unknown or any(not route for route in sol.routes):
        return EvaluationReport(float("nan"), [], False, violations, warnings)

    counts: dict[int, int] = {}
    for c in sol.customers():
        counts[c] = counts.get(c, 0) + 1
    for c, k in sorted(counts.items()):
        if k > 1:
            violations.append(Violation("visit-count", f"customer {c} visited {k} times"))
    for c in sorted(known - set(counts)):
        violations.append(Violation("visit-count", f"customer {c} not visited"))

    # cluster contiguity within a route; one route per cluster overall
    cluster_route: dict[int, int] = {}
    for r, route in enumerate(sol.routes):
        blocks: list[int] = []
        for c in route:
            label = inst.cluster_of[c]
            if not blocks or blocks[-1] != label:
                blocks.append(label)
        for label in set(blocks):
            if blocks.count(label) > 1:
                violations.append(
                    Violation("cluster-noncontiguous", f"cluster {label} split inside route {r}")
                )
        for label in blocks:
            if label in cluster_route and cluster_route[label] != r:
                violations.append(
                    Violation(
                        "cluster-split",
                        f"cluster {label} in routes {cluster_route[label]} and {r}",
                    )
                )
            cluster_route.setdefault(label, r)

    route_costs: list[float] = []
    for r, route in enumerate(sol.routes):
        profile = load_profile(route, inst)
        if profile.initial_load > inst.capacity:
            violations.append(
                Violation("capacity-exceeded", f"route {r} position -1 load {profile.initial_load}")
            )
        for pos, load in enumerate(profile.loads):
            if load > inst.capacity:
                violations.append(
                    Violation("capacity-exceeded", f"route {r} position {pos} load {load}")
                )
        arcs = zip((0, *route), (*route, 0))
        for i, j in arcs:
            if (i, j) in inst.forbidden:
                violations.append(Violation("forbidden-arc-used", f"route {r} arc ({i},{j})"))
        timeline = route_timeline(route, inst)
        route_costs.append(timeline.total_cost_s)
        if timeline.end_time_s > inst.day_end_s:
            warnings.append(f"route {r} ends at {timeline.end_time_s:.0f}s, past the working day")

    return EvaluationReport(
        total_cost=sum(route_costs),
        route_costs=route_costs,
        feasible=not violations,
        violations=violations,
        warnings=warnings,
    )
