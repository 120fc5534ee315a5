"""Time-dependent route costing and feasibility checking.

Every vehicle leaves the depot at ``day_start_s`` (06:00, t = 0 s, on every
generated instance). An arc is priced from the peak matrix when the departure
time from its origin falls inside the half-open peak window [08:00, 10:00),
otherwise from the off-peak matrix; travel time equals travel cost and
service times are zero. :func:`route_cost` is the one route simulator and
:func:`solution_cost` the one pricing of a solution; :func:`check_feasible`
only checks the rules and prices nothing. Its capacity rule reads the one
load walk, ``instance.route_load``, as ``instance.route_load_ok`` does.
"""

from __future__ import annotations

from .instance import Instance, Solution, ValidationIssue, ValidationReport, route_load

COST_EQ_TOL = 1e-6  # absolute tolerance for cost equality in tests/reports


def route_cost(route, inst: Instance) -> float:
    """Cost of one route, depot -> customers -> depot: the program's one
    route simulator. Each arc is priced from the matrix of its departure time
    and the clock moves by its cost; ``tests/spec.py`` prices the same floats,
    in the same order, arc by arc.

    Once the clock reaches the end of the peak window, the remaining arcs are
    added at off-peak cost without moving or testing the clock. That is exact
    because costs are non-negative (``validate_instance`` rejects
    ``negative-cost``), so no later departure falls back inside the window; a
    NaN clock never passes the test, so it prices as a moving clock does.

    It trusts its ids to be customers of ``inst``, as ``decode`` and the
    operators guarantee; an unknown id may raise or price a wrong arc.
    """
    index = inst.index
    off, peak = inst.cost_offpeak, inst.cost_peak
    lo, hi = inst.peak_window_s
    t = float(inst.day_start_s)
    total = 0.0
    prev = depot = index[0]
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
        return total + (peak if lo <= t < hi else off)[prev][depot]
    for node_id in stops:
        cur = index[node_id]
        total += off[prev][cur]
        prev = cur
    return total + off[prev][depot]


def solution_cost(sol: Solution, inst: Instance) -> float:
    """Total cost: the sum of all route costs."""
    return sum(route_cost(route, inst) for route in sol.routes)


def check_feasible(sol: Solution, inst: Instance) -> ValidationReport:
    """Check an arbitrary candidate and enumerate all constraint breaches;
    it prices no route (:func:`solution_cost` does).

    Issue names: visit-count, cluster-split, cluster-noncontiguous,
    capacity-exceeded (per route, its peak load from ``route_load``),
    forbidden-arc-used, empty-route, unknown-customer.
    Degree/flow constraints hold by construction of the route representation.
    """
    violations: list[ValidationIssue] = []

    known = set(inst.customers)
    unknown = sorted({c for c in sol.customers() if c not in known})
    for c in unknown:
        violations.append(ValidationIssue("unknown-customer", str(c)))
    for r, route in enumerate(sol.routes):
        if not route:
            violations.append(ValidationIssue("empty-route", f"route {r}"))
    if unknown or any(not route for route in sol.routes):
        return ValidationReport(violations)

    counts: dict[int, int] = {}
    for c in sol.customers():
        counts[c] = counts.get(c, 0) + 1
    for c, k in sorted(counts.items()):
        if k > 1:
            violations.append(ValidationIssue("visit-count", f"customer {c} visited {k} times"))
    for c in sorted(known - set(counts)):
        violations.append(ValidationIssue("visit-count", f"customer {c} not visited"))

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
                    ValidationIssue("cluster-noncontiguous", f"cluster {label} split inside route {r}")
                )
        for label in blocks:
            if label in cluster_route and cluster_route[label] != r:
                violations.append(
                    ValidationIssue(
                        "cluster-split",
                        f"cluster {label} in routes {cluster_route[label]} and {r}",
                    )
                )
            cluster_route.setdefault(label, r)

    for r, route in enumerate(sol.routes):
        total, _, peak = route_load(route, inst)
        if total + peak > inst.capacity:
            violations.append(ValidationIssue("capacity-exceeded", f"route {r} peak load {total + peak}"))
        arcs = zip((0, *route), (*route, 0))
        for i, j in arcs:
            if (i, j) in inst.forbidden:
                violations.append(ValidationIssue("forbidden-arc-used", f"route {r} arc ({i},{j})"))

    return ValidationReport(violations)
