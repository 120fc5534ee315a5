"""Problem data model: clustered customers, asymmetric dual cost matrices and
route-set solutions.

A problem instance is a complete directed graph over one depot (id 0) and n
customers. Customers are partitioned into clusters that must each be served
contiguously by a single vehicle. Every customer carries a delivery demand
(loaded at the depot) and a pickup demand (returned to the depot). Two dense
cost matrices price each arc in travel-seconds: one for the off-peak schedule
and a more expensive one for the 08:00-10:00 peak window. A set of ordered
forbidden arcs may never appear in a route.

Solutions are route lists over customer ids. The canonical flat encoding is a
permutation of all customer ids with a single 0 between consecutive routes and
no leading/trailing zeros, so empty routes are unrepresentable.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from itertools import accumulate, chain, permutations
from pathlib import Path
from typing import Collection, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .jsonio import write_json

DAY_START_S = 0
PEAK_START_S = 7200
PEAK_END_S = 14400
DAY_END_S = 32400

OFFPEAK = "offpeak"
PEAK = "peak"

COST_DECIMALS = 2  # serialized cost precision; files are the reproducibility ground truth

# node ids index lists (``Instance.index``, ``Instance.forbidden_after``), so
# they are bounded; the benchmark skeleton's ids are 0..100
MAX_NODE_ID = 65_535

# a cluster of at most this many members (at most 720 orders to enumerate) is
# tight when fewer than TIGHT_SHARE of its orders use no forbidden arc
ORDER_TABLE_MAX_MEMBERS = 6
TIGHT_SHARE = 1 / 8


@dataclass(frozen=True)
class Node:
    """Depot (id 0, cluster 0) or customer node.

    Coordinates are planar, in units where one distance unit equals one
    travel-second.
    """

    id: int
    x: float
    y: float
    delivery: int
    pickup: int
    cluster: int


@dataclass(frozen=True)
class Solution:
    """Ordered routes over customer ids; the depot is implicit at both ends.

    ``blocks`` (cluster label -> ``(route, start, end)``), ``costs`` (the
    cost of each route) and ``visits`` (every cluster's block, clusters in
    ``Instance.clusters`` order) are derived search state that the operators
    carry from a solution to its candidates, valid for the instance they were
    made on. They are ignored by equality, hashing, ``repr`` and every
    output, and are None on a solution built from routes alone; only the
    firefly move derives ``visits``, and an insertion keeps a carried one.
    """

    routes: tuple[tuple[int, ...], ...]
    blocks: Mapping[int, tuple[int, int, int]] | None = field(
        default=None, compare=False, repr=False
    )
    costs: tuple[float, ...] | None = field(default=None, compare=False, repr=False)
    visits: tuple[int, ...] | None = field(default=None, compare=False, repr=False)

    @classmethod
    def from_routes(cls, routes: Iterable[Iterable[int]]) -> "Solution":
        return cls(tuple(tuple(r) for r in routes))

    @property
    def vehicles(self) -> int:
        return len(self.routes)

    def customers(self) -> Iterator[int]:
        for route in self.routes:
            yield from route


class DecodeError(ValueError):
    """Flat encoding cannot be decoded; ``reason`` is a stable tag."""

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(f"{reason}: {detail}" if detail else reason)


def label_clusters(nodes: Iterable[Node]) -> dict[int, tuple[int, ...]]:
    """The cluster partition: each label's customers in node order, labels
    ascending."""
    groups: dict[int, list[int]] = {}
    for node in nodes:
        if node.id != 0:
            groups.setdefault(node.cluster, []).append(node.id)
    return {label: tuple(ids) for label, ids in sorted(groups.items())}


@dataclass
class Instance:
    """Immutable problem instance.

    ``nodes`` must list the depot first; matrix row/column order follows the
    node order (``index[node_id]`` is the node's matrix index, None where no
    node has that id, so derived instances can keep their original,
    non-contiguous ids; ids lie in 0..``MAX_NODE_ID``). The nodes' cluster
    labels are the only description of the partition; ``clusters`` is derived
    from them by :func:`label_clusters`.
    """

    name: str
    nodes: tuple[Node, ...]
    capacity: int
    cost_offpeak: list[list[float]]
    cost_peak: list[list[float]]
    forbidden: frozenset[tuple[int, int]] = frozenset()
    day_start_s: int = DAY_START_S
    peak_window_s: tuple[int, int] = (PEAK_START_S, PEAK_END_S)
    day_end_s: int = DAY_END_S

    # derived lookups, built once; treat the instance as immutable afterwards
    index: list[int | None] = field(init=False, repr=False)
    # node id -> the ids j such that (id, j) is forbidden
    forbidden_after: list[frozenset[int]] = field(init=False, repr=False)
    customers: tuple[int, ...] = field(init=False, repr=False)
    delivery: dict[int, int] = field(init=False, repr=False)
    load_change: dict[int, int] = field(init=False, repr=False)  # pickup - delivery
    # labels of the clusters with a member that picks up more than it delivers
    rising_clusters: frozenset[int] = field(init=False, repr=False)
    cluster_of: dict[int, int] = field(init=False, repr=False)
    clusters: dict[int, tuple[int, ...]] = field(init=False, repr=False)
    # label -> where the cluster's block starts in ``Solution.visits``
    cluster_offset: dict[int, int] = field(init=False, repr=False)
    # a cluster's members -> their free-order mask (``free_orders``) or None
    tight_orders: dict[tuple[int, ...], np.ndarray | None] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        self.nodes = tuple(self.nodes)
        self.forbidden = frozenset((int(i), int(j)) for i, j in self.forbidden)
        ids = [node.id for node in self.nodes]
        lowest, highest = min(ids, default=0), max(ids, default=0)
        if lowest < 0 or highest > MAX_NODE_ID:
            bad = lowest if lowest < 0 else highest
            raise ValueError(f"nodes has the id {bad!r}, outside 0..{MAX_NODE_ID}")
        self.index = [None] * (highest + 1)
        for pos, node_id in enumerate(ids):
            self.index[node_id] = pos
        # one shared empty set; ``|=`` on a frozenset binds a new one
        self.forbidden_after = [frozenset()] * (highest + 1)
        for i, j in self.forbidden:
            if 0 <= i <= highest:  # an arc from an id no node has is never tested
                self.forbidden_after[i] |= {j}
        self.customers = tuple(node.id for node in self.nodes if node.id != 0)
        self.delivery = {node.id: node.delivery for node in self.nodes}
        self.load_change = {node.id: node.pickup - node.delivery for node in self.nodes}
        self.cluster_of = {node.id: node.cluster for node in self.nodes}
        self.rising_clusters = frozenset(
            node.cluster for node in self.nodes if node.pickup > node.delivery
        )
        self.clusters = label_clusters(self.nodes)
        sizes = [len(members) for members in self.clusters.values()]
        self.cluster_offset = dict(zip(self.clusters, accumulate(sizes, initial=0)))
        self.tight_orders = {members: free_orders(members, self) for members in self.clusters.values()}

    @property
    def n_customers(self) -> int:
        return len(self.customers)

    def position(self, node_id: int) -> int:
        """The node's matrix index; a ValueError for an id no node has."""
        try:
            pos = self.index[node_id] if node_id >= 0 else None
        except (IndexError, TypeError):  # past the last id, or not an integer
            pos = None
        if pos is None:
            raise ValueError(f"unknown node id: {node_id!r}")
        return pos

    def node(self, node_id: int) -> Node:
        return self.nodes[self.position(node_id)]

    # ------------------------------------------------------------------ JSON

    def to_dict(self) -> dict:
        """JSON-ready dict; costs rounded to 2 decimals (file schema)."""
        return {
            "name": self.name,
            "capacity": int(self.capacity),
            "day_start_s": int(self.day_start_s),
            "peak_window_s": [int(self.peak_window_s[0]), int(self.peak_window_s[1])],
            "day_end_s": int(self.day_end_s),
            "nodes": [
                {
                    "id": n.id,
                    "x": n.x,
                    "y": n.y,
                    "delivery": n.delivery,
                    "pickup": n.pickup,
                    "cluster": n.cluster,
                }
                for n in self.nodes
            ],
            "forbidden": sorted([i, j] for i, j in self.forbidden),
            "cost_offpeak": round_costs(self.cost_offpeak),
            "cost_peak": round_costs(self.cost_peak),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Instance":
        nodes = tuple(map(_node, _array(data["nodes"], "nodes")))
        if "cost_offpeak" in data and "cost_peak" in data:
            off = [_floats(row, "cost_offpeak") for row in _array(data["cost_offpeak"], "cost_offpeak")]
            peak = [_floats(row, "cost_peak") for row in _array(data["cost_peak"], "cost_peak")]
        else:
            # matrices are optional in the file schema; rebuild them from the
            # coordinates with the benchmark cost rules
            from .generator import assign_costs

            off, peak = assign_costs(nodes)
        window = _array(data.get("peak_window_s", [PEAK_START_S, PEAK_END_S]), "peak_window_s")
        if len(window) != 2:
            raise ValueError(f"peak_window_s has {len(window)} entries, not 2")
        name = data["name"]
        if type(name) is not str:
            raise ValueError(f"name is {name!r}, not a string")
        return cls(
            name=name,
            nodes=nodes,
            capacity=_integer(data["capacity"], "capacity"),
            cost_offpeak=off,
            cost_peak=peak,
            forbidden=frozenset(map(_arc, _array(data.get("forbidden", []), "forbidden"))),
            day_start_s=_integer(data.get("day_start_s", DAY_START_S), "day_start_s"),
            peak_window_s=(_integer(window[0], "peak_window_s"), _integer(window[1], "peak_window_s")),
            day_end_s=_integer(data.get("day_end_s", DAY_END_S), "day_end_s"),
        )

    def save(self, path: str | Path) -> Path:
        return write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: str | Path) -> "Instance":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


# the types json.load gives a JSON number; a boolean is not one of them
_NUMBER_TYPES = frozenset((int, float))


def _integer(value, name: str) -> int:
    """A file field that holds an integer: a JSON integer or an integral
    float. A string, a boolean, or an infinite, NaN or non-integral number is
    a ValueError that names the field."""
    if type(value) is int:
        return value
    if type(value) is not float or not value.is_integer():
        raise ValueError(f"{name} is {value!r}, not an integer")
    return int(value)


def _array(value, name: str) -> list:
    """A file field that holds a JSON array; anything else is a ValueError
    that names the field."""
    if type(value) is not list:
        raise ValueError(f"{name} is {value!r}, not an array")
    return value


def _node(n: Mapping) -> Node:
    """A ``nodes`` entry: a JSON object; anything else is a ValueError that
    names the field."""
    if type(n) is not dict:
        raise ValueError(f"nodes has {n!r}, not an object")
    return Node(
        id=_integer(n["id"], "id"),
        x=_floats((n["x"],), "x")[0],
        y=_floats((n["y"],), "y")[0],
        delivery=_integer(n["delivery"], "delivery"),
        pickup=_integer(n["pickup"], "pickup"),
        cluster=_integer(n["cluster"], "cluster"),
    )


def _arc(pair: Sequence) -> tuple[int, int]:
    """A ``forbidden`` entry: a JSON array of two node ids; anything else is
    a ValueError that names the field."""
    if type(pair) is not list or len(pair) != 2:
        raise ValueError(f"forbidden has {pair!r}, not a pair of node ids")
    return _integer(pair[0], "forbidden"), _integer(pair[1], "forbidden")


def _floats(values: Sequence, name: str) -> list[float]:
    """``float`` of each of a file field's values; a value that is not a JSON
    number, or an integer too large for a float, is a ValueError that names
    the field, as is a row that is not a list."""
    try:
        kinds = set(map(type, values))
    except TypeError:  # a number where a row belongs
        raise ValueError(f"{name} has the row {values!r}, not a list") from None
    if kinds == {float}:  # every row Instance.save writes: nothing to convert
        return list(values)
    if not kinds <= _NUMBER_TYPES:
        bad = next(v for v in values if type(v) not in _NUMBER_TYPES)
        raise ValueError(f"{name} has {bad!r}, not a number")
    try:
        return list(map(float, values))
    except OverflowError:
        raise ValueError(f"{name} has an integer too large for a float") from None


def round_costs(matrix: Sequence[Sequence[float]]) -> list[list]:
    """``[[round(c, COST_DECIMALS) for c in row] for row in matrix]``, bit for
    bit, rounded in numpy where that is provably the same.

    ``round`` returns the float nearest to the exact value rounded to
    hundredths. ``rint(c * 100) / 100`` does too (an integer below 2**53
    divided by 100 is correctly rounded), unless the product's own rounding
    moved it across a half-integer. So entries whose product lies within two
    ulps of a half-integer keep ``round``, as do non-finite and huge ones and
    any matrix that is not a rectangular list of floats (``round`` keeps an
    int an int).
    """
    if set(map(type, chain.from_iterable(matrix))) != {float} or len(set(map(len, matrix))) != 1:
        return [[round(c, COST_DECIMALS) for c in row] for row in matrix]
    scale = 10.0**COST_DECIMALS
    with np.errstate(invalid="ignore", over="ignore"):
        scaled = np.array(matrix) * scale
        rounded = (np.rint(scaled) / scale).tolist()
        # False for NaN and infinity, and from 2**51 up, where an ulp is 0.5
        exact = np.abs(scaled - np.floor(scaled) - 0.5) > 2 * np.spacing(np.abs(scaled))
    for a, b in zip(*np.nonzero(~exact)):
        rounded[a][b] = round(matrix[a][b], COST_DECIMALS)
    return rounded


# ---------------------------------------------------------------- encoding


def encode(sol: Solution) -> list[int]:
    """Flatten routes into the canonical zero-separated permutation."""
    flat: list[int] = []
    for pos, route in enumerate(sol.routes):
        if pos:
            flat.append(0)
        flat.extend(route)
    return flat


def decode(flat: Sequence[int], inst: Instance) -> Solution:
    """Inverse of :func:`encode`; rejects non-canonical or invalid input."""
    if len(flat) == 0:
        raise DecodeError("non-canonical-separator", "empty encoding")
    if flat[0] == 0 or flat[-1] == 0:
        raise DecodeError("non-canonical-separator", "leading or trailing zero")
    routes: list[list[int]] = [[]]
    seen: set[int] = set()
    known = set(inst.customers)
    for value in flat:
        value = int(value)
        if value == 0:
            if not routes[-1]:
                raise DecodeError("non-canonical-separator", "consecutive zeros")
            routes.append([])
            continue
        if value not in known:
            raise DecodeError("unknown-customer", str(value))
        if value in seen:
            raise DecodeError("duplicate-customer", str(value))
        seen.add(value)
        routes[-1].append(value)
    missing = known - seen
    if missing:
        raise DecodeError("missing-customer", str(sorted(missing)))
    return Solution.from_routes(routes)


# -------------------------------------------------------------- validation


@dataclass(frozen=True)
class ValidationIssue:
    name: str
    detail: str


@dataclass
class ValidationReport:
    ok: bool
    violations: list[ValidationIssue]

    @property
    def names(self) -> list[str]:
        return [v.name for v in self.violations]


LoadSummary = tuple[int, int, int]  # total delivery, net change, peak net change
EMPTY_LOAD: LoadSummary = (0, 0, 0)


def route_load_ok(
    route: Sequence[int], inst: Instance, prefix: LoadSummary = EMPTY_LOAD
) -> LoadSummary | None:
    """Exact load check of one route: the vehicle leaves the depot with every
    delivery on board and each visit applies ``-delivery +pickup``; None as
    soon as the load exceeds the capacity.

    ``prefix`` summarises the customers the vehicle serves before ``route``:
    their total delivery, their net change ``pickup - delivery`` and the peak
    of that net change over every prefix (0 for none). A route that fits
    returns the same summary of the whole visit sequence.
    """
    delivery, change, capacity = inst.delivery, inst.load_change, inst.capacity
    total, net, peak = prefix
    total += sum(map(delivery.__getitem__, route))
    # the load at a position is total + net; it only needs checking at a new peak
    if total + peak > capacity:
        return None
    for c in route:
        net += change[c]
        if net > peak:
            if total + net > capacity:
                return None
            peak = net
    return total, net, peak


@functools.cache
def _code_weights(m: int) -> np.ndarray:
    """The place values of an order's m base-m digits."""
    weights = m ** np.arange(m - 1, -1, -1)
    weights.flags.writeable = False  # one array for every caller
    return weights


@functools.cache
def _every_order(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Every order of ``range(m)``, and each order's m - 1 arcs ``(a, b)`` as
    ``a * m + b``."""
    orders = np.array(list(permutations(range(m))), dtype=np.int64).reshape(-1, m)
    arcs = orders[:, :-1] * m + orders[:, 1:]
    orders.flags.writeable = arcs.flags.writeable = False  # one pair for every caller
    return orders, arcs


def free_orders(members: Sequence[int], inst: Instance) -> np.ndarray | None:
    """The m**m free-order mask of one cluster's ``members`` when they are
    tight: at most ORDER_TABLE_MAX_MEMBERS, fewer than TIGHT_SHARE of their
    m! orders free of forbidden arcs, and not in ``inst.rising_clusters``;
    else None, the exact shuffle loop. True marks each free order's code: the
    positions into the members it visits them in, read as a base-m number. A
    free order fits once the order-free test of :func:`route_load_ok` passes
    (peak <= room): a load summary keeps net <= peak, and a block that only
    sheds load never rises above the load it starts at."""
    m = len(members)
    if m > ORDER_TABLE_MAX_MEMBERS or inst.cluster_of[members[0]] in inst.rising_clusters:
        return None
    orders, arcs = _every_order(m)
    banned = np.fromiter([(a, b) in inst.forbidden for a in members for b in members], bool, m * m)
    free = orders[~banned[arcs].any(axis=1)]
    if len(free) >= TIGHT_SHARE * math.factorial(m):
        return None
    mask = np.zeros(m**m, bool)
    mask[free @ _code_weights(m)] = True
    return mask


def cluster_order(
    members: Sequence[int],
    forbidden: Collection[tuple[int, int]],
    rng: np.random.Generator | None = None,
    inst: Instance | None = None,
) -> list[int] | None:
    """Exact depth-first search for a visiting order of ``members`` that uses
    no forbidden arc (entry and exit arcs are unconstrained); None when no
    order exists.

    With ``rng`` the candidates are shuffled at every step, so the order found
    is random. With ``inst`` the order must also keep the load of a fresh
    route that serves ``members`` alone within the capacity.
    """
    if inst is None:
        load, capacity, change = 0, math.inf, dict.fromkeys(members, 0)
    else:
        load, capacity = sum(inst.delivery[m] for m in members), inst.capacity
        change = inst.load_change
    if load > capacity:
        return None

    def extend(path: list[int], remaining: list[int], load: int) -> list[int] | None:
        if not remaining:
            return path
        order = list(remaining)
        if rng is not None:
            rng.shuffle(order)
        for nxt in order:
            if (path and (path[-1], nxt) in forbidden) or load + change[nxt] > capacity:
                continue
            rest = [m for m in remaining if m != nxt]
            found = extend(path + [nxt], rest, load + change[nxt])
            if found is not None:
                return found
        return None

    return extend([], list(members), load)


def validate_instance(inst: Instance) -> ValidationReport:
    """Check every structural invariant; violations are data, not exceptions.

    The cluster partition is the nodes' labels, so it is disjoint and covers
    every customer by construction; each cluster is checked for an order that
    keeps the forbidden arcs and the capacity.
    """
    issues: list[ValidationIssue] = []

    def add(name: str, detail: str) -> None:
        issues.append(ValidationIssue(name, detail))

    ids = [n.id for n in inst.nodes]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        add("duplicate-node-id", str(dupes))
    if not inst.nodes or inst.nodes[0].id != 0:
        add("depot-invalid", "node 0 must exist and come first")
    else:
        depot = inst.nodes[0]
        if depot.cluster != 0 or depot.delivery != 0 or depot.pickup != 0:
            add("depot-invalid", "depot must have cluster 0 and zero demands")

    for node in inst.nodes:
        if not (math.isfinite(node.x) and math.isfinite(node.y)):
            add("non-finite-coordinate", f"node {node.id}: ({node.x}, {node.y})")
    for node in inst.nodes[1:]:
        if node.delivery <= 0 or node.pickup < 0:
            add("customer-demand-invalid", f"node {node.id}: d={node.delivery} p={node.pickup}")
        if node.cluster <= 0:
            add("customer-in-depot-cluster", f"node {node.id}")

    if not inst.customers:
        add("no-customers", "no node other than the depot")

    lo, hi = inst.peak_window_s
    if not inst.day_start_s <= lo < hi <= inst.day_end_s:
        add("peak-window-invalid", f"[{lo}, {hi}) not inside [{inst.day_start_s}, {inst.day_end_s}]")

    if inst.capacity <= 0:
        add("capacity-invalid", str(inst.capacity))

    size = len(inst.nodes)
    for tag, matrix in ((OFFPEAK, inst.cost_offpeak), (PEAK, inst.cost_peak)):
        if len(matrix) != size or any(len(row) != size for row in matrix):
            add("matrix-shape-invalid", tag)
            continue
        # one issue per matrix and name: name -> [count, first entry]
        bad: dict[str, list] = {}

        def flag(name: str, entry: str) -> None:
            bad.setdefault(name, [0, entry])[0] += 1

        for a in range(size):
            row = matrix[a]
            for b in range(size):
                # one comparison per entry; it is False for NaN too
                if not 0.0 <= row[b] < math.inf:
                    if not math.isfinite(row[b]):
                        flag("non-finite-cost", f"{tag}[{ids[a]}][{ids[b]}]")
                    elif a != b:
                        flag("negative-cost", f"{tag}[{ids[a]}][{ids[b]}]")
            for b in range(a + 1, size):
                if row[b] == matrix[b][a]:
                    flag("asymmetry-violated", f"{tag} arc ({ids[a]},{ids[b]})")
        for name, (count, first) in bad.items():
            add(name, first if count == 1 else f"{count} entries, first {first}")

    known = set(inst.customers)
    for i, j in sorted(inst.forbidden):
        if i == 0 or j == 0:
            add("forbidden-arc-touches-depot", f"({i},{j})")
        elif i not in known or j not in known or i == j:
            add("forbidden-arc-invalid", f"({i},{j})")
        elif inst.cluster_of[i] != inst.cluster_of[j]:
            add("forbidden-arc-crosses-clusters", f"({i},{j})")

    for label, members in inst.clusters.items():
        path = cluster_order(members, inst.forbidden)
        if path is None:
            add("cluster-path-infeasible", f"cluster {label}")
        if inst.capacity <= 0:
            continue
        # ascending (pickup - delivery) keeps every prefix load minimal, so
        # this one order fits the capacity iff some order does
        by_net_drop = sorted(members, key=inst.load_change.__getitem__)
        if not route_load_ok(by_net_drop, inst):
            add("cluster-load-exceeds-capacity", f"cluster {label}")
        elif (
            path is not None
            and not route_load_ok(path, inst)  # a path that fits proves both
            and cluster_order(members, inst.forbidden, inst=inst) is None
        ):
            # each rule admits an order on its own, but no order keeps both
            add("cluster-order-infeasible", f"cluster {label}")

    return ValidationReport(ok=not issues, violations=issues)
