"""Seeded regeneration of the 15-instance benchmark suite.

One 100-customer skeleton is drawn per seed: ten cluster centres uniform over
a 20000 x 16000 planar box (units are travel-seconds), ten customers per
cluster uniform in a disc of radius 1500 around their centre, and the depot
fixed at the box centre. Customer ids are assigned cluster by cluster (ids
10(s-1)+1..10s belong to cluster s) and demands follow the id modulo 4:

    i % 4 == 1 -> delivery 10, pickup 5
    i % 4 == 2 -> delivery 10, pickup 0
    i % 4 == 3 -> delivery  5, pickup 3
    i % 4 == 0 -> delivery  5, pickup 0

Costs are asymmetric by construction. With e = Euclid(i, j) for i < j:

    off-peak:  d_ij = e           d_ji = 1.2 e (j odd) | 0.8 e (j even)
    peak:      d_ij = 1.3 e       d_ji = 1.44 e (j odd) | 1.12 e (j even)

The 15 suite rows are data: each names the skeleton clusters it keeps
(odd/even, the first 8, or all) and the member positions it keeps in each
(the first or last 5, the first 8, or all). Rows keep the original ids, so
the parity-based cost rules survive subsetting.
Forbidden arcs are sampled per cluster and resampled until a feasible
intra-cluster order provably exists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .instance import Instance, Node, cluster_order, label_clusters, validate_instance
from .jsonio import read_json, write_json
from .operators import random_solution

BOX_W = 20000.0
BOX_H = 16000.0
CLUSTER_RADIUS = 1500.0
DEPOT_XY = (10000.0, 8000.0)
BASE_CLUSTERS = 10
NODES_PER_CLUSTER = 10
MIN_SEPARATION = 1.0  # resample points closer than this (keeps costs strictly asymmetric)

OFFPEAK_REVERSE_ODD = 1.2
OFFPEAK_REVERSE_EVEN = 0.8
PEAK_FORWARD = 1.3
PEAK_REVERSE_ODD = 1.2 * 1.2
PEAK_REVERSE_EVEN = 0.8 * 1.4

FORBIDDEN_RESAMPLE_LIMIT = 10_000


class GenerationError(RuntimeError):
    pass


def demand_for(customer_id: int) -> tuple[int, int]:
    """(delivery, pickup) by customer id modulo 4."""
    return {1: (10, 5), 2: (10, 0), 3: (5, 3), 0: (5, 0)}[customer_id % 4]


# ------------------------------------------------------------------ skeleton


def _skeleton_nodes(rng: np.random.Generator, cluster_sizes: Sequence[int]) -> list[Node]:
    """Depot plus customers drawn cluster by cluster: centres uniform over the
    box, members uniform in a disc around their centre, redrawn until all
    points are MIN_SEPARATION apart. Ids run 1..n in cluster order (cluster
    labels start at 1) and demands follow :func:`demand_for`."""
    while True:
        centers = rng.uniform((0.0, 0.0), (BOX_W, BOX_H), size=(len(cluster_sizes), 2))
        points = [np.array(DEPOT_XY)]
        for c, size in enumerate(cluster_sizes):
            for _ in range(size):
                while True:
                    # uniform in the disc via rejection from the bounding square
                    offset = rng.uniform(-CLUSTER_RADIUS, CLUSTER_RADIUS, size=2)
                    if offset[0] ** 2 + offset[1] ** 2 <= CLUSTER_RADIUS**2:
                        break
                points.append(centers[c] + offset)
        coords = np.array(points)
        deltas = coords[:, None, :] - coords[None, :, :]
        dists = np.sqrt((deltas**2).sum(axis=2))
        np.fill_diagonal(dists, np.inf)
        if dists.min() >= MIN_SEPARATION:
            break
    labels = [c for c, size in enumerate(cluster_sizes, start=1) for _ in range(size)]
    nodes = [Node(0, float(coords[0, 0]), float(coords[0, 1]), 0, 0, 0)]
    for cid, label in enumerate(labels, start=1):
        d, p = demand_for(cid)
        nodes.append(Node(cid, float(coords[cid, 0]), float(coords[cid, 1]), d, p, label))
    return nodes


def generate_base(seed: int) -> tuple[Node, ...]:
    """The nodes of the shared 100-customer layout: coordinates, clusters and
    demands; costs and forbidden arcs are assigned per derived instance."""
    rng = np.random.default_rng(seed)
    return tuple(_skeleton_nodes(rng, [NODES_PER_CLUSTER] * BASE_CLUSTERS))


# --------------------------------------------------------------------- costs


def assign_costs(nodes: Sequence[Node]) -> tuple[list[list[float]], list[list[float]]]:
    """Dense (off-peak, peak) matrices over ``nodes`` (depot included).

    Direction and parity follow the original node ids: for each pair with
    ids i < j the forward arc is i->j and the reverse multiplier depends on
    whether j is odd. Matrix indices follow the node order.
    """
    xs = np.array([n.x for n in nodes])
    ys = np.array([n.y for n in nodes])
    euclid = np.sqrt((xs[:, None] - xs[None, :]) ** 2 + (ys[:, None] - ys[None, :]) ** 2)
    ids = np.array([n.id for n in nodes])
    forward = ids[:, None] < ids[None, :]
    # a reverse arc's multiplier follows the parity of the larger id
    odd = np.maximum(ids[:, None], ids[None, :]) % 2 == 1
    off = np.where(
        forward,
        euclid,
        np.where(odd, euclid * OFFPEAK_REVERSE_ODD, euclid * OFFPEAK_REVERSE_EVEN),
    )
    peak = np.where(
        forward,
        euclid * PEAK_FORWARD,
        np.where(odd, euclid * PEAK_REVERSE_ODD, euclid * PEAK_REVERSE_EVEN),
    )
    np.fill_diagonal(off, 0.0)
    np.fill_diagonal(peak, 0.0)
    return off.tolist(), peak.tolist()


# ----------------------------------------------------------------- forbidden


def select_forbidden(
    clusters: dict[int, tuple[int, ...]], per_cluster: int, rng: np.random.Generator
) -> frozenset[tuple[int, int]]:
    """Sample ``per_cluster`` distinct ordered intra-cluster arcs per cluster,
    rejecting any cluster set that kills every Hamiltonian path."""
    chosen: set[tuple[int, int]] = set()
    for label in sorted(clusters):
        members = clusters[label]
        arcs = [(i, j) for i in members for j in members if i != j]
        if per_cluster > len(arcs):
            raise GenerationError(
                f"cluster {label}: cannot forbid {per_cluster} of {len(arcs)} arcs"
            )
        for attempt in range(FORBIDDEN_RESAMPLE_LIMIT):
            picks = rng.choice(len(arcs), size=per_cluster, replace=False)
            subset = [arcs[int(p)] for p in sorted(int(p) for p in picks)]
            if cluster_order(members, frozenset(subset)) is not None:
                chosen.update(subset)
                break
        else:
            raise GenerationError(f"cluster {label}: no feasible forbidden set found")
    return frozenset(chosen)


# --------------------------------------------------------------------- suite


@dataclass(frozen=True)
class SuiteRow:
    name: str
    nodes: int
    clusters: int
    capacity: int
    forbidden_per_cluster: int
    labels: range  # the skeleton clusters the row keeps
    positions: range  # the members it keeps of each, by position in the cluster


# each row keeps a slice of both: LABELS[::2] is the odd clusters, [1::2] the even
LABELS, POSITIONS = range(1, BASE_CLUSTERS + 1), range(NODES_PER_CLUSTER)
SUITE: tuple[SuiteRow, ...] = (
    SuiteRow("Osaba_50_1_1", 50, 5, 240, 5, LABELS[::2], POSITIONS),
    SuiteRow("Osaba_50_1_2", 50, 5, 160, 10, LABELS[::2], POSITIONS),
    SuiteRow("Osaba_50_1_3", 50, 10, 240, 5, LABELS, POSITIONS[:5]),
    SuiteRow("Osaba_50_1_4", 50, 10, 160, 10, LABELS, POSITIONS[:5]),
    SuiteRow("Osaba_50_2_1", 50, 5, 240, 5, LABELS[1::2], POSITIONS),
    SuiteRow("Osaba_50_2_2", 50, 5, 160, 10, LABELS[1::2], POSITIONS),
    SuiteRow("Osaba_50_2_3", 50, 10, 240, 5, LABELS, POSITIONS[5:]),
    SuiteRow("Osaba_50_2_4", 50, 10, 160, 10, LABELS, POSITIONS[5:]),
    SuiteRow("Osaba_80_1", 80, 8, 240, 5, LABELS[:8], POSITIONS),
    SuiteRow("Osaba_80_2", 80, 8, 160, 10, LABELS[:8], POSITIONS),
    SuiteRow("Osaba_80_3", 80, 10, 240, 5, LABELS, POSITIONS[:8]),
    SuiteRow("Osaba_80_4", 80, 10, 160, 10, LABELS, POSITIONS[:8]),
    SuiteRow("Osaba_100_1", 100, 10, 140, 5, LABELS, POSITIONS),
    SuiteRow("Osaba_100_2", 100, 10, 260, 10, LABELS, POSITIONS),
    SuiteRow("Osaba_100_3", 100, 10, 320, 10, LABELS, POSITIONS),
)


def row_seed(base_seed: int, row_index: int) -> int:
    """Stable per-row RNG seed, independent of which rows are generated."""
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(row_index,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _instance(
    name: str, nodes: Sequence[Node], capacity: int, forbidden_per_cluster: int, rng: np.random.Generator
) -> Instance:
    """Price the arcs of ``nodes``, sample ``forbidden_per_cluster`` forbidden
    arcs in each cluster (no draw when it is 0) and build the instance; one
    that fails :func:`validate_instance` is a GenerationError naming it."""
    off, peak = assign_costs(nodes)
    forbidden: frozenset[tuple[int, int]] = frozenset()
    if forbidden_per_cluster:
        forbidden = select_forbidden(label_clusters(nodes), forbidden_per_cluster, rng)
    inst = Instance(name, nodes, capacity, off, peak, forbidden)
    report = validate_instance(inst)
    if not report.feasible:
        raise GenerationError(f"{name}: invalid instance: {report.violation_tags}")
    return inst


def derive_instance(base: Sequence[Node], row: SuiteRow, seed: int) -> Instance:
    """Build one suite row from the skeleton: subset nodes, price arcs, sample
    forbidden paths, and prove solvability by constructing a random solution."""
    rng = np.random.default_rng(seed)
    by_id = {n.id: n for n in base}
    selected = (NODES_PER_CLUSTER * (s - 1) + k + 1 for s in row.labels for k in row.positions)
    nodes = (by_id[0], *(by_id[cid] for cid in selected))
    inst = _instance(row.name, nodes, row.capacity, row.forbidden_per_cluster, rng)
    random_solution(inst, rng)  # constructive proof that a feasible solution exists
    return inst


def generate_suite(seed: int, only: Iterable[str] | None = None) -> list[Instance]:
    if seed < 0:  # numpy's SeedSequence takes no negative entropy
        raise ValueError(f"seed must be non-negative, not {seed}")
    wanted = set(only) if only else None
    if wanted:
        unknown = wanted - {row.name for row in SUITE}
        if unknown:
            raise ValueError(f"unknown instance names: {sorted(unknown)}")
    base = generate_base(seed)
    instances = []
    for idx, row in enumerate(SUITE):
        if wanted and row.name not in wanted:
            continue
        instances.append(derive_instance(base, row, row_seed(seed, idx)))
    return instances


def write_suite(instances: Sequence[Instance], out_dir: str | Path, seed: int) -> Path:
    """Write one JSON file per instance plus ``suite-manifest.json``."""
    out = Path(out_dir)
    row_index = {row.name: idx for idx, row in enumerate(SUITE)}
    entries = []
    for inst in instances:
        path = inst.save(out / f"{inst.name}.json")
        entry = {"name": inst.name, "file": path.name}
        if inst.name in row_index:
            entry["seed"] = row_seed(seed, row_index[inst.name])
        entries.append(entry)
    return write_json(out / "suite-manifest.json", {"seed": seed, "instances": entries})


def read_manifest(suite_dir: str | Path) -> tuple[int | None, list[Path]]:
    """The seed (None when absent) and the instance files that a directory's
    ``suite-manifest.json`` lists. A manifest that is not JSON, repeats a key,
    is not an object, has a non-integer seed or no ``instances`` list of
    ``{"file": <name>}`` objects is a ValueError naming it and the defect."""
    suite_dir = Path(suite_dir)
    manifest = suite_dir / "suite-manifest.json"
    if not manifest.exists():
        raise FileNotFoundError(f"no suite-manifest.json in {suite_dir}")
    try:
        data = read_json(manifest)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{manifest} is not JSON: {exc}") from None
    except ValueError as exc:  # a repeated key, or nesting too deep to read
        raise ValueError(f"{manifest}: {exc}") from None
    if type(data) is not dict:
        raise ValueError(f"{manifest} is not a JSON object")
    seed, entries = data.get("seed"), data.get("instances")
    if seed is not None and type(seed) is not int:
        raise ValueError(f"{manifest} has seed {seed!r}, not an integer")
    if type(entries) is not list:
        raise ValueError(f"{manifest} has no 'instances' list")
    for k, entry in enumerate(entries):
        if type(entry) is not dict or type(entry.get("file")) is not str:
            raise ValueError(f"{manifest} instance {k} is not a {{\"file\": <name>}} object")
    return seed, [suite_dir / entry["file"] for entry in entries]


def load_suite(suite_dir: str | Path) -> list[Instance]:
    """Load every instance listed by a directory's manifest."""
    return [Instance.load(path) for path in read_manifest(suite_dir)[1]]


# ------------------------------------------------------------- small instances


def small_instance(
    seed: int,
    cluster_sizes: Sequence[int] = (4, 4),
    capacity: int | None = None,
    forbidden_per_cluster: int = 0,
    name: str | None = None,
) -> Instance:
    """Toy instance built with the benchmark geometry and demand/cost rules;
    handy for exact-enumeration oracles. Capacity defaults to a value that
    forces every cluster onto its own route."""
    rng = np.random.default_rng(seed)
    nodes = _skeleton_nodes(rng, cluster_sizes)
    if capacity is None:
        demands = [[demand_for(m) for m in members] for members in label_clusters(nodes).values()]
        capacity = max(sum(d for d, _ in ds) for ds in demands) + max(sum(p for _, p in ds) for ds in demands)
    return _instance(name or f"small_{seed}", nodes, capacity, forbidden_per_cluster, rng)
