"""Every issue name `validate_instance` can emit is reachable from a file.

Each row edits the JSON dict of the tiny instance, loads it with
`Instance.from_dict` and expects the named issue. The names are read off the
`add("...")` and `flag("...")` literals in `rvrp/instance.py`, so a new check
that no file can trigger fails here.
"""

import json
import re
from pathlib import Path

import pytest

from rvrp import Instance, validate_instance
from rvrp import instance as instance_module

from conftest import make_tiny_instance

DEPOT = {"id": 0, "x": 0.0, "y": 0.0, "delivery": 0, "pickup": 0, "cluster": 0}
# 17 customers in one cluster, one more than validation proves
BIG_CLUSTER = [DEPOT, *({**DEPOT, "id": k, "x": float(k), "delivery": 1, "cluster": 1} for k in range(1, 18))]
BIG_COSTS = [[float(18 * a + b) for b in range(18)] for a in range(18)]

# issue name -> edits to the tiny instance's dict, each (dotted path, value);
# the tiny instance is customers 1..3 in cluster 1, capacity 100
EDITS = {
    "duplicate-node-id": [("nodes.2.id", 1)],
    "depot-invalid": [("nodes.0.cluster", 1)],
    "customer-demand-invalid": [("nodes.1.delivery", 0)],
    "customer-in-depot-cluster": [("nodes.1.cluster", 0)],
    "non-finite-coordinate": [("nodes.1.x", float("nan"))],
    "no-customers": [("nodes", [DEPOT]), ("cost_offpeak", [[0.0]]), ("cost_peak", [[0.0]])],
    "capacity-invalid": [("capacity", 0)],
    "matrix-shape-invalid": [("cost_peak", [[0.0] * 4] * 3)],
    "non-finite-cost": [("cost_offpeak.0.1", 1e400)],  # how JSON spells infinity
    "negative-cost": [("cost_offpeak.0.1", -1.0)],
    # 8 arcs of 1e308 overflow a float: no route could be priced
    "cost-overflow": [("cost_offpeak.0.1", 1e308)],
    "asymmetry-violated": [("cost_offpeak.0.1", 3600.0)],  # equals cost_offpeak[1][0]
    "forbidden-arc-touches-depot": [("forbidden", [[0, 1]])],
    "forbidden-arc-invalid": [("forbidden", [[1, 1]])],
    "forbidden-arc-crosses-clusters": [("nodes.3.cluster", 2), ("forbidden", [[1, 3]])],
    "cluster-path-infeasible": [("forbidden", [[1, 2], [1, 3], [2, 1], [2, 3], [3, 1], [3, 2]])],
    "cluster-load-exceeds-capacity": [("capacity", 20)],
    "cluster-too-large-to-prove": [("nodes", BIG_CLUSTER), ("cost_offpeak", BIG_COSTS), ("cost_peak", BIG_COSTS)],
    # customer 3 must come first to avoid (1,3) and (2,3), and then its
    # pickup overflows the vehicle
    "cluster-order-infeasible": [
        ("nodes.1.pickup", 0),
        ("nodes.1.delivery", 5),
        ("nodes.2.delivery", 5),
        ("nodes.3.delivery", 1),
        ("nodes.3.pickup", 9),
        ("capacity", 11),
        ("forbidden", [[1, 3], [2, 3]]),
    ],
}


def _emitted_names() -> set[str]:
    source = Path(instance_module.__file__).read_text(encoding="utf-8")
    return set(re.findall(r'\b(?:add|flag)\("([a-z-]+)"', source))


def _edited(edits: list[tuple[str, object]]) -> dict:
    data = make_tiny_instance().to_dict()
    for path, value in edits:
        *parents, last = [int(k) if k.isdigit() else k for k in path.split(".")]
        target = data
        for key in parents:
            target = target[key]
        target[last] = value
    return data


def test_table_covers_every_issue_name():
    assert set(EDITS) == _emitted_names()


def test_tiny_instance_round_trips_valid():
    assert validate_instance(Instance.from_dict(_edited([]))).feasible


@pytest.mark.parametrize("name", sorted(EDITS))
def test_issue_is_reachable_from_a_file(name):
    inst = Instance.from_dict(_edited(EDITS[name]))
    assert name in validate_instance(inst).violation_tags


@pytest.mark.parametrize("order", [[1, 2, 3, 0], [1, 2, 3]], ids=["depot-last", "no-node-0"])
def test_a_misplaced_or_missing_depot_is_its_only_issue(tmp_path, order):
    # the customer checks pick customers by id, so neither a depot listed
    # last nor the customer listed in its place is misread as the other
    data = _edited([])
    costs = {key: [[data[key][a][b] for b in order] for a in order] for key in ("cost_offpeak", "cost_peak")}
    data = {**data, "nodes": [data["nodes"][k] for k in order], **costs}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    report = validate_instance(Instance.load(path))
    assert [(issue.name, issue.detail) for issue in report.violations] == [
        ("depot-invalid", "node 0 must exist and come first")
    ]
