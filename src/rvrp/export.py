"""GeoJSON rendering of instances and solutions.

Emits an RFC 7946 FeatureCollection with one Point per node and one
LineString per route (depot -> customers -> depot). Coordinates are the
instance's planar travel-second units.
"""

from __future__ import annotations

import math

from .evaluation import load_profile, route_cost
from .instance import Instance, Solution


def solution_feature_collection(inst: Instance, sol: Solution) -> dict:
    visited = sorted(sol.customers())
    if visited != sorted(inst.customers):
        raise ValueError("solution does not cover exactly the instance's customers")

    features: list[dict] = []
    for node in inst.nodes:
        if not (math.isfinite(node.x) and math.isfinite(node.y)):  # JSON has no NaN or inf
            raise ValueError(f"node {node.id} has a non-finite coordinate ({node.x}, {node.y})")
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": [node.x, node.y]},
                "properties": {
                    "id": node.id,
                    "cluster": node.cluster,
                    "delivery": node.delivery,
                    "pickup": node.pickup,
                    "is_depot": node.id == 0,
                },
            }
        )

    depot = inst.nodes[0]
    total = 0.0
    for r, route in enumerate(sol.routes):
        coords = [[depot.x, depot.y]]
        coords += [[inst.node(c).x, inst.node(c).y] for c in route]
        coords.append([depot.x, depot.y])
        cost = route_cost(route, inst)
        total += cost
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "LineString", "coordinates": coords},
                "properties": {
                    "route_index": r,
                    "cost_s": round(cost, 2),
                    "max_load": max(load_profile(route, inst)),
                },
            }
        )

    return {
        "type": "FeatureCollection",
        "properties": {
            "instance": inst.name,
            "vehicles": sol.vehicles,
            "total_cost_s": round(total, 2),
        },
        "features": features,
    }
