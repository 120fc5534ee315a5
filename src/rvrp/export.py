"""GeoJSON rendering of instances and solutions.

Emits an RFC 7946 FeatureCollection with one Point per node and one
LineString per route (depot -> customers -> depot). Coordinates are the
instance's planar travel-second units.
"""

from __future__ import annotations

from .evaluation import route_cost
from .instance import Instance, Solution, route_load


def solution_feature_collection(inst: Instance, sol: Solution) -> dict:
    """``sol`` on ``inst`` as a FeatureCollection, trusting ``inst`` to pass
    ``validate_instance`` (node 0, the depot, comes first; every coordinate is
    finite, as JSON needs) and ``sol`` to be decoded on it, as the CLI checks."""
    features: list[dict] = []
    for node in inst.nodes:
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
        delivered, _, peak = route_load(route, inst)
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "LineString", "coordinates": coords},
                "properties": {
                    "route_index": r,
                    "cost_s": round(cost, 2),
                    "max_load": delivered + peak,
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
