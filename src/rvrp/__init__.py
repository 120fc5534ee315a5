"""Solver toolkit for an asymmetric, clustered vehicle routing problem with
simultaneous pickup and delivery, peak-hour arc costs and forbidden paths."""

from .evaluation import (
    check_feasible,
    route_cost,
    solution_cost,
)
from .instance import (
    DecodeError,
    Instance,
    Node,
    Solution,
    ValidationReport,
    decode,
    encode,
    validate_instance,
)
from .operators import (
    InfeasibleClusterError,
    cluster_relocation,
    hamming_distance,
    insertion_move,
    move_firefly,
    random_solution,
)
from .solvers import (
    SolveResult,
    SolverConfig,
    esa_initial_temperature,
    metropolis_accept,
    movement_length,
    solve,
    termination_budget,
)

__version__ = "0.1.0"

__all__ = [
    "DecodeError",
    "InfeasibleClusterError",
    "Instance",
    "Node",
    "Solution",
    "SolveResult",
    "SolverConfig",
    "ValidationReport",
    "check_feasible",
    "cluster_relocation",
    "decode",
    "encode",
    "esa_initial_temperature",
    "hamming_distance",
    "insertion_move",
    "metropolis_accept",
    "move_firefly",
    "movement_length",
    "random_solution",
    "route_cost",
    "solution_cost",
    "solve",
    "termination_budget",
    "validate_instance",
]
