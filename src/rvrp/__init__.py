"""Solver toolkit for an asymmetric, clustered vehicle routing problem with
simultaneous pickup and delivery, peak-hour arc costs and forbidden paths."""

from .evaluation import (
    EvaluationReport,
    Timeline,
    check_feasible,
    load_profile,
    route_cost,
    route_timeline,
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
    movement_length,
    random_solution,
)
from .solvers import (
    SolveResult,
    SolverConfig,
    esa_initial_temperature,
    metropolis_accept,
    solve,
    termination_budget,
)

__version__ = "0.1.0"

__all__ = [
    "DecodeError",
    "EvaluationReport",
    "InfeasibleClusterError",
    "Instance",
    "Node",
    "Solution",
    "SolveResult",
    "SolverConfig",
    "Timeline",
    "ValidationReport",
    "check_feasible",
    "cluster_relocation",
    "decode",
    "encode",
    "esa_initial_temperature",
    "hamming_distance",
    "insertion_move",
    "load_profile",
    "metropolis_accept",
    "move_firefly",
    "movement_length",
    "random_solution",
    "route_cost",
    "route_timeline",
    "solution_cost",
    "solve",
    "termination_budget",
    "validate_instance",
]
