"""Problem model, constraint machinery and metrics for constrained binary
optimization — the substrate shared by every solver in the package."""

from repro.core.encoding import (
    default_penalty_weight,
    frozen_variables,
    penalty_objective,
    squared_constraint_penalty,
    to_qubo,
)
from repro.core.feasibility import (
    count_feasible_assignments,
    enumerate_feasible_assignments,
    find_feasible_assignment,
    iter_feasible_assignments,
    problem_initial_assignment,
)
from repro.core.metrics import (
    DEFAULT_ARG_PENALTY,
    MetricsReport,
    approximation_ratio_gap,
    best_measured,
    evaluate_outcomes,
    expected_objective,
    in_constraints_rate,
    success_rate,
)
from repro.core.nullspace import (
    enumerate_ternary_nullspace,
    iter_ternary_nullspace,
    nullity,
    ternary_nullspace_basis,
    total_nonzeros,
    variable_nonzero_counts,
)
from repro.core.problem import ConstrainedBinaryProblem, LinearConstraint, Objective
from repro.core.subspace import SubspaceMap
from repro.core.variable_elimination import (
    EliminationPlan,
    ReducedInstance,
    build_elimination_plan,
    choose_elimination_variables,
)

__all__ = [
    "ConstrainedBinaryProblem",
    "DEFAULT_ARG_PENALTY",
    "EliminationPlan",
    "LinearConstraint",
    "MetricsReport",
    "Objective",
    "ReducedInstance",
    "SubspaceMap",
    "approximation_ratio_gap",
    "best_measured",
    "build_elimination_plan",
    "choose_elimination_variables",
    "count_feasible_assignments",
    "default_penalty_weight",
    "enumerate_feasible_assignments",
    "enumerate_ternary_nullspace",
    "evaluate_outcomes",
    "expected_objective",
    "find_feasible_assignment",
    "frozen_variables",
    "in_constraints_rate",
    "iter_feasible_assignments",
    "iter_ternary_nullspace",
    "nullity",
    "penalty_objective",
    "problem_initial_assignment",
    "squared_constraint_penalty",
    "success_rate",
    "ternary_nullspace_basis",
    "to_qubo",
    "total_nonzeros",
    "variable_nonzero_counts",
]
