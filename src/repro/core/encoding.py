"""Penalty (soft-constraint) encodings.

The penalty-based QAOA baseline (Section II-B, ref. [44]) folds the
constraints into the objective as quadratic penalty terms:

    f_penalty(x) = f_min(x) + lambda * sum_j (C_j x - c_j)^2

where ``f_min`` is the minimization form of the objective (maximization
problems are negated first).  The resulting unconstrained polynomial is the
QUBO handed to the penalty-QAOA and HEA solvers.
"""

from __future__ import annotations

from repro.core.problem import ConstrainedBinaryProblem, Objective
from repro.exceptions import ProblemError


def squared_constraint_penalty(problem: ConstrainedBinaryProblem) -> Objective:
    """The polynomial ``sum_j (C_j x - c_j)^2`` over the problem's variables."""
    penalty = Objective()
    for constraint in problem.constraints:
        coefficients = constraint.coefficients
        rhs = constraint.rhs
        # (sum_i a_i x_i - c)^2 = sum_i a_i^2 x_i + 2 sum_{i<j} a_i a_j x_i x_j
        #                         - 2 c sum_i a_i x_i + c^2        (x_i^2 = x_i)
        penalty.add_term((), rhs * rhs)
        support = [i for i, a in enumerate(coefficients) if a != 0]
        for position, i in enumerate(support):
            a_i = coefficients[i]
            penalty.add_term((i,), a_i * a_i - 2.0 * rhs * a_i)
            for j in support[position + 1 :]:
                penalty.add_term((i, j), 2.0 * a_i * coefficients[j])
    return penalty


def penalty_objective(problem: ConstrainedBinaryProblem, penalty_weight: float) -> Objective:
    """The soft-constraint minimization objective ``f_min + lambda * penalty``."""
    if penalty_weight < 0:
        raise ProblemError("the penalty weight must be non-negative")
    return problem.minimization_objective() + penalty_weight * squared_constraint_penalty(problem)


def default_penalty_weight(problem: ConstrainedBinaryProblem) -> float:
    """A heuristic penalty coefficient.

    The weight must dominate the largest possible objective swing so that any
    constraint violation is never worth its objective gain; we use
    ``1 + sum |objective coefficients|``, the standard "big-M"-style choice.
    The paper's Fig. 1(a) discussion — too small fails to enforce the
    constraints, too large flattens the objective landscape — is exercised in
    the tests by sweeping around this value.
    """
    swing = sum(abs(coefficient) for coefficient in problem.objective.terms.values())
    return float(1.0 + swing)


def frozen_variables(problem: ConstrainedBinaryProblem, count: int = 1) -> list[tuple[int, int]]:
    """Pick "hotspot" variables to freeze, FrozenQubits-style.

    FrozenQubits [4] boosts penalty-QAOA fidelity by fixing the variables
    with the largest coupling degree in the QUBO and solving the sub-problems
    classically.  We reproduce the selection rule: rank variables by the
    number of quadratic terms they participate in (ties broken by total
    absolute weight) and freeze the top ``count`` to their locally best
    value (the sign of their linear coefficient in the minimization QUBO).
    """
    # Imported here: the hamiltonian package builds on this one.
    from repro.hamiltonian.diagonal import split_polynomial

    qubo = penalty_objective(problem, default_penalty_weight(problem))
    _, linear, quadratic = split_polynomial(qubo.terms)
    degree: dict[int, int] = {}
    weight: dict[int, float] = {}
    for (i, j), value in quadratic.items():
        for variable in (i, j):
            degree[variable] = degree.get(variable, 0) + 1
            weight[variable] = weight.get(variable, 0.0) + abs(value)
    ranked = sorted(
        range(problem.num_variables),
        key=lambda v: (degree.get(v, 0), weight.get(v, 0.0)),
        reverse=True,
    )
    frozen: list[tuple[int, int]] = []
    for variable in ranked[:count]:
        value = 0 if linear.get(variable, 0.0) >= 0 else 1
        frozen.append((variable, value))
    return frozen
