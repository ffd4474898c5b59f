"""The one enumerator of the feasible set ``F = {x in {0,1}^n : C x = c}``.

Every consumer of ``F`` reads :func:`feasible_rows`: the commute-Hamiltonian
flow (Step 1 of Fig. 3) and the cyclic baseline take its first row as the
circuit's initial state, the variable-elimination pass asks it whether a
reduced system has any solution, :class:`~repro.core.subspace.SubspaceMap`
concatenates its blocks into the subspace basis, and
:meth:`~repro.core.problem.ConstrainedBinaryProblem.brute_force_optimum`
takes the exact optimum as a minimum over them.  So the ground truth and
the simulated subspace share one definition of "feasible": the per-row
:func:`~repro.core.problem.constraint_violation` at most ``1e-9``, the test
scoring applies.

The search is a depth-first walk over bit prefixes, one variable at a time,
vectorized over a whole block of prefixes: a prefix is dropped as soon as
some constraint's residual lies outside what the still-free variables can
add (the suffix sums of the negative and of the positive coefficients).
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.core.problem import LinearConstraint, constraint_violation
from repro.exceptions import InfeasibleError, ProblemError

#: Most rows one block of :func:`feasible_rows` holds.  The walk keeps at
#: most one pending block per search depth, so this also bounds its memory.
BLOCK_ROWS = 1 << 14

#: Acceptance tolerance of a row's violation, as in scoring.
_TOLERANCE = 1e-9


def _as_system(
    constraint_matrix: Sequence[Sequence[float]] | np.ndarray,
    rhs: Sequence[float] | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    matrix = np.atleast_2d(np.asarray(constraint_matrix, dtype=float))
    if matrix.ndim != 2 or matrix.shape[1] == 0:
        raise ProblemError("a constraint matrix needs at least one variable column")
    rhs = np.asarray(rhs, dtype=float).reshape(-1)
    if len(rhs) != matrix.shape[0]:
        raise ProblemError("rhs length must equal the number of constraint rows")
    return matrix, rhs


def feasible_rows(
    constraint_matrix: Sequence[Sequence[float]] | np.ndarray,
    rhs: Sequence[float] | np.ndarray,
) -> Iterator[np.ndarray]:
    """Yield the binary solutions of ``C x = c`` as ``(k, n)`` uint8 blocks.

    Rows come in ascending code order with variable 0 as the most
    significant bit (``itertools.product`` order); no block is empty or
    holds more than :data:`BLOCK_ROWS` rows.  A ``(0, n)`` matrix (nothing
    constrained) yields the whole cube.  The prune keeps slack well beyond
    the acceptance tolerance, so it never drops a row the final test would
    accept.
    """
    matrix, rhs = _as_system(constraint_matrix, rhs)
    num_variables = matrix.shape[1]
    constraints = [LinearConstraint(tuple(row), value) for row, value in zip(matrix, rhs)]
    # Row j of each bound is what variables j .. n-1 can add to every constraint.
    reach_low = np.zeros((num_variables + 1, matrix.shape[0]))
    reach_high = np.zeros((num_variables + 1, matrix.shape[0]))
    reach_low[:-1] = np.cumsum(np.minimum(matrix, 0.0)[:, ::-1], axis=1)[:, ::-1].T
    reach_high[:-1] = np.cumsum(np.maximum(matrix, 0.0)[:, ::-1], axis=1)[:, ::-1].T
    slack = 1e-6 * (1.0 + np.abs(matrix).sum(axis=1) + np.abs(rhs))
    # Blocks of (prefixes, residuals rhs - C[:, :depth] prefix); the top of
    # the stack holds the lowest codes.
    stack = [(np.zeros((1, 0), dtype=np.uint8), rhs[None, :])]
    while stack:
        prefixes, residuals = stack.pop()
        depth = prefixes.shape[1]
        if depth == num_variables:
            size = prefixes.shape[0]
            accepted = np.ones(size, dtype=bool)
            for constraint in constraints:
                accepted &= (
                    constraint_violation(constraint, size, lambda v: prefixes[:, v]) <= _TOLERANCE
                )
            if accepted.any():
                yield prefixes[accepted]
            continue
        # Each prefix's 0-child, then its 1-child: code order is kept.
        children = np.empty((2 * prefixes.shape[0], depth + 1), dtype=np.uint8)
        children[:, :depth] = np.repeat(prefixes, 2, axis=0)
        children[:, depth] = np.tile(np.array([0, 1], dtype=np.uint8), prefixes.shape[0])
        residuals = np.repeat(residuals, 2, axis=0)
        residuals[1::2] -= matrix[:, depth]
        reachable = np.all(
            (residuals >= reach_low[depth + 1] - slack)
            & (residuals <= reach_high[depth + 1] + slack),
            axis=1,
        )
        children, residuals = children[reachable], residuals[reachable]
        if children.shape[0] > BLOCK_ROWS:
            stack.append((children[BLOCK_ROWS:], residuals[BLOCK_ROWS:]))
            children, residuals = children[:BLOCK_ROWS], residuals[:BLOCK_ROWS]
        if children.shape[0]:
            stack.append((children, residuals))


def find_feasible_assignment(
    constraint_matrix: Sequence[Sequence[float]] | np.ndarray,
    rhs: Sequence[float] | np.ndarray,
) -> tuple[int, ...]:
    """The first feasible 0/1 assignment, or raise :class:`InfeasibleError`."""
    for rows in feasible_rows(constraint_matrix, rhs):
        return tuple(rows[0].tolist())
    raise InfeasibleError("the constraint system C x = c has no binary solution")


def enumerate_feasible_assignments(
    constraint_matrix: Sequence[Sequence[float]] | np.ndarray,
    rhs: Sequence[float] | np.ndarray,
    limit: int | None = None,
) -> list[tuple[int, ...]]:
    """The feasible assignments in code order, as tuples (the first ``limit``)."""
    found: list[tuple[int, ...]] = []
    for rows in feasible_rows(constraint_matrix, rhs):
        found.extend(map(tuple, rows.tolist()))
        if limit is not None and len(found) >= limit:
            break
    return found[:limit]


def count_feasible_assignments(
    constraint_matrix: Sequence[Sequence[float]] | np.ndarray,
    rhs: Sequence[float] | np.ndarray,
) -> int:
    """Number of binary solutions of ``C x = c`` (the feasible search space)."""
    return sum(rows.shape[0] for rows in feasible_rows(constraint_matrix, rhs))


def problem_initial_assignment(problem) -> tuple[int, ...]:
    """The first feasible assignment of a :class:`ConstrainedBinaryProblem`.

    An unconstrained problem's is the all-zeros assignment.
    """
    return find_feasible_assignment(*problem.constraint_matrix())
