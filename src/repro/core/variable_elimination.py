"""Variable elimination (Section IV-C).

The decomposed driver's depth is proportional to the total number of
non-zero entries across the solution vectors ``u in Delta`` of ``C u = 0``.
Eliminating a variable — fixing it classically and enumerating both values —
shrinks the constraint matrix, and therefore the solution vectors, the
circuit depth, and the number of qubits, at the price of running the circuit
once per assignment of the eliminated variables (an exponential measurement
overhead in the number of eliminated variables).

The elimination heuristic follows the paper: pick the variable with the most
non-zero entries across all vectors of Delta.

:class:`EliminationPlan` captures which variables were eliminated and
provides the bookkeeping to (1) build the reduced problem for each
assignment of the eliminated variables and (2) lift bitstrings measured on
the reduced register back to assignments of the original problem.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.core.nullspace import ternary_nullspace_basis, variable_nonzero_counts
from repro.core.problem import ConstrainedBinaryProblem, LinearConstraint, Objective
from repro.exceptions import ProblemError
from repro.qcircuit.statevector import bitstring_keys, key_bits


def choose_elimination_variables(
    problem: ConstrainedBinaryProblem,
    count: int,
    solutions: Sequence[Sequence[int]] | None = None,
) -> list[int]:
    """Pick ``count`` variables to eliminate.

    The paper's stated goal is "the variable that gives rise to a large
    reduction in the circuit depth", identified there by the non-zero count
    across the solution set Delta.  Because this reproduction drives the
    solver from the compact nullspace *basis* rather than the full Delta, the
    count rule alone can be a poor proxy, so we use a one-step lookahead:
    each candidate variable is tentatively fixed (its constraint column
    zeroed), the reduced basis recomputed, and the variable whose elimination
    minimises the remaining total non-zeros — the quantity the circuit depth
    is proportional to (Section IV-C) — is chosen.  Ties fall back to the
    paper's most-non-zeros rule.

    ``solutions`` optionally supplies the Delta set used for the tie-break
    ranking of the first pick.
    """
    if count < 0:
        raise ProblemError("count must be non-negative")
    if count == 0:
        return []
    chosen: list[int] = []
    matrix, _ = problem.constraint_matrix()
    if matrix.size == 0:
        raise ProblemError("variable elimination requires at least one constraint")
    current_matrix = matrix.copy()
    current_solutions = solutions
    for _ in range(count):
        if current_solutions is None:
            try:
                current_solutions = ternary_nullspace_basis(current_matrix)
            except ProblemError:
                break
        counts = variable_nonzero_counts(current_solutions, current_matrix.shape[1])
        best_pick: int | None = None
        best_key: tuple[float, float] | None = None
        for variable in range(problem.num_variables):
            if variable in chosen or counts[variable] <= 0:
                continue
            candidate_matrix = current_matrix.copy()
            candidate_matrix[:, variable] = 0.0
            try:
                reduced_basis = ternary_nullspace_basis(candidate_matrix)
                remaining_nonzeros = float(
                    sum(sum(1 for x in u if x != 0) for u in reduced_basis)
                )
            except ProblemError:
                # No moves left after elimination: the reduced problem is a
                # single classical point per assignment — maximal reduction.
                remaining_nonzeros = 0.0
            key = (remaining_nonzeros, -float(counts[variable]))
            if best_key is None or key < best_key:
                best_key = key
                best_pick = variable
        if best_pick is None:
            break
        chosen.append(best_pick)
        current_matrix = current_matrix.copy()
        current_matrix[:, best_pick] = 0.0
        current_solutions = None
    return chosen


@dataclass(frozen=True)
class ReducedInstance:
    """One reduced problem for a specific assignment of eliminated variables."""

    assignment: tuple[tuple[int, int], ...]  # (variable, value) pairs
    problem: ConstrainedBinaryProblem  # over the reduced (renumbered) register
    kept_variables: tuple[int, ...]  # reduced index -> original variable index

    def lift(self, reduced_bits: Sequence[int]) -> tuple[int, ...]:
        """Map a reduced-register bit assignment back to the original register."""
        return tuple(self._lift_rows(np.array([reduced_bits], dtype=np.uint8))[0].tolist())

    def lift_keys(self, keys: Iterable[str]) -> list[str]:
        """Lift reduced-register bitstrings to the original register, in order.

        Each key's first ``len(kept_variables)`` characters are the reduced
        bits; anything after them (a noisy run's ancilla bits) is dropped.
        """
        rows = key_bits(list(keys), len(self.kept_variables))
        return bitstring_keys(self._lift_rows(rows))

    def _lift_rows(self, rows: np.ndarray) -> np.ndarray:
        """Scatter ``(k, width)`` reduced bit rows into the kept columns of
        ``(k, n)`` rows whose eliminated columns hold the fixed values."""
        num_variables = len(self.kept_variables) + len(self.assignment)
        lifted = np.empty((rows.shape[0], num_variables), dtype=np.uint8)
        lifted[:, list(self.kept_variables)] = rows
        for variable, value in self.assignment:
            lifted[:, variable] = value
        return lifted


@dataclass
class EliminationPlan:
    """The set of reduced instances produced by eliminating some variables."""

    original: ConstrainedBinaryProblem
    eliminated: tuple[int, ...]
    instances: list[ReducedInstance] = field(default_factory=list)

    @property
    def num_circuits(self) -> int:
        """Measurement overhead: one circuit execution per reduced instance."""
        return len(self.instances)


def _renumber(
    problem: ConstrainedBinaryProblem, eliminated: Sequence[int]
) -> tuple[tuple[int, ...], dict[int, int]]:
    kept = tuple(v for v in range(problem.num_variables) if v not in set(eliminated))
    mapping = {original: reduced for reduced, original in enumerate(kept)}
    return kept, mapping


def build_elimination_plan(
    problem: ConstrainedBinaryProblem,
    variables: Sequence[int],
) -> EliminationPlan:
    """Build the reduced instances for every assignment of ``variables``.

    Each assignment of the eliminated variables yields a reduced problem over
    the remaining (renumbered) variables whose constraints absorb the fixed
    values into their right-hand sides — exactly the transformation described
    in Section IV-C.  Assignments whose reduced constraint system has no
    binary solution are skipped (running that circuit would be wasted
    work).
    """
    variables = list(dict.fromkeys(int(v) for v in variables))
    for variable in variables:
        if not 0 <= variable < problem.num_variables:
            raise ProblemError(f"variable {variable} out of range")
    if len(variables) >= problem.num_variables:
        raise ProblemError("cannot eliminate every variable")
    kept, mapping = _renumber(problem, variables)
    plan = EliminationPlan(original=problem, eliminated=tuple(variables))

    from repro.core.feasibility import find_feasible_assignment
    from repro.exceptions import InfeasibleError

    for values in itertools.product((0, 1), repeat=len(variables)):
        fixed = problem
        for variable, value in zip(variables, values):
            fixed = fixed.fix_variable(variable, value)
        reduced_objective = Objective()
        for term_variables, coefficient in fixed.objective.terms.items():
            reduced_objective.add_term(
                tuple(mapping[v] for v in term_variables), coefficient
            )
        reduced_constraints = []
        for constraint in fixed.constraints:
            coefficients = [0.0] * len(kept)
            for original_index, coefficient in enumerate(constraint.coefficients):
                if coefficient != 0 and original_index in mapping:
                    coefficients[mapping[original_index]] = coefficient
            reduced_constraints.append(
                LinearConstraint(tuple(coefficients), constraint.rhs)
            )
        reduced_problem = ConstrainedBinaryProblem(
            num_variables=len(kept),
            objective=reduced_objective,
            constraints=reduced_constraints,
            sense=problem.sense,
            name=f"{problem.name}|eliminate{dict(zip(variables, values))}",
            variable_names=[problem.variable_names[v] for v in kept],
        )
        if reduced_problem.constraints:
            matrix, rhs = reduced_problem.constraint_matrix()
            try:
                find_feasible_assignment(matrix, rhs)
            except InfeasibleError:
                continue
        plan.instances.append(
            ReducedInstance(
                assignment=tuple(zip(variables, values)),
                problem=reduced_problem,
                kept_variables=kept,
            )
        )
    if not plan.instances:
        raise ProblemError("every assignment of the eliminated variables is infeasible")
    return plan
