"""Constrained binary optimization problem model.

The paper's target problem (Eq. 1) is

    min or max  f(x),   x in {0, 1}^n
    subject to  C x = c

with a scalar objective ``f`` and a system of linear *equality* constraints.
This module provides the data model shared by every solver:

* :class:`Objective` — a polynomial over binary variables represented as a
  mapping from sorted variable-index tuples to coefficients (constant term
  keyed by the empty tuple);
* :class:`LinearConstraint` — one row ``sum_i coeff_i x_i = rhs``;
* :class:`ConstrainedBinaryProblem` — the full problem, with evaluation,
  feasibility checking, penalty reformulation hooks, and a brute-force
  optimum used as ground truth by the metrics layer;
* :func:`evaluate_polynomial` and :func:`constraint_violation` — the array
  forms of :meth:`Objective.evaluate` and :meth:`LinearConstraint.violation`
  over 0/1 bit columns, equal to them bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.exceptions import ProblemError

VariableTuple = tuple[int, ...]


def evaluate_polynomial(
    terms: Mapping[VariableTuple, float], size: int, column: Callable[[int], np.ndarray]
) -> np.ndarray:
    """Evaluate a binary polynomial on ``size`` assignments at once.

    ``column(v)`` returns variable ``v``'s length-``size`` array of 0/1
    values.  Terms accumulate in mapping order from ``0.0`` and each product
    runs left to right from its coefficient, so entry ``i`` equals
    :meth:`Objective.evaluate` of assignment ``i`` bit for bit (a zero
    coefficient is skipped: it adds nothing).  Every array evaluator of a
    polynomial in the package is this function with its own ``column``.
    """
    values = np.zeros(size)
    for variables, coefficient in terms.items():
        if coefficient == 0:
            continue
        product = np.full(size, float(coefficient))
        for variable in variables:
            product *= column(variable)
        values += product
    return values


def constraint_violation(
    constraint: "LinearConstraint", size: int, column: Callable[[int], np.ndarray]
) -> np.ndarray:
    """:meth:`LinearConstraint.violation` of ``size`` assignments, bit for bit;
    ``column`` as in :func:`evaluate_polynomial`."""
    total = np.zeros(size)
    for i, coefficient in enumerate(constraint.coefficients):
        if coefficient != 0:
            total += float(coefficient) * column(i)
    return np.abs(total - constraint.rhs)


class Objective:
    """A polynomial objective over binary variables.

    ``terms`` maps sorted tuples of variable indices to coefficients, e.g.
    ``{(): 3.0, (0,): 1.5, (0, 2): -2.0}`` represents
    ``3 + 1.5 x_0 - 2 x_0 x_2``.  Because variables are binary, repeated
    indices are collapsed (``x^2 = x``).
    """

    def __init__(self, terms: Mapping[Sequence[int], float] | None = None) -> None:
        self._terms: dict[VariableTuple, float] = {}
        for variables, coefficient in (terms or {}).items():
            self.add_term(variables, coefficient)

    # ------------------------------------------------------------------

    def add_term(self, variables: Sequence[int], coefficient: float) -> "Objective":
        """Accumulate ``coefficient * prod(x_i for i in variables)``."""
        key = tuple(sorted(set(int(v) for v in variables)))
        if coefficient == 0:
            return self
        self._terms[key] = self._terms.get(key, 0.0) + float(coefficient)
        if self._terms[key] == 0.0:
            del self._terms[key]
        return self

    @property
    def terms(self) -> dict[VariableTuple, float]:
        return dict(self._terms)

    @property
    def degree(self) -> int:
        return max((len(key) for key in self._terms), default=0)

    def variables(self) -> frozenset[int]:
        found: set[int] = set()
        for key in self._terms:
            found.update(key)
        return frozenset(found)

    # ------------------------------------------------------------------

    def evaluate(self, assignment: Sequence[int]) -> float:
        """Evaluate the polynomial on a 0/1 assignment."""
        total = 0.0
        for variables, coefficient in self._terms.items():
            product = coefficient
            for variable in variables:
                if assignment[variable] == 0:
                    product = 0.0
                    break
            total += product
        return total

    def __add__(self, other: "Objective") -> "Objective":
        combined = Objective(self._terms)
        for variables, coefficient in other._terms.items():
            combined.add_term(variables, coefficient)
        return combined

    def __mul__(self, scalar: float) -> "Objective":
        return Objective({key: value * scalar for key, value in self._terms.items()})

    __rmul__ = __mul__

    def __neg__(self) -> "Objective":
        return self * -1.0

    def __len__(self) -> int:
        return len(self._terms)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Objective({len(self._terms)} terms, degree {self.degree})"

    # ------------------------------------------------------------------

    @classmethod
    def from_linear(cls, weights: Sequence[float], constant: float = 0.0) -> "Objective":
        """Build ``constant + sum_i weights[i] * x_i``."""
        objective = cls()
        if constant:
            objective.add_term((), constant)
        for index, weight in enumerate(weights):
            objective.add_term((index,), weight)
        return objective

    def substitute(self, variable: int, value: int) -> "Objective":
        """Fix one variable to 0/1 and return the reduced polynomial.

        Variable indices of the remaining variables are *not* renumbered —
        callers that need a compact problem should use
        :mod:`repro.core.variable_elimination`.
        """
        if value not in (0, 1):
            raise ProblemError("binary variables can only be fixed to 0 or 1")
        reduced = Objective()
        for variables, coefficient in self._terms.items():
            if variable in variables:
                if value == 0:
                    continue
                remaining = tuple(v for v in variables if v != variable)
                reduced.add_term(remaining, coefficient)
            else:
                reduced.add_term(variables, coefficient)
        return reduced


@dataclass(frozen=True)
class LinearConstraint:
    """One linear equality ``sum_i coefficients[i] x_i = rhs``."""

    coefficients: tuple[float, ...]
    rhs: float

    def __post_init__(self) -> None:
        if not self.coefficients:
            raise ProblemError("a constraint needs at least one coefficient")

    @property
    def num_variables(self) -> int:
        return len(self.coefficients)

    @property
    def support(self) -> tuple[int, ...]:
        """Variables with a non-zero coefficient."""
        return tuple(i for i, c in enumerate(self.coefficients) if c != 0)

    def is_summation_format(self) -> bool:
        """True when all non-zero coefficients have the same sign and are ±1.

        This is the format the cyclic-Hamiltonian baseline supports
        (Section II-B / III).
        """
        nonzero = [c for c in self.coefficients if c != 0]
        if not nonzero:
            return False
        return all(c == 1 for c in nonzero) or all(c == -1 for c in nonzero)

    def evaluate(self, assignment: Sequence[int]) -> float:
        # An explicit left-to-right sum: the builtin ``sum`` is compensated
        # from Python 3.12 on, which would part from the vectorized kernels.
        total = 0.0
        for i, c in enumerate(self.coefficients):
            if c != 0:
                total += c * assignment[i]
        return float(total)

    def violation(self, assignment: Sequence[int]) -> float:
        return abs(self.evaluate(assignment) - self.rhs)

    def is_satisfied(self, assignment: Sequence[int], tolerance: float = 1e-9) -> bool:
        return self.violation(assignment) <= tolerance

    def substitute(self, variable: int, value: int) -> "LinearConstraint":
        """Fix one variable; its contribution moves into the right-hand side."""
        coefficients = list(self.coefficients)
        shift = coefficients[variable] * value
        coefficients[variable] = 0.0
        return LinearConstraint(tuple(coefficients), self.rhs - shift)


class ConstrainedBinaryProblem:
    """A constrained binary optimization instance (Eq. 1)."""

    def __init__(
        self,
        num_variables: int,
        objective: Objective,
        constraints: Iterable[LinearConstraint] = (),
        sense: str = "min",
        name: str = "problem",
        variable_names: Sequence[str] | None = None,
    ) -> None:
        if num_variables < 1:
            raise ProblemError("a problem needs at least one variable")
        if sense not in ("min", "max"):
            raise ProblemError("sense must be 'min' or 'max'")
        self.num_variables = int(num_variables)
        self.objective = objective
        self.constraints: list[LinearConstraint] = []
        for constraint in constraints:
            self.add_constraint(constraint)
        self.sense = sense
        self.name = name
        if variable_names is None:
            variable_names = [f"x{i}" for i in range(num_variables)]
        if len(variable_names) != num_variables:
            raise ProblemError("variable_names length must equal num_variables")
        self.variable_names = list(variable_names)
        for variable in objective.variables():
            if variable >= num_variables:
                raise ProblemError(
                    f"objective references variable {variable} beyond num_variables"
                )

    # ------------------------------------------------------------------

    def add_constraint(self, constraint: LinearConstraint) -> None:
        if constraint.num_variables != self.num_variables:
            raise ProblemError("constraint width must equal num_variables")
        self.constraints.append(constraint)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def constraint_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(C, c)`` with one row per constraint."""
        if not self.constraints:
            return (
                np.zeros((0, self.num_variables), dtype=float),
                np.zeros(0, dtype=float),
            )
        matrix = np.array([list(con.coefficients) for con in self.constraints], dtype=float)
        rhs = np.array([con.rhs for con in self.constraints], dtype=float)
        return matrix, rhs

    # ------------------------------------------------------------------

    def evaluate(self, assignment: Sequence[int]) -> float:
        self._check_assignment(assignment)
        return self.objective.evaluate(assignment)

    def is_feasible(self, assignment: Sequence[int], tolerance: float = 1e-9) -> bool:
        self._check_assignment(assignment)
        return all(con.is_satisfied(assignment, tolerance) for con in self.constraints)

    def total_violation(self, assignment: Sequence[int]) -> float:
        """The L1 norm ``||C x - c||_1`` used by the ARG metric."""
        self._check_assignment(assignment)
        total = 0.0
        for con in self.constraints:
            total += con.violation(assignment)
        return total

    def _check_assignment(self, assignment: Sequence[int]) -> None:
        if len(assignment) != self.num_variables:
            raise ProblemError(
                f"assignment has {len(assignment)} entries, expected {self.num_variables}"
            )

    # ------------------------------------------------------------------

    def minimization_objective(self) -> Objective:
        """The objective with the sign flipped when the problem is a maximization.

        Every quantum solver in this package internally minimizes.
        """
        return self.objective if self.sense == "min" else -self.objective

    def better(self, value_a: float, value_b: float) -> bool:
        """True when ``value_a`` is strictly better than ``value_b``."""
        return value_a < value_b if self.sense == "min" else value_a > value_b

    def brute_force_optimum(self) -> tuple[tuple[int, ...], float]:
        """Exhaustively find an optimal feasible assignment and its value.

        Raises :class:`ProblemError` when the problem has no feasible
        assignment.  The scan is exponential in the number of variables —
        exactly the classical cost the paper quotes for exact solvers — but
        vectorized: assignments are enumerated as integer codes in chunks,
        each constraint prunes the chunk before the next one runs, and the
        objective is only evaluated on the feasible survivors.  Code order
        (variable 0 as the most significant bit), the shared kernels and
        strict-improvement tie-breaking match the naive
        ``itertools.product`` scan bit for bit.
        """
        n = self.num_variables
        pick = np.argmin if self.sense == "min" else np.argmax
        best_code: int | None = None
        best_value = 0.0
        chunk = 1 << min(n, 18)
        for start in range(0, 1 << n, chunk):
            codes = np.arange(start, min(start + chunk, 1 << n), dtype=np.int64)
            for constraint in self.constraints:
                violation = constraint_violation(constraint, codes.size, _code_column(codes, n))
                codes = codes[violation <= 1e-9]
                if codes.size == 0:
                    break
            if codes.size == 0:
                continue
            values = evaluate_polynomial(self.objective.terms, codes.size, _code_column(codes, n))
            index = int(pick(values))
            if best_code is None or self.better(float(values[index]), best_value):
                best_code, best_value = int(codes[index]), float(values[index])
        if best_code is None:
            raise ProblemError(f"problem {self.name!r} has no feasible assignment")
        return tuple((best_code >> (n - 1 - j)) & 1 for j in range(n)), best_value

    def evaluate_rows(
        self, bits: np.ndarray, tolerance: float = 1e-9
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Objective, L1 violation and feasibility of each ``(k, n)`` 0/1 bit row.

        Column ``j`` is variable ``j``.  Entry ``i`` of the three arrays
        equals :meth:`evaluate`, :meth:`total_violation` and
        :meth:`is_feasible` of row ``i`` bit for bit.
        """
        bits = np.asarray(bits)
        if bits.ndim != 2 or bits.shape[1] != self.num_variables:
            raise ProblemError(f"bit rows must be (k, {self.num_variables})")
        size = bits.shape[0]
        violation = np.zeros(size)
        feasible = np.ones(size, dtype=bool)
        for constraint in self.constraints:
            distance = constraint_violation(constraint, size, lambda v: bits[:, v])
            violation += distance
            feasible &= distance <= tolerance
        objective = evaluate_polynomial(self.objective.terms, size, lambda v: bits[:, v])
        return objective, violation, feasible

    # ------------------------------------------------------------------

    def fix_variable(self, variable: int, value: int) -> "ConstrainedBinaryProblem":
        """Return a copy with one variable fixed (indices are preserved).

        The fixed variable keeps its index but no longer appears in the
        objective or constraints; downstream consumers that need a compact
        register should use :mod:`repro.core.variable_elimination`.
        """
        if not 0 <= variable < self.num_variables:
            raise ProblemError(f"variable {variable} out of range")
        reduced_objective = self.objective.substitute(variable, value)
        reduced_constraints = [con.substitute(variable, value) for con in self.constraints]
        return ConstrainedBinaryProblem(
            num_variables=self.num_variables,
            objective=reduced_objective,
            constraints=reduced_constraints,
            sense=self.sense,
            name=f"{self.name}|{self.variable_names[variable]}={value}",
            variable_names=self.variable_names,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ConstrainedBinaryProblem(name={self.name!r}, variables={self.num_variables}, "
            f"constraints={self.num_constraints}, sense={self.sense!r})"
        )


def _code_column(codes: np.ndarray, n: int) -> Callable[[int], np.ndarray]:
    """Variable ``v``'s bits of assignment codes (variable ``j`` at bit ``n - 1 - j``)."""
    return lambda variable: (codes >> (n - 1 - variable)) & 1
