"""Evaluation metrics used throughout the paper.

Section V-A defines three algorithmic metrics computed over the measurement
outcomes of a solver:

* **success rate** — probability of measuring an optimal feasible assignment;
* **in-constraints rate** — probability that the measured assignment
  satisfies every constraint;
* **approximation ratio gap (ARG)** — Eq. (17):
  ``| E[f(x) + lambda * ||C x - c||_1] / f(x_optimal) - 1 |`` with
  ``lambda = 10``.

All three are implemented over either a shot histogram
(:class:`~repro.qcircuit.sampling.SampleResult`) or an exact probability
dictionary keyed by bitstring, as views over one array pass (:class:`_Scores`)
that scores every key once: the keys parse into ``(k, n)`` bit rows
(:func:`~repro.qcircuit.statevector.key_bits`), which
:meth:`~repro.core.problem.ConstrainedBinaryProblem.evaluate_rows` scores
through the shared polynomial and violation kernels, at any register width.
Each metric sums its per-key terms left to right in the distribution's order
from ``0.0`` (``np.add.accumulate``; ``np.sum`` is pairwise), so it equals a
per-key scalar loop bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.core.problem import ConstrainedBinaryProblem
from repro.exceptions import ProblemError
from repro.qcircuit.sampling import SampleResult
from repro.qcircuit.statevector import key_bits

DEFAULT_ARG_PENALTY = 10.0
Outcomes = SampleResult | Mapping[str, float]


def _normalised_distribution(outcomes: Outcomes) -> dict[str, float]:
    """Convert a histogram or probability mapping into relative frequencies."""
    if isinstance(outcomes, SampleResult):
        return outcomes.frequencies()
    total = float(sum(outcomes.values()))
    if total <= 0:
        raise ProblemError("outcome distribution is empty")
    return {key: value / total for key, value in outcomes.items()}


def _sequential_sum(terms: np.ndarray) -> float:
    """``total = 0.0; for term in terms: total += term``, vectorized."""
    return float(np.add.accumulate(np.concatenate(([0.0], terms)))[-1])


class _Scores:
    """Bit row, probability, objective, L1 violation and feasibility of every key."""

    def __init__(self, problem: ConstrainedBinaryProblem, outcomes: Outcomes) -> None:
        distribution = _normalised_distribution(outcomes)
        self.probabilities = np.fromiter(distribution.values(), float, len(distribution))
        self.bits = key_bits(list(distribution), problem.num_variables)
        self.objective, self.violation, self.feasible = problem.evaluate_rows(self.bits)

    def in_constraints_rate(self) -> float:
        return _sequential_sum(self.probabilities[self.feasible])

    def success_rate(self, optimal_value: float, tolerance: float = 1e-9) -> float:
        optimal = self.feasible & (np.abs(self.objective - optimal_value) <= tolerance)
        return _sequential_sum(self.probabilities[optimal])

    def expectation(self, penalty: float, shift: float = 0.0) -> float:
        values = self.objective + penalty * self.violation
        return _sequential_sum(self.probabilities * (values + shift))

    def arg(self, optimal_value: float, penalty: float) -> float:
        # Shift both sides by 1 when the optimum is 0, keeping the ratio defined.
        shift = 1.0 if optimal_value == 0 else 0.0
        return abs(self.expectation(penalty, shift) / (optimal_value + shift) - 1.0)


def in_constraints_rate(problem: ConstrainedBinaryProblem, outcomes: Outcomes) -> float:
    """Probability mass on assignments satisfying every constraint."""
    return _Scores(problem, outcomes).in_constraints_rate()


def success_rate(
    problem: ConstrainedBinaryProblem,
    outcomes: Outcomes,
    optimal_value: float | None = None,
    tolerance: float = 1e-9,
) -> float:
    """Probability mass on optimal feasible assignments.

    ``optimal_value`` may be passed to avoid re-solving the instance; when
    omitted it is computed by brute force.
    """
    if optimal_value is None:
        _, optimal_value = problem.brute_force_optimum()
    return _Scores(problem, outcomes).success_rate(optimal_value, tolerance)


def approximation_ratio_gap(
    problem: ConstrainedBinaryProblem,
    outcomes: Outcomes,
    optimal_value: float | None = None,
    penalty: float = DEFAULT_ARG_PENALTY,
) -> float:
    """The ARG metric of Eq. (17).

    ``ARG = | E[f(x) + penalty * ||C x - c||_1] / f(x_optimal) - 1 |``.
    A perfectly constrained solver with all mass on the optimum scores 0.
    """
    if optimal_value is None:
        _, optimal_value = problem.brute_force_optimum()
    return _Scores(problem, outcomes).arg(optimal_value, penalty)


def expected_objective(
    problem: ConstrainedBinaryProblem, outcomes: Outcomes, penalty: float = 0.0
) -> float:
    """Expected (objective + penalty * violation) over the outcome distribution."""
    return _Scores(problem, outcomes).expectation(penalty)


def best_measured(
    problem: ConstrainedBinaryProblem, outcomes: Outcomes, require_feasible: bool = True
) -> tuple[tuple[int, ...] | None, float | None]:
    """The best (feasible) assignment observed; ties go to the first key."""
    scores = _Scores(problem, outcomes)
    candidates = np.flatnonzero(scores.feasible | (not require_feasible))
    if candidates.size == 0:
        return None, None
    pick = np.argmin if problem.sense == "min" else np.argmax
    best = int(candidates[pick(scores.objective[candidates])])
    return tuple(scores.bits[best].tolist()), float(scores.objective[best])


@dataclass(frozen=True)
class MetricsReport:
    """The per-run metric bundle reported in Table II."""

    success_rate: float
    in_constraints_rate: float
    approximation_ratio_gap: float
    circuit_depth: int


def evaluate_outcomes(
    problem: ConstrainedBinaryProblem,
    outcomes: Outcomes,
    circuit_depth: int = 0,
    optimal_value: float | None = None,
    arg_penalty: float = DEFAULT_ARG_PENALTY,
) -> MetricsReport:
    """Compute all Table-II metrics for one solver run."""
    if optimal_value is None:
        _, optimal_value = problem.brute_force_optimum()
    scores = _Scores(problem, outcomes)
    return MetricsReport(
        success_rate=scores.success_rate(optimal_value),
        in_constraints_rate=scores.in_constraints_rate(),
        approximation_ratio_gap=scores.arg(optimal_value, arg_penalty),
        circuit_depth=circuit_depth,
    )
