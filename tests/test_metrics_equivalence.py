"""The array scorer of :mod:`repro.core.metrics` against a per-key scalar loop.

``_reference_*`` below is the per-bitstring implementation the array pass
replaced: parse each key into a tuple, then call ``is_feasible``,
``evaluate`` and ``total_violation`` one assignment at a time, accumulating
left to right from ``0.0``.  Every metric must match it with ``==`` — the
scorer's contract is bit identity, not closeness.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.metrics import (
    DEFAULT_ARG_PENALTY,
    best_measured,
    evaluate_outcomes,
    expected_objective,
)
from repro.core.problem import ConstrainedBinaryProblem, LinearConstraint, Objective
from repro.core.subspace import SubspaceMap
from repro.exceptions import ProblemError
from repro.problems.benchmark_suite import SCALE_NAMES, make_benchmark
from repro.qcircuit.sampling import SampleResult
from repro.qcircuit.statevector import bitstring_keys
from repro.run.problems import resolve_benchmark
from repro.solvers.optimizer import CobylaOptimizer
from repro.solvers.variational import EngineOptions


def _reference_distribution(outcomes):
    if isinstance(outcomes, SampleResult):
        return outcomes.frequencies()
    total = float(sum(outcomes.values()))
    if total <= 0:
        raise ProblemError("outcome distribution is empty")
    return {key: value / total for key, value in outcomes.items()}


def _reference_bits(key, num_variables):
    if len(key) < num_variables:
        raise ProblemError(f"bitstring {key!r} is too short")
    return tuple(int(ch) for ch in key[:num_variables])


def _reference_metrics(problem, outcomes, optimal_value, penalty=DEFAULT_ARG_PENALTY):
    """``(success, in-constraints, ARG)`` by three scalar passes."""
    distribution = _reference_distribution(outcomes)
    success = feasible_mass = expectation = 0.0
    shift = 1.0 if optimal_value == 0 else 0.0
    for key, probability in distribution.items():
        bits = _reference_bits(key, problem.num_variables)
        if problem.is_feasible(bits):
            feasible_mass += probability
            if abs(problem.evaluate(bits) - optimal_value) <= 1e-9:
                success += probability
    for key, probability in distribution.items():
        bits = _reference_bits(key, problem.num_variables)
        value = problem.evaluate(bits) + penalty * problem.total_violation(bits)
        expectation += probability * (value + shift)
    arg = abs(expectation / (optimal_value + shift) - 1.0)
    return success, feasible_mass, arg


def _reference_expectation(problem, outcomes, penalty):
    expectation = 0.0
    for key, probability in _reference_distribution(outcomes).items():
        bits = _reference_bits(key, problem.num_variables)
        expectation += probability * (
            problem.evaluate(bits) + penalty * problem.total_violation(bits)
        )
    return expectation


def _reference_best(problem, outcomes, require_feasible):
    best_bits, best_value = None, None
    for key in _reference_distribution(outcomes):
        bits = _reference_bits(key, problem.num_variables)
        if require_feasible and not problem.is_feasible(bits):
            continue
        value = problem.evaluate(bits)
        if best_value is None or problem.better(value, best_value):
            best_bits, best_value = bits, value
    return best_bits, best_value


def assert_scores_identical(problem, outcomes, optimal_value=None):
    if optimal_value is None:
        _, optimal_value = problem.brute_force_optimum()
    report = evaluate_outcomes(problem, outcomes, optimal_value=optimal_value)
    assert (
        report.success_rate,
        report.in_constraints_rate,
        report.approximation_ratio_gap,
    ) == _reference_metrics(problem, outcomes, optimal_value)
    for penalty in (0.0, 10.0):
        assert expected_objective(problem, outcomes, penalty) == _reference_expectation(
            problem, outcomes, penalty
        )
    for require_feasible in (True, False):
        assert best_measured(problem, outcomes, require_feasible) == _reference_best(
            problem, outcomes, require_feasible
        )


def _fractional(keys, seed=0):
    """Unnormalised weights that make every normalised probability inexact."""
    rng = np.random.default_rng(seed)
    return {key: float(weight) for key, weight in zip(keys, rng.random(len(keys)))}


def _all_keys(num_variables):
    return [
        "".join(str((index >> (num_variables - 1 - j)) & 1) for j in range(num_variables))
        for index in range(2**num_variables)
    ]


@pytest.mark.parametrize("name", ["F1", "G1", "K1", "K2"])
@pytest.mark.parametrize("solver", ["penalty-qaoa", "hea", "choco-q"])
def test_real_solve_distributions(name, solver):
    problem = resolve_benchmark(name)
    # 8 evaluations, or COBYLA's minimum of num_parameters + 2 at the default
    # layer counts (penalty QAOA 2 x 7, HEA 4 RY layers of n qubits).
    num_parameters = {"penalty-qaoa": 14, "hea": 4 * problem.num_variables, "choco-q": 6}
    result = repro.solve(
        problem,
        solver,
        optimizer=CobylaOptimizer(max_iterations=max(8, num_parameters[solver] + 2)),
        options=EngineOptions(shots=512, seed=5),
    )
    assert_scores_identical(problem, result.exact_distribution)
    assert_scores_identical(problem, result.outcomes)


@pytest.mark.parametrize("name", SCALE_NAMES)
def test_suite_scales_feasible_and_random_rows(name):
    problem = make_benchmark(name)
    random_rows = np.random.default_rng(4).integers(
        0, 2, size=(32, problem.num_variables), dtype=np.uint8
    )
    rows = np.concatenate([SubspaceMap.from_problem(problem).basis, random_rows])
    assert_scores_identical(problem, _fractional(bitstring_keys(rows), seed=4))


def test_a_64_variable_subspace_solve_scores_its_metrics():
    """Scoring reads each key's bits directly: no register width cap."""
    problem = ConstrainedBinaryProblem(
        num_variables=64,
        objective=Objective.from_linear([float(i % 7) for i in range(64)]),
        constraints=[LinearConstraint((1.0,) * 64, 1.0)],
        name="one-hot-64",
    )
    result = repro.solve(
        problem,
        "choco-q",
        backend="subspace",
        num_layers=1,
        optimizer=CobylaOptimizer(max_iterations=5),
        options=EngineOptions(shots=64, seed=0),
    )
    report = result.metrics(problem, optimal_value=0.0)
    assert report.in_constraints_rate == pytest.approx(1.0, abs=1e-9)
    assert_scores_identical(problem, result.outcomes, optimal_value=0.0)


def test_maximisation_problem():
    problem = ConstrainedBinaryProblem(
        num_variables=4,
        objective=Objective({(0,): 0.1, (1,): 0.7, (2,): 0.3, (1, 3): 0.45, (): 0.2}),
        constraints=[LinearConstraint((1.0, 1.0, 1.0, 0.0), 1.0)],
        sense="max",
    )
    assert_scores_identical(problem, _fractional(_all_keys(4)))


def test_zero_optimum_shifts_the_ratio():
    problem = ConstrainedBinaryProblem(
        num_variables=3,
        objective=Objective({(1,): 0.3, (2,): 1.1}),
        constraints=[LinearConstraint((1.0, 1.0, 1.0), 1.0)],
    )
    assert problem.brute_force_optimum()[1] == 0
    assert_scores_identical(problem, _fractional(_all_keys(3), seed=1))


def test_negative_coefficients_and_negative_zero_products():
    problem = ConstrainedBinaryProblem(
        num_variables=4,
        objective=Objective({(0,): -2.5, (1, 2): -0.3, (3,): 1.7, (0, 3): -0.1}),
        constraints=[
            LinearConstraint((1.0, -1.0, 0.0, 0.5), 0.5),
            LinearConstraint((0.0, 1.0, 1.0, 1.0), 1.0),
        ],
    )
    assert_scores_identical(problem, _fractional(_all_keys(4), seed=2))


def test_truncated_ancilla_keys(paper_example_problem):
    keys = [key + tail for key, tail in zip(_all_keys(4), ["01", "10", "00", "11"] * 4)]
    assert_scores_identical(paper_example_problem, _fractional(keys, seed=3))


def test_sample_result_input(paper_example_problem):
    counts = {"1010": 7, "0100": 3, "1111": 5, "0001": 1, "1000": 2}
    assert_scores_identical(paper_example_problem, SampleResult.from_counts(counts))


def test_zero_shot_sample_result_scores_zero(paper_example_problem):
    assert_scores_identical(paper_example_problem, SampleResult())


@pytest.mark.parametrize("outcomes", [{}, {"1010": 0.0}])
def test_empty_distribution_raises(paper_example_problem, outcomes):
    with pytest.raises(ProblemError, match="empty"):
        evaluate_outcomes(paper_example_problem, outcomes, optimal_value=6.0)
