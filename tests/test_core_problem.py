"""Tests for the problem model: objectives, constraints, problems."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.feasibility import enumerate_feasible_assignments
from repro.core.problem import ConstrainedBinaryProblem, LinearConstraint, Objective
from repro.exceptions import ProblemError
from repro.problems.benchmark_suite import SCALE_NAMES, make_benchmark


class TestObjective:
    def test_terms_collapse_duplicates(self):
        objective = Objective({(1, 1): 2.0})
        assert objective.terms == {(1,): 2.0}

    def test_add_term_accumulates_and_cancels(self):
        objective = Objective()
        objective.add_term((0,), 1.5)
        objective.add_term((0,), -1.5)
        assert len(objective) == 0

    def test_evaluate(self):
        objective = Objective({(): 1.0, (0,): 2.0, (0, 1): 3.0})
        assert objective.evaluate([1, 0]) == pytest.approx(3.0)
        assert objective.evaluate([1, 1]) == pytest.approx(6.0)

    def test_addition_and_scaling(self):
        a = Objective({(0,): 1.0})
        b = Objective({(0,): 2.0, (1,): 1.0})
        combined = a + 2.0 * b
        assert combined.terms == {(0,): 5.0, (1,): 2.0}
        assert (-a).terms == {(0,): -1.0}

    def test_substitute_one(self):
        objective = Objective({(0, 1): 2.0, (1,): 1.0})
        reduced = objective.substitute(0, 1)
        assert reduced.terms == {(1,): 3.0}

    def test_substitute_zero_drops_terms(self):
        objective = Objective({(0, 1): 2.0, (1,): 1.0})
        reduced = objective.substitute(0, 0)
        assert reduced.terms == {(1,): 1.0}

    def test_substitute_invalid_value(self):
        with pytest.raises(ProblemError):
            Objective({(0,): 1.0}).substitute(0, 2)

    def test_from_linear(self):
        objective = Objective.from_linear([1.0, 0.0, -2.0], constant=3.0)
        assert objective.evaluate([1, 1, 1]) == pytest.approx(2.0)

    def test_degree(self):
        assert Objective({(0, 1): 1.0}).degree == 2
        assert Objective().degree == 0


class TestLinearConstraint:
    def test_requires_coefficients(self):
        with pytest.raises(ProblemError):
            LinearConstraint((), 0.0)

    def test_support_and_summation_format(self):
        constraint = LinearConstraint((1.0, 0.0, 1.0), 1.0)
        assert constraint.support == (0, 2)
        assert constraint.is_summation_format()
        assert LinearConstraint((-1.0, -1.0), -1.0).is_summation_format()
        assert not LinearConstraint((1.0, -1.0), 0.0).is_summation_format()
        assert not LinearConstraint((2.0, 1.0), 1.0).is_summation_format()

    def test_violation_and_satisfaction(self):
        constraint = LinearConstraint((1.0, 1.0), 1.0)
        assert constraint.is_satisfied([1, 0])
        assert constraint.violation([1, 1]) == pytest.approx(1.0)

    def test_substitute_moves_to_rhs(self):
        constraint = LinearConstraint((2.0, 1.0), 3.0)
        reduced = constraint.substitute(0, 1)
        assert reduced.coefficients == (0.0, 1.0)
        assert reduced.rhs == pytest.approx(1.0)


class TestConstrainedBinaryProblem:
    def test_optimum_of_paper_example(self, paper_example_problem):
        assignment, value = paper_example_problem.brute_force_optimum()
        assert assignment == (1, 0, 1, 0)
        assert value == pytest.approx(6.0)

    def test_feasibility_and_violation(self, paper_example_problem):
        assert paper_example_problem.is_feasible((1, 0, 1, 0))
        assert not paper_example_problem.is_feasible((1, 1, 1, 1))
        assert paper_example_problem.total_violation((1, 1, 1, 1)) == pytest.approx(2.0)

    def test_sense_validation(self):
        with pytest.raises(ProblemError):
            ConstrainedBinaryProblem(1, Objective(), sense="maximize")

    def test_constraint_width_validation(self):
        with pytest.raises(ProblemError):
            ConstrainedBinaryProblem(
                3, Objective(), [LinearConstraint((1.0, 1.0), 1.0)]
            )

    def test_objective_variable_range_validated(self):
        with pytest.raises(ProblemError):
            ConstrainedBinaryProblem(2, Objective({(5,): 1.0}))

    def test_minimization_objective_negates_for_max(self, paper_example_problem):
        minimized = paper_example_problem.minimization_objective()
        assert minimized.evaluate((1, 0, 1, 0)) == pytest.approx(-6.0)

    def test_infeasible_problem_raises(self):
        problem = ConstrainedBinaryProblem(
            2, Objective(), [LinearConstraint((1.0, 1.0), 5.0)]
        )
        with pytest.raises(ProblemError):
            problem.brute_force_optimum()

    def test_fix_variable_keeps_width(self, paper_example_problem):
        fixed = paper_example_problem.fix_variable(0, 1)
        assert fixed.num_variables == 4
        # x0 fixed to 1 forces x2 = 1 (via x0 - x2 = 0) and x1 = x3 = 0;
        # x0's contribution stays as a constant term, so the optimum is still 6.
        assignment, value = fixed.brute_force_optimum()
        assert value == pytest.approx(6.0)
        assert assignment[2] == 1

    def test_constraint_matrix_shapes(self, paper_example_problem):
        matrix, rhs = paper_example_problem.constraint_matrix()
        assert matrix.shape == (2, 4)
        assert rhs.shape == (2,)

    def test_assignment_length_checked(self, paper_example_problem):
        with pytest.raises(ProblemError):
            paper_example_problem.evaluate((1, 0))


def _scan_optimum(problem: ConstrainedBinaryProblem) -> tuple[tuple[int, ...], float]:
    """The sequential scan ``brute_force_optimum`` must reproduce bit for bit:
    ``itertools.product`` order, scalar evaluation, strict improvement."""
    best = None
    for bits in itertools.product((0, 1), repeat=problem.num_variables):
        if not problem.is_feasible(bits):
            continue
        value = problem.evaluate(bits)
        if best is None or problem.better(value, best[1]):
            best = (bits, value)
    return best


class TestExactOptimum:
    """``brute_force_optimum`` is the one exact ground truth of the package."""

    @pytest.mark.parametrize("name", SCALE_NAMES)
    def test_matches_a_scan_of_the_enumerated_feasible_set(self, name):
        problem = make_benchmark(name)
        matrix, rhs = problem.constraint_matrix()
        values = [problem.evaluate(bits) for bits in enumerate_feasible_assignments(matrix, rhs)]
        assignment, value = problem.brute_force_optimum()
        assert problem.is_feasible(assignment)
        assert problem.evaluate(assignment) == value
        assert value == (max(values) if problem.sense == "max" else min(values))

    @pytest.mark.parametrize("sense", ["min", "max"])
    def test_ties_resolve_to_the_first_optimum_in_scan_order(self, sense):
        # One-hot over four variables with weights tying in pairs: both the
        # minimum (x1, x3) and the maximum (x0, x2) are two-way ties.
        problem = ConstrainedBinaryProblem(
            4,
            Objective.from_linear([5.0, 1.0, 5.0, 1.0]),
            [LinearConstraint((1.0, 1.0, 1.0, 1.0), 1.0)],
            sense=sense,
        )
        expected = ((0, 0, 0, 1), 1.0) if sense == "min" else ((0, 0, 1, 0), 5.0)
        assert problem.brute_force_optimum() == expected == _scan_optimum(problem)

    def test_unconstrained_problem_scans_the_whole_cube(self):
        problem = ConstrainedBinaryProblem(
            5, Objective({(0,): 1.0, (1, 2): -3.0, (3,): 2.0, (2, 4): -1.5, (4,): 0.5})
        )
        assert problem.brute_force_optimum() == _scan_optimum(problem) == ((0, 1, 1, 0, 1), -4.0)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        num_variables=st.integers(2, 7),
        sense=st.sampled_from(["min", "max"]),
    )
    def test_property_random_instances_match_the_scan(self, seed, num_variables, sense):
        rng = np.random.default_rng(seed)
        objective = Objective.from_linear(rng.integers(-4, 5, num_variables).astype(float).tolist())
        objective.add_term((0, num_variables - 1), float(rng.integers(-3, 4)))
        coefficients = rng.integers(-1, 2, num_variables).astype(float)
        # The right-hand side of a random assignment keeps the system feasible.
        rhs = float(coefficients @ rng.integers(0, 2, num_variables))
        problem = ConstrainedBinaryProblem(
            num_variables, objective, [LinearConstraint(tuple(coefficients), rhs)], sense=sense
        )
        assert problem.brute_force_optimum() == _scan_optimum(problem)


@settings(max_examples=30, deadline=None)
@given(
    bits=st.lists(st.integers(0, 1), min_size=3, max_size=3),
    weights=st.lists(st.floats(-5, 5, allow_nan=False), min_size=3, max_size=3),
)
def test_property_linear_objective_evaluation(bits, weights):
    """Objective evaluation equals the dot product for linear polynomials."""
    objective = Objective.from_linear(weights)
    expected = sum(w * b for w, b in zip(weights, bits))
    assert objective.evaluate(bits) == pytest.approx(expected)


def test_scalar_sums_run_left_to_right_like_the_array_kernels():
    # 1.0 + 1e16 rounds to 1e16, so a left-to-right sum of these
    # coefficients is 0.0 where a compensated one (builtin ``sum`` from
    # Python 3.12) or a right-to-left one gives 1.0.
    problem = ConstrainedBinaryProblem(
        num_variables=3,
        objective=Objective({(0,): 1.0, (1,): 1e16, (2,): -1e16}),
        constraints=[
            LinearConstraint((1.0, 1e16, -1e16), 1.0),
            LinearConstraint((0.1, 0.2, 0.3), 0.6),
        ],
    )
    assignments = list(itertools.product((0, 1), repeat=3))
    objective, violation, feasible = problem.evaluate_rows(np.array(assignments, dtype=np.uint8))
    assert problem.constraints[0].evaluate((1, 1, 1)) == 0.0
    assert [problem.evaluate(bits) for bits in assignments] == objective.tolist()
    assert [problem.total_violation(bits) for bits in assignments] == violation.tolist()
    assert [problem.is_feasible(bits) for bits in assignments] == feasible.tolist()
