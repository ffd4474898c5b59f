"""Tests for the problem model: objectives, constraints, problems."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import ConstrainedBinaryProblem, LinearConstraint, Objective
from repro.exceptions import ProblemError


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

    def test_optimal_assignments_includes_ties(self):
        problem = ConstrainedBinaryProblem(
            2,
            Objective({(0,): 1.0, (1,): 1.0}),
            [LinearConstraint((1.0, 1.0), 1.0)],
            sense="min",
        )
        optima, value = problem.optimal_assignments()
        assert value == pytest.approx(1.0)
        assert set(optima) == {(1, 0), (0, 1)}

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
    codes = np.arange(8, dtype=np.int64)
    objective, violation, feasible = problem.evaluate_codes(codes)
    assignments = [tuple((code >> (2 - j)) & 1 for j in range(3)) for code in range(8)]
    assert problem.constraints[0].evaluate((1, 1, 1)) == 0.0
    assert [problem.evaluate(bits) for bits in assignments] == objective.tolist()
    assert [problem.total_violation(bits) for bits in assignments] == violation.tolist()
    assert [problem.is_feasible(bits) for bits in assignments] == feasible.tolist()
