"""Tests for penalty encodings, metrics and elimination."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.encoding import (
    default_penalty_weight,
    frozen_variables,
    penalty_objective,
    squared_constraint_penalty,
)
from repro.core.metrics import (
    approximation_ratio_gap,
    best_measured,
    evaluate_outcomes,
    expected_objective,
    in_constraints_rate,
    success_rate,
)
from repro.core.problem import ConstrainedBinaryProblem, LinearConstraint, Objective
from repro.core.variable_elimination import (
    build_elimination_plan,
    choose_elimination_variables,
)
from repro.exceptions import ProblemError


class TestPenaltyEncoding:
    def test_penalty_is_zero_on_feasible_points(self, paper_example_problem):
        penalty = squared_constraint_penalty(paper_example_problem)
        for bits in itertools.product((0, 1), repeat=4):
            if paper_example_problem.is_feasible(bits):
                assert penalty.evaluate(bits) == pytest.approx(0.0)
            else:
                assert penalty.evaluate(bits) > 0.0

    def test_penalty_equals_squared_violation(self, paper_example_problem):
        penalty = squared_constraint_penalty(paper_example_problem)
        matrix, rhs = paper_example_problem.constraint_matrix()
        for bits in itertools.product((0, 1), repeat=4):
            expected = float(np.sum((matrix @ np.array(bits) - rhs) ** 2))
            assert penalty.evaluate(bits) == pytest.approx(expected)

    def test_penalty_objective_orders_feasible_first(self, paper_example_problem):
        weight = default_penalty_weight(paper_example_problem)
        qubo = penalty_objective(paper_example_problem, weight)
        feasible_values = [
            qubo.evaluate(bits)
            for bits in itertools.product((0, 1), repeat=4)
            if paper_example_problem.is_feasible(bits)
        ]
        infeasible_values = [
            qubo.evaluate(bits)
            for bits in itertools.product((0, 1), repeat=4)
            if not paper_example_problem.is_feasible(bits)
        ]
        assert max(feasible_values) < min(infeasible_values)

    def test_negative_weight_rejected(self, paper_example_problem):
        with pytest.raises(ProblemError):
            penalty_objective(paper_example_problem, -1.0)

    def test_frozen_variables_picks_high_degree(self, paper_example_problem):
        frozen = frozen_variables(paper_example_problem, count=2)
        assert len(frozen) == 2
        assert all(value in (0, 1) for _, value in frozen)


class TestMetrics:
    def test_success_rate_counts_only_optima(self, paper_example_problem):
        outcomes = {"1010": 0.5, "0100": 0.3, "1111": 0.2}
        assert success_rate(paper_example_problem, outcomes) == pytest.approx(0.5)

    def test_in_constraints_rate(self, paper_example_problem):
        outcomes = {"1010": 0.5, "0100": 0.3, "1111": 0.2}
        assert in_constraints_rate(paper_example_problem, outcomes) == pytest.approx(0.8)

    def test_perfect_solver_has_zero_arg(self, paper_example_problem):
        assert approximation_ratio_gap(paper_example_problem, {"1010": 1.0}) == pytest.approx(0.0)

    def test_arg_penalises_violations(self, paper_example_problem):
        feasible_only = approximation_ratio_gap(paper_example_problem, {"0100": 1.0})
        with_violation = approximation_ratio_gap(paper_example_problem, {"1111": 1.0})
        assert with_violation > feasible_only

    def test_expected_objective(self, paper_example_problem):
        outcomes = {"1010": 0.5, "0100": 0.5}
        assert expected_objective(paper_example_problem, outcomes) == pytest.approx(4.0)

    def test_best_measured_requires_feasible(self, paper_example_problem):
        bits, value = best_measured(paper_example_problem, {"1111": 0.9, "0100": 0.1})
        assert bits == (0, 1, 0, 0)
        assert value == pytest.approx(2.0)

    def test_best_measured_none_when_all_infeasible(self, paper_example_problem):
        bits, value = best_measured(paper_example_problem, {"1111": 1.0})
        assert bits is None and value is None

    def test_evaluate_outcomes_bundle(self, paper_example_problem):
        report = evaluate_outcomes(paper_example_problem, {"1010": 1.0}, circuit_depth=42)
        assert report.success_rate == pytest.approx(1.0)
        assert report.in_constraints_rate == pytest.approx(1.0)
        assert report.circuit_depth == 42

    def test_longer_bitstrings_are_truncated(self, paper_example_problem):
        # Transpiled circuits may carry ancilla bits after the problem register.
        assert success_rate(paper_example_problem, {"101000": 1.0}) == pytest.approx(1.0)

    def test_short_bitstring_rejected(self, paper_example_problem):
        with pytest.raises(ProblemError):
            success_rate(paper_example_problem, {"10": 1.0})

    @pytest.mark.parametrize(
        "key",
        ["1201", "0b10", "1_01", "+101", " 101", "101 ", "10\n1", "1é01", "\uff11010"],
    )
    def test_malformed_bitstring_rejected(self, paper_example_problem, key):
        # int(ch) read "2" and the full-width "１" as digits; int(key, 2)
        # would also take the "0b", "_", "+" and whitespace forms.
        with pytest.raises(ProblemError, match="binary digits"):
            in_constraints_rate(paper_example_problem, {"1010": 0.5, key: 0.5})

    def test_characters_past_the_register_are_ignored(self, paper_example_problem):
        assert in_constraints_rate(paper_example_problem, {"1010x?": 1.0}) == 1.0

    def test_empty_distribution_rejected(self, paper_example_problem):
        with pytest.raises(ProblemError):
            in_constraints_rate(paper_example_problem, {})


class TestVariableElimination:
    def test_choose_prefers_most_nonzeros(self, paper_example_problem):
        chosen = choose_elimination_variables(paper_example_problem, 1)
        assert len(chosen) == 1

    def test_zero_count_returns_empty(self, paper_example_problem):
        assert choose_elimination_variables(paper_example_problem, 0) == []

    def test_plan_covers_feasible_assignments(self, paper_example_problem):
        plan = build_elimination_plan(paper_example_problem, [1])
        assert plan.num_circuits == 2
        for instance in plan.instances:
            assert instance.problem.num_variables == 3

    def test_lifted_assignments_satisfy_original_constraints(self, paper_example_problem):
        plan = build_elimination_plan(paper_example_problem, [3])
        for instance in plan.instances:
            matrix, rhs = instance.problem.constraint_matrix()
            from repro.core.feasibility import enumerate_feasible_assignments

            for reduced_bits in enumerate_feasible_assignments(matrix, rhs):
                lifted = instance.lift(reduced_bits)
                assert paper_example_problem.is_feasible(lifted)

    def test_reduced_optimum_maps_to_original_optimum(self, paper_example_problem):
        plan = build_elimination_plan(paper_example_problem, [1])
        _, original_value = paper_example_problem.brute_force_optimum()
        best = None
        for instance in plan.instances:
            try:
                assignment, _ = instance.problem.brute_force_optimum()
            except ProblemError:
                continue
            lifted = instance.lift(assignment)
            value = paper_example_problem.evaluate(lifted)
            if best is None or paper_example_problem.better(value, best):
                best = value
        assert best == pytest.approx(original_value)

    def test_cannot_eliminate_everything(self, paper_example_problem):
        with pytest.raises(ProblemError):
            build_elimination_plan(paper_example_problem, [0, 1, 2, 3])

    def test_out_of_range_variable(self, paper_example_problem):
        with pytest.raises(ProblemError):
            build_elimination_plan(paper_example_problem, [9])

    def test_lift_keys_matches_per_bit_lift_in_order(self, paper_example_problem):
        plan = build_elimination_plan(paper_example_problem, [3, 0])
        keys = ["".join(bits) for bits in itertools.product("01", repeat=2)][::-1]
        for instance in plan.instances:
            expected = []
            for key in keys:
                original = [0] * paper_example_problem.num_variables
                for reduced_index, variable in enumerate(instance.kept_variables):
                    original[variable] = int(key[reduced_index])
                for variable, value in instance.assignment:
                    original[variable] = value
                expected.append("".join(map(str, original)))
            assert instance.lift_keys(keys) == expected
            assert [instance.lift(tuple(map(int, key))) for key in keys] == [
                tuple(map(int, key)) for key in expected
            ]

    def test_lift_keys_drops_trailing_bits(self, paper_example_problem):
        """Noisy keys carry ancilla bits past the register; keys that differ
        only there lift to the same assignment."""
        instance = build_elimination_plan(paper_example_problem, [1]).instances[0]
        lifted = instance.lift_keys(["10100", "10111", "010"])
        assert lifted[0] == lifted[1] != lifted[2]
        assert instance.lift_keys([]) == []

    @pytest.mark.parametrize("keys", [["10"], ["1x0"], ["102"]])
    def test_lift_keys_rejects_malformed_keys(self, paper_example_problem, keys):
        instance = build_elimination_plan(paper_example_problem, [1]).instances[0]
        with pytest.raises(ProblemError):
            instance.lift_keys(keys)


@settings(max_examples=25, deadline=None)
@given(
    weight=st.floats(1.0, 50.0, allow_nan=False),
    bits=st.lists(st.integers(0, 1), min_size=4, max_size=4),
)
def test_property_penalty_objective_value(weight, bits):
    """penalty_objective(x) = f_min(x) + weight * ||Cx - c||^2 pointwise."""
    objective = Objective({(0,): 3.0, (1,): 2.0, (2,): 3.0, (3,): 1.0})
    constraints = [
        LinearConstraint((1.0, 0.0, -1.0, 0.0), 0.0),
        LinearConstraint((1.0, 1.0, 0.0, 1.0), 1.0),
    ]
    problem = ConstrainedBinaryProblem(4, objective, constraints, sense="max")
    qubo = penalty_objective(problem, weight)
    matrix, rhs = problem.constraint_matrix()
    expected = -objective.evaluate(bits) + weight * float(
        np.sum((matrix @ np.array(bits) - rhs) ** 2)
    )
    assert qubo.evaluate(bits) == pytest.approx(expected, rel=1e-9)
