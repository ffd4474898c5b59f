"""Tests for feasibility search and the ternary nullspace machinery."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import feasibility
from repro.core.feasibility import (
    count_feasible_assignments,
    enumerate_feasible_assignments,
    feasible_rows,
    find_feasible_assignment,
    problem_initial_assignment,
)
from repro.core.problem import ConstrainedBinaryProblem, LinearConstraint, Objective
from repro.core.nullspace import (
    enumerate_ternary_nullspace,
    nullity,
    ternary_nullspace_basis,
    total_nonzeros,
    variable_nonzero_counts,
)
from repro.exceptions import InfeasibleError, ProblemError

PAPER_MATRIX = np.array([[1.0, 0.0, -1.0, 0.0], [1.0, 1.0, 0.0, 1.0]])
PAPER_RHS = np.array([0.0, 1.0])


class TestFeasibility:
    def test_enumerates_all_solutions(self):
        solutions = enumerate_feasible_assignments(PAPER_MATRIX, PAPER_RHS)
        assert set(solutions) == {(0, 0, 0, 1), (0, 1, 0, 0), (1, 0, 1, 0)}

    def test_matches_brute_force_on_random_systems(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            matrix = rng.integers(-2, 3, size=(2, 5)).astype(float)
            rhs = rng.integers(-1, 3, size=2).astype(float)
            expected = {
                bits
                for bits in itertools.product((0, 1), repeat=5)
                if np.allclose(matrix @ np.array(bits), rhs)
            }
            found = set(enumerate_feasible_assignments(matrix, rhs))
            assert found == expected

    def test_find_one_raises_when_infeasible(self):
        with pytest.raises(InfeasibleError):
            find_feasible_assignment([[1.0, 1.0]], [5.0])

    def test_limit_caps_enumeration(self):
        solutions = enumerate_feasible_assignments(PAPER_MATRIX, PAPER_RHS, limit=2)
        assert len(solutions) == 2

    def test_count(self):
        assert count_feasible_assignments(PAPER_MATRIX, PAPER_RHS) == 3

    def test_problem_initial_assignment(self, paper_example_problem):
        bits = problem_initial_assignment(paper_example_problem)
        assert paper_example_problem.is_feasible(bits)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ProblemError):
            find_feasible_assignment(np.zeros((0, 0)), [])

    def test_find_one_returns_the_first_row(self):
        assert find_feasible_assignment(PAPER_MATRIX, PAPER_RHS) == (0, 0, 0, 1)
        matrix = [[1.0, 2.0, -1.0, 1.0, 1.0]]
        first = enumerate_feasible_assignments(matrix, [2.0])[0]
        assert find_feasible_assignment(matrix, [2.0]) == first == (0, 0, 0, 1, 1)

    def test_unconstrained_start_is_all_zeros(self):
        problem = ConstrainedBinaryProblem(4, Objective.from_linear([1.0, -1.0, 2.0, 0.5]))
        assert problem_initial_assignment(problem) == (0, 0, 0, 0)


def _product_rows(matrix: np.ndarray, rhs: np.ndarray) -> list[tuple[int, ...]]:
    """Rows of the naive scan: ``itertools.product`` order, scoring's test."""
    problem = ConstrainedBinaryProblem(
        matrix.shape[1],
        Objective(),
        [LinearConstraint(tuple(row), value) for row, value in zip(matrix, rhs)],
    )
    return [
        bits
        for bits in itertools.product((0, 1), repeat=matrix.shape[1])
        if problem.is_feasible(bits)
    ]


def _concatenated(matrix, rhs) -> list[tuple[int, ...]]:
    rows: list[tuple[int, ...]] = []
    for block in feasible_rows(matrix, rhs):
        assert block.dtype == np.uint8 and block.ndim == 2
        assert 1 <= block.shape[0] <= feasibility.BLOCK_ROWS
        rows.extend(map(tuple, block.tolist()))
    return rows


class TestFeasibleRows:
    # 8 variables, sum = 4: C(8, 4) = 70 feasible rows; and the 2^7 cube.
    SYSTEMS = {
        "one-hot-sum": (np.ones((1, 8)), np.array([4.0])),
        "unconstrained": (np.zeros((0, 7)), np.zeros(0)),
    }

    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_block_boundaries_keep_the_rows(self, monkeypatch, system):
        matrix, rhs = self.SYSTEMS[system]
        expected = _product_rows(matrix, rhs)
        assert len(expected) in (70, 128)
        for block_rows in (1, 3, 64):
            monkeypatch.setattr(feasibility, "BLOCK_ROWS", block_rows)
            assert _concatenated(matrix, rhs) == expected
            assert count_feasible_assignments(matrix, rhs) == len(expected)
            assert enumerate_feasible_assignments(matrix, rhs, limit=5) == expected[:5]

    def test_prune_never_drops_a_row_the_scoring_test_accepts(self):
        # 0.1 + 0.2 != 0.3 in floating point: the row (1, 1, 0) misses the
        # right-hand side by ~5.6e-17, inside the 1e-9 acceptance tolerance.
        matrix, rhs = np.array([[0.1, 0.2, -0.3]]), np.array([0.0])
        assert _concatenated(matrix, rhs) == _product_rows(matrix, rhs) == [
            (0, 0, 0),
            (1, 1, 1),
        ]
        matrix, rhs = np.array([[0.1, 0.2, 0.0]]), np.array([0.3])
        assert _concatenated(matrix, rhs) == [(1, 1, 0), (1, 1, 1)]


@settings(max_examples=80, deadline=None)
@given(
    num_rows=st.integers(0, 3),
    num_variables=st.integers(1, 10),
    integral=st.booleans(),
    shifted=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_property_rows_are_the_feasible_product_in_order(
    num_rows, num_variables, integral, shifted, seed
):
    rng = np.random.default_rng(seed)
    values = [-2.0, -1.0, 0.0, 1.0, 2.0] if integral else [-1.5, -0.3, 0.0, 0.1, 0.2, 0.7]
    matrix = rng.choice(values, size=(num_rows, num_variables))
    # The right-hand side of a random assignment keeps the system feasible;
    # shifting it by a half usually leaves no binary solution.
    rhs = matrix @ rng.integers(0, 2, num_variables) + (0.5 if shifted else 0.0)
    assert _concatenated(matrix, rhs) == _product_rows(matrix, rhs)


class TestTernaryNullspace:
    def test_enumeration_matches_brute_force(self):
        found = set(enumerate_ternary_nullspace(PAPER_MATRIX))
        expected = set()
        for entries in itertools.product((-1, 0, 1), repeat=4):
            if not any(entries):
                continue
            if not np.allclose(PAPER_MATRIX @ np.array(entries), 0.0):
                continue
            # Canonical form: first non-zero entry is +1.
            first = next(e for e in entries if e != 0)
            if first == 1:
                expected.add(entries)
        assert found == expected

    def test_every_vector_satisfies_cu_zero(self):
        rng = np.random.default_rng(3)
        matrix = rng.integers(-2, 3, size=(3, 6)).astype(float)
        for u in enumerate_ternary_nullspace(matrix):
            assert np.allclose(matrix @ np.array(u), 0.0)

    def test_max_support_bounds_solutions(self):
        solutions = enumerate_ternary_nullspace(PAPER_MATRIX, max_support=2)
        assert all(sum(1 for x in u if x != 0) <= 2 for u in solutions)

    def test_nullity(self):
        assert nullity(PAPER_MATRIX) == 2
        assert nullity(np.eye(3)) == 0

    def test_basis_has_nullity_vectors_and_full_rank(self):
        basis = ternary_nullspace_basis(PAPER_MATRIX)
        assert len(basis) == 2
        assert np.linalg.matrix_rank(np.array(basis, dtype=float)) == 2

    def test_basis_prefers_small_supports(self):
        basis = ternary_nullspace_basis(PAPER_MATRIX)
        full = enumerate_ternary_nullspace(PAPER_MATRIX)
        assert total_nonzeros(basis) <= total_nonzeros(full)

    def test_basis_raises_when_no_ternary_moves_exist(self):
        # [[1, 2, 4]] has a 2-dimensional rational nullspace but admits no
        # non-zero solution with entries restricted to {-1, 0, 1}.
        with pytest.raises(ProblemError):
            ternary_nullspace_basis(np.array([[1.0, 2.0, 4.0]]))

    def test_basis_empty_for_full_rank_square(self):
        # nullity == 0 -> no driver needed; returns empty list.
        matrix = np.array([[1.0, 2.0], [0.0, 1.0]])
        assert ternary_nullspace_basis(matrix) == []

    def test_variable_nonzero_counts(self):
        counts = variable_nonzero_counts([(1, -1, 0), (1, 0, -1)], 3)
        assert list(counts) == [2, 1, 1]


@settings(max_examples=20, deadline=None)
@given(
    rows=st.integers(1, 2),
    cols=st.integers(2, 5),
    seed=st.integers(0, 500),
)
def test_property_nullspace_vectors_annihilate(rows, cols, seed):
    """Every enumerated vector lies in the kernel of C."""
    rng = np.random.default_rng(seed)
    matrix = rng.integers(-1, 2, size=(rows, cols)).astype(float)
    for u in enumerate_ternary_nullspace(matrix, limit=50):
        assert np.allclose(matrix @ np.array(u), 0.0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 500))
def test_property_feasible_assignments_satisfy_constraints(seed):
    """Every assignment from the DFS satisfies C x = c exactly."""
    rng = np.random.default_rng(seed)
    matrix = rng.integers(-1, 2, size=(2, 6)).astype(float)
    x = rng.integers(0, 2, size=6)
    rhs = matrix @ x  # guarantees at least one solution
    for bits in enumerate_feasible_assignments(matrix, rhs, limit=20):
        assert np.allclose(matrix @ np.array(bits), rhs)
