"""Tests for the feasible-subspace coordinate map and restricted operators."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.encoding import default_penalty_weight, penalty_objective
from repro.core.feasibility import count_feasible_assignments
from repro.core.problem import ConstrainedBinaryProblem, LinearConstraint, Objective
from repro.core import feasibility
from repro.core.subspace import SubspaceMap
from repro.exceptions import (
    HamiltonianError,
    InfeasibleError,
    ProblemError,
    SubspaceOverflowError,
)
from reference import commutes_with_constraint_subspace, dense_term_pairing
from repro.hamiltonian.commute import CommuteDriver, CommuteHamiltonianTerm, rotate_pairs_cs
from repro.hamiltonian.compiled import EvolutionProgram
from repro.hamiltonian.diagonal import polynomial_diagonal
from repro.problems.benchmark_suite import SCALE_NAMES, make_benchmark
from repro.qcircuit.statevector import index_bits


@pytest.fixture
def paper_map(paper_example_problem) -> SubspaceMap:
    return SubspaceMap.from_problem(paper_example_problem)


#: A polynomial no suite objective has: negative and zero coefficients (so
#: zero products carry both signs), a constant and a cubic term.
HAND_MADE_TERMS = {
    (): 0.75,
    (0,): -1.5,
    (1,): 0.0,
    (0, 2): -0.0,
    (1, 2, 3): 2.25,
    (2,): -0.1,
    (0, 4): 0.3,
    (3,): -0.2,
}
#: Negative coefficients only and no constant: on the all-zero row every
#: product is -0.0, and the sum must still be the scalar loop's +0.0.
NEGATIVE_TERMS = {(0,): -1.5, (1, 2, 3): -2.25, (2,): -0.1}


def _polynomial_case(case, paper_example_problem):
    """``(problem, polynomials)`` of one kernel case; the first polynomial is
    the problem's own objective."""
    if case == "paper":
        problem = paper_example_problem
    elif case == "hand-made":
        problem = ConstrainedBinaryProblem(
            5, Objective(HAND_MADE_TERMS), [LinearConstraint((1.0,) * 5, 2.0)]
        )
        return problem, [HAND_MADE_TERMS, NEGATIVE_TERMS]
    else:
        problem = make_benchmark(case)
    penalty = penalty_objective(problem, default_penalty_weight(problem))
    return problem, [problem.objective.terms, penalty.terms]


class TestSubspaceMap:
    def test_enumerates_exactly_the_feasible_set(self, paper_example_problem, paper_map):
        matrix, rhs = paper_example_problem.constraint_matrix()
        assert paper_map.size == count_feasible_assignments(matrix, rhs)
        for coordinate in range(paper_map.size):
            bits = paper_map.bits_of(coordinate)
            assert paper_example_problem.is_feasible(tuple(int(b) for b in bits))

    def test_coordinate_round_trip(self, paper_map):
        for coordinate in range(paper_map.size):
            bits = paper_map.bits_of(coordinate)
            assert paper_map.coordinate_of(bits) == coordinate
            assert paper_map.contains(bits)

    def test_bitstrings_are_little_endian(self, paper_map):
        for coordinate, key in enumerate(paper_map.bitstrings()):
            assert [int(ch) for ch in key] == list(paper_map.bits_of(coordinate))

    def test_infeasible_assignment_rejected(self, paper_map):
        with pytest.raises(InfeasibleError):
            paper_map.coordinate_of([1, 1, 1, 1])
        assert not paper_map.contains([1, 1, 1, 1])

    def test_unconstrained_problem_rejected(self):
        problem = ConstrainedBinaryProblem(3, Objective.from_linear([1.0, 2.0, 3.0]))
        with pytest.raises(ProblemError):
            SubspaceMap.from_problem(problem)

    def test_infeasible_system_rejected(self):
        with pytest.raises(InfeasibleError):
            SubspaceMap.from_constraints([[1.0, 1.0]], [3.0])

    def test_limit_guards_against_truncation(self):
        # x0 + x1 + x2 = 1 has three solutions: a limit below that must
        # refuse rather than return a silently partial map.
        with pytest.raises(ProblemError):
            SubspaceMap.from_constraints([[1.0, 1.0, 1.0]], [1.0], limit=2)
        assert SubspaceMap.from_constraints([[1.0, 1.0, 1.0]], [1.0], limit=3).size == 3


class TestCoordinateIndex:
    """The one sorted row-key index behind every coordinate query."""

    def test_seventy_variable_map_resolves_its_coordinates(self):
        # Wider than one int64 word: the index has no register-width limit.
        num_variables = 70
        subspace_map = SubspaceMap.from_constraints([[1.0] * num_variables], [1.0])
        assert subspace_map.size == num_variables
        for coordinate in range(subspace_map.size):
            bits = subspace_map.bits_of(coordinate)
            assert subspace_map.coordinate_of(bits) == coordinate
            assert subspace_map.contains(bits)
        order = np.random.default_rng(3).permutation(subspace_map.size)
        rows = subspace_map.basis[order]
        assert np.array_equal(subspace_map.coordinates_of_rows(rows), order)
        assert not subspace_map.contains(np.zeros(num_variables, dtype=np.uint8))
        with pytest.raises(InfeasibleError):
            subspace_map.coordinates_of_rows(np.ones((1, num_variables), dtype=np.uint8))

    def test_duplicate_basis_rows_rejected(self):
        basis = np.array([[1, 0, 0], [0, 1, 0], [1, 0, 0]], dtype=np.uint8)
        with pytest.raises(ProblemError, match="duplicate"):
            SubspaceMap(basis, 3)

    @staticmethod
    def _distinct_rows(num_variables: int, count: int, seed: int) -> np.ndarray:
        """Up to ``count`` distinct random bit rows, neither all zeros nor all
        ones, in random order."""
        rng = np.random.default_rng(seed)
        rows = np.unique(rng.integers(0, 2, (count, num_variables), dtype=np.uint8), axis=0)
        rows = rows[(rows.sum(axis=1) > 0) & (rows.sum(axis=1) < num_variables)]
        return rows[rng.permutation(len(rows))]

    @pytest.mark.parametrize("num_variables", [2, 7, 8, 9, 62, 63, 64, 65, 128])
    def test_round_trip_at_every_width(self, num_variables):
        # Byte and int64-word boundaries included: no width is special.
        basis = self._distinct_rows(num_variables, 40, seed=num_variables)
        subspace_map = SubspaceMap(basis, num_variables)
        for coordinate in range(subspace_map.size):
            bits = subspace_map.bits_of(coordinate)
            assert subspace_map.coordinate_of(bits) == coordinate
            assert subspace_map.contains(bits)
        order = np.random.default_rng(1).permutation(subspace_map.size)
        coordinates = subspace_map.coordinates_of_rows(basis[order])
        assert coordinates.dtype == np.int64
        assert np.array_equal(coordinates, order)

    @pytest.mark.parametrize("num_variables", [8, 64, 70])
    def test_rows_outside_the_basis_are_absent(self, num_variables):
        basis = self._distinct_rows(num_variables, 40, seed=7)
        subspace_map = SubspaceMap(basis, num_variables)
        present = {row.tobytes() for row in basis}
        candidates = np.random.default_rng(8).integers(0, 2, (60, num_variables), dtype=np.uint8)
        # All zeros and all ones sort below and above every key in the table.
        extremes = np.array([[0] * num_variables, [1] * num_variables], dtype=np.uint8)
        absent = [row for row in np.vstack([extremes, candidates]) if row.tobytes() not in present]
        assert len(absent) >= 2
        for row in absent:
            assert not subspace_map.contains(row)
            with pytest.raises(InfeasibleError):
                subspace_map.coordinate_of(row)
        mixed = np.vstack([basis[:3], absent[-1][None, :]])
        with pytest.raises(InfeasibleError):
            subspace_map.coordinates_of_rows(mixed)

    @pytest.mark.parametrize("num_variables", [64, 70])
    def test_duplicate_rows_rejected_at_every_width(self, num_variables):
        basis = self._distinct_rows(num_variables, 20, seed=2)
        with pytest.raises(ProblemError, match="duplicate"):
            SubspaceMap(np.vstack([basis, basis[5:6]]), num_variables)

    def test_query_shapes_are_checked(self, paper_map):
        assert not paper_map.contains([1, 0, 1])
        with pytest.raises(ProblemError):
            paper_map.coordinate_of([1, 0, 1, 0, 0])
        with pytest.raises(ProblemError):
            paper_map.coordinates_of_rows(np.array([1, 0, 1, 0], dtype=np.uint8))
        with pytest.raises(ProblemError):
            paper_map.coordinates_of_rows(np.zeros((2, 5), dtype=np.uint8))

    def test_a_65536_row_map_holds_under_4_mb(self):
        """|F| = 2^16 rows of n = 24: the uint8 basis (1.5 MB), its sorted
        row-key copy (1.5 MB) and the int64 argsort (0.5 MB)."""
        codes = np.arange(1 << 16, dtype=np.uint32)
        tracemalloc.start()
        try:
            basis = np.zeros((codes.size, 24), dtype=np.uint8)
            basis[:, :16] = (codes[:, None] >> np.arange(16)) & 1
            subspace_map = SubspaceMap(basis, 24)
            del basis
            held, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert subspace_map.size == 1 << 16
        assert held <= 4 * 1024 * 1024


class TestStreamingConstruction:
    # 8 variables, sum = 4: C(8, 4) = 70 feasible assignments.
    MATRIX = [[1.0] * 8]
    RHS = [4.0]

    def test_streaming_matches_one_shot_enumeration(self, monkeypatch):
        reference = SubspaceMap.from_constraints(self.MATRIX, self.RHS).basis
        assert reference.shape == (70, 8)
        for block_rows in (1, 3, 64):
            monkeypatch.setattr(feasibility, "BLOCK_ROWS", block_rows)
            chunked = SubspaceMap.from_constraints(self.MATRIX, self.RHS).basis
            assert np.array_equal(chunked, reference)

    def test_overflow_aborts_enumeration_early(self, monkeypatch):
        for block_rows in (1, 3, 64, feasibility.BLOCK_ROWS):
            monkeypatch.setattr(feasibility, "BLOCK_ROWS", block_rows)
            with pytest.raises(SubspaceOverflowError, match="limit=69"):
                SubspaceMap.from_constraints(self.MATRIX, self.RHS, limit=69)
            assert SubspaceMap.from_constraints(self.MATRIX, self.RHS, limit=70).size == 70

    def test_streamed_map_equals_legacy_map(self, paper_example_problem):
        matrix, rhs = paper_example_problem.constraint_matrix()
        streamed = SubspaceMap.from_constraints(matrix, rhs)
        assert streamed.size == count_feasible_assignments(matrix, rhs)
        # Coordinate order is the DFS enumeration order either way.
        assert streamed.bitstrings() == SubspaceMap.from_problem(paper_example_problem).bitstrings()

    def test_try_from_constraints_fallback_signal(self):
        assert SubspaceMap.try_from_constraints(self.MATRIX, self.RHS, limit=10) is None
        built = SubspaceMap.try_from_constraints(self.MATRIX, self.RHS, limit=70)
        assert built is not None and built.size == 70

    def test_try_from_problem_signals(self, paper_example_problem):
        assert SubspaceMap.try_from_problem(paper_example_problem, limit=1) is None
        built = SubspaceMap.try_from_problem(paper_example_problem)
        assert built is not None and built.size == 3
        unconstrained = ConstrainedBinaryProblem(3, Objective.from_linear([1.0, 2.0, 3.0]))
        assert SubspaceMap.try_from_problem(unconstrained) is None

    def test_try_from_problem_still_raises_on_infeasible(self):
        infeasible = ConstrainedBinaryProblem(
            2,
            Objective.from_linear([1.0, 1.0]),
            [LinearConstraint((1.0, 1.0), 3.0)],
        )
        with pytest.raises(InfeasibleError):
            SubspaceMap.try_from_problem(infeasible)

    def test_basis_state_is_unit_vector(self, paper_map):
        bits = paper_map.bits_of(1)
        state = paper_map.basis_state(bits)
        assert state.shape == (paper_map.size,)
        assert state[1] == 1.0
        assert np.sum(np.abs(state)) == 1.0

    @pytest.mark.parametrize("case", ["paper", "hand-made", *SCALE_NAMES])
    def test_evaluate_polynomial_matches_dense_diagonal(self, case, paper_example_problem):
        """The one polynomial kernel, through each caller, equals the scalar
        :meth:`Objective.evaluate` (and the scalar constraint checks) byte
        for byte: on every feasible row, and on every dense index up to 8
        qubits or 64 random ones beyond."""
        problem, polynomials = _polynomial_case(case, paper_example_problem)
        subspace_map = SubspaceMap.from_problem(problem)
        n = problem.num_variables
        others = (
            np.arange(2**n)
            if n <= 8
            else np.random.default_rng(n).integers(0, 2**n, size=64)
        )
        indices = np.concatenate([subspace_map.full_indices(), others])
        rows = index_bits(indices, n)
        for terms in polynomials:
            reference = Objective(terms)
            expected = np.array([reference.evaluate(row) for row in rows])
            assert polynomial_diagonal(terms, n)[indices].tobytes() == expected.tobytes()
            assert (
                subspace_map.evaluate_polynomial(terms).tobytes()
                == expected[: subspace_map.size].tobytes()
            )
        objective, violation, feasible = problem.evaluate_rows(rows)
        assert objective.tobytes() == np.array([problem.evaluate(row) for row in rows]).tobytes()
        assert (
            violation.tobytes()
            == np.array([problem.total_violation(row) for row in rows]).tobytes()
        )
        assert feasible.tolist() == [problem.is_feasible(row) for row in rows]
        assert feasible[: subspace_map.size].all()

    def test_evaluate_polynomial_rejects_out_of_range(self, paper_map):
        with pytest.raises(ProblemError):
            paper_map.evaluate_polynomial({(7,): 1.0})

    def test_lift_project_round_trip(self, paper_map, rng):
        sub_state = rng.normal(size=paper_map.size) + 1j * rng.normal(size=paper_map.size)
        dense = paper_map.lift_vector(sub_state)
        assert dense.shape == (16,)
        np.testing.assert_allclose(paper_map.project_vector(dense), sub_state)
        # Lifted amplitudes land only on feasible indices.
        infeasible = np.ones(16, dtype=bool)
        infeasible[paper_map.full_indices()] = False
        assert np.all(dense[infeasible] == 0)


class TestSubspaceEvolution:
    def _driver(self, problem) -> CommuteDriver:
        from repro.core.nullspace import ternary_nullspace_basis

        matrix, _ = problem.constraint_matrix()
        return CommuteDriver.from_solutions(ternary_nullspace_basis(matrix))

    def test_term_subspace_evolution_matches_dense(
        self, paper_example_problem, paper_map, rng
    ):
        driver = self._driver(paper_example_problem)
        sub_state = rng.normal(size=paper_map.size) + 1j * rng.normal(size=paper_map.size)
        sub_state /= np.linalg.norm(sub_state)
        for term in driver.terms:
            for beta in (0.3, -1.1):
                cos_b, sin_b = np.cos(beta), np.sin(beta)
                evolved_sub = sub_state.copy()
                rotate_pairs_cs(evolved_sub, cos_b, sin_b, *term.subspace_pairing(paper_map))
                evolved_dense = paper_map.lift_vector(sub_state)
                rotate_pairs_cs(evolved_dense, cos_b, sin_b, *dense_term_pairing(term))
                np.testing.assert_allclose(
                    paper_map.lift_vector(evolved_sub), evolved_dense, atol=1e-12
                )

    def test_restricted_driver_matches_dense_serialized(
        self, paper_example_problem, paper_map, rng
    ):
        driver = self._driver(paper_example_problem)
        sub_pairings = driver.pairings(paper_map)
        assert len(sub_pairings) == len(driver.terms)
        sub_state = rng.normal(size=paper_map.size) + 1j * rng.normal(size=paper_map.size)
        sub_state /= np.linalg.norm(sub_state)
        # gamma = 0 over a zero cost diagonal isolates the serialized driver.
        parameters = np.array([0.0, 0.7])
        evolved_sub = EvolutionProgram(
            1, np.zeros(paper_map.size), sub_pairings
        ).execute(sub_state, parameters)
        evolved_dense = EvolutionProgram(
            1, np.zeros(2**driver.num_qubits), driver.pairings()
        ).execute(paper_map.lift_vector(sub_state), parameters)
        np.testing.assert_allclose(
            paper_map.lift_vector(evolved_sub), evolved_dense, atol=1e-12
        )

    def test_pairings_reject_a_map_of_another_register(self, paper_map):
        driver = CommuteDriver.from_solutions([(1, -1, 0)])
        with pytest.raises(HamiltonianError, match="register size"):
            driver.pairings(paper_map)

    def test_non_nullspace_term_rejected(self, paper_map):
        # u = e_0 is not a nullspace solution of the paper constraints: the
        # hop partner of a feasible state is infeasible.
        term = CommuteHamiltonianTerm((1, 0, 0, 0))
        with pytest.raises(HamiltonianError):
            term.subspace_pairing(paper_map)

    def test_non_nullspace_term_rejected_from_v_bar_side(self):
        # F = {11} for x0 + x1 = 2.  The term u = (-1, -1) has v = 00, so no
        # feasible state matches the v pattern — but |11> matches v̄ and its
        # hop partner |00> is infeasible.  The pairing must refuse rather
        # than silently treat the term as the identity.
        lonely_map = SubspaceMap.from_constraints([[1.0, 1.0]], [2.0])
        term = CommuteHamiltonianTerm((-1, -1))
        with pytest.raises(HamiltonianError):
            term.subspace_pairing(lonely_map)

    def test_driver_subspace_commutation_check(self, paper_example_problem, paper_map):
        driver = self._driver(paper_example_problem)
        assert commutes_with_constraint_subspace(driver, paper_map)
        bad = CommuteDriver([CommuteHamiltonianTerm((1, 0, 0, 0))])
        assert not commutes_with_constraint_subspace(bad, paper_map)
