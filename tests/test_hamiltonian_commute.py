"""Tests for the commute Hamiltonian: Eq. (5), Lemma 1, Lemma 2, Algorithm 1.

These are the core correctness properties of the paper's contribution:

* H_c(u) hops between the two feasible patterns v / v-bar (Eq. 12);
* [H_c(u), C_hat] = 0 whenever C u = 0 (the constraint-conservation
  foundation of Fig. 1b);
* the serialized driver conserves every constraint expectation even though it
  differs from the monolithic unitary (Lemma 1);
* the G/P decomposition is *exactly* equal to the local unitary (Lemma 2),
  for every support pattern, including after transpilation to basic gates.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from reference import dense_term_pairing, global_phase_equal, pauli_matrix, random_statevector
from repro.exceptions import HamiltonianError
from repro.hamiltonian.commute import CommuteDriver, CommuteHamiltonianTerm, rotate_pairs_cs
from repro.hamiltonian.constraint_operator import constraint_operator_diagonal
from repro.hamiltonian.evolution import driver_evolution_operator, term_evolution_operator
from repro.qcircuit.statevector import Statevector, StatevectorSimulator
from repro.qcircuit.transpile import transpile

def evolve_term(term: CommuteHamiltonianTerm, state: np.ndarray, beta: float) -> np.ndarray:
    """``e^{-i beta H_c(u)}`` on a dense state through the term's hop pairing."""
    state = state.copy()
    rotate_pairs_cs(state, np.cos(beta), np.sin(beta), *dense_term_pairing(term))
    return state


def evolve_serialized(driver: CommuteDriver, state: np.ndarray, beta: float) -> np.ndarray:
    """The serialized driver of Lemma 1, ``prod_u e^{-i beta H_c(u)}``."""
    for term in driver.terms:
        state = evolve_term(term, state, beta)
    return state


def pauli_expansion(u) -> np.ndarray:
    """Eq. (5) written out in Pauli products: ``H_c(u) = prod_i sigma^{u_i} + h.c.``

    ``sigma^{+1} = (X - iY)/2`` raises ``|0> -> |1>`` and ``sigma^{-1} =
    (X + iY)/2`` lowers it, so each support qubit contributes an ``X`` or
    a ``Y`` with weight ``1/2`` or ``-i u_i / 2``.
    """
    support = [qubit for qubit, entry in enumerate(u) if entry]
    total = np.zeros((2 ** len(u),) * 2, dtype=complex)
    for choice in itertools.product("XY", repeat=len(support)):
        label = ["I"] * len(u)
        coefficient = 1.0 + 0j
        for qubit, pauli in zip(support, choice):
            label[qubit] = pauli
            coefficient *= (-1j * u[qubit] if pauli == "Y" else 1.0) / 2
        product = coefficient * pauli_matrix(label)
        total += product + product.conj().T
    return total


def constraint_pauli_sum(coefficients) -> np.ndarray:
    """Eq. (3) written out in Pauli products: ``C_hat = sum_i c_i Z_i``."""
    size = len(coefficients)
    return sum(
        coefficient * pauli_matrix("I" * qubit + "Z" + "I" * (size - qubit - 1))
        for qubit, coefficient in enumerate(coefficients)
    )


PAPER_U1 = (-1, 1, -1, 0)
PAPER_U2 = (0, -1, 0, 1)
PAPER_CONSTRAINT = (1.0, 1.0, 0.0, 1.0)  # satisfies C u = 0 for both vectors


class TestTermStructure:
    def test_rejects_invalid_entries(self):
        with pytest.raises(HamiltonianError):
            CommuteHamiltonianTerm((0, 2, 0))

    def test_rejects_all_zero(self):
        with pytest.raises(HamiltonianError):
            CommuteHamiltonianTerm((0, 0, 0))

    def test_support_and_v_bits(self):
        term = CommuteHamiltonianTerm(PAPER_U1)
        assert term.support == (0, 1, 2)
        assert term.v_bits == (0, 1, 0)
        assert term.v_bar_bits == (1, 0, 1)
        assert term.num_nonzero == 3

    def test_matrix_is_hermitian_hop(self):
        term = CommuteHamiltonianTerm((1, -1))
        matrix = term.to_matrix()
        assert np.allclose(matrix, matrix.conj().T)
        # Hop between |01> (q0=0, q1=1 -> index 2) and |10> (index 1).
        assert matrix[1, 2] == pytest.approx(1.0)
        assert matrix[2, 1] == pytest.approx(1.0)
        assert np.count_nonzero(matrix) == 2

    def test_eigenstates_have_correct_eigenvalues(self):
        term = CommuteHamiltonianTerm(PAPER_U1)
        matrix = term.to_matrix()
        plus = term.eigenstate(+1)
        minus = term.eigenstate(-1)
        assert np.allclose(matrix @ plus, plus)
        assert np.allclose(matrix @ minus, -minus)

    @pytest.mark.parametrize("u", [PAPER_U1, PAPER_U2, (1,), (1, 1, -1)])
    def test_pauli_expansion_matches_matrix(self, u):
        term = CommuteHamiltonianTerm(u)
        assert np.allclose(pauli_expansion(u), term.to_matrix(), atol=1e-12)


class TestCommutation:
    def test_terms_commute_with_satisfied_constraint(self):
        driver = CommuteDriver.from_solutions([PAPER_U1, PAPER_U2])
        assert driver.commutes_with_constraint(PAPER_CONSTRAINT)

    def test_terms_do_not_commute_with_violated_constraint(self):
        driver = CommuteDriver.from_solutions([PAPER_U1])
        assert not driver.commutes_with_constraint((1.0, 0.0, 0.0, 0.0))

    def test_pauli_level_commutation(self):
        """Theorem 1 on the Pauli forms of Eq. (3) and Eq. (5)."""
        operator = constraint_pauli_sum(PAPER_CONSTRAINT)
        assert np.allclose(np.diag(operator), constraint_operator_diagonal(PAPER_CONSTRAINT))
        for u in (PAPER_U1, PAPER_U2):
            hamiltonian = pauli_expansion(u)
            assert np.allclose(hamiltonian @ operator, operator @ hamiltonian, atol=1e-12)


class TestEvolution:
    @pytest.mark.parametrize("u", [PAPER_U1, PAPER_U2, (1, -1), (1, 1, 1, -1)])
    @pytest.mark.parametrize("beta", [0.0, 0.8, -1.3])
    def test_pair_rotation_matches_expm(self, u, beta):
        term = CommuteHamiltonianTerm(u)
        state = random_statevector(term.num_qubits, seed=1)
        expected = expm(-1j * beta * term.to_matrix()) @ state
        assert np.allclose(evolve_term(term, state, beta), expected, atol=1e-10)

    def test_evolution_preserves_norm(self):
        term = CommuteHamiltonianTerm(PAPER_U1)
        state = random_statevector(4, seed=2)
        evolved = evolve_term(term, state, 0.77)
        assert np.linalg.norm(evolved) == pytest.approx(1.0)


class TestLemma1Serialization:
    def test_serialized_conserves_constraint_expectation(self):
        driver = CommuteDriver.from_solutions([PAPER_U1, PAPER_U2])
        diagonal = constraint_operator_diagonal(PAPER_CONSTRAINT, 4)
        state = random_statevector(4, seed=3)
        initial_expectation = float(np.dot(np.abs(state) ** 2, diagonal))
        serialized = evolve_serialized(driver, state.copy(), 0.9)
        serialized_expectation = float(np.dot(np.abs(serialized) ** 2, diagonal))
        assert serialized_expectation == pytest.approx(initial_expectation, abs=1e-9)

    def test_monolithic_also_conserves_and_differs(self):
        driver = CommuteDriver.from_solutions([PAPER_U1, PAPER_U2])
        diagonal = constraint_operator_diagonal(PAPER_CONSTRAINT, 4)
        state = random_statevector(4, seed=4)
        initial_expectation = float(np.dot(np.abs(state) ** 2, diagonal))
        monolithic = driver_evolution_operator(driver, 0.9) @ state
        monolithic_expectation = float(np.dot(np.abs(monolithic) ** 2, diagonal))
        serialized = evolve_serialized(driver, state.copy(), 0.9)
        assert monolithic_expectation == pytest.approx(initial_expectation, abs=1e-9)
        # Serialization is NOT the same unitary (e^{A+B} != e^A e^B) ...
        assert not np.allclose(serialized, monolithic, atol=1e-6)
        # ... but both conserve the constraint expectation (Lemma 1).

    def test_feasible_state_stays_feasible(self):
        """Starting from a feasible basis state, all support stays feasible."""
        driver = CommuteDriver.from_solutions([PAPER_U1, PAPER_U2])
        # x = (1, 0, 1, 0) satisfies x0 + x1 + x3 = 1 and x0 - x2 = 0.
        state = Statevector.from_bitstring([1, 0, 1, 0]).data
        evolved = evolve_serialized(driver, state, 1.1)
        constraint_a = constraint_operator_diagonal((1, 0, -1, 0), 4)
        constraint_b = constraint_operator_diagonal((1, 1, 0, 1), 4)
        populated = np.nonzero(np.abs(evolved) ** 2 > 1e-12)[0]
        for index in populated:
            bits = [(index >> q) & 1 for q in range(4)]
            assert bits[0] - bits[2] == 0
            assert bits[0] + bits[1] + bits[3] == 1
        del constraint_a, constraint_b


class TestLemma2Decomposition:
    @pytest.mark.parametrize(
        "u", [(1,), (1, -1), (1, 1), PAPER_U1, PAPER_U2, (1, -1, 1, -1, 1), (0, 1, 0, -1, 1, 0)]
    )
    @pytest.mark.parametrize("beta", [0.6, -1.2])
    def test_decomposed_circuit_equals_exact_unitary(self, u, beta):
        term = CommuteHamiltonianTerm(u)
        simulator = StatevectorSimulator()
        state = random_statevector(term.num_qubits, seed=5)
        exact = term_evolution_operator(term, beta) @ state
        circuit = term.decomposed_circuit(beta)
        circuit_state = simulator.statevector(
            circuit,
            initial_state=Statevector(data=state.copy(), num_qubits=term.num_qubits),
        ).data
        assert global_phase_equal(exact, circuit_state)

    @pytest.mark.parametrize(
        "beta", [np.float64(0.7), np.float32(-0.3), 2, np.int64(-1)], ids=type
    )
    def test_any_real_scalar_beta_builds_the_float_circuit(self, beta):
        term = CommuteHamiltonianTerm(PAPER_U1)
        circuit = term.decomposed_circuit(beta)
        reference = term.decomposed_circuit(float(beta))
        assert [
            (instruction.name, instruction.qubits, instruction.gate.params)
            for instruction in circuit
        ] == [
            (instruction.name, instruction.qubits, instruction.gate.params)
            for instruction in reference
        ]

    def test_decomposition_survives_transpilation(self):
        term = CommuteHamiltonianTerm(PAPER_U1)
        beta = 0.8
        simulator = StatevectorSimulator()
        state = random_statevector(4, seed=6)
        exact = term_evolution_operator(term, beta) @ state
        lowered = transpile(term.decomposed_circuit(beta))
        padded = np.zeros(2**lowered.num_qubits, dtype=complex)
        padded[:16] = state
        lowered_state = simulator.statevector(
            lowered, initial_state=Statevector(data=padded, num_qubits=lowered.num_qubits)
        ).data
        assert global_phase_equal(exact, lowered_state[:16])

    def test_converting_circuit_maps_eigenstates(self):
        """Algorithm 1: G maps |x+-> to the basis states |01...1> / |11...1>."""
        term = CommuteHamiltonianTerm(PAPER_U1)
        simulator = StatevectorSimulator()
        g_circuit = term.converting_circuit()
        for sign in (+1, -1):
            eigenstate = Statevector(data=term.eigenstate(sign), num_qubits=4)
            mapped = simulator.statevector(g_circuit, initial_state=eigenstate).data
            populated = np.nonzero(np.abs(mapped) ** 2 > 1e-9)[0]
            assert len(populated) == 1
            index = populated[0]
            support = term.support
            first = support[0]
            # All support qubits except the first must read 1.
            for qubit in support[1:]:
                assert (index >> qubit) & 1 == 1
            assert (index >> first) & 1 == (0 if sign == +1 else 1)

    def test_circuit_depth_linear_in_support(self):
        depths = []
        for size in (2, 4, 6, 8):
            u = tuple(1 if i % 2 == 0 else -1 for i in range(size))
            term = CommuteHamiltonianTerm(u)
            circuit = transpile(term.decomposed_circuit(0.5))
            depths.append(circuit.depth())
        increments = [b - a for a, b in zip(depths, depths[1:])]
        assert max(increments) <= 3 * max(1, min(increments))


class TestDriver:
    def test_requires_terms(self):
        with pytest.raises(HamiltonianError):
            CommuteDriver([])

    def test_mixed_sizes_rejected(self):
        with pytest.raises(HamiltonianError):
            CommuteDriver([CommuteHamiltonianTerm((1,)), CommuteHamiltonianTerm((1, -1))])

    def test_total_nonzeros(self):
        driver = CommuteDriver.from_solutions([PAPER_U1, PAPER_U2])
        assert driver.total_nonzeros == 5

    def test_serialized_circuit_matches_serialized_evolution(self):
        driver = CommuteDriver.from_solutions([PAPER_U1, PAPER_U2])
        beta = 0.7
        simulator = StatevectorSimulator()
        state = random_statevector(4, seed=8)
        expected = evolve_serialized(driver, state.copy(), beta)
        circuit = driver.serialized_circuit(beta)
        circuit_state = simulator.statevector(
            circuit, initial_state=Statevector(data=state.copy(), num_qubits=4)
        ).data
        assert global_phase_equal(expected, circuit_state)

    def test_hamiltonian_matrix_is_sum_of_terms(self):
        driver = CommuteDriver.from_solutions([PAPER_U1, PAPER_U2])
        total = sum(term.to_matrix() for term in driver.terms)
        assert np.allclose(driver.hamiltonian_matrix(), total)


@settings(max_examples=20, deadline=None)
@given(
    u=st.lists(st.sampled_from([-1, 0, 1]), min_size=2, max_size=5).filter(
        lambda entries: any(entries)
    ),
    beta=st.floats(-2.0, 2.0, allow_nan=False),
)
def test_property_decomposition_is_exact(u, beta):
    """Lemma 2 holds for arbitrary u vectors and angles."""
    term = CommuteHamiltonianTerm(tuple(u))
    state = random_statevector(term.num_qubits, seed=11)
    exact = expm(-1j * beta * term.to_matrix()) @ state
    fast = evolve_term(term, state, beta)
    assert np.allclose(exact, fast, atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(beta=st.floats(-2.0, 2.0, allow_nan=False), seed=st.integers(0, 1000))
def test_property_serialization_conserves_constraints(beta, seed):
    """Lemma 1 holds for random states and angles on the paper's example."""
    driver = CommuteDriver.from_solutions([PAPER_U1, PAPER_U2])
    diagonal = constraint_operator_diagonal(PAPER_CONSTRAINT, 4)
    state = random_statevector(4, seed=seed)
    before = float(np.dot(np.abs(state) ** 2, diagonal))
    after_state = evolve_serialized(driver, state, beta)
    after = float(np.dot(np.abs(after_state) ** 2, diagonal))
    assert after == pytest.approx(before, abs=1e-8)


@settings(max_examples=40, deadline=None)
@given(
    entries=st.lists(
        st.tuples(st.sampled_from([-1, 0, 1]), st.integers(-2, 2)), min_size=1, max_size=4
    ).filter(lambda pairs: any(u for u, _ in pairs))
)
def test_property_commutes_with_constraint_iff_c_dot_u_is_zero(entries):
    """Theorem 1 on the dense forms: ``[H_c(u), C_hat] = 0`` exactly when ``c . u = 0``.

    ``H_c(u)`` hops between the patterns ``v`` and ``v̄``, whose ``C_hat``
    eigenvalues differ by ``2 c . u``.
    """
    u = tuple(entry for entry, _ in entries)
    coefficients = [float(c) for _, c in entries]
    driver = CommuteDriver.from_solutions([u])
    in_nullspace = sum(c * entry for c, entry in zip(coefficients, u)) == 0
    assert driver.commutes_with_constraint(coefficients) == in_nullspace


@settings(max_examples=30, deadline=None)
@given(
    u=st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=5).filter(any)
)
def test_property_pauli_expansion_matches_matrix(u):
    """``to_matrix`` is Eq. (5)'s Pauli expansion for every ``u`` vector."""
    assert np.allclose(pauli_expansion(u), CommuteHamiltonianTerm(tuple(u)).to_matrix(), atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    entries=st.lists(
        st.tuples(st.sampled_from([-1, 0, 1]), st.integers(-2, 2)), min_size=2, max_size=4
    ).filter(lambda pairs: any(u for u, _ in pairs))
)
def test_property_commutes_with_matches_matrices(entries):
    """``commutes_with_constraint`` agrees with the commutator of the Pauli forms."""
    u = tuple(entry for entry, _ in entries)
    coefficients = [float(c) for _, c in entries]
    hamiltonian = pauli_expansion(u)
    operator = constraint_pauli_sum(coefficients)
    commutator = hamiltonian @ operator - operator @ hamiltonian
    expected = bool(np.allclose(commutator, 0.0, atol=1e-10))
    assert CommuteDriver.from_solutions([u]).commutes_with_constraint(coefficients) == expected
