"""Tests for diagonal objective Hamiltonians and phase-separation circuits."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import HamiltonianError
from repro.hamiltonian.compiled import apply_diagonal_phase, diagonal_levels
from repro.hamiltonian.diagonal import (
    DiagonalHamiltonian,
    phase_separation_circuit,
    split_polynomial,
)
from repro.qcircuit.parameters import Parameter
from repro.qcircuit.statevector import StatevectorSimulator, Statevector
from repro.testing import global_phase_equal


class TestDiagonalHamiltonian:
    def test_from_polynomial_values(self):
        terms = {(): 1.0, (0,): 2.0, (0, 1): -3.0}
        hamiltonian = DiagonalHamiltonian.from_polynomial(terms, 2)
        assert hamiltonian.value([0, 0]) == pytest.approx(1.0)
        assert hamiltonian.value([1, 0]) == pytest.approx(3.0)
        assert hamiltonian.value([1, 1]) == pytest.approx(0.0)

    def test_variable_out_of_range(self):
        with pytest.raises(HamiltonianError):
            DiagonalHamiltonian.from_polynomial({(5,): 1.0}, 2)

    def test_expectation(self):
        hamiltonian = DiagonalHamiltonian.from_polynomial({(0,): 1.0}, 1)
        probabilities = np.array([0.25, 0.75])
        assert hamiltonian.expectation(probabilities) == pytest.approx(0.75)

    def test_diagonal_phase_only_phases(self):
        hamiltonian = DiagonalHamiltonian.from_polynomial({(0,): 2.0}, 1)
        state = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        evolved = apply_diagonal_phase(state, 0.5, *diagonal_levels(hamiltonian.diagonal))
        assert np.allclose(np.abs(evolved), np.abs(state))
        assert np.angle(evolved[1]) == pytest.approx(-1.0)

    def test_addition_and_scaling(self):
        a = DiagonalHamiltonian.from_polynomial({(0,): 1.0}, 1)
        b = DiagonalHamiltonian.from_polynomial({(): 1.0}, 1)
        combined = a + 2.0 * b
        assert np.allclose(combined.diagonal, [2.0, 3.0])

    def test_size_mismatch_rejected(self):
        a = DiagonalHamiltonian.from_polynomial({(): 1.0}, 1)
        b = DiagonalHamiltonian.from_polynomial({(): 1.0}, 2)
        with pytest.raises(HamiltonianError):
            _ = a + b

    def test_cubic_terms_supported_densely(self):
        hamiltonian = DiagonalHamiltonian.from_polynomial({(0, 1, 2): 4.0}, 3)
        assert hamiltonian.value([1, 1, 1]) == pytest.approx(4.0)
        assert hamiltonian.value([1, 1, 0]) == pytest.approx(0.0)


class TestSplitPolynomial:
    def test_split(self):
        constant, linear, quadratic = split_polynomial({(): 1.0, (2,): 3.0, (0, 1): -2.0})
        assert constant == pytest.approx(1.0)
        assert linear == {2: 3.0}
        assert quadratic == {(0, 1): -2.0}

    def test_duplicate_indices_collapse(self):
        constant, linear, quadratic = split_polynomial({(1, 1): 5.0})
        assert linear == {1: 5.0}
        assert not quadratic

    def test_cubic_rejected(self):
        with pytest.raises(HamiltonianError):
            split_polynomial({(0, 1, 2): 1.0})


class TestPhaseSeparationCircuit:
    @pytest.mark.parametrize("gamma", [0.3, -0.9, 1.7])
    def test_circuit_matches_exact_evolution(self, gamma):
        terms = {(): 2.0, (0,): 1.0, (1,): -2.0, (0, 2): 3.0, (1, 2): -1.5}
        num_qubits = 3
        hamiltonian = DiagonalHamiltonian.from_polynomial(terms, num_qubits)
        simulator = StatevectorSimulator()
        rng = np.random.default_rng(4)
        state = rng.normal(size=8) + 1j * rng.normal(size=8)
        state /= np.linalg.norm(state)
        exact = apply_diagonal_phase(state, gamma, *diagonal_levels(hamiltonian.diagonal))
        circuit = phase_separation_circuit(terms, num_qubits, gamma)
        circuit_state = simulator.statevector(
            circuit, initial_state=Statevector(data=state.copy(), num_qubits=num_qubits)
        ).data
        assert global_phase_equal(exact, circuit_state)

    def test_symbolic_gamma_supported(self):
        gamma = Parameter("gamma")
        circuit = phase_separation_circuit({(0,): 1.0, (0, 1): 2.0}, 2, gamma)
        assert circuit.is_parameterized
        bound = circuit.bind({gamma: 0.4})
        assert not bound.is_parameterized

    def test_zero_terms_produce_empty_circuit(self):
        circuit = phase_separation_circuit({(): 5.0}, 2, 0.7)
        assert circuit.size() == 0
