"""Tests for diagonal objective Hamiltonians and phase-separation circuits."""

from __future__ import annotations

import numpy as np
import pytest

from reference import global_phase_equal
from repro.exceptions import HamiltonianError
from repro.hamiltonian.compiled import apply_diagonal_phase, diagonal_levels
from repro.hamiltonian.diagonal import (
    phase_separation_circuit,
    polynomial_diagonal,
    split_polynomial,
)
from repro.qcircuit.statevector import StatevectorSimulator, Statevector


class TestPolynomialDiagonal:
    def test_from_polynomial_values(self):
        diagonal = polynomial_diagonal({(): 1.0, (0,): 2.0, (0, 1): -3.0}, 2)
        # Qubit q is bit q of the basis index.
        assert diagonal[0b00] == pytest.approx(1.0)
        assert diagonal[0b01] == pytest.approx(3.0)
        assert diagonal[0b11] == pytest.approx(0.0)

    def test_variable_out_of_range(self):
        with pytest.raises(HamiltonianError):
            polynomial_diagonal({(5,): 1.0}, 2)

    def test_diagonal_phase_only_phases(self):
        diagonal = polynomial_diagonal({(0,): 2.0}, 1)
        state = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        evolved = apply_diagonal_phase(state, 0.5, *diagonal_levels(diagonal))
        assert np.allclose(np.abs(evolved), np.abs(state))
        assert np.angle(evolved[1]) == pytest.approx(-1.0)

    def test_cubic_terms_supported_densely(self):
        diagonal = polynomial_diagonal({(0, 1, 2): 4.0}, 3)
        assert diagonal[0b111] == pytest.approx(4.0)
        assert diagonal[0b011] == pytest.approx(0.0)


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
        diagonal = polynomial_diagonal(terms, num_qubits)
        simulator = StatevectorSimulator()
        rng = np.random.default_rng(4)
        state = rng.normal(size=8) + 1j * rng.normal(size=8)
        state /= np.linalg.norm(state)
        exact = apply_diagonal_phase(state, gamma, *diagonal_levels(diagonal))
        circuit = phase_separation_circuit(terms, num_qubits, gamma)
        circuit_state = simulator.statevector(
            circuit, initial_state=Statevector(data=state.copy(), num_qubits=num_qubits)
        ).data
        assert global_phase_equal(exact, circuit_state)

    @pytest.mark.parametrize(
        "gamma",
        [1, 0.4, np.int64(2), np.float32(0.4), np.float64(0.4)],
        ids=["int", "float", "numpy-int64", "numpy-float32", "numpy-float64"],
    )
    def test_real_gamma_scales_every_angle_as_a_python_float(self, gamma):
        terms = {(0,): 1.0, (1,): -0.5, (0, 1): 2.0}
        circuit = phase_separation_circuit(terms, 2, gamma)
        reference = phase_separation_circuit(terms, 2, float(gamma))
        angles = [instruction.gate.params[0] for instruction in circuit]
        assert all(type(angle) is float for angle in angles)
        assert angles == [instruction.gate.params[0] for instruction in reference]

    def test_zero_terms_produce_empty_circuit(self):
        circuit = phase_separation_circuit({(): 5.0}, 2, 0.7)
        assert circuit.size() == 0
