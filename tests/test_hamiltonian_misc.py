"""Tests for the constraint operator, exact evolution, and the Trotter baseline."""

from __future__ import annotations

import numpy as np
import pytest

from reference import pauli_matrix
from repro.exceptions import HamiltonianError, SimulationError
from repro.hamiltonian.commute import CommuteDriver
from repro.hamiltonian.constraint_operator import constraint_operator_diagonal
from repro.hamiltonian.evolution import dense_evolution_operator, driver_evolution_operator
from repro.hamiltonian.trotter import TrotterDecomposer


class TestConstraintOperator:
    def test_diagonal_values(self):
        diagonal = constraint_operator_diagonal([1.0, -1.0], 2)
        # index 0 -> x=(0,0): 1*(1) + (-1)*(1) = 0
        # index 1 -> x=(1,0): 1*(-1) + (-1)*(1) = -2
        assert np.allclose(diagonal, [0.0, -2.0, 2.0, 0.0])

    @pytest.mark.parametrize(
        "coefficients", [[1.0, 0.0, -2.0], [0.5, -1.5], [2.0, 1.0, 0.0, -1.0], [3.0]]
    )
    def test_operator_terms(self, coefficients):
        """The diagonal is that of ``C_hat = sum_i c_i Z_i`` (Eq. 3), term by term."""
        size = len(coefficients)
        operator = sum(
            coefficient * pauli_matrix("I" * qubit + "Z" + "I" * (size - qubit - 1))
            for qubit, coefficient in enumerate(coefficients)
        )
        assert np.allclose(np.diag(np.diag(operator)), operator)
        assert np.allclose(constraint_operator_diagonal(coefficients), np.diag(operator).real)

    def test_padded_register(self):
        # Qubits past the coefficient vector carry a zero coefficient.
        diagonal = constraint_operator_diagonal([1.0], 2)
        assert np.allclose(diagonal, [1.0, -1.0, 1.0, -1.0])

    @pytest.mark.parametrize("coefficients", [[1.0, 1.0], [1.0, 0.0, 0.0]])
    def test_register_too_small(self, coefficients):
        # Trailing zero coefficients still name variables the register lacks.
        with pytest.raises(HamiltonianError):
            constraint_operator_diagonal(coefficients, num_qubits=1)


class TestEvolution:
    def test_dense_evolution_is_unitary(self):
        hamiltonian = np.array([[0.0, 1.0], [1.0, 0.0]])
        unitary = dense_evolution_operator(hamiltonian, 0.7)
        assert np.allclose(unitary @ unitary.conj().T, np.eye(2), atol=1e-10)

    def test_non_square_rejected(self):
        with pytest.raises(HamiltonianError):
            dense_evolution_operator(np.ones((2, 3)), 0.1)

    def test_dense_evolution_limit(self):
        big = CommuteDriver.from_solutions([(1,) + (0,) * 14])
        with pytest.raises(SimulationError):
            driver_evolution_operator(big, 0.1)

    def test_zero_time_is_identity(self):
        driver = CommuteDriver.from_solutions([(1, -1, 0), (0, 1, -1)])
        unitary = driver_evolution_operator(driver, 0.0)
        assert np.allclose(unitary, np.eye(8), atol=1e-12)


class TestTrotter:
    def test_decompose_reports_costs(self):
        driver = CommuteDriver.from_solutions([(1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1)])
        decomposer = TrotterDecomposer(repetitions=8)
        circuit, report = decomposer.decompose(driver, beta=0.5)
        assert report.num_qubits == 4
        assert report.repetitions == 8
        assert report.num_unitaries == 3 * 8
        assert report.memory_bytes > 0
        assert report.decomposition_seconds >= 0.0
        assert circuit.size() == 24

    def test_memory_grows_exponentially_with_qubits(self):
        reports = []
        for size in (4, 6, 8):
            solutions = [
                tuple(1 if j == i else (-1 if j == i + 1 else 0) for j in range(size))
                for i in range(size - 1)
            ]
            driver = CommuteDriver.from_solutions(solutions)
            _, report = TrotterDecomposer(repetitions=4).decompose(driver, beta=0.3)
            reports.append(report)
        assert reports[1].memory_bytes > 3 * reports[0].memory_bytes
        assert reports[2].memory_bytes > 3 * reports[1].memory_bytes

    def test_qubit_limit_mimics_timeout(self):
        solutions = [tuple(1 if j == i else (-1 if j == i + 1 else 0) for j in range(16)) for i in range(3)]
        driver = CommuteDriver.from_solutions(solutions)
        with pytest.raises(HamiltonianError):
            TrotterDecomposer(repetitions=2, max_qubits=12).decompose(driver, beta=0.2)

    def test_approximation_error_decreases_with_repetitions(self):
        driver = CommuteDriver.from_solutions([(1, -1, 0), (0, 1, -1), (1, 0, -1)])
        coarse = TrotterDecomposer(repetitions=2).approximation_error(driver, beta=0.9)
        fine = TrotterDecomposer(repetitions=32).approximation_error(driver, beta=0.9)
        assert fine < coarse

    def test_invalid_repetitions(self):
        with pytest.raises(HamiltonianError):
            TrotterDecomposer(repetitions=0)

    def test_trotter_depth_far_exceeds_chocoq_depth(self):
        """Fig. 12(b): the serialized+decomposed circuit is far shallower."""
        from repro.qcircuit.transpile import depth_after_transpile

        driver = CommuteDriver.from_solutions([(1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1)])
        _, trotter_report = TrotterDecomposer(repetitions=16).decompose(driver, beta=0.4)
        choco_depth = depth_after_transpile(driver.serialized_circuit(0.4))
        assert trotter_report.circuit_depth > 3 * choco_depth
