"""The constraint operator of Eq. (3).

For a single linear constraint ``sum_i c_i x_i = c`` the paper defines the
operator ``C_hat = sum_i c_i sigma_z^i``.  The expectation of this operator is
conserved exactly when the driver Hamiltonian commutes with it, which is the
foundation of the commute-Hamiltonian encoding (Fig. 1b).

This module builds the operator both as a :class:`~repro.hamiltonian.pauli.PauliSum`
(for commutation checks) and as a diagonal vector (for fast expectation values
during simulation), for a single constraint or a whole constraint system.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import HamiltonianError
from repro.hamiltonian.pauli import PauliString, PauliSum, single_pauli
from repro.qcircuit.statevector import index_bits


def constraint_operator(coefficients: Sequence[float], num_qubits: int | None = None) -> PauliSum:
    """Build ``C_hat = sum_i c_i Z_i`` for one constraint row.

    Args:
        coefficients: the row of the constraint matrix (length = #variables).
        num_qubits: register size; defaults to ``len(coefficients)``.
    """
    coefficients = list(coefficients)
    num_qubits = len(coefficients) if num_qubits is None else num_qubits
    if num_qubits < len(coefficients):
        raise HamiltonianError("register smaller than the coefficient vector")
    terms: list[PauliString] = []
    for qubit, coefficient in enumerate(coefficients):
        if coefficient != 0:
            terms.append(single_pauli(num_qubits, qubit, "Z", complex(coefficient)))
    if not terms:
        return PauliSum([], num_qubits=num_qubits)
    return PauliSum(terms, num_qubits=num_qubits)


def constraint_operator_diagonal(
    coefficients: Sequence[float], num_qubits: int | None = None
) -> np.ndarray:
    """Diagonal of ``C_hat`` indexed by basis state (little-endian).

    Basis state with bit ``x_i`` on qubit ``i`` has eigenvalue
    ``sum_i c_i (1 - 2 x_i)`` since ``Z|x_i> = (1 - 2 x_i)|x_i>``.
    """
    coefficients = np.asarray(list(coefficients), dtype=float)
    num_qubits = len(coefficients) if num_qubits is None else num_qubits
    dim = 2**num_qubits
    bits = index_bits(np.arange(dim), num_qubits)
    diagonal = np.zeros(dim, dtype=float)
    for qubit, coefficient in enumerate(coefficients):
        if coefficient == 0:
            continue
        # int64 before the sign flip: 1 - 2 * bit wraps on uint8.
        diagonal += coefficient * (1 - 2 * bits[:, qubit].astype(np.int64))
    return diagonal


def constraint_system_operators(
    constraint_matrix: np.ndarray, num_qubits: int | None = None
) -> list[PauliSum]:
    """One :func:`constraint_operator` per row of the constraint matrix."""
    constraint_matrix = np.atleast_2d(np.asarray(constraint_matrix, dtype=float))
    num_qubits = constraint_matrix.shape[1] if num_qubits is None else num_qubits
    return [constraint_operator(row, num_qubits) for row in constraint_matrix]


def constraint_expectations(
    statevector_probabilities: np.ndarray,
    constraint_matrix: np.ndarray,
    num_qubits: int,
) -> np.ndarray:
    """Expectation of each row operator under a probability distribution."""
    constraint_matrix = np.atleast_2d(np.asarray(constraint_matrix, dtype=float))
    expectations = np.zeros(constraint_matrix.shape[0])
    for row_index, row in enumerate(constraint_matrix):
        diagonal = constraint_operator_diagonal(row, num_qubits)
        expectations[row_index] = float(np.dot(statevector_probabilities, diagonal))
    return expectations
