"""The constraint operator of Eq. (3), as its diagonal.

For a single linear constraint ``sum_i c_i x_i = c`` the paper defines the
operator ``C_hat = sum_i c_i sigma_z^i``.  The expectation of this operator is
conserved exactly when the driver Hamiltonian commutes with it, which is the
foundation of the commute-Hamiltonian encoding (Fig. 1b).

``C_hat`` is diagonal in the computational basis, so this module builds it as
the vector of its eigenvalues, indexed by basis state: the form the
commutation check (:meth:`~repro.hamiltonian.commute.CommuteDriver.commutes_with_constraint`)
and the expectation values during simulation use.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import HamiltonianError
from repro.qcircuit.statevector import index_bits


def constraint_operator_diagonal(
    coefficients: Sequence[float], num_qubits: int | None = None
) -> np.ndarray:
    """Diagonal of ``C_hat`` indexed by basis state (little-endian).

    Basis state with bit ``x_i`` on qubit ``i`` has eigenvalue
    ``sum_i c_i (1 - 2 x_i)`` since ``Z|x_i> = (1 - 2 x_i)|x_i>``.

    Args:
        coefficients: the row of the constraint matrix (length = #variables).
        num_qubits: register size; defaults to ``len(coefficients)``.
    """
    coefficients = np.asarray(list(coefficients), dtype=float)
    num_qubits = len(coefficients) if num_qubits is None else num_qubits
    if num_qubits < len(coefficients):
        raise HamiltonianError("register smaller than the coefficient vector")
    dim = 2**num_qubits
    bits = index_bits(np.arange(dim), num_qubits)
    diagonal = np.zeros(dim, dtype=float)
    for qubit, coefficient in enumerate(coefficients):
        if coefficient == 0:
            continue
        # int64 before the sign flip: 1 - 2 * bit wraps on uint8.
        diagonal += coefficient * (1 - 2 * bits[:, qubit].astype(np.int64))
    return diagonal
