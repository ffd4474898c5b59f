"""Exact Hamiltonian evolution utilities.

Provides dense matrix exponentials ``e^{-i t H}`` for verification of the
serialization (Lemma 1) and decomposition (Lemma 2) passes, and the
"monolithic" driver unitary that the Trotter baseline approximates.  These
routines are exponential in the register size by construction — that cost is
exactly the overhead the paper's optimizations remove — so they are guarded
by a qubit limit.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import HamiltonianError, SimulationError
from repro.hamiltonian.commute import CommuteDriver, CommuteHamiltonianTerm

_MAX_DENSE_QUBITS = 14


def dense_evolution_operator(hamiltonian: np.ndarray, time: float) -> np.ndarray:
    """The unitary ``e^{-i time H}`` for a dense Hermitian matrix ``H``."""
    from scipy.linalg import expm

    hamiltonian = np.asarray(hamiltonian, dtype=complex)
    if hamiltonian.ndim != 2 or hamiltonian.shape[0] != hamiltonian.shape[1]:
        raise HamiltonianError("hamiltonian must be a square matrix")
    return expm(-1j * time * hamiltonian)


def term_evolution_operator(term: CommuteHamiltonianTerm, beta: float) -> np.ndarray:
    """Exact dense unitary ``e^{-i beta H_c(u)}`` of a single commute term."""
    if term.num_qubits > _MAX_DENSE_QUBITS:
        raise SimulationError(
            f"dense evolution limited to {_MAX_DENSE_QUBITS} qubits, "
            f"got {term.num_qubits}"
        )
    return dense_evolution_operator(term.to_matrix(), beta)


def driver_evolution_operator(driver: CommuteDriver, beta: float) -> np.ndarray:
    """The *monolithic* driver unitary ``e^{-i beta sum_u H_c(u)}``.

    This is what the Trotter baseline approximates and what Lemma 1 proves
    can be replaced by the serialized product while conserving constraint
    expectations.
    """
    if driver.num_qubits > _MAX_DENSE_QUBITS:
        raise SimulationError(
            f"dense evolution limited to {_MAX_DENSE_QUBITS} qubits, "
            f"got {driver.num_qubits}"
        )
    return dense_evolution_operator(driver.hamiltonian_matrix(), beta)
