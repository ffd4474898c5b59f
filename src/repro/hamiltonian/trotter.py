"""Trotter-Suzuki decomposition baseline.

Section IV and Fig. 12 compare Choco-Q's equivalent decomposition against the
Trotter decomposition of the driver unitary ``e^{-i beta H_d}``:

    e^{-i beta H_d} ≈ ( prod_u e^{-i beta H_c(u) / N} )^N            (Eq. 8)

with error ``O(1/N^2)`` after ``N`` repetitions.  Building the approximation
requires materialising each local unitary (and, in the conventional flow the
paper describes, the full ``2^n x 2^n`` driver matrix), which is exponential
in time and memory — this module reproduces that cost profile faithfully so
the Fig. 12 benchmark can regenerate the comparison.

:class:`TrotterDecomposer` returns a circuit made of opaque ``unitary`` gates
(one per local factor per repetition) plus a :class:`TrotterReport` recording
the wall-clock decomposition time, the peak bytes allocated for Hamiltonian
matrices, and the resulting circuit depth estimate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from repro.exceptions import HamiltonianError
from repro.hamiltonian.commute import CommuteDriver
from repro.qcircuit.circuit import QuantumCircuit


@dataclass(frozen=True)
class TrotterReport:
    """Cost accounting for one Trotter decomposition run."""

    num_qubits: int
    repetitions: int
    decomposition_seconds: float
    memory_bytes: int
    circuit_depth: int
    num_unitaries: int


class TrotterDecomposer:
    """Approximate the driver unitary by repeated local-unitary products.

    Args:
        repetitions: the number ``N`` of repetitions in Eq. (8).  The paper
            notes ``N > 100`` is needed for acceptable accuracy; the default
            follows that.
        build_full_hamiltonian: when True (the conventional flow), the dense
            ``2^n x 2^n`` driver matrix is materialised to derive the local
            factors, reproducing the exponential memory footprint Fig. 12
            reports.  When False, only the local support-sized matrices are
            built (a kinder variant used to keep unit tests fast).
        max_qubits: guard against accidentally exponentiating a matrix too
            large for the host; mimics the "time out" entries in Fig. 12.
    """

    def __init__(
        self,
        repetitions: int = 128,
        build_full_hamiltonian: bool = True,
        max_qubits: int = 14,
    ) -> None:
        if repetitions < 1:
            raise HamiltonianError("repetitions must be positive")
        self.repetitions = repetitions
        self.build_full_hamiltonian = build_full_hamiltonian
        self.max_qubits = max_qubits

    # ------------------------------------------------------------------

    def decompose(self, driver: CommuteDriver, beta: float) -> tuple[QuantumCircuit, TrotterReport]:
        """Build the Trotterised circuit and its cost report."""
        if driver.num_qubits > self.max_qubits:
            raise HamiltonianError(
                f"Trotter decomposition of a {driver.num_qubits}-qubit driver exceeds "
                f"the {self.max_qubits}-qubit limit (the conventional flow times out here)"
            )
        start = time.perf_counter()
        memory_bytes = 0

        if self.build_full_hamiltonian:
            full_matrix = driver.hamiltonian_matrix()
            memory_bytes += full_matrix.nbytes
            # The conventional flow exponentiates the full matrix once to
            # validate the approximation error; include that cost.
            reference = expm(-1j * beta * full_matrix / self.repetitions)
            memory_bytes += reference.nbytes

        circuit = QuantumCircuit(driver.num_qubits, name="trotter_driver")
        local_unitaries: list[tuple[tuple[int, ...], np.ndarray]] = []
        for term in driver.terms:
            local_hamiltonian = term.local_matrix()
            memory_bytes += local_hamiltonian.nbytes
            local_unitary = expm(-1j * beta * local_hamiltonian / self.repetitions)
            memory_bytes += local_unitary.nbytes
            local_unitaries.append((term.support, local_unitary))

        for _ in range(self.repetitions):
            for support, unitary in local_unitaries:
                circuit.unitary(unitary, support, label="trotter_step")

        elapsed = time.perf_counter() - start
        depth = _estimated_depth(circuit)
        report = TrotterReport(
            num_qubits=driver.num_qubits,
            repetitions=self.repetitions,
            decomposition_seconds=elapsed,
            memory_bytes=memory_bytes,
            circuit_depth=depth,
            num_unitaries=len(local_unitaries) * self.repetitions,
        )
        return circuit, report

    def approximation_error(self, driver: CommuteDriver, beta: float) -> float:
        """Spectral-norm error between the exact and Trotterised unitaries."""
        from repro.hamiltonian.evolution import driver_evolution_operator

        exact = driver_evolution_operator(driver, beta)
        approx = np.eye(2**driver.num_qubits, dtype=complex)
        step = np.eye(2**driver.num_qubits, dtype=complex)
        for term in driver.terms:
            term_unitary = expm(-1j * beta * term.to_matrix() / self.repetitions)
            step = term_unitary @ step
        for _ in range(self.repetitions):
            approx = step @ approx
        return float(np.linalg.norm(exact - approx, ord=2))


def _estimated_depth(circuit: QuantumCircuit) -> int:
    """Depth after charging each opaque k-qubit unitary a 4^k synthesis cost.

    Generic unitary synthesis needs O(4^k) basic gates; this mirrors
    :func:`repro.qcircuit.transpile.depth_after_transpile` without paying the
    cost of actually lowering the (often enormous) Trotter circuit.
    """
    depth = 0
    for instruction in circuit:
        if instruction.gate.name == "unitary":
            depth += 4 ** len(instruction.qubits)
        elif not instruction.is_directive:
            depth += 1
    return depth
