"""Diagonal objective Hamiltonians.

QAOA encodes the objective function ``f(x)`` as a Hamiltonian ``H_o`` that is
diagonal in the computational basis: the eigenvalue of basis state ``|x>`` is
``f(x)``.  This module provides two representations of the same operator:

* :class:`DiagonalHamiltonian` — a dense diagonal vector of length ``2**n``,
  the cost diagonal the simulator's phase separation
  (:func:`~repro.hamiltonian.compiled.apply_diagonal_phase`) and
  expectation values run on (the exact equivalent of substituting
  ``x_j = (I - Z_j)/2`` in the paper's Step 2);
* a quadratic *polynomial* form (linear + quadratic coefficient maps), used
  to emit the RZ / RZZ phase-separation circuit whose depth Table II reports.

Objectives from the application layer arrive as polynomials over binary
variables: a mapping from sorted variable-index tuples to coefficients,
``{(): c0, (i,): ci, (i, j): cij, ...}``.  Higher-order terms are supported
by the dense representation and rejected by the circuit emitter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.exceptions import HamiltonianError
from repro.qcircuit.circuit import QuantumCircuit
from repro.qcircuit.parameters import ParameterValue

PolynomialTerms = Mapping[tuple[int, ...], float]


@dataclass
class DiagonalHamiltonian:
    """A Hamiltonian diagonal in the computational basis."""

    diagonal: np.ndarray
    num_qubits: int

    @classmethod
    def from_polynomial(cls, terms: PolynomialTerms, num_qubits: int) -> "DiagonalHamiltonian":
        """Build the dense diagonal from a binary polynomial.

        The eigenvalue at basis index ``k`` is the polynomial evaluated on the
        bit assignment of ``k`` (little-endian).
        """
        dim = 2**num_qubits
        indices = np.arange(dim)
        diagonal = np.zeros(dim, dtype=float)
        for variables, coefficient in terms.items():
            if coefficient == 0:
                continue
            product = np.ones(dim, dtype=float)
            for variable in variables:
                if not 0 <= variable < num_qubits:
                    raise HamiltonianError(
                        f"variable {variable} out of range for {num_qubits} qubits"
                    )
                product = product * ((indices >> variable) & 1)
            diagonal += coefficient * product
        return cls(diagonal=diagonal, num_qubits=num_qubits)

    # ------------------------------------------------------------------

    def value(self, bits: Sequence[int]) -> float:
        index = 0
        for qubit, bit in enumerate(bits):
            index |= int(bit) << qubit
        return float(self.diagonal[index])

    def expectation(self, probabilities: np.ndarray) -> float:
        return float(np.dot(probabilities, self.diagonal))

    def __add__(self, other: "DiagonalHamiltonian") -> "DiagonalHamiltonian":
        if other.num_qubits != self.num_qubits:
            raise HamiltonianError("cannot add Hamiltonians of different sizes")
        return DiagonalHamiltonian(self.diagonal + other.diagonal, self.num_qubits)

    def __mul__(self, scalar: float) -> "DiagonalHamiltonian":
        return DiagonalHamiltonian(self.diagonal * scalar, self.num_qubits)

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# Phase-separation circuits
# ---------------------------------------------------------------------------


def split_polynomial(terms: PolynomialTerms) -> tuple[float, dict[int, float], dict[tuple[int, int], float]]:
    """Split a polynomial into (constant, linear, quadratic) parts.

    Raises :class:`HamiltonianError` on cubic or higher terms — the paper's
    benchmark objectives (FLP, GCP, KPP, and their penalty terms) are all at
    most quadratic.
    """
    constant = 0.0
    linear: dict[int, float] = {}
    quadratic: dict[tuple[int, int], float] = {}
    for variables, coefficient in terms.items():
        unique = tuple(sorted(set(variables)))
        if len(unique) == 0:
            constant += coefficient
        elif len(unique) == 1:
            linear[unique[0]] = linear.get(unique[0], 0.0) + coefficient
        elif len(unique) == 2:
            quadratic[unique] = quadratic.get(unique, 0.0) + coefficient
        else:
            raise HamiltonianError(
                "phase-separation circuits support at most quadratic objectives; "
                f"got a term over variables {unique}"
            )
    return constant, linear, quadratic


def phase_separation_circuit(
    terms: PolynomialTerms, num_qubits: int, gamma: ParameterValue
) -> QuantumCircuit:
    """Emit the circuit for ``e^{-i gamma H_o}`` of a quadratic objective.

    Using the Ising substitution ``x_j = (1 - Z_j)/2``:

    * a linear term ``w x_j`` contributes ``RZ(-w gamma)`` on qubit ``j``
      (up to an irrelevant global phase),
    * a quadratic term ``w x_i x_j`` contributes single-qubit ``RZ`` on both
      qubits and an ``RZZ(w gamma / 2)`` coupling.
    """
    constant, linear, quadratic = split_polynomial(terms)
    del constant  # global phase only
    circuit = QuantumCircuit(num_qubits, name="phase_separation")
    rz_angles: dict[int, float | ParameterValue] = {}

    def add_angle(qubit: int, scale: float) -> None:
        # Accumulate the scale; the symbolic gamma multiplies it at emit time.
        rz_angles[qubit] = rz_angles.get(qubit, 0.0) + scale

    for qubit, weight in linear.items():
        # w x_j -> (w/2)(I - Z_j): evolution adds phase e^{+i gamma w Z_j / 2},
        # i.e. RZ(-gamma w) up to global phase.
        add_angle(qubit, -weight)
    for (qa, qb), weight in quadratic.items():
        # w x_i x_j -> (w/4)(I - Z_i - Z_j + Z_i Z_j)
        add_angle(qa, -weight / 2.0)
        add_angle(qb, -weight / 2.0)
    for qubit, scale in rz_angles.items():
        if scale != 0.0:
            circuit.rz(_scaled(gamma, scale), qubit)
    for (qa, qb), weight in quadratic.items():
        if weight != 0.0:
            circuit.rzz(_scaled(gamma, weight / 2.0), qa, qb)
    return circuit


def _scaled(gamma: ParameterValue, scale: float) -> ParameterValue:
    """Multiply a (possibly symbolic) parameter by a float."""
    if isinstance(gamma, (int, float)):
        return float(gamma) * scale
    return gamma * scale
