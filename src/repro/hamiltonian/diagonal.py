"""Diagonal objective Hamiltonians.

QAOA encodes the objective function ``f(x)`` as a Hamiltonian ``H_o`` that is
diagonal in the computational basis: the eigenvalue of basis state ``|x>`` is
``f(x)``.  This module provides two representations of the same operator:

* :func:`polynomial_diagonal` — the dense diagonal vector of length
  ``2**n`` (qubit ``q`` is bit ``q`` of the basis index) that the
  simulator's phase separation
  (:func:`~repro.hamiltonian.compiled.apply_diagonal_phase`) and cost
  expectations run on (the exact equivalent of substituting
  ``x_j = (I - Z_j)/2`` in the paper's Step 2).  It is the shared
  polynomial kernel :func:`repro.core.problem.evaluate_polynomial` over the
  basis indices' bits, the same kernel that scores measured bitstrings and
  evaluates a feasible subspace's diagonal;
* a quadratic *polynomial* form (linear + quadratic coefficient maps), used
  to emit the RZ / RZZ phase-separation circuit whose depth Table II reports.

Objectives from the application layer arrive as polynomials over binary
variables: a mapping from sorted variable-index tuples to coefficients,
``{(): c0, (i,): ci, (i, j): cij, ...}``.  Higher-order terms are supported
by the dense representation and rejected by the circuit emitter.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.core.problem import evaluate_polynomial
from repro.exceptions import HamiltonianError
from repro.qcircuit.circuit import QuantumCircuit

PolynomialTerms = Mapping[tuple[int, ...], float]


def polynomial_diagonal(terms: PolynomialTerms, num_qubits: int) -> np.ndarray:
    """The dense ``2**num_qubits`` cost diagonal of a binary polynomial.

    Entry ``k`` is the polynomial evaluated on basis index ``k``'s bits
    (qubit ``q`` is bit ``q``), through the shared kernel
    :func:`repro.core.problem.evaluate_polynomial`, one bit column at a time.
    """
    indices = np.arange(2**num_qubits)

    def column(variable: int) -> np.ndarray:
        if not 0 <= variable < num_qubits:
            raise HamiltonianError(f"variable {variable} out of range for {num_qubits} qubits")
        return (indices >> variable) & 1

    return evaluate_polynomial(terms, indices.size, column)


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
    terms: PolynomialTerms, num_qubits: int, gamma: float
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
    rz_angles: dict[int, float] = {}

    def add_angle(qubit: int, scale: float) -> None:
        # Accumulate the scale; gamma multiplies it at emit time.
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
            circuit.rz(float(gamma) * scale, qubit)
    for (qa, qb), weight in quadratic.items():
        if weight != 0.0:
            circuit.rzz(float(gamma) * (weight / 2.0), qa, qb)
    return circuit

