"""Reference implementations the tests and benchmarks pin the library against.

None of these run on a solve path.  The hop pairings are the int64
gather/scatter forms the compiled evolution replaced: the tests compare the
fast paths against them element for element, and
``benchmarks/bench_iteration_throughput.py`` times them as the
recompute-every-call baseline.  The comparison helpers are phase-insensitive,
because transpiled circuits equal their sources only up to a global phase
(an RZ-based Toffoli differs from the textbook one by a constant factor).
``pauli_matrix`` writes out the Pauli products that Eq. (3) and Eq. (5) are
stated in, for the tests that check the library's dense forms against them.

Tests import this module as ``reference`` (``tests/conftest.py`` puts this
directory on ``sys.path``); the benchmark adds the directory itself.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import HamiltonianError
from repro.hamiltonian.commute import CommuteHamiltonianTerm


def dense_term_pairing(term: CommuteHamiltonianTerm) -> tuple[np.ndarray, np.ndarray]:
    """The dense ``(a, b)`` hop index pair of one commute term.

    ``a`` enumerates the basis indices whose support bits read ``v`` and
    ``b = a XOR support_mask`` their ``v̄`` partners: the int64
    gather/scatter reference for :meth:`CommuteHamiltonianTerm.dense_sides`.
    """
    support_mask = sum(1 << qubit for qubit in term.support)
    v_pattern = sum(bit << qubit for qubit, bit in zip(term.support, term.v_bits))
    indices = np.arange(2**term.num_qubits)
    a_indices = indices[(indices & support_mask) == v_pattern]
    return a_indices, a_indices ^ support_mask


def subspace_pairing_loop(
    term: CommuteHamiltonianTerm, subspace_map
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row reference for :meth:`CommuteHamiltonianTerm.subspace_pairing`.

    The pre-vectorisation pairing: a Python loop doing one single-row
    ``coordinate_of`` lookup per ``v``-side row, raising the same
    :class:`HamiltonianError` on a missing partner.
    """
    basis = subspace_map.basis
    support = np.array(term.support, dtype=int)
    v_bits = np.array(term.v_bits, dtype=np.uint8)
    in_v = np.all(basis[:, support] == v_bits, axis=1)
    in_v_bar = np.all(basis[:, support] == 1 - v_bits, axis=1)
    a_coordinates = np.nonzero(in_v)[0]
    b_coordinates = np.empty(len(a_coordinates), dtype=int)
    for k, coordinate in enumerate(a_coordinates):
        partner = basis[coordinate].copy()
        partner[support] = 1 - v_bits
        try:
            b_coordinates[k] = subspace_map.coordinate_of(partner)
        except Exception as error:
            raise HamiltonianError(
                "the hop partner of a feasible state is missing from the "
                "subspace map; the term's u vector is not a nullspace "
                "solution of the map's constraint system"
            ) from error
    if int(np.count_nonzero(in_v_bar)) != len(a_coordinates):
        raise HamiltonianError(
            "a feasible state matching the v̄ pattern has no feasible hop "
            "partner; the term's u vector is not a nullspace solution of "
            "the map's constraint system"
        )
    return a_coordinates, b_coordinates


_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_matrix(label) -> np.ndarray:
    """Dense matrix of a Pauli product; ``label[q]`` acts on qubit ``q``.

    Little-endian like the simulator: qubit 0 is the least significant bit
    of a basis index, so ``"XZ"`` is ``kron(Z, X)``.
    """
    matrix = np.ones((1, 1), dtype=complex)
    for character in reversed(tuple(label)):
        matrix = np.kron(matrix, _PAULI[character])
    return matrix


def global_phase_equal(a: np.ndarray, b: np.ndarray, atol: float = 1e-8) -> bool:
    """True when two statevectors are equal up to a single global phase."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    index = int(np.argmax(np.abs(a)))
    if abs(a[index]) < 1e-12:
        return bool(np.allclose(a, b, atol=atol))
    phase = b[index] / a[index]
    if abs(abs(phase) - 1.0) > 1e-6:
        return False
    return bool(np.allclose(a * phase, b, atol=atol))


def random_statevector(num_qubits: int, seed: int | None = None) -> np.ndarray:
    """A Haar-ish random normalized statevector (Gaussian components)."""
    rng = np.random.default_rng(seed)
    state = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return state / np.linalg.norm(state)


def operators_equal_up_to_phase(a: np.ndarray, b: np.ndarray, atol: float = 1e-8) -> bool:
    """True when two unitaries are equal up to a single global phase."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    flat_index = int(np.argmax(np.abs(a)))
    row, col = np.unravel_index(flat_index, a.shape)
    if abs(a[row, col]) < 1e-12:
        return bool(np.allclose(a, b, atol=atol))
    phase = b[row, col] / a[row, col]
    if abs(abs(phase) - 1.0) > 1e-6:
        return False
    return bool(np.allclose(a * phase, b, atol=atol))
