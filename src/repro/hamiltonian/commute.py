"""Commute Hamiltonian construction, serialization and decomposition.

This module implements the paper's central contribution:

* :class:`CommuteHamiltonianTerm` — the local Hamiltonian ``H_c(u)`` of
  Eq. (5) for a single solution vector ``u`` of ``C u = 0`` with entries in
  ``{-1, 0, +1}``.  The term is a "hop" operator ``|v><v̄| + |v̄><v|`` between
  the two bit patterns ``v`` and ``v̄`` on the support of ``u``
  (``v_i = (1 + u_i)/2``, Eq. (12)).
* the **serialized driver** of Lemma 1: the product
  ``prod_u e^{-i beta H_c(u)}`` replaces the monolithic ``e^{-i beta H_d}``
  while still conserving every constraint operator expectation;
* the **equivalent decomposition** of Lemma 2 / Algorithm 1: each local
  unitary is compiled to ``G† P(beta) X_1 P(-beta) X_1 G`` where ``G`` is a
  CX/X/H converting circuit and ``P`` a multi-controlled phase gate — linear
  time and linear circuit depth in the support size.

Each term has three representations:

1. its hop pairing — the ``(a, b)`` sides of the basis states the exact
   2x2 rotation ``e^{-i beta H_c(u)}`` mixes, applied by
   :func:`rotate_pairs_cs`.  ``dense_sides`` keys strided views of the
   ``(2,)*n`` qubit tensor; ``subspace_pairing`` indexes the coordinates of a
   feasible :class:`~repro.core.subspace.SubspaceMap`, so the rotation runs
   over ``O(|F|)`` amplitudes instead of ``O(2^n)``.  Valid because every
   ``H_c(u)`` maps feasible basis states to feasible basis states
   (``C(x ± u) = C x`` for ``u`` in the nullspace), so the full operator is
   block-diagonal over ``F`` and its complement.
   :meth:`CommuteDriver.pairings` is the one entry point for a whole
   driver, on either layout; a
   :class:`~repro.hamiltonian.compiled.EvolutionProgram` compiles those
   pairings once per solver prepare and is the only simulation path;
2. ``decomposed_circuit`` — the Lemma-2 gate sequence (used for depth
   accounting, noisy execution and deployment);
3. ``to_matrix`` / ``local_matrix`` — dense matrices (used by the
   verification tests, the Opt2-off ablation circuit and the Trotter
   baseline).  The constraint operator ``C_hat`` of Eq. (3) is diagonal,
   so the tests check Theorem 1's ``[H_c(u), C_hat] = 0`` on these
   matrices directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import HamiltonianError
from repro.qcircuit.circuit import QuantumCircuit

_SIGMA = {
    +1: np.array([[0, 0], [1, 0]], dtype=complex),  # raises |0> -> |1>
    0: np.eye(2, dtype=complex),
    -1: np.array([[0, 1], [0, 0]], dtype=complex),  # lowers |1> -> |0>
}


def _hop_matrix(entries: Iterable[int]) -> np.ndarray:
    """``|v><v̄| + |v̄><v|`` over one qubit per ``u`` entry (little-endian)."""
    matrix = np.array([[1.0]], dtype=complex)
    for entry in reversed(tuple(entries)):
        matrix = np.kron(matrix, _SIGMA[entry])
    return matrix + matrix.conj().T


@dataclass(frozen=True)
class CommuteHamiltonianTerm:
    """The local commute Hamiltonian ``H_c(u)`` for one solution vector ``u``.

    Attributes:
        u: tuple of entries in ``{-1, 0, +1}``; length equals the register
            size.  Non-zero entries form the *support* of the term.
    """

    u: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.u:
            raise HamiltonianError("u must be non-empty")
        for entry in self.u:
            if entry not in (-1, 0, 1):
                raise HamiltonianError(f"u entries must be in {{-1, 0, 1}}, got {entry!r}")
        if all(entry == 0 for entry in self.u):
            raise HamiltonianError("u must have at least one non-zero entry")

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        return len(self.u)

    @cached_property
    def support(self) -> tuple[int, ...]:
        """Indices of the qubits the term acts on (non-zero entries of u)."""
        return tuple(i for i, entry in enumerate(self.u) if entry != 0)

    @property
    def num_nonzero(self) -> int:
        return len(self.support)

    @cached_property
    def v_bits(self) -> tuple[int, ...]:
        """The target bit pattern ``v_i = (1 + u_i)/2`` on the support (Eq. 12)."""
        return tuple((1 + self.u[q]) // 2 for q in self.support)

    @cached_property
    def v_bar_bits(self) -> tuple[int, ...]:
        """The complementary pattern ``1 - v`` on the support."""
        return tuple(1 - bit for bit in self.v_bits)

    def dense_sides(self) -> tuple[tuple, tuple]:
        """The ``v`` and ``v̄`` sides as basic-index keys into the ``(2,)*n`` state view.

        ``Ellipsis`` (batch axes; a full-register support gives a 0-d view),
        then per axis ``a`` — qubit ``n-1-a`` — the side's bit or a full slice.
        """
        bits = dict(zip(self.support, self.v_bits))
        axes = range(self.num_qubits - 1, -1, -1)
        return tuple(
            (Ellipsis,) + tuple(int(bits[q]) ^ flip if q in bits else slice(None) for q in axes)
            for flip in (0, 1)
        )

    # ------------------------------------------------------------------
    # Operator representations
    # ------------------------------------------------------------------

    def to_matrix(self) -> np.ndarray:
        """Dense ``2^n x 2^n`` matrix of ``H_c(u)`` (little-endian)."""
        return _hop_matrix(self.u)

    def local_matrix(self) -> np.ndarray:
        """``H_c(u)`` on its support qubits alone: a ``2^m x 2^m`` matrix.

        The qubits are ordered as in :attr:`support` (little-endian), so
        the matrix is the factor a ``unitary`` gate on ``support`` takes —
        the Opt2-off ablation circuit and the Trotter baseline both build
        their opaque local unitaries from it.
        """
        return _hop_matrix(self.u[qubit] for qubit in self.support)

    # ------------------------------------------------------------------
    # Subspace-restricted evolution (feasible-subspace backend)
    # ------------------------------------------------------------------

    def subspace_pairing(self, subspace_map) -> tuple[np.ndarray, np.ndarray]:
        """The term's action as coordinate pairs of a feasible subspace.

        Returns ``(a, b)`` index arrays into the subspace coordinates of a
        :class:`~repro.core.subspace.SubspaceMap`: coordinate ``a[k]`` reads
        pattern ``v`` on the support, ``b[k]`` is the partner obtained by
        flipping the support bits to ``v̄``.  ``e^{-i beta H_c(u)}`` is the
        2x2 rotation on each such pair and the identity on every unpaired
        coordinate.  Since ``u`` lies in the constraint nullspace, the
        partner of a feasible state is always feasible; a missing partner —
        on either the ``v`` or the ``v̄`` side — means the term does not
        belong to this subspace's constraint system and raises.

        Fully vectorised: all partner rows are built in one scatter and
        resolved to coordinates by one batched search of the map's sorted
        row-key index (:meth:`SubspaceMap.coordinates_of_rows
        <repro.core.subspace.SubspaceMap.coordinates_of_rows>`).
        """
        basis = subspace_map.basis
        support = np.array(self.support, dtype=np.intp)
        v_bits = np.array(self.v_bits, dtype=np.uint8)
        support_bits = basis[:, support]
        in_v = np.all(support_bits == v_bits, axis=1)
        in_v_bar = np.all(support_bits == 1 - v_bits, axis=1)
        a_coordinates = np.nonzero(in_v)[0]
        partners = basis[a_coordinates].copy()
        partners[:, support] = 1 - v_bits
        try:
            b_coordinates = subspace_map.coordinates_of_rows(partners)
        except Exception as error:
            raise HamiltonianError(
                "the hop partner of a feasible state is missing from the "
                "subspace map; the term's u vector is not a nullspace "
                "solution of the map's constraint system"
            ) from error
        # Flipping the support bits is an involution, so the v-side partners
        # enumerate distinct v̄-side states; any surplus v̄-side state has an
        # infeasible partner and would be hopped out of the subspace.
        if int(np.count_nonzero(in_v_bar)) != len(a_coordinates):
            raise HamiltonianError(
                "a feasible state matching the v̄ pattern has no feasible hop "
                "partner; the term's u vector is not a nullspace solution of "
                "the map's constraint system"
            )
        return a_coordinates, b_coordinates

    # ------------------------------------------------------------------
    # Lemma 2 decomposition (deployment path)
    # ------------------------------------------------------------------

    def converting_circuit(self, register_size: int | None = None) -> QuantumCircuit:
        """The converting gate ``G`` of Algorithm 1 on the full register.

        ``G`` maps ``|x+>`` to ``|0 1...1>`` and ``|x->`` to ``|1 1...1>``
        (up to a sign that cancels between ``G`` and ``G†``), using one CX
        per support qubit, conditional X fix-ups, and a final H.
        """
        register_size = self.num_qubits if register_size is None else register_size
        circuit = QuantumCircuit(register_size, name="G")
        qubits = list(self.support)
        v = list(self.v_bits)
        # Turn the last m-1 support qubits into |1> (lines 5-10 of Alg. 1).
        for i in range(len(qubits) - 1, 0, -1):
            circuit.cx(qubits[i - 1], qubits[i])
            if v[i] == v[i - 1]:
                circuit.x(qubits[i])
        # Map (|0> ± |1>)/sqrt(2) on the first support qubit to |0> / |1>.
        circuit.h(qubits[0])
        return circuit

    def decomposed_circuit(
        self, beta: float, register_size: int | None = None
    ) -> QuantumCircuit:
        """The Lemma-2 circuit for ``e^{-i beta H_c(u)}``.

        Emits ``G``, then ``X_1 P(-beta) X_1`` and ``P(beta)`` (multi-controlled
        phases over the support), then ``G†``.
        """
        register_size = self.num_qubits if register_size is None else register_size
        circuit = QuantumCircuit(register_size, name=f"exp(-i b Hc{self.support})")
        qubits = list(self.support)
        first = qubits[0]
        g_circuit = self.converting_circuit(register_size)
        circuit.compose(g_circuit, qubits=range(register_size))
        neg_beta = -float(beta)
        if len(qubits) == 1:
            circuit.x(first)
            circuit.p(neg_beta, first)
            circuit.x(first)
            circuit.p(beta, first)
        else:
            controls, target = qubits[:-1], qubits[-1]
            circuit.x(first)
            circuit.mcp(neg_beta, controls, target)
            circuit.x(first)
            circuit.mcp(beta, controls, target)
        circuit.compose(g_circuit.inverse(), qubits=range(register_size))
        return circuit


def rotate_pairs_cs(state: np.ndarray, cos_b, sin_b, a_side, b_side) -> None:
    """Rotate paired amplitudes of ``state`` in place by ``[[cos, -i sin], [-i sin, cos]]``.

    **In-place contract:** the rotated amplitudes are written back into
    ``state`` and the function returns ``None``; a caller that must keep
    its input passes ``state.copy()``.  A side is a coordinate array into
    a ``(..., dim)`` state or a :meth:`~CommuteHamiltonianTerm.dense_sides`
    key into a ``(..., 2, ..., 2)`` one, read as a view, not gathered.
    Both sides are read (strided views copied contiguous) and both rotated
    before either is written, and the sides are disjoint, so the result is
    bit-identical to int64 gather/scatter into an untouched copy.

    ``cos_b`` / ``sin_b`` are the precomputed cosine and sine of the angle:
    a compiled :class:`~repro.hamiltonian.compiled.EvolutionProgram`
    evaluates them once per layer and reuses them across every term.  For a
    batch of states they may be arrays of per-row values, and every row
    sees exactly the elementwise operations the sequential path applies.
    The program calls this for dense keys; its coordinate terms run a
    fused gather/scatter of the same per-element arithmetic, tested bit
    for bit against this function.
    """
    if not isinstance(a_side, tuple):
        a_side, b_side = (Ellipsis, a_side), (Ellipsis, b_side)
    a_amplitudes = state[a_side]
    b_amplitudes = state[b_side]
    if not a_amplitudes.flags.c_contiguous:
        a_amplitudes, b_amplitudes = a_amplitudes.copy(), b_amplitudes.copy()
    if np.ndim(cos_b):
        row_shape = np.shape(cos_b) + (1,) * (a_amplitudes.ndim - np.ndim(cos_b))
        cos_b, sin_b = np.reshape(cos_b, row_shape), np.reshape(sin_b, row_shape)
    new_a = cos_b * a_amplitudes - 1j * sin_b * b_amplitudes
    new_b = cos_b * b_amplitudes - 1j * sin_b * a_amplitudes
    state[a_side] = new_a
    state[b_side] = new_b


# ---------------------------------------------------------------------------
# The full driver
# ---------------------------------------------------------------------------


class CommuteDriver:
    """The serialized commute driver ``prod_u e^{-i beta H_c(u)}``.

    Built from the set Delta of solution vectors of ``C u = 0`` (see
    :mod:`repro.core.nullspace`).  Its terms compile into an
    :class:`~repro.hamiltonian.compiled.EvolutionProgram` for exact
    statevector simulation; it also emits the decomposed circuit for depth
    accounting and deployment.
    """

    def __init__(self, terms: Sequence[CommuteHamiltonianTerm]):
        if not terms:
            raise HamiltonianError("a commute driver needs at least one term")
        sizes = {term.num_qubits for term in terms}
        if len(sizes) != 1:
            raise HamiltonianError("all terms must act on the same register size")
        self.terms: tuple[CommuteHamiltonianTerm, ...] = tuple(terms)
        self.num_qubits = sizes.pop()

    @classmethod
    def from_solutions(cls, solutions: Iterable[Sequence[int]]) -> "CommuteDriver":
        """Build the driver from raw ``u`` vectors."""
        terms = [CommuteHamiltonianTerm(tuple(int(x) for x in u)) for u in solutions]
        return cls(terms)

    # ------------------------------------------------------------------

    @property
    def total_nonzeros(self) -> int:
        """Total number of non-zero entries across all solution vectors.

        Section IV-C observes that the decomposed circuit depth is
        proportional to this quantity, which drives the variable-elimination
        heuristic.
        """
        return sum(term.num_nonzero for term in self.terms)

    def hamiltonian_matrix(self) -> np.ndarray:
        """Dense matrix of the *summed* driver ``H_d = sum_u H_c(u)``."""
        dim = 2**self.num_qubits
        matrix = np.zeros((dim, dim), dtype=complex)
        for term in self.terms:
            matrix += term.to_matrix()
        return matrix

    # ------------------------------------------------------------------

    def pairings(self, subspace_map=None) -> tuple[tuple, ...]:
        """Every term's ``(a, b)`` hop sides, in term order.

        Without a map they key the dense ``(2,)*n`` qubit tensor
        (:meth:`CommuteHamiltonianTerm.dense_sides`); with a feasible
        :class:`~repro.core.subspace.SubspaceMap` they index its ``|F|``
        coordinates (:meth:`CommuteHamiltonianTerm.subspace_pairing`).  A
        compiled :class:`~repro.hamiltonian.compiled.EvolutionProgram`
        takes them as they are, so this is resolved once per solver
        prepare.
        """
        if subspace_map is None:
            return tuple(term.dense_sides() for term in self.terms)
        if self.num_qubits != subspace_map.num_variables:
            raise HamiltonianError("the driver register size does not match the subspace map")
        return tuple(term.subspace_pairing(subspace_map) for term in self.terms)

    def serialized_circuit(self, beta: float) -> QuantumCircuit:
        """The decomposed circuit of the whole serialized driver."""
        circuit = QuantumCircuit(self.num_qubits, name="commute_driver")
        for term in self.terms:
            block = term.decomposed_circuit(beta, register_size=self.num_qubits)
            circuit.compose(block, qubits=range(self.num_qubits))
        return circuit
