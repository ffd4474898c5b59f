"""Dense statevector simulator.

The simulator executes a :class:`~repro.qcircuit.circuit.QuantumCircuit` on a
complex NumPy vector of length ``2**num_qubits``.  Gates are applied by
reshaping the state into a tensor and contracting the gate matrix over the
axes of its operand qubits, which keeps every gate application
``O(2**n * 4**k)`` for a ``k``-qubit gate regardless of which qubits it
touches.

Qubit ordering is little-endian (qubit 0 = least significant bit), matching
the rest of the package.  The bit-row codec here (:func:`index_bits`,
:func:`bits_index`, :func:`bitstring_keys`, :func:`key_bits`) is the one
place that order is spelled out: column ``q`` of a ``(k, n)`` 0/1 row, character ``q`` of a
histogram key and bit ``q`` of a basis index are all qubit ``q``.  The simulator also records intermediate "snapshot"
statistics used by the parallelism analysis of Fig. 9(b): the number of
computational basis states with non-negligible amplitude after each gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.exceptions import ProblemError, SimulationError
from repro.qcircuit.circuit import Instruction, QuantumCircuit

#: Probability below which a basis state does not count toward the measured
#: support (shared by :meth:`Statevector.support_size` and the simulator's
#: per-gate support trace for the Fig. 9(b) parallelism analysis).
DEFAULT_SUPPORT_TOLERANCE = 1e-9


def abs_squared(amplitudes: np.ndarray) -> np.ndarray:
    """Elementwise ``|z|^2`` without the intermediate ``np.abs`` array.

    ``z.real**2 + z.imag**2`` skips both the square root ``np.abs`` computes
    and the full-size magnitude temporary it allocates — this sits on the
    hot sampling/support path, where every histogram and support count
    reduces a complete amplitude vector.  (The optimizer's cost reduction
    deliberately keeps ``np.abs(...)**2``: the two round differently in the
    last ulp and the optimization trajectory is pinned bit-for-bit by the
    cross-backend equivalence tests.)
    """
    amplitudes = np.asarray(amplitudes)
    if np.iscomplexobj(amplitudes):
        return amplitudes.real**2 + amplitudes.imag**2
    return np.square(amplitudes).astype(float, copy=False)


def state_support_size(
    amplitudes: np.ndarray, tolerance: float = DEFAULT_SUPPORT_TOLERANCE
) -> int:
    """Number of basis states of a raw amplitude vector with probability above ``tolerance``."""
    return int(np.count_nonzero(abs_squared(amplitudes) > tolerance))


#: Fallback generator for ad-hoc/interactive sampling without a
#: caller-provided rng.  Seeded, so even unthreaded sampling reproduces
#: run-to-run; every library path threads a SeedSequence-derived rng and
#: never touches this.
_FALLBACK_RNG = np.random.default_rng(0x5EED)


def index_bits(indices, num_qubits: int) -> np.ndarray:
    """``(k, num_qubits)`` uint8 bit rows of basis indices: column ``q`` is bit ``q``.

    A scalar index gives one row.
    """
    indices = np.atleast_1d(np.asarray(indices, dtype=np.int64))
    return ((indices[:, None] >> np.arange(num_qubits)) & 1).astype(np.uint8)


def bits_index(bits) -> np.ndarray:
    """Basis index of each 0/1 bit row (last axis): the inverse of :func:`index_bits`.

    One row gives a 0-d index.
    """
    bits = np.asarray(bits, dtype=np.int64)
    return bits @ (np.int64(1) << np.arange(bits.shape[-1], dtype=np.int64))


def bitstring_keys(bits: np.ndarray) -> list[str]:
    """One histogram key per row of a ``(k, n)`` 0/1 array: character ``i`` is column ``i``."""
    bits = np.asarray(bits)
    # One UCS-4 code point per character, so the rows view as ``U{n}`` strings.
    chars = np.add(bits, ord("0"), dtype=np.uint32, casting="unsafe")
    return chars.view(f"U{bits.shape[1]}").ravel().tolist()


def key_bits(keys: list[str], n: int) -> np.ndarray:
    """The keys' first ``n`` characters as a ``(len(keys), n)`` array of 0/1.

    The inverse of :func:`bitstring_keys`.  Longer keys are truncated
    (ancilla bits); the rest must be ``0``/``1``, or :class:`ProblemError`
    names the first offending key.
    """
    # One code point per character, NUL-padded when a key is short; unsigned
    # wrap-around puts every character but '0' and '1' above 1.
    bits = np.array(keys, dtype=f"U{n}").view(np.uint32).reshape(len(keys), n) - np.uint32(ord("0"))
    bad = np.flatnonzero((bits > 1).any(axis=1))
    if bad.size:
        raise ProblemError(f"bitstring {keys[bad[0]]!r} does not start with {n} binary digits")
    return bits


def sample_histogram(
    probabilities: np.ndarray,
    shots: int,
    bits_of,
    rng: np.random.Generator | None = None,
) -> dict[str, int]:
    """Sample ``shots`` outcomes from a probability vector into a histogram.

    The single sampling loop shared by the dense and subspace histogram
    constructors; ``bits_of(indices)`` maps the sampled indices (ascending,
    distinct) to their ``(k, n)`` bit rows, one distinct row per index:
    :func:`index_bits` for the dense layout, ``subspace_map.basis[indices]``
    for a feasible subspace.
    """
    rng = _FALLBACK_RNG if rng is None else rng
    probabilities = np.asarray(probabilities, dtype=float)
    probabilities = probabilities / probabilities.sum()
    outcomes = rng.choice(len(probabilities), size=shots, p=probabilities)
    indices, counts = np.unique(outcomes, return_counts=True)
    return dict(zip(bitstring_keys(bits_of(indices)), counts.tolist()))


@dataclass
class Statevector:
    """A normalized quantum state over ``num_qubits`` qubits."""

    data: np.ndarray
    num_qubits: int

    @classmethod
    def zero_state(cls, num_qubits: int) -> "Statevector":
        """The all-zeros computational basis state ``|0...0>``."""
        data = np.zeros(2**num_qubits, dtype=complex)
        data[0] = 1.0
        return cls(data=data, num_qubits=num_qubits)

    @classmethod
    def from_bitstring(cls, bits: Sequence[int]) -> "Statevector":
        """Build a basis state from a bit assignment ``bits[i]`` for qubit i."""
        num_qubits = len(bits)
        for bit in bits:
            if bit not in (0, 1):
                raise SimulationError(f"bit values must be 0/1, got {bit!r}")
        data = np.zeros(2**num_qubits, dtype=complex)
        data[bits_index(bits)] = 1.0
        return cls(data=data, num_qubits=num_qubits)

    @classmethod
    def uniform_superposition(cls, num_qubits: int) -> "Statevector":
        """The state produced by a layer of Hadamards on ``|0...0>``."""
        dim = 2**num_qubits
        data = np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)
        return cls(data=data, num_qubits=num_qubits)

    # ------------------------------------------------------------------

    def copy(self) -> "Statevector":
        return Statevector(data=self.data.copy(), num_qubits=self.num_qubits)

    def probabilities(self) -> np.ndarray:
        """Measurement probabilities for every basis index."""
        return abs_squared(self.data)

    def expectation(self, operator: np.ndarray) -> complex:
        """Expectation value of a dense operator matrix."""
        return complex(np.vdot(self.data, operator @ self.data))

    def inner(self, other: "Statevector") -> complex:
        return complex(np.vdot(self.data, other.data))

    def fidelity(self, other: "Statevector") -> float:
        return float(abs(self.inner(other)) ** 2)

    def support_size(self, tolerance: float = DEFAULT_SUPPORT_TOLERANCE) -> int:
        """Number of basis states with probability above ``tolerance``.

        This is the "number of measured states" statistic plotted in
        Fig. 9(b) as a proxy for harvested quantum parallelism.
        """
        return state_support_size(self.data, tolerance)

    def sample_counts(self, shots: int, rng: np.random.Generator | None = None) -> dict[str, int]:
        """Sample measurement outcomes; keys are little-endian bitstrings.

        The returned keys are strings like ``"0110"`` where character ``i``
        (from the left) is the value of qubit ``i``.
        """
        return sample_histogram(
            self.probabilities(),
            shots,
            lambda indices: index_bits(indices, self.num_qubits),
            rng=rng,
        )

    def to_dict(self, tolerance: float = 1e-12) -> dict[str, complex]:
        """Sparse dictionary of non-negligible amplitudes keyed by bitstring."""
        indices = np.flatnonzero(np.abs(self.data) > tolerance)
        keys = bitstring_keys(index_bits(indices, self.num_qubits))
        return {key: complex(self.data[index]) for key, index in zip(keys, indices)}


@dataclass
class SimulationResult:
    """Output of a statevector simulation run."""

    statevector: Statevector
    support_trace: list[int] = field(default_factory=list)
    gate_count: int = 0

    def probabilities(self) -> np.ndarray:
        return self.statevector.probabilities()


class StatevectorSimulator:
    """Executes circuits by dense statevector evolution.

    Args:
        max_qubits: guard against accidentally simulating states too large to
            fit in memory; raises :class:`SimulationError` beyond this.
        record_support: when True, record the basis-state support size after
            every gate (used for the Fig. 9(b) parallelism analysis).
    """

    def __init__(self, max_qubits: int = 24, record_support: bool = False) -> None:
        self.max_qubits = max_qubits
        self.record_support = record_support

    # ------------------------------------------------------------------

    def run(
        self,
        circuit: QuantumCircuit,
        initial_state: Statevector | Sequence[int] | None = None,
    ) -> SimulationResult:
        """Simulate ``circuit`` and return the final state.

        Args:
            circuit: the circuit to execute (measurements/barriers ignored).
            initial_state: a :class:`Statevector`, a bit assignment, or
                ``None`` for ``|0...0>``.
        """
        if circuit.num_qubits > self.max_qubits:
            raise SimulationError(
                f"circuit has {circuit.num_qubits} qubits, exceeding the simulator "
                f"limit of {self.max_qubits}"
            )
        state = self._prepare_state(circuit.num_qubits, initial_state)
        support_trace: list[int] = []
        gate_count = 0
        for instruction in circuit:
            if instruction.is_directive:
                continue
            state = _apply_instruction(state, instruction, circuit.num_qubits)
            gate_count += 1
            if self.record_support:
                support_trace.append(state_support_size(state))
        final = Statevector(data=state, num_qubits=circuit.num_qubits)
        return SimulationResult(
            statevector=final, support_trace=support_trace, gate_count=gate_count
        )

    def statevector(
        self,
        circuit: QuantumCircuit,
        initial_state: Statevector | Sequence[int] | None = None,
    ) -> Statevector:
        """Convenience wrapper returning just the final state."""
        return self.run(circuit, initial_state).statevector

    # ------------------------------------------------------------------

    @staticmethod
    def _prepare_state(
        num_qubits: int, initial_state: Statevector | Sequence[int] | None
    ) -> np.ndarray:
        if initial_state is None:
            return Statevector.zero_state(num_qubits).data
        if isinstance(initial_state, Statevector):
            if initial_state.num_qubits != num_qubits:
                raise SimulationError(
                    "initial state qubit count does not match the circuit"
                )
            return initial_state.data.astype(complex).copy()
        return Statevector.from_bitstring(list(initial_state)).data


def _apply_instruction(state: np.ndarray, instruction: Instruction, num_qubits: int) -> np.ndarray:
    """Apply one gate to the dense state via tensor contraction."""
    matrix = instruction.gate.to_matrix()
    qubits = instruction.qubits
    return apply_matrix(state, matrix, qubits, num_qubits)


def apply_matrix(
    state: np.ndarray, matrix: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Apply a ``2^k x 2^k`` matrix to the given qubits of a dense state.

    The state is viewed as a rank-``n`` tensor whose axis ``a`` corresponds to
    qubit ``n - 1 - a`` (NumPy's C ordering puts the most significant bit on
    axis 0).  The gate matrix is reshaped to a rank-``2k`` tensor and
    contracted over the operand axes.
    """
    k = len(qubits)
    if matrix.shape != (2**k, 2**k):
        raise SimulationError(
            f"matrix of shape {matrix.shape} cannot act on {k} qubit(s)"
        )
    tensor = state.reshape([2] * num_qubits)
    # Gate matrix as a tensor: output axes correspond to operands in reverse
    # (operand k-1 is the most significant local bit, i.e. the first axis).
    gate_tensor = matrix.reshape([2] * (2 * k))
    # Axis of qubit q in the state tensor:
    axes = [num_qubits - 1 - q for q in qubits]
    # Contract gate input axes (the last k axes of gate_tensor, ordered from
    # most-significant operand to least) with the state axes.
    input_axes = list(range(k, 2 * k))
    # gate input axis k + j corresponds to local bit (k-1-j) => operand k-1-j
    state_axes = [axes[k - 1 - j] for j in range(k)]
    contracted = np.tensordot(gate_tensor, tensor, axes=(input_axes, state_axes))
    # tensordot puts the gate output axes first (ordered msb..lsb operand),
    # followed by the remaining state axes in their original relative order.
    remaining = [axis for axis in range(num_qubits) if axis not in state_axes]
    current_order = state_axes + remaining
    # We want to invert the permutation so axis i of the result is qubit
    # n-1-i again.
    permutation = [0] * num_qubits
    for position, axis in enumerate(current_order):
        permutation[axis] = position
    result = np.transpose(contracted, permutation)
    return result.reshape(2**num_qubits)
