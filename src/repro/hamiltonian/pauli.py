"""Pauli-string algebra.

A :class:`PauliString` is a tensor product of single-qubit Pauli operators
(``I``, ``X``, ``Y``, ``Z``) with a complex coefficient; a :class:`PauliSum`
is a linear combination of Pauli strings.  The classes provide exactly the
operations the QAOA front-ends need:

* dense matrices (for small registers and for verification tests),
* products and commutators (``[A, B] = AB - BA``) — the paper's central
  correctness property is that the driver Hamiltonian commutes with the
  constraint operator,
* conversion of the cyclic driver Hamiltonian ``sum_i X_i X_{i+1} + Y_i Y_{i+1}``
  and of diagonal objective Hamiltonians into this representation.

Qubit ordering matches the simulator: qubit 0 is the least-significant bit of
a basis index.  ``PauliString("XY")`` therefore has ``X`` on qubit 0 and
``Y`` on qubit 1 (the label is read left-to-right as qubit 0, 1, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.exceptions import HamiltonianError
from repro.qcircuit.statevector import index_bits

_SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Single-qubit Pauli multiplication table: (a, b) -> (phase, result)
_PRODUCT: dict[tuple[str, str], tuple[complex, str]] = {
    ("I", "I"): (1, "I"),
    ("I", "X"): (1, "X"),
    ("I", "Y"): (1, "Y"),
    ("I", "Z"): (1, "Z"),
    ("X", "I"): (1, "X"),
    ("Y", "I"): (1, "Y"),
    ("Z", "I"): (1, "Z"),
    ("X", "X"): (1, "I"),
    ("Y", "Y"): (1, "I"),
    ("Z", "Z"): (1, "I"),
    ("X", "Y"): (1j, "Z"),
    ("Y", "X"): (-1j, "Z"),
    ("Y", "Z"): (1j, "X"),
    ("Z", "Y"): (-1j, "X"),
    ("Z", "X"): (1j, "Y"),
    ("X", "Z"): (-1j, "Y"),
}


@dataclass(frozen=True)
class PauliString:
    """A weighted tensor product of single-qubit Pauli operators."""

    label: str
    coefficient: complex = 1.0

    def __post_init__(self) -> None:
        for ch in self.label:
            if ch not in "IXYZ":
                raise HamiltonianError(f"invalid Pauli label character {ch!r}")

    # ------------------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        return len(self.label)

    @property
    def support(self) -> tuple[int, ...]:
        """Qubits on which the string acts non-trivially."""
        return tuple(i for i, ch in enumerate(self.label) if ch != "I")

    @property
    def is_diagonal(self) -> bool:
        """True when the string contains only I and Z factors."""
        return all(ch in "IZ" for ch in self.label)

    # ------------------------------------------------------------------

    def to_matrix(self) -> np.ndarray:
        """Dense matrix, little-endian (qubit 0 = least significant bit)."""
        matrix = np.array([[self.coefficient]], dtype=complex)
        # Build with qubit n-1 as the slowest (left-most kron factor).
        for ch in reversed(self.label):
            matrix = np.kron(matrix, _SINGLE[ch])
        return matrix

    def __mul__(self, other: "PauliString | complex") -> "PauliString":
        if isinstance(other, (int, float, complex)):
            return PauliString(self.label, self.coefficient * other)
        if self.num_qubits != other.num_qubits:
            raise HamiltonianError("cannot multiply Pauli strings of different sizes")
        phase: complex = 1.0
        chars = []
        for a, b in zip(self.label, other.label):
            factor, result = _PRODUCT[(a, b)]
            phase *= factor
            chars.append(result)
        return PauliString("".join(chars), self.coefficient * other.coefficient * phase)

    __rmul__ = __mul__

    def __neg__(self) -> "PauliString":
        return PauliString(self.label, -self.coefficient)

    def commutes_with(self, other: "PauliString") -> bool:
        """True when the two strings commute as operators.

        Two Pauli strings commute iff they anticommute on an even number of
        qubits.
        """
        if self.num_qubits != other.num_qubits:
            raise HamiltonianError("size mismatch in commutation check")
        anticommuting = 0
        for a, b in zip(self.label, other.label):
            if a != "I" and b != "I" and a != b:
                anticommuting += 1
        return anticommuting % 2 == 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PauliString({self.label!r}, {self.coefficient!r})"


class PauliSum:
    """A linear combination of Pauli strings over a fixed register size."""

    def __init__(self, terms: Iterable[PauliString] | None = None, num_qubits: int | None = None):
        self._terms: list[PauliString] = list(terms or [])
        if self._terms:
            sizes = {term.num_qubits for term in self._terms}
            if len(sizes) != 1:
                raise HamiltonianError("all terms must act on the same number of qubits")
            inferred = sizes.pop()
            if num_qubits is not None and num_qubits != inferred:
                raise HamiltonianError("num_qubits does not match the provided terms")
            self.num_qubits = inferred
        else:
            if num_qubits is None:
                raise HamiltonianError("empty PauliSum requires an explicit num_qubits")
            self.num_qubits = num_qubits

    # ------------------------------------------------------------------

    @property
    def terms(self) -> tuple[PauliString, ...]:
        return tuple(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[PauliString]:
        return iter(self._terms)

    def __add__(self, other: "PauliSum | PauliString") -> "PauliSum":
        if isinstance(other, PauliString):
            other = PauliSum([other])
        if other.num_qubits != self.num_qubits:
            raise HamiltonianError("cannot add Pauli sums of different sizes")
        return PauliSum(list(self._terms) + list(other._terms), num_qubits=self.num_qubits)

    def __mul__(self, scalar: complex) -> "PauliSum":
        return PauliSum(
            [PauliString(t.label, t.coefficient * scalar) for t in self._terms],
            num_qubits=self.num_qubits,
        )

    __rmul__ = __mul__

    def __matmul__(self, other: "PauliSum") -> "PauliSum":
        """Operator product of two sums (term-by-term Pauli multiplication)."""
        if other.num_qubits != self.num_qubits:
            raise HamiltonianError("cannot multiply Pauli sums of different sizes")
        products = [a * b for a in self._terms for b in other._terms]
        return PauliSum(products, num_qubits=self.num_qubits).simplify()

    # ------------------------------------------------------------------

    def simplify(self, tolerance: float = 1e-12) -> "PauliSum":
        """Merge identical labels and drop terms with negligible coefficients."""
        merged: dict[str, complex] = {}
        for term in self._terms:
            merged[term.label] = merged.get(term.label, 0.0) + term.coefficient
        terms = [
            PauliString(label, coefficient)
            for label, coefficient in merged.items()
            if abs(coefficient) > tolerance
        ]
        return PauliSum(terms, num_qubits=self.num_qubits)

    def to_matrix(self) -> np.ndarray:
        dim = 2**self.num_qubits
        matrix = np.zeros((dim, dim), dtype=complex)
        for term in self._terms:
            matrix += term.to_matrix()
        return matrix

    def is_diagonal(self) -> bool:
        return all(term.is_diagonal for term in self._terms)

    def diagonal(self) -> np.ndarray:
        """Eigenvalues of a diagonal sum, indexed by basis state."""
        if not self.is_diagonal():
            raise HamiltonianError("PauliSum is not diagonal")
        dim = 2**self.num_qubits
        values = np.zeros(dim, dtype=complex)
        bits = index_bits(np.arange(dim), self.num_qubits)
        for term in self._terms:
            sign = np.ones(dim)
            for qubit, ch in enumerate(term.label):
                if ch == "Z":
                    # int64 before the sign flip: 1 - 2 * bit wraps on uint8.
                    sign = sign * (1 - 2 * bits[:, qubit].astype(np.int64))
            values = values + term.coefficient * sign
        return values

    def commutator(self, other: "PauliSum") -> "PauliSum":
        """Return ``[self, other] = self other - other self`` (simplified)."""
        return ((self @ other) + ((other @ self) * -1.0)).simplify()

    def commutes_with(self, other: "PauliSum", tolerance: float = 1e-10) -> bool:
        commutator = self.commutator(other)
        return all(abs(term.coefficient) <= tolerance for term in commutator.terms)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PauliSum({len(self._terms)} terms, {self.num_qubits} qubits)"


# ---------------------------------------------------------------------------
# Constructors used by the solver front-ends
# ---------------------------------------------------------------------------


def single_pauli(num_qubits: int, qubit: int, kind: str, coefficient: complex = 1.0) -> PauliString:
    """A Pauli operator on one qubit, identity elsewhere."""
    if not 0 <= qubit < num_qubits:
        raise HamiltonianError(f"qubit {qubit} out of range")
    kind = kind.upper()
    if kind not in "XYZ":
        raise HamiltonianError(f"invalid Pauli kind {kind!r}")
    label = "".join(kind if i == qubit else "I" for i in range(num_qubits))
    return PauliString(label, coefficient)


def two_pauli(
    num_qubits: int,
    qubit_a: int,
    kind_a: str,
    qubit_b: int,
    kind_b: str,
    coefficient: complex = 1.0,
) -> PauliString:
    """A two-qubit Pauli product, identity elsewhere."""
    if qubit_a == qubit_b:
        raise HamiltonianError("two_pauli requires distinct qubits")
    chars = ["I"] * num_qubits
    chars[qubit_a] = kind_a.upper()
    chars[qubit_b] = kind_b.upper()
    return PauliString("".join(chars), coefficient)


def cyclic_driver_terms(num_qubits: int, qubits: list[int]) -> PauliSum:
    """The cyclic driver Hamiltonian of Eq. (2) on the given qubit chain.

    ``H_d = sum_i X_i X_{i+1} + Y_i Y_{i+1}`` over consecutive pairs of the
    chain ``qubits`` (the variables appearing in one summation-format
    constraint).
    """
    if len(qubits) < 2:
        raise HamiltonianError("cyclic driver needs at least two qubits")
    terms: list[PauliString] = []
    for a, b in zip(qubits, qubits[1:]):
        terms.append(two_pauli(num_qubits, a, "X", b, "X"))
        terms.append(two_pauli(num_qubits, a, "Y", b, "Y"))
    return PauliSum(terms, num_qubits=num_qubits)
