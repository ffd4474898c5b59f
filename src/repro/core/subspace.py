"""Feasible-subspace coordinate map.

Choco-Q's central guarantee (Section III) is that the commute-Hamiltonian
evolution never leaves the feasible subspace ``F = {x in {0,1}^n : C x = c}``.
A dense statevector nevertheless carries an amplitude for every one of the
``2^n`` basis states — almost all of which are provably zero throughout the
run.  :class:`SubspaceMap` enumerates the feasible basis *once* (the blocks
of :func:`repro.core.feasibility.feasible_rows`, in code order) and assigns
each feasible bit assignment a compact *subspace coordinate* ``0 .. |F|-1``.

Everything the simulation path needs is then expressible over length-``|F|``
vectors:

* objective diagonals are evaluated directly on the feasible basis
  (:meth:`SubspaceMap.evaluate_polynomial`, the shared polynomial kernel
  over the basis columns) without ever materialising the ``2^n`` diagonal;
* commute-Hamiltonian terms become pairing permutations over the feasible
  coordinates (see :meth:`CommuteHamiltonianTerm.subspace_pairing
  <repro.hamiltonian.commute.CommuteHamiltonianTerm.subspace_pairing>`);
* measurement distributions lift back to bitstring histograms through
  the basis rows: coordinate ``k``'s key is
  :func:`~repro.qcircuit.statevector.bitstring_keys` of ``basis[k]``.

Assignments resolve to coordinates through one index: the basis rows viewed
as ``np.void`` byte keys and sorted once at construction.  Membership
(:meth:`SubspaceMap.contains`), single lookups
(:meth:`SubspaceMap.coordinate_of`) and batch lookups
(:meth:`SubspaceMap.coordinates_of_rows`) are all a binary search over that
table, at any register width.

Because no object of size ``2^n`` is ever built, the practical qubit ceiling
is set by ``|F|`` rather than the Hilbert-space dimension, lifting the dense
cap (:data:`~repro.qcircuit.statevector.MAX_DENSE_QUBITS`) for constrained
instances.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core.feasibility import feasible_rows
from repro.core.problem import evaluate_polynomial
from repro.exceptions import InfeasibleError, ProblemError, SubspaceOverflowError
from repro.qcircuit.statevector import bits_index, bitstring_keys


class SubspaceMap:
    """A bijection between feasible bit assignments and compact coordinates.

    Attributes:
        num_variables: the width ``n`` of the full register.
        basis: ``(|F|, n)`` uint8 array; row ``k`` is the bit assignment of
            subspace coordinate ``k`` (column ``i`` is variable/qubit ``i``).
    """

    def __init__(self, basis: np.ndarray, num_variables: int) -> None:
        basis = np.ascontiguousarray(basis, dtype=np.uint8)
        if basis.ndim != 2 or basis.shape[1] != num_variables:
            raise ProblemError("basis must be a (|F|, num_variables) bit matrix")
        if basis.shape[0] == 0:
            raise InfeasibleError("the feasible subspace is empty")
        self.num_variables = int(num_variables)
        self.basis = basis
        # The one coordinate index: each row's bytes as one np.void key,
        # sorted once, so every membership and coordinate query is a binary
        # search at any register width.  The keys view the basis, so the
        # index costs one sorted copy plus the argsort.
        keys = self._row_keys(basis)
        self._key_order = np.argsort(keys, kind="stable")
        self._sorted_keys = keys[self._key_order]
        if np.any(self._sorted_keys[1:] == self._sorted_keys[:-1]):
            raise ProblemError("the feasible basis contains duplicate assignments")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_constraints(
        cls,
        constraint_matrix: Sequence[Sequence[float]] | np.ndarray,
        rhs: Sequence[float] | np.ndarray,
        limit: int | None = None,
    ) -> "SubspaceMap":
        """Enumerate the binary solutions of ``C x = c`` into a map.

        ``limit`` is a guard, not a truncator: a map must hold the *complete*
        feasible basis (evolution and sampling renormalise over it), so if
        the feasible set exceeds ``limit`` the enumeration aborts early with
        :class:`SubspaceOverflowError` instead of returning a silently
        partial map.  The basis is the concatenation of the blocks of
        :func:`~repro.core.feasibility.feasible_rows`; an overflowing map
        holds at most one block past ``limit`` when it gives up.
        """
        blocks: list[np.ndarray] = []
        size = 0
        for block in feasible_rows(constraint_matrix, rhs):
            size += block.shape[0]
            if limit is not None and size > limit:
                raise SubspaceOverflowError(
                    f"the feasible set exceeds limit={limit}; a SubspaceMap must "
                    "be complete — raise the limit or use the dense backend"
                )
            blocks.append(block)
        if not blocks:
            raise InfeasibleError("the constraint system C x = c has no binary solution")
        basis = np.concatenate(blocks)
        return cls(basis, basis.shape[1])

    @classmethod
    def try_from_constraints(
        cls,
        constraint_matrix: Sequence[Sequence[float]] | np.ndarray,
        rhs: Sequence[float] | np.ndarray,
        limit: int | None = None,
    ) -> "SubspaceMap | None":
        """Like :meth:`from_constraints`, but ``None`` past the size limit.

        The automatic-fallback entry point: callers that can also run a dense
        simulation treat ``None`` as "the feasible set is too large for a
        subspace win — use the dense backend".  Infeasibility still raises:
        that is a property of the problem, not of the backend choice.
        """
        try:
            return cls.from_constraints(constraint_matrix, rhs, limit=limit)
        except SubspaceOverflowError:
            return None

    @classmethod
    def from_problem(cls, problem, limit: int | None = None) -> "SubspaceMap":
        """The feasible subspace of a :class:`ConstrainedBinaryProblem`.

        Unconstrained problems have the full ``2^n`` cube as their feasible
        set, which defeats the purpose of the map; they are rejected.
        ``limit`` guards against oversized feasible sets (see
        :meth:`from_constraints`).
        """
        if not problem.constraints:
            raise ProblemError(
                "an unconstrained problem has no non-trivial feasible subspace; "
                "use the dense backend"
            )
        matrix, rhs = problem.constraint_matrix()
        return cls.from_constraints(matrix, rhs, limit=limit)

    @classmethod
    def try_from_problem(cls, problem, limit: int | None = None) -> "SubspaceMap | None":
        """Like :meth:`from_problem`, but ``None`` when a map buys nothing.

        Returns ``None`` for unconstrained problems (whose feasible set is
        the whole cube) and for feasible sets larger than ``limit`` — the
        two cases where a caller with a dense path should take it.
        Infeasible constraint systems still raise :class:`InfeasibleError`.
        """
        if not problem.constraints:
            return None
        matrix, rhs = problem.constraint_matrix()
        return cls.try_from_constraints(matrix, rhs, limit=limit)

    # ------------------------------------------------------------------
    # Coordinates
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """The feasible-set cardinality ``|F|`` (the subspace dimension)."""
        return self.basis.shape[0]

    def __len__(self) -> int:
        return self.size

    def _row_keys(self, rows: np.ndarray) -> np.ndarray:
        """One ``np.void`` key per ``(m, num_variables)`` uint8 row."""
        rows = np.ascontiguousarray(rows, dtype=np.uint8)
        return rows.view(np.dtype((np.void, self.num_variables))).reshape(rows.shape[0])

    def _search(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(coordinates, found)`` of each row: a candidate and whether it matches."""
        keys = self._row_keys(rows)
        positions = np.searchsorted(self._sorted_keys, keys)
        positions = np.minimum(positions, self.size - 1)
        found = self._sorted_keys[positions] == keys
        return self._key_order[positions], found

    def coordinate_of(self, bits: Sequence[int]) -> int:
        """Subspace coordinate of a feasible bit assignment."""
        key = np.asarray(bits, dtype=np.uint8)
        if key.shape != (self.num_variables,):
            raise ProblemError("bit assignment length must equal the register size")
        return int(self.coordinates_of_rows(key[None, :])[0])

    def coordinates_of_rows(self, rows: np.ndarray) -> np.ndarray:
        """Subspace coordinates of a batch of feasible bit rows, vectorised.

        ``rows`` is ``(m, num_variables)``; returns the length-``m`` int64
        coordinate array such that ``basis[result[i]] == rows[i]``.  The
        whole batch resolves through one ``searchsorted`` over the sorted
        row-byte keys; any row outside the feasible set (including one
        holding a non-binary entry) raises :class:`InfeasibleError`.
        """
        rows = np.asarray(rows, dtype=np.uint8)
        if rows.ndim != 2 or rows.shape[1] != self.num_variables:
            raise ProblemError("rows must be an (m, num_variables) bit matrix")
        coordinates, found = self._search(rows)
        if not np.all(found):
            missing = rows[int(np.nonzero(~found)[0][0])]
            raise InfeasibleError(
                f"assignment {tuple(int(b) for b in missing)} is not in the "
                "feasible subspace"
            )
        return coordinates.astype(np.int64, copy=False)

    def contains(self, bits: Sequence[int]) -> bool:
        key = np.asarray(bits, dtype=np.uint8)
        return key.shape == (self.num_variables,) and bool(self._search(key[None, :])[1][0])

    def bits_of(self, coordinate: int) -> np.ndarray:
        """Bit assignment (uint8 array) of one subspace coordinate."""
        return self.basis[coordinate]

    def bitstring_of(self, coordinate: int) -> str:
        """Little-endian bitstring key of one subspace coordinate."""
        return bitstring_keys(self.basis[[coordinate]])[0]

    def bitstrings(self) -> list[str]:
        """All coordinate bitstrings, in coordinate order."""
        return bitstring_keys(self.basis)

    def full_indices(self) -> np.ndarray:
        """Dense basis index of every coordinate (requires a small register)."""
        if self.num_variables > 62:
            raise ProblemError("dense basis indices overflow beyond 62 qubits")
        return bits_index(self.basis)

    # ------------------------------------------------------------------
    # Vectors and diagonals
    # ------------------------------------------------------------------

    def basis_state(self, bits: Sequence[int]) -> np.ndarray:
        """The subspace statevector ``|x>`` for a feasible assignment."""
        state = np.zeros(self.size, dtype=complex)
        state[self.coordinate_of(bits)] = 1.0
        return state

    def evaluate_polynomial(self, terms: Mapping[tuple[int, ...], float]) -> np.ndarray:
        """Evaluate a binary polynomial on every feasible basis state.

        Returns the length-``|F|`` diagonal of the objective Hamiltonian
        restricted to the subspace — the exact sub-block of
        :func:`~repro.hamiltonian.diagonal.polynomial_diagonal` without
        building the ``2^n`` vector.  Both run the one kernel,
        :func:`repro.core.problem.evaluate_polynomial`, over the basis columns.
        """

        def column(variable: int) -> np.ndarray:
            if not 0 <= variable < self.num_variables:
                raise ProblemError(
                    f"variable {variable} out of range for {self.num_variables} variables"
                )
            return self.basis[:, variable]

        return evaluate_polynomial(terms, self.size, column)

    def lift_vector(self, sub_state: np.ndarray) -> np.ndarray:
        """Scatter a subspace vector into the dense ``2^n`` statevector."""
        sub_state = np.asarray(sub_state)
        if sub_state.shape != (self.size,):
            raise ProblemError("subspace vector length must equal |F|")
        dense = np.zeros(2**self.num_variables, dtype=complex)
        dense[self.full_indices()] = sub_state
        return dense

    def project_vector(self, dense_state: np.ndarray) -> np.ndarray:
        """Gather the feasible amplitudes of a dense statevector."""
        dense_state = np.asarray(dense_state)
        if dense_state.shape != (2**self.num_variables,):
            raise ProblemError("dense vector length must be 2^num_variables")
        return dense_state[self.full_indices()].astype(complex)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SubspaceMap(num_variables={self.num_variables}, size={self.size})"
