"""Feasible-subspace coordinate map.

Choco-Q's central guarantee (Section III) is that the commute-Hamiltonian
evolution never leaves the feasible subspace ``F = {x in {0,1}^n : C x = c}``.
A dense statevector nevertheless carries an amplitude for every one of the
``2^n`` basis states — almost all of which are provably zero throughout the
run.  :class:`SubspaceMap` enumerates the feasible basis *once* (via the
pruned DFS of :mod:`repro.core.feasibility`) and assigns each feasible
bit assignment a compact *subspace coordinate* ``0 .. |F|-1``.

Everything the simulation path needs is then expressible over length-``|F|``
vectors:

* objective diagonals are evaluated directly on the feasible basis
  (:meth:`SubspaceMap.evaluate_polynomial`) without ever materialising the
  ``2^n`` diagonal;
* commute-Hamiltonian terms become pairing permutations over the feasible
  coordinates (see :meth:`CommuteHamiltonianTerm.subspace_pairing
  <repro.hamiltonian.commute.CommuteHamiltonianTerm.subspace_pairing>`);
* measurement distributions lift back to bitstring histograms through
  :meth:`SubspaceMap.bitstring_of`.

Because no object of size ``2^n`` is ever built, the practical qubit ceiling
is set by ``|F|`` rather than the Hilbert-space dimension, lifting the dense
simulator's ``max_qubits = 24`` cap for constrained instances.
"""

from __future__ import annotations

from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from repro.core.feasibility import iter_feasible_assignments
from repro.exceptions import InfeasibleError, ProblemError, SubspaceOverflowError

#: Chunk size (rows) of the streaming basis accumulator.  Large enough that
#: block bookkeeping is negligible, small enough that a map which overflows
#: its ``limit`` never holds more than one excess chunk in memory.
STREAM_CHUNK_ROWS = 4096


def stream_feasible_basis(
    constraint_matrix: Sequence[Sequence[float]] | np.ndarray,
    rhs: Sequence[float] | np.ndarray,
    limit: int | None = None,
    chunk_rows: int = STREAM_CHUNK_ROWS,
) -> np.ndarray:
    """Enumerate the binary solutions of ``C x = c`` into a bit matrix, lazily.

    The pruned DFS of :func:`repro.core.feasibility.iter_feasible_assignments`
    is consumed one assignment at a time into fixed-size ``uint8`` chunks —
    no intermediate list of Python tuples is ever materialised, so peak
    memory is about twice the final ``(|F|, n)`` uint8 basis (chunks plus
    the concatenated copy), far below the tuple list's cost.  As soon as
    the enumeration passes ``limit`` it aborts with
    :class:`SubspaceOverflowError` (without enumerating the rest of the
    feasible set), which is what makes an automatic dense fallback cheap for
    instances whose ``|F|`` turns out to be large.
    """
    matrix = np.atleast_2d(np.asarray(constraint_matrix, dtype=float))
    num_variables = matrix.shape[1]
    if chunk_rows < 1:
        raise ProblemError("chunk_rows must be positive")
    chunks: list[np.ndarray] = []
    current = np.empty((chunk_rows, num_variables), dtype=np.uint8)
    fill = 0
    count = 0
    for assignment in iter_feasible_assignments(matrix, rhs):
        if limit is not None and count >= limit:
            raise SubspaceOverflowError(
                f"the feasible set exceeds limit={limit}; a SubspaceMap must "
                "be complete — raise the limit or use the dense backend"
            )
        if fill == chunk_rows:
            chunks.append(current)
            # One allocation per *chunk*, amortised over chunk_rows feasible
            # assignments — streaming construction, not a per-iteration cost.
            current = np.empty((chunk_rows, num_variables), dtype=np.uint8)  # repro: ignore[hotpath]
            fill = 0
        current[fill] = assignment
        fill += 1
        count += 1
    chunks.append(current[:fill])
    return np.concatenate(chunks, axis=0) if len(chunks) > 1 else chunks[0].copy()


class SubspaceMap:
    """A bijection between feasible bit assignments and compact coordinates.

    Attributes:
        num_variables: the width ``n`` of the full register.
        basis: ``(|F|, n)`` uint8 array; row ``k`` is the bit assignment of
            subspace coordinate ``k`` (column ``i`` is variable/qubit ``i``).
    """

    def __init__(self, basis: np.ndarray, num_variables: int) -> None:
        basis = np.asarray(basis, dtype=np.uint8)
        if basis.ndim != 2 or basis.shape[1] != num_variables:
            raise ProblemError("basis must be a (|F|, num_variables) bit matrix")
        if basis.shape[0] == 0:
            raise InfeasibleError("the feasible subspace is empty")
        self.num_variables = int(num_variables)
        self.basis = basis
        # One-time map construction (the rank-lookup dict is built exactly
        # once per SubspaceMap); the solve path uses coordinates_of_rows.
        self._coordinate_by_key: dict[bytes, int] = {  # repro: ignore[hotpath]
            row.tobytes(): coordinate for coordinate, row in enumerate(basis)
        }
        if len(self._coordinate_by_key) != basis.shape[0]:
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
        partial map.  Enumeration streams through fixed-size chunks (see
        :func:`stream_feasible_basis`), so construction never holds a Python
        list of the whole feasible set.
        """
        matrix = np.atleast_2d(np.asarray(constraint_matrix, dtype=float))
        basis = stream_feasible_basis(matrix, rhs, limit=limit)
        if basis.shape[0] == 0:
            raise InfeasibleError("the constraint system C x = c has no binary solution")
        return cls(basis, matrix.shape[1])

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

    def compression_ratio(self) -> float:
        """``2^n / |F|`` — the dense-state memory/work saved by the map."""
        return float(2.0**self.num_variables / self.size)

    def coordinate_of(self, bits: Sequence[int]) -> int:
        """Subspace coordinate of a feasible bit assignment."""
        key = np.asarray(bits, dtype=np.uint8)
        if key.shape != (self.num_variables,):
            raise ProblemError("bit assignment length must equal the register size")
        try:
            return self._coordinate_by_key[key.tobytes()]
        except KeyError:
            raise InfeasibleError(
                f"assignment {tuple(int(b) for b in bits)} is not in the feasible subspace"
            ) from None

    @cached_property
    def _packed_lookup(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray] | None":
        """``(bit_weights, sorted_keys, sort_order)`` for rank lookups.

        Each basis row packs into one int64 key (the row's dense basis
        index), sorted once so membership and coordinate queries become a
        binary search instead of a per-row dict lookup.  ``None`` beyond 62
        variables, where a single word cannot hold the key — callers then
        fall back to the dict.
        """
        if self.num_variables > 62:
            return None
        weights = (np.int64(1) << np.arange(self.num_variables, dtype=np.int64))
        keys = self.full_indices()  # the same little-endian packing, reused
        order = np.argsort(keys, kind="stable")
        return weights, keys[order], order

    def coordinates_of_rows(self, rows: np.ndarray) -> np.ndarray:
        """Subspace coordinates of a batch of feasible bit rows, vectorised.

        ``rows`` is ``(m, num_variables)``; returns the length-``m`` int64
        coordinate array such that ``basis[result[i]] == rows[i]``.  The
        whole batch resolves through one packed-integer ``searchsorted``
        over the sorted key table (built lazily, once per map); any row
        outside the feasible set raises :class:`InfeasibleError` exactly
        like :meth:`coordinate_of`.
        """
        rows = np.asarray(rows, dtype=np.uint8)
        if rows.ndim != 2 or rows.shape[1] != self.num_variables:
            raise ProblemError("rows must be an (m, num_variables) bit matrix")
        lookup = self._packed_lookup
        if lookup is None:
            # > 62 variables: one int64 word per key no longer fits; fall
            # back to the exact per-row dict path.
            return np.fromiter(
                (self.coordinate_of(row) for row in rows),
                dtype=np.int64,
                count=rows.shape[0],
            )
        weights, sorted_keys, order = lookup
        keys = rows.astype(np.int64) @ weights
        positions = np.searchsorted(sorted_keys, keys)
        positions = np.minimum(positions, sorted_keys.shape[0] - 1)
        coordinates = order[positions].astype(np.int64, copy=False)
        # Verify against the basis rows rather than the packed keys alone: a
        # non-binary entry (e.g. a stray 2) can alias a different feasible
        # row's key, and such rows must raise exactly like coordinate_of.
        found = (sorted_keys[positions] == keys) & np.all(
            self.basis[coordinates] == rows, axis=1
        )
        if not np.all(found):
            missing = rows[int(np.nonzero(~found)[0][0])]
            raise InfeasibleError(
                f"assignment {tuple(int(b) for b in missing)} is not in the "
                "feasible subspace"
            )
        return coordinates

    def contains(self, bits: Sequence[int]) -> bool:
        key = np.asarray(bits, dtype=np.uint8)
        return key.shape == (self.num_variables,) and key.tobytes() in self._coordinate_by_key

    def bits_of(self, coordinate: int) -> np.ndarray:
        """Bit assignment (uint8 array) of one subspace coordinate."""
        return self.basis[coordinate]

    def bitstring_of(self, coordinate: int) -> str:
        """Little-endian bitstring key of one subspace coordinate."""
        return "".join("1" if bit else "0" for bit in self.basis[coordinate])

    def bitstrings(self) -> list[str]:
        """All coordinate bitstrings, in coordinate order."""
        return [self.bitstring_of(coordinate) for coordinate in range(self.size)]

    def full_indices(self) -> np.ndarray:
        """Dense basis index of every coordinate (requires a small register)."""
        if self.num_variables > 62:
            raise ProblemError("dense basis indices overflow beyond 62 qubits")
        weights = (1 << np.arange(self.num_variables)).astype(np.int64)
        return self.basis.astype(np.int64) @ weights

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
        :meth:`DiagonalHamiltonian.from_polynomial
        <repro.hamiltonian.diagonal.DiagonalHamiltonian.from_polynomial>`
        without building the ``2^n`` vector.
        """
        values = np.zeros(self.size, dtype=float)
        bits = self.basis.astype(float)
        for variables, coefficient in terms.items():
            if coefficient == 0:
                continue
            # Cost-diagonal compilation: runs once per (problem, map), and
            # the loop is over polynomial terms, not basis states.
            product = np.ones(self.size, dtype=float)  # repro: ignore[hotpath]
            for variable in variables:
                if not 0 <= variable < self.num_variables:
                    raise ProblemError(
                        f"variable {variable} out of range for {self.num_variables} variables"
                    )
                product = product * bits[:, variable]
            values += coefficient * product
        return values

    def restrict_diagonal(self, diagonal: np.ndarray) -> np.ndarray:
        """Gather a dense ``2^n`` diagonal onto the feasible coordinates.

        A diagonal operator's restriction to the span of the feasible basis
        states is exactly this sub-vector.  For large registers prefer
        :meth:`evaluate_polynomial`, which never materialises the ``2^n``
        vector.
        """
        diagonal = np.asarray(diagonal)
        if diagonal.shape != (2**self.num_variables,):
            raise ProblemError("diagonal length must be 2^num_variables")
        return diagonal[self.full_indices()]

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
