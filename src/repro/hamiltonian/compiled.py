"""Compile-once evolution programs for the QAOA-style ansätze.

The paper's headline claim is *latency*: the commute ansatz wins because each
optimizer iteration is cheap.  The structure of one iteration never changes
during a run — the cost diagonal, the layer count and every term's pair of
hop index arrays are fixed once the driver and the state layout are chosen —
so re-deriving it on every cost evaluation (``np.arange(2^n)`` plus two
boolean masks per dense term, or the full subspace pairing per restricted
term) is pure overhead.  An :class:`EvolutionProgram` factors the split
explicitly:

* **compile** (once per solver prepare): resolve each driver term to
  immutable ``(a, b)`` pair-index arrays — dense from the support mask,
  subspace from the vectorised pairing of a
  :class:`~repro.core.subspace.SubspaceMap` — and factor the cost diagonal
  into its level table (:func:`diagonal_levels`): the distinct values
  ``levels`` and the ``level_index`` that maps every basis state to its
  level.  A K4 dense diagonal has 2^16 entries but only 90 distinct values
  (G4: 13);
* **execute** (per cost evaluation): a flat sequence of
  :func:`apply_diagonal_phase` and :func:`rotate_pairs_cs
  <repro.hamiltonian.commute.rotate_pairs_cs>` calls over the cached
  indices, with one cosine/sine evaluation per layer shared by every term.
  The phase evaluates the complex ``exp`` once per level and gathers it to
  the state's layout; each rotation gathers its two amplitude sides and
  scatters the rotated pairs back into the state the program owns, so a
  term costs ``O(pairs)`` rather than a copy of the whole state.

The program is the one simulation path of three solvers: Choco-Q's
serialized driver, the cyclic baseline's ring hops (``angle_scale=2``), and
the penalty baseline's transverse-field mixer, whose ``e^{-i beta X_j}`` is
the commute term of the single-bit flip ``u = -e_j``.  Execution is
*bit-identical* to rebuilding the pairings on every call, to an ``exp`` over
every diagonal entry and to rotating into a fresh copy per term (asserted in
``tests/test_compiled_evolution.py`` and ``tests/test_phase_gather.py``):

* the level table is keyed on the float64 *bit pattern*, so every basis
  state's ``exp`` input is the very product ``-1j * gamma * value`` the
  full-length expression forms, and elementwise ``exp`` maps equal inputs
  to equal outputs;
* a rotation reads both sides into temporaries before it writes either, and
  the two sides of a hop pairing are disjoint, so writing in place reads
  exactly the amplitudes a copy would have kept.

Compilation only removes per-iteration recomputation, never changes an
arithmetic step.  ``benchmarks/bench_iteration_throughput.py`` measures the
resulting per-iteration speedup and records it in
``BENCH_iteration_throughput.json``.

The broadcastable state primitives (:func:`prepare_ansatz_state`,
:func:`diagonal_levels`, :func:`apply_diagonal_phase`) live here — the lowest
layer that needs them — and are re-exported by
:mod:`repro.solvers.variational` for the solver front-ends; the state
primitives accept a single state ``(dim,)`` or a batch ``(k, dim)`` with
per-row angles, so one program serves the optimizer loop and the vectorised
parameter-sweep path alike.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.exceptions import HamiltonianError
from repro.hamiltonian.commute import (  # noqa: F401  (dense_term_pairing re-exported: it is the compiled layer's dense compile step)
    CommuteDriver,
    CommuteHamiltonianTerm,
    dense_term_pairing,
    rotate_pairs_cs,
)


def prepare_ansatz_state(
    initial_state: np.ndarray, parameters: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Normalise an evolve closure's inputs for the scalar or batched path.

    Returns ``(parameters, state)`` where ``parameters`` is a float array
    and ``state`` is a writable copy of ``initial_state`` — broadcast to
    one row per parameter vector when ``parameters`` is a ``(k, 2L)``
    batch.  Callers slice per-layer angles as ``parameters[..., index]``
    afterwards, so the same loop body serves both shapes.
    """
    parameters = np.asarray(parameters, dtype=float)
    if parameters.ndim == 1:
        return parameters, initial_state.copy()
    return parameters, np.broadcast_to(
        initial_state, parameters.shape[:-1] + initial_state.shape
    ).copy()


def diagonal_levels(diagonal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor a diagonal into ``(levels, level_index)`` with ``levels[level_index] == diagonal``.

    ``levels`` holds the distinct float64 values and ``level_index`` maps
    every entry to its level.  The factorisation is keyed on the float64
    *bit pattern*, not on numeric equality, so the gather reproduces the
    diagonal bit for bit: ``-0.0`` and ``0.0`` stay separate levels, and
    every NaN payload keeps its own.
    """
    diagonal = np.ascontiguousarray(diagonal, dtype=np.float64)
    keys, level_index = np.unique(diagonal.view(np.uint64), return_inverse=True)
    return keys.view(np.float64), level_index


def apply_diagonal_phase(
    state: np.ndarray, gamma, levels: np.ndarray, level_index: np.ndarray
) -> np.ndarray:
    """Apply ``e^{-i gamma H}`` for a diagonal ``H`` given as its level table.

    The one phase-separation primitive shared by the dense and subspace
    layouts: ``levels, level_index`` come from :func:`diagonal_levels` of
    the backend-dimension diagonal, ``state`` is one vector ``(dim,)`` or a
    batch ``(k, dim)``, and ``gamma`` is a scalar or ``k`` per-row angles.
    The complex ``exp`` runs once per distinct level and is gathered to the
    state's layout; since the levels are keyed on bit patterns, each
    gathered factor is bitwise the ``exp`` of the same product the
    full-length ``np.exp(-1j * gamma * diagonal)`` would have formed.  Returns
    a new array; ``state`` is not modified.

    A batch is phased row by row with the sequential expression, so it is
    bit-identical to evolving each row alone.  One whole-batch product would
    not be: once its temporary reaches 256 KiB numpy reuses it in place and
    evaluates the multiply with its operands swapped, and the complex
    multiply kernel is not bitwise commutative.
    """
    gamma = np.asarray(gamma)
    if gamma.ndim == 0:
        return state * np.exp(-1j * gamma * levels)[level_index]
    return np.stack(
        [
            row * np.exp(-1j * row_gamma * levels)[level_index]
            for row, row_gamma in zip(state, gamma)
        ]
    )


class EvolutionProgram:
    """A layered (phase, hops) ansatz compiled to cached index arrays.

    One program represents ``num_layers`` repetitions of

        ``e^{-i gamma_l H_o}  ·  prod_t  e^{-i (angle_scale * beta_l) H_t}``

    where ``H_o`` is the diagonal ``cost_diagonal`` and each hop term ``t``
    is a frozen ``(a, b)`` pair-index array over the state layout (dense
    basis indices or subspace coordinates — the program is agnostic).
    ``angle_scale`` absorbs constant driver prefactors such as the cyclic
    ring hop's ``XX + YY = 2 H_c(u)``.

    Build it once per solver prepare — from the pairings of a
    :class:`~repro.solvers.variational.StateLayout`, or with
    :meth:`for_driver` for a dense driver — then call :meth:`execute` (or
    the :meth:`bind`-ed closure) per cost evaluation.
    """

    def __init__(
        self,
        num_layers: int,
        cost_diagonal: np.ndarray,
        pairings: Sequence[tuple[np.ndarray, np.ndarray]],
        angle_scale: float = 1.0,
    ) -> None:
        if num_layers < 1:
            raise HamiltonianError("an evolution program needs at least one layer")
        cost_diagonal = np.ascontiguousarray(cost_diagonal)
        if cost_diagonal.ndim != 1:
            raise HamiltonianError("cost_diagonal must be a 1-D vector")
        dimension = cost_diagonal.shape[0]
        frozen: list[tuple[np.ndarray, np.ndarray]] = []
        for a_indices, b_indices in pairings:
            a_indices = np.ascontiguousarray(a_indices)
            b_indices = np.ascontiguousarray(b_indices)
            if a_indices.shape != b_indices.shape or a_indices.ndim != 1:
                raise HamiltonianError("pair index arrays must be 1-D and equal-length")
            if a_indices.size and (
                int(max(a_indices.max(), b_indices.max())) >= dimension
                or int(min(a_indices.min(), b_indices.min())) < 0
            ):
                raise HamiltonianError("pair indices exceed the program dimension")
            frozen.append((a_indices, b_indices))
        self.num_layers = int(num_layers)
        self.cost_diagonal = cost_diagonal
        self.levels, self.level_index = diagonal_levels(cost_diagonal)
        self.pairings: tuple[tuple[np.ndarray, np.ndarray], ...] = tuple(frozen)
        self.angle_scale = float(angle_scale)

    # ------------------------------------------------------------------
    # Compilation entry points
    # ------------------------------------------------------------------

    @classmethod
    def for_driver(
        cls,
        driver: CommuteDriver,
        cost_diagonal: np.ndarray,
        num_layers: int,
        angle_scale: float = 1.0,
    ) -> "EvolutionProgram":
        """Compile a dense-layout program: one support-mask pairing per term.

        The resolved index arrays stay resident for the program's lifetime —
        per term that is two int64 arrays of length ``2^(n - |support|)``,
        trading the per-call ``arange``/mask rebuild for memory that is
        negligible at the dense simulator's practical scales (~16 qubits)
        but grows toward its 24-qubit cap; past that point the subspace
        backend is the intended path anyway.
        """
        return cls(
            num_layers,
            cost_diagonal,
            [dense_term_pairing(term) for term in driver.terms],
            angle_scale=angle_scale,
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    @property
    def dimension(self) -> int:
        """Length of the state vectors the program evolves."""
        return self.cost_diagonal.shape[0]

    @property
    def num_terms(self) -> int:
        return len(self.pairings)

    def execute(self, initial_state: np.ndarray, parameters: np.ndarray) -> np.ndarray:
        """Evolve ``initial_state`` under the compiled layer sequence.

        ``parameters`` is one vector ``(2L,)`` or a batch ``(k, 2L)`` with
        the per-layer ``(gamma, beta)`` interleaving every solver uses; the
        batched case broadcasts to ``(k, dim)`` states bit-identically to
        evolving each row alone.

        Each layer phases through the compiled level table (one ``exp`` per
        distinct cost value, gathered to the layout) and then rotates every
        term's pairs in place.  The rotations write only into the state this
        call owns — a fresh copy of ``initial_state``, replaced by each
        layer's phase — never into ``initial_state``, the cost diagonal or
        an array an earlier call returned.  Both steps are bit-identical to
        a full-length ``exp`` and a copy per term: see the module docstring.
        """
        parameters, state = prepare_ansatz_state(initial_state, parameters)
        for layer in range(self.num_layers):
            gamma = parameters[..., 2 * layer]
            beta = parameters[..., 2 * layer + 1]
            state = apply_diagonal_phase(state, gamma, self.levels, self.level_index)
            # The exact angle expression of the uncompiled paths: Choco-Q
            # passes beta through untouched, the cyclic driver passes
            # 2.0 * beta — the identity-scale branch keeps the former free of
            # even a multiply-by-one rounding step.
            angle = beta if self.angle_scale == 1.0 else self.angle_scale * beta
            cos_b = np.cos(angle)
            sin_b = np.sin(angle)
            for a_indices, b_indices in self.pairings:
                rotate_pairs_cs(state, cos_b, sin_b, a_indices, b_indices)
        return state

    def bind(self, initial_state: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """The ``evolve(parameters)`` closure an :class:`AnsatzSpec` carries."""

        def evolve(parameters: np.ndarray) -> np.ndarray:
            return self.execute(initial_state, parameters)

        return evolve

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EvolutionProgram(num_layers={self.num_layers}, "
            f"dimension={self.dimension}, num_terms={self.num_terms})"
        )
