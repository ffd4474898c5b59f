"""Compile-once evolution programs for the QAOA-style ansätze.

The paper's headline claim is *latency*: the commute ansatz wins because each
optimizer iteration is cheap.  The structure of one iteration never changes
during a run — the cost diagonal, the layer count and every term's pair of
hop sides are fixed once the driver and the state layout are chosen —
so re-deriving it on every cost evaluation (``np.arange(2^n)`` plus two
boolean masks per dense term, or the full subspace pairing per restricted
term) is pure overhead.  An :class:`EvolutionProgram` factors the split
explicitly:

* **compile** (once per solver prepare): take each driver term's immutable
  ``(a, b)`` hop sides from
  :meth:`~repro.hamiltonian.commute.CommuteDriver.pairings` — dense as keys
  into the ``(2,)*n`` qubit tensor, subspace from the vectorised pairing of a
  :class:`~repro.core.subspace.SubspaceMap` — and factor the cost diagonal
  into its level table (:func:`diagonal_levels`): the distinct values
  ``levels`` and the ``level_index`` that maps every basis state to its
  level.  A K4 dense diagonal has 2^16 entries but only 90 distinct values
  (G4: 13);
* **execute** (per cost evaluation): a flat sequence of
  :func:`apply_diagonal_phase` and :func:`rotate_pairs_cs
  <repro.hamiltonian.commute.rotate_pairs_cs>` calls over the cached
  sides, with one cosine/sine evaluation per layer shared by every term.
  The phase evaluates the complex ``exp`` once per level and gathers it to
  the state's layout; each rotation reads its two sides (strided views of
  the dense state — a K4 side is one contiguous block — or a subspace
  coordinate gather) and writes the rotated pairs back into the state the
  program owns, so a term costs ``O(pairs)``, not a copy of the state.

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
* a rotation computes both rotated sides before it writes either, and the
  two sides of a hop pairing are disjoint (checked at construction), so
  writing in place reads exactly the amplitudes a copy would have kept.

Compilation only removes per-iteration recomputation, never changes an
arithmetic step.  ``benchmarks/bench_iteration_throughput.py`` measures the
resulting per-iteration speedup and records it in
``BENCH_iteration_throughput.json``.

The broadcastable state primitives (:func:`prepare_ansatz_state`,
:func:`diagonal_levels`, :func:`apply_diagonal_phase`) live here, the lowest
layer that needs them; the state primitives accept a single state
``(dim,)`` or a batch ``(k, dim)`` with per-row angles, so one program
serves the optimizer loop and the vectorised parameter-sweep path alike.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.exceptions import HamiltonianError
from repro.hamiltonian.commute import rotate_pairs_cs


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


def _key_bits(side, dimension: int) -> list:
    """A dense side key's fixed bit per qubit axis (``None``: free); raises if malformed."""
    if isinstance(side, tuple) and side[:1] == (Ellipsis,):
        bits = [None if entry == slice(None) else entry for entry in side[1:]]
        if 1 << len(bits) == dimension and all(
            bit is None or (type(bit) is int and bit in (0, 1)) for bit in bits
        ):
            return bits
    raise HamiltonianError("a dense hop side is Ellipsis, then a full slice or 0/1 per qubit axis")


def _checked_pairing(a_side, b_side, dimension: int) -> tuple:
    """One hop pairing, frozen; raises unless its two sides are disjoint and repeat no index."""
    if isinstance(a_side, tuple) or isinstance(b_side, tuple):
        a_bits, b_bits = _key_bits(a_side, dimension), _key_bits(b_side, dimension)
        if [bit is None for bit in a_bits] != [bit is None for bit in b_bits] or a_bits == b_bits:
            raise HamiltonianError("dense hop sides must fix the same axes, complementary on one")
        return a_side, b_side
    a_side, b_side = np.ascontiguousarray(a_side), np.ascontiguousarray(b_side)
    if a_side.shape != b_side.shape or a_side.ndim != 1:
        raise HamiltonianError("pair index arrays must be 1-D and equal-length")
    if a_side.size:
        both = np.concatenate((a_side, b_side))
        if int(both.max()) >= dimension or int(both.min()) < 0:
            raise HamiltonianError("pair indices exceed the program dimension")
        if np.bincount(both).max() > 1:
            raise HamiltonianError("hop pairing sides must be disjoint and repeat no index")
    return a_side, b_side


class EvolutionProgram:
    """A layered (phase, hops) ansatz compiled to cached hop sides.

    One program represents ``num_layers`` repetitions of

        ``e^{-i gamma_l H_o}  ·  prod_t  e^{-i (angle_scale * beta_l) H_t}``

    where ``H_o`` is the diagonal ``cost_diagonal`` and each hop term ``t``
    is a frozen ``(a, b)`` pair of sides: dense keys into the state viewed
    as ``(2,)*n``, or coordinate arrays into the ``(dim,)`` state.
    ``angle_scale`` absorbs constant driver prefactors such as the cyclic
    ring hop's ``XX + YY = 2 H_c(u)``.

    Build it once per solver prepare from a driver's
    :meth:`~repro.hamiltonian.commute.CommuteDriver.pairings` — dense, or
    over a subspace map — then call :meth:`execute` (or the
    :meth:`bind`-ed closure) per cost evaluation.  A dense pairing keeps
    only two ``n + 1``-entry keys per term resident; a subspace pairing
    keeps two int64 arrays of its ``O(|F|)`` pairs.
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
        self.pairings = tuple(_checked_pairing(a, b, dimension) for a, b in pairings)
        dense = {isinstance(a_side, tuple) for a_side, _ in self.pairings}
        if len(dense) > 1:
            raise HamiltonianError("a program's hop sides are all dense keys or all arrays")
        self._view_shape = (2,) * (dimension.bit_length() - 1) if True in dense else (dimension,)
        self.num_layers = int(num_layers)
        self.cost_diagonal = cost_diagonal
        self.levels, self.level_index = diagonal_levels(cost_diagonal)
        self.angle_scale = float(angle_scale)

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
        term's pairs in place through one reshaped view.  The rotations
        write only into the state this call owns — a fresh copy of
        ``initial_state``, replaced by each layer's phase — never into
        ``initial_state``, the cost diagonal or an array an earlier call
        returned.  Both steps are bit-identical to
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
            shaped = state.reshape(state.shape[:-1] + self._view_shape)
            for a_side, b_side in self.pairings:
                rotate_pairs_cs(shaped, cos_b, sin_b, a_side, b_side)
        return state

    def bind(self, initial_state: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """The ``evolve(parameters)`` closure an :class:`AnsatzSpec` carries.

        Like :meth:`execute` it takes one ``(2L,)`` vector or a ``(k, 2L)``
        batch, which is the one evolution contract every ansatz offers.
        """

        def evolve(parameters: np.ndarray) -> np.ndarray:
            return self.execute(initial_state, parameters)

        return evolve

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EvolutionProgram(num_layers={self.num_layers}, "
            f"dimension={self.dimension}, num_terms={self.num_terms})"
        )
