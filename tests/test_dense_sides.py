"""Dense hop sides as views of the qubit tensor, pinned to the int64 reference.

:meth:`~repro.hamiltonian.commute.CommuteHamiltonianTerm.dense_sides` keys a
term's ``v`` and ``v̄`` sides into the state viewed as ``(2,)*n``, and an
:class:`~repro.hamiltonian.compiled.EvolutionProgram` over those keys
rotates strided views instead of gathering through
:func:`~repro.hamiltonian.commute.dense_term_pairing`'s int64 arrays.  The
same program class still runs the int64 arrays, so each test here builds
both programs and requires ``tobytes()`` equality on the edge shapes a key
can take: a support covering the whole register (0-d sides), a 1-qubit
register, supports touching qubit 0 and qubit ``n-1``, non-contiguous
supports, and batches of one and three rows with per-row angles.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hamiltonian.commute import (
    CommuteDriver,
    CommuteHamiltonianTerm,
    dense_term_pairing,
    rotate_pairs_cs,
)
from repro.hamiltonian.compiled import EvolutionProgram

NUM_LAYERS = 2

SUPPORT_CASES = {
    # Every qubit in the support: both sides are 0-d views.
    "full-register": [(1, -1, 1), (-1, 1, -1)],
    "one-qubit-register": [(-1,), (1,)],
    # Qubit 0 is the last (stride-1) axis, qubit n-1 the first.
    "qubit-0-and-n-1": [(1, 0, 0, 0, -1), (-1, 0, 0, 0, 0), (0, 0, 0, 0, 1)],
    "non-contiguous": [(1, 0, -1, 0, 1, 0), (0, 1, 0, 0, 0, -1), (-1, 0, 0, 1, 0, 0)],
    "single-flips": [tuple(-int(q == j) for q in range(4)) for j in range(4)],
}


def _programs(us, seed):
    terms = [CommuteHamiltonianTerm(u) for u in us]
    num_qubits = terms[0].num_qubits
    rng = np.random.default_rng(seed)
    diagonal = rng.integers(-3, 4, 2**num_qubits).astype(float)
    keyed = EvolutionProgram(NUM_LAYERS, diagonal, CommuteDriver(terms).pairings())
    gathered = EvolutionProgram(NUM_LAYERS, diagonal, [dense_term_pairing(t) for t in terms])
    state = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return keyed, gathered, state / np.linalg.norm(state), rng


@pytest.mark.parametrize("name", sorted(SUPPORT_CASES))
def test_sides_view_the_reference_indices_in_order(name):
    for u in SUPPORT_CASES[name]:
        term = CommuteHamiltonianTerm(u)
        basis = np.arange(2**term.num_qubits).reshape((2,) * term.num_qubits)
        for key, indices in zip(term.dense_sides(), dense_term_pairing(term)):
            assert np.array_equal(basis[key].ravel(), indices)


@pytest.mark.parametrize("rows", [None, 1, 3])
@pytest.mark.parametrize("name", sorted(SUPPORT_CASES))
def test_keyed_program_bytes_equal_gather_reference(name, rows):
    keyed, gathered, state, rng = _programs(SUPPORT_CASES[name], seed=len(name))
    shape = (2 * NUM_LAYERS,) if rows is None else (rows, 2 * NUM_LAYERS)
    parameters = rng.uniform(-np.pi, np.pi, shape)
    initial_bytes = state.tobytes()
    result = keyed.execute(state, parameters)
    assert result.tobytes() == gathered.execute(state, parameters).tobytes()
    assert result.shape == shape[:-1] + state.shape
    # The rotations write only into the program's own copy.
    assert state.tobytes() == initial_bytes
    assert not np.shares_memory(result, state)


def test_batch_rows_equal_each_vector_alone():
    keyed, _, state, rng = _programs(SUPPORT_CASES["non-contiguous"], seed=5)
    batch = rng.uniform(-np.pi, np.pi, (3, 2 * NUM_LAYERS))
    evolved = keyed.execute(state, batch)
    for row, parameters in zip(evolved, batch):
        assert row.tobytes() == keyed.execute(state, parameters).tobytes()


def test_full_register_rotation_on_a_shaped_state():
    # A 0-d side is a view: the in-place write lands in the caller's state.
    term = CommuteHamiltonianTerm((1, -1))
    state = np.arange(4, dtype=complex)
    reference = state.copy()
    rotate_pairs_cs(state.reshape(2, 2), np.cos(0.4), np.sin(0.4), *term.dense_sides())
    rotate_pairs_cs(reference, np.cos(0.4), np.sin(0.4), *dense_term_pairing(term))
    assert state.tobytes() == reference.tobytes()
