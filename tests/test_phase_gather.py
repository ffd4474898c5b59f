"""The level-table phase and the in-place pair rotation, pinned byte for byte.

:class:`~repro.hamiltonian.compiled.EvolutionProgram` phases through the
cost diagonal's level table (one ``exp`` per distinct value, gathered to the
state layout) and rotates every term's pairs in place.  Both are meant to be
pure restructurings, so these tests hold a test-local copy of the kernel
they replaced — an ``exp`` over every diagonal entry and a whole-state copy
per term — and require ``tobytes()`` equality with the program, scalar and
batched, over the choco-q, cyclic and penalty specs.  A synthetic diagonal
with ``-0.0``, ``+0.0`` and repeated values pins the bit-pattern keying of
:func:`~repro.hamiltonian.compiled.diagonal_levels`.

The in-place rotation must only ever write into a state the program owns;
the ownership tests check that nothing the caller holds — the initial state,
the cost diagonal, an earlier result — is touched.
"""

from __future__ import annotations

import numpy as np
import pytest

from reference import dense_term_pairing
from solver_factories import make_chocoq_solver, make_cyclic_solver
from repro.hamiltonian.commute import CommuteHamiltonianTerm, rotate_pairs_cs
from repro.hamiltonian.compiled import (
    EvolutionProgram,
    apply_diagonal_phase,
    diagonal_levels,
    prepare_ansatz_state,
)
from repro.problems import make_benchmark
from repro.solvers.penalty_qaoa import PenaltyQAOAConfig, PenaltyQAOASolver
from repro.solvers.variational import batched_expectations, evolve_parameter_sets

NUM_LAYERS = 2


# ---------------------------------------------------------------------------
# Test-local copy of the kernel the level table and in-place rotation replaced
# ---------------------------------------------------------------------------


def _full_exp_phase(state, gamma, diagonal):
    gamma = np.asarray(gamma)
    if gamma.ndim == 0:
        return state * np.exp(-1j * gamma * diagonal)
    return np.stack(
        [row * np.exp(-1j * row_gamma * diagonal) for row, row_gamma in zip(state, gamma)]
    )


def _copying_rotation(state, cos_b, sin_b, a_coordinates, b_coordinates):
    if np.ndim(cos_b):
        cos_b = cos_b[..., np.newaxis]
        sin_b = sin_b[..., np.newaxis]
    new_state = state.copy()
    a_amplitudes = state[..., a_coordinates]
    b_amplitudes = state[..., b_coordinates]
    new_state[..., a_coordinates] = cos_b * a_amplitudes - 1j * sin_b * b_amplitudes
    new_state[..., b_coordinates] = cos_b * b_amplitudes - 1j * sin_b * a_amplitudes
    return new_state


def _coordinates(side, dimension):
    """The int64 basis indices a dense side key views; coordinate arrays pass through."""
    if not isinstance(side, tuple):
        return side
    return np.arange(dimension).reshape((2,) * (len(side) - 1))[side].ravel()


def _old_execute(program: EvolutionProgram, initial_state, parameters):
    parameters, state = prepare_ansatz_state(initial_state, parameters)
    for layer in range(program.num_layers):
        gamma = parameters[..., 2 * layer]
        beta = parameters[..., 2 * layer + 1]
        state = _full_exp_phase(state, gamma, program.cost_diagonal)
        angle = beta if program.angle_scale == 1.0 else program.angle_scale * beta
        cos_b = np.cos(angle)
        sin_b = np.sin(angle)
        for a_side, b_side in program.pairings:
            a_indices = _coordinates(a_side, program.dimension)
            b_indices = _coordinates(b_side, program.dimension)
            state = _copying_rotation(state, cos_b, sin_b, a_indices, b_indices)
    return state


# ---------------------------------------------------------------------------
# Spec builders: each returns (spec, program, initial_state) for one case
# ---------------------------------------------------------------------------


@pytest.fixture
def bound_programs(monkeypatch):
    """Record every ``(program, initial_state)`` a solver binds into its spec."""
    bound = []
    original_bind = EvolutionProgram.bind

    def spy(self, initial_state):
        bound.append((self, initial_state))
        return original_bind(self, initial_state)

    monkeypatch.setattr(EvolutionProgram, "bind", spy)
    return bound


def _chocoq(backend):
    return lambda: make_chocoq_solver(backend, num_layers=NUM_LAYERS)


def _cyclic(backend):
    return lambda: make_cyclic_solver(backend, num_layers=NUM_LAYERS)


def _penalty():
    return PenaltyQAOASolver(config=PenaltyQAOAConfig(num_layers=NUM_LAYERS))


PIN_CASES = (
    [
        pytest.param(_chocoq(backend), case, id=f"choco-q-{backend}-{case}")
        for backend in ("dense", "subspace")
        for case in ("F1", "G1", "K1", "K2", "G4", "K4")
    ]
    + [
        pytest.param(_cyclic(backend), case, id=f"cyclic-{backend}-{case}")
        for backend in ("dense", "subspace")
        for case in ("K1", "K2")
    ]
    + [pytest.param(_penalty, case, id=f"penalty-dense-{case}") for case in ("F1", "K2")]
)


def _build(make_solver, case, bound_programs):
    built = make_solver().build_spec(make_benchmark(case))
    spec = built[0] if isinstance(built, tuple) else built
    program, initial_state = bound_programs[-1]
    return spec, program, initial_state


class TestPinnedAgainstOldKernel:
    @pytest.mark.parametrize("make_solver, case", PIN_CASES)
    def test_program_bytes_equal_old_kernel(self, make_solver, case, bound_programs):
        spec, program, initial_state = _build(make_solver, case, bound_programs)
        rng = np.random.default_rng(53)
        scalar = rng.uniform(-np.pi, np.pi, size=2 * NUM_LAYERS)
        batch = rng.uniform(-np.pi, np.pi, size=(5, 2 * NUM_LAYERS))
        for parameters in (scalar, batch):
            expected = _old_execute(program, initial_state, parameters).tobytes()
            assert program.execute(initial_state, parameters).tobytes() == expected
            assert spec.evolve(parameters).tobytes() == expected

    def test_signed_zeros_and_repeats_keep_their_bits(self):
        diagonal = np.array([0.0, -0.0, 1.5, 1.5, -0.0, -2.25, 0.0, 1.5])
        levels, level_index = diagonal_levels(diagonal)
        # -0.0 and 0.0 are equal numbers but distinct levels.
        assert len(levels) == 4
        assert levels[level_index].tobytes() == diagonal.tobytes()
        # The sign of a zero survives into the phase factor's imaginary part;
        # a basis state and a batch of them keep it visible in the result.
        state = np.eye(8, dtype=complex)[3] + np.eye(8, dtype=complex)[4]
        for gamma in (0.7, -1.3, np.array([0.7, -1.3, 0.0])):
            states = state if np.ndim(gamma) == 0 else np.stack([state] * 3)
            assert (
                apply_diagonal_phase(states, gamma, levels, level_index).tobytes()
                == _full_exp_phase(states, gamma, diagonal).tobytes()
            )
        pairings = [
            dense_term_pairing(CommuteHamiltonianTerm(u))
            for u in ((1, -1, 0), (0, 1, -1), (-1, 0, 1))
        ]
        program = EvolutionProgram(3, diagonal, pairings)
        initial_state = np.eye(8, dtype=complex)[1]
        rng = np.random.default_rng(59)
        for parameters in (rng.uniform(-np.pi, np.pi, 6), rng.uniform(-np.pi, np.pi, (5, 6))):
            assert (
                program.execute(initial_state, parameters).tobytes()
                == _old_execute(program, initial_state, parameters).tobytes()
            )


# ---------------------------------------------------------------------------
# Ownership: the in-place rotation never writes into anything the caller holds
# ---------------------------------------------------------------------------


OWNERSHIP_CASES = [
    pytest.param(_chocoq("dense"), id="choco-q-dense"),
    pytest.param(_chocoq("subspace"), id="choco-q-subspace"),
    pytest.param(_cyclic("dense"), id="cyclic-dense"),
    pytest.param(_penalty, id="penalty-dense"),
]


class TestOwnership:
    def test_rotation_mutates_its_argument_and_returns_none(self):
        state = np.arange(8, dtype=complex)
        before = state.copy()
        result = rotate_pairs_cs(
            state, np.cos(0.4), np.sin(0.4), *dense_term_pairing(CommuteHamiltonianTerm((1, 0, -1)))
        )
        assert result is None
        assert not np.array_equal(state, before)

    @pytest.mark.parametrize("make_solver", OWNERSHIP_CASES)
    def test_evolve_returns_independent_arrays(self, make_solver, bound_programs):
        spec, program, initial_state = _build(make_solver, "K2", bound_programs)
        initial_bytes = spec.initial_state.tobytes()
        diagonal_bytes = spec.cost_diagonal.tobytes()
        parameters = np.random.default_rng(61).uniform(-np.pi, np.pi, 2 * NUM_LAYERS)

        first = spec.evolve(parameters)
        first_bytes = first.tobytes()
        second = spec.evolve(parameters)
        assert second.tobytes() == first_bytes
        assert not np.shares_memory(first, second)
        for owned in (spec.initial_state, initial_state, spec.cost_diagonal,
                      program.levels, program.level_index):
            assert not np.shares_memory(first, owned)

        # A later evolve at other parameters leaves the earlier result alone.
        spec.evolve(parameters[::-1].copy())
        assert first.tobytes() == first_bytes
        # Writing into a result does not leak into the next call.
        second[:] = 0.0
        assert spec.evolve(parameters).tobytes() == first_bytes

        assert spec.initial_state.tobytes() == initial_bytes
        assert spec.cost_diagonal.tobytes() == diagonal_bytes

    @pytest.mark.parametrize("make_solver", OWNERSHIP_CASES)
    def test_batched_sweep_then_scalar_evolve_unaffected(self, make_solver, bound_programs):
        spec, _, _ = _build(make_solver, "K2", bound_programs)
        initial_bytes = spec.initial_state.tobytes()
        diagonal_bytes = spec.cost_diagonal.tobytes()
        rng = np.random.default_rng(67)
        parameters = rng.uniform(-np.pi, np.pi, 2 * NUM_LAYERS)
        batch = rng.uniform(-np.pi, np.pi, (5, 2 * NUM_LAYERS))

        before = spec.evolve(parameters).tobytes()
        states = evolve_parameter_sets(spec, batch)
        batched_expectations(spec, batch)
        assert spec.evolve(parameters).tobytes() == before
        assert states.tobytes() == np.stack([spec.evolve(row) for row in batch]).tobytes()
        assert spec.initial_state.tobytes() == initial_bytes
        assert spec.cost_diagonal.tobytes() == diagonal_bytes
