"""Tests for the phase-insensitive comparison helpers in ``tests/reference.py``.

These helpers back the transpiler-equivalence assertions across the suite,
so a helper that accepted everything would silently pass those tests.
"""

from __future__ import annotations

import numpy as np
import pytest

from reference import (
    global_phase_equal,
    operators_equal_up_to_phase,
    random_statevector,
)


class TestGlobalPhaseEqual:
    def test_equal_vectors(self):
        state = random_statevector(3, seed=1)
        assert global_phase_equal(state, state)

    def test_phase_rotated_vectors_are_equal(self):
        state = random_statevector(3, seed=2)
        rotated = np.exp(1j * 0.7) * state
        assert global_phase_equal(state, rotated)

    def test_genuinely_different_vectors(self):
        assert not global_phase_equal(
            random_statevector(3, seed=3), random_statevector(3, seed=4)
        )

    def test_shape_mismatch(self):
        assert not global_phase_equal(
            random_statevector(2, seed=5), random_statevector(3, seed=5)
        )

    def test_non_unit_scaling_is_not_a_phase(self):
        state = random_statevector(2, seed=6)
        assert not global_phase_equal(state, 2.0 * state)

    def test_zero_reference_amplitude_falls_back_to_allclose(self):
        zero = np.zeros(4, dtype=complex)
        assert global_phase_equal(zero, zero)
        assert not global_phase_equal(zero, np.array([1.0, 0, 0, 0], dtype=complex))

    def test_tolerance_respected(self):
        state = random_statevector(2, seed=7)
        # Perturb one entry that is not the phase-reference (largest) one, so
        # the fitted global phase cannot absorb the difference.
        # large enough that allclose's default rtol cannot absorb it either
        nudged = state.copy()
        nudged[int(np.argmin(np.abs(state)))] += 1e-4
        assert not global_phase_equal(state, nudged, atol=1e-9)
        assert global_phase_equal(state, nudged, atol=1e-2)


class TestRandomStatevector:
    def test_normalized(self):
        state = random_statevector(4, seed=8)
        assert state.shape == (16,)
        assert np.linalg.norm(state) == pytest.approx(1.0)

    def test_seed_reproducibility(self):
        np.testing.assert_array_equal(
            random_statevector(3, seed=9), random_statevector(3, seed=9)
        )
        assert not np.array_equal(
            random_statevector(3, seed=9), random_statevector(3, seed=10)
        )


class TestOperatorsEqualUpToPhase:
    def test_phase_rotated_unitaries(self):
        rng = np.random.default_rng(11)
        matrix = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        unitary, _ = np.linalg.qr(matrix)
        assert operators_equal_up_to_phase(unitary, np.exp(-1j * 1.3) * unitary)

    def test_different_unitaries(self):
        identity = np.eye(2, dtype=complex)
        pauli_x = np.array([[0, 1], [1, 0]], dtype=complex)
        assert not operators_equal_up_to_phase(identity, pauli_x)

    def test_shape_mismatch(self):
        assert not operators_equal_up_to_phase(np.eye(2), np.eye(4))

    def test_zero_operator_falls_back_to_allclose(self):
        zero = np.zeros((2, 2), dtype=complex)
        assert operators_equal_up_to_phase(zero, zero)
        assert not operators_equal_up_to_phase(zero, np.eye(2, dtype=complex))

    def test_non_unit_scaling_is_not_a_phase(self):
        unitary = np.eye(3, dtype=complex)
        assert not operators_equal_up_to_phase(unitary, 3.0 * unitary)
