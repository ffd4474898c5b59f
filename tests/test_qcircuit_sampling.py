"""Tests for sampling helpers and histogram manipulation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.subspace import SubspaceMap
from repro.qcircuit.sampling import (
    SampleResult,
    exact_distribution,
    subspace_exact_distribution,
)
from repro.qcircuit.statevector import Statevector


class TestSampleResult:
    def test_from_counts_totals_shots(self):
        result = SampleResult.from_counts({"00": 3, "11": 7})
        assert result.shots == 10
        assert result.frequencies()["11"] == pytest.approx(0.7)

    def test_from_statevector_respects_distribution(self, rng):
        state = Statevector.from_bitstring([1, 0, 1])
        result = SampleResult.from_statevector(state, shots=50, rng=rng)
        assert result.counts == {"101": 50}

    def test_most_common_ordering(self):
        result = SampleResult.from_counts({"00": 1, "01": 5, "10": 3})
        assert [key for key, _ in result.most_common()] == ["01", "10", "00"]
        assert result.most_common(1) == [("01", 5)]

    def test_assignments_returns_bit_arrays(self):
        result = SampleResult.from_counts({"10": 4})
        bits, count = result.assignments()[0]
        assert list(bits) == [1, 0]
        assert count == 4

    def test_empty_frequencies(self):
        assert SampleResult().frequencies() == {}


class TestDistributionHelpers:
    def test_exact_distribution_matches_probabilities(self):
        state = Statevector.uniform_superposition(2)
        distribution = exact_distribution(state)
        assert len(distribution) == 4
        assert sum(distribution.values()) == pytest.approx(1.0)


class TestSubspaceSampling:
    @pytest.fixture
    def one_hot_map(self) -> SubspaceMap:
        # x0 + x1 + x2 = 1: coordinates are the three one-hot bitstrings.
        return SubspaceMap.from_constraints([[1.0, 1.0, 1.0]], [1.0])

    def test_subspace_exact_distribution_lifts_coordinates(self, one_hot_map):
        probabilities = np.array([0.5, 0.5, 0.0])
        distribution = subspace_exact_distribution(probabilities, one_hot_map)
        assert distribution == {
            one_hot_map.bitstring_of(0): 0.5,
            one_hot_map.bitstring_of(1): 0.5,
        }

    def test_from_subspace_probabilities_counts(self, one_hot_map, rng):
        probabilities = np.array([0.0, 1.0, 0.0])
        result = SampleResult.from_subspace_probabilities(
            probabilities, one_hot_map, shots=30, rng=rng
        )
        assert result.counts == {one_hot_map.bitstring_of(1): 30}
        assert result.shots == 30

    def test_subspace_samples_match_dense_format(self, one_hot_map, rng):
        """Sampled keys are full-register feasible bitstrings."""
        probabilities = np.full(3, 1.0 / 3.0)
        result = SampleResult.from_subspace_probabilities(
            probabilities, one_hot_map, shots=90, rng=rng
        )
        assert sum(result.counts.values()) == 90
        for key in result.counts:
            assert len(key) == 3
            assert sum(int(ch) for ch in key) == 1
