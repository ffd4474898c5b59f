"""Tests for the outcome path: exact distributions, shot histograms, histogram manipulation."""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.core.subspace import SubspaceMap
from repro.qcircuit.sampling import SampleResult, outcome_distribution, sample_histogram
from repro.qcircuit.statevector import Statevector, index_bits
from repro.solvers.variational import DenseStateBackend, SubspaceStateBackend


class TestSampleResult:
    def test_from_counts_totals_shots(self):
        result = SampleResult.from_counts({"00": 3, "11": 7})
        assert result.shots == 10
        assert result.frequencies()["11"] == pytest.approx(0.7)

    def test_dense_sample_respects_distribution(self, rng):
        state = Statevector.from_bitstring([1, 0, 1])
        result = DenseStateBackend(3).sample(state.data, 50, rng)
        assert result.counts == {"101": 50}
        assert result.shots == 50

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
        distribution = DenseStateBackend(2).exact_distribution(state.data)
        assert len(distribution) == 4
        assert sum(distribution.values()) == pytest.approx(1.0)

    def test_floor_drops_negligible_outcomes_in_index_order(self):
        probabilities = np.array([0.25, 1e-12, 0.0, 0.75, 2e-12])
        distribution = outcome_distribution(probabilities, partial(index_bits, num_qubits=3))
        assert list(distribution.items()) == [("000", 0.25), ("110", 0.75), ("001", 2e-12)]

    def test_histogram_keys_follow_bits_of(self, rng):
        counts = sample_histogram(
            np.array([0.0, 1.0]), 12, lambda indices: np.array([[1, 1, 0]] * len(indices)), rng
        )
        assert counts == {"110": 12}


class TestSubspaceSampling:
    @pytest.fixture
    def one_hot_map(self) -> SubspaceMap:
        # x0 + x1 + x2 = 1: coordinates are the three one-hot bitstrings.
        return SubspaceMap.from_constraints([[1.0, 1.0, 1.0]], [1.0])

    def test_subspace_exact_distribution_lifts_coordinates(self, one_hot_map):
        amplitudes = np.sqrt([0.5, 0.5, 0.0])
        distribution = SubspaceStateBackend(one_hot_map).exact_distribution(amplitudes)
        assert distribution == {
            one_hot_map.bitstring_of(0): pytest.approx(0.5),
            one_hot_map.bitstring_of(1): pytest.approx(0.5),
        }

    def test_subspace_sample_counts(self, one_hot_map, rng):
        amplitudes = np.array([0.0, 1.0, 0.0])
        result = SubspaceStateBackend(one_hot_map).sample(amplitudes, 30, rng)
        assert result.counts == {one_hot_map.bitstring_of(1): 30}
        assert result.shots == 30

    def test_subspace_samples_match_dense_format(self, one_hot_map, rng):
        """Sampled keys are full-register feasible bitstrings."""
        amplitudes = np.full(3, np.sqrt(1.0 / 3.0))
        result = SubspaceStateBackend(one_hot_map).sample(amplitudes, 90, rng)
        assert sum(result.counts.values()) == 90
        for key in result.counts:
            assert len(key) == 3
            assert sum(int(ch) for ch in key) == 1
