"""Tests for sampling helpers and histogram manipulation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.subspace import SubspaceMap
from repro.qcircuit.sampling import (
    SampleResult,
    combine_metadata,
    exact_distribution,
    merge_results,
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

    def test_merge_adds_counts(self):
        a = SampleResult.from_counts({"0": 5})
        b = SampleResult.from_counts({"0": 2, "1": 3})
        merged = a.merge(b)
        assert merged.counts == {"0": 7, "1": 3}
        assert merged.shots == 10

    def test_merge_results_helper(self):
        parts = [SampleResult.from_counts({"0": 1}) for _ in range(4)]
        assert merge_results(parts).counts == {"0": 4}

    def test_merge_preserves_metadata(self):
        a = SampleResult.from_counts({"0": 5}, metadata={"origin": "sub-0"})
        b = SampleResult.from_counts({"1": 3}, metadata={"shots_requested": 3})
        merged = a.merge(b)
        assert merged.metadata == {"origin": "sub-0", "shots_requested": 3}

    def test_merge_concatenates_list_metadata(self):
        a = SampleResult.from_counts(
            {"0": 5}, metadata={"eliminated_assignments": [{"assignment": {0: 0}}]}
        )
        b = SampleResult.from_counts(
            {"1": 3}, metadata={"eliminated_assignments": [{"assignment": {0: 1}}]}
        )
        merged = merge_results([a, b])
        assert merged.metadata["eliminated_assignments"] == [
            {"assignment": {0: 0}},
            {"assignment": {0: 1}},
        ]

    def test_merge_collects_conflicting_scalars(self):
        a = SampleResult.from_counts({"0": 1}, metadata={"tag": "left"})
        b = SampleResult.from_counts({"1": 1}, metadata={"tag": "right"})
        assert a.merge(b).metadata["tag"] == ["left", "right"]

    def test_combine_metadata_keeps_equal_values(self):
        assert combine_metadata({"k": 1}, {"k": 1}) == {"k": 1}

    def test_merge_of_many_scalars_stays_flat(self):
        """Folding conflicting scalars through merge_results must not nest."""
        parts = [
            SampleResult.from_counts({"0": 1}, metadata={"tag": tag})
            for tag in ("a", "b", "c")
        ]
        assert merge_results(parts).metadata["tag"] == ["a", "b", "c"]

    def test_combine_metadata_list_absorbs_scalar(self):
        assert combine_metadata({"k": [1, 2]}, {"k": 3}) == {"k": [1, 2, 3]}
        assert combine_metadata({"k": 1}, {"k": [2, 3]}) == {"k": [1, 2, 3]}

    def test_combine_metadata_tolerates_numpy_arrays(self):
        same = combine_metadata({"bias": np.array([1, 2])}, {"bias": np.array([1, 2])})
        assert np.array_equal(same["bias"], np.array([1, 2]))
        different = combine_metadata({"bias": np.array([1, 2])}, {"bias": np.array([3, 4])})
        assert isinstance(different["bias"], list) and len(different["bias"]) == 2

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
