"""Measurement sampling utilities.

Solvers interact with the simulator through :class:`SampleResult`, a
histogram of measured bitstrings.  Helpers here convert between probability
vectors, shot histograms, and the bit-assignment arrays the problem layer
consumes, and merge histograms from the multiple circuit executions that the
variable-elimination technique of Section IV-C requires.

Two state layouts feed this module:

* **dense** — probabilities indexed by the full ``2^n`` computational basis
  (:meth:`SampleResult.from_statevector` / :meth:`from_probabilities`);
* **subspace** — probabilities indexed by the compact coordinates of a
  :class:`~repro.core.subspace.SubspaceMap`
  (:meth:`SampleResult.from_subspace_probabilities` /
  :func:`subspace_exact_distribution`), which lift each coordinate back to
  its feasible bitstring, so downstream metrics code sees the exact same
  histogram format either way.

Merging preserves ``metadata`` (combining values key-by-key; list values
concatenate), so per-sub-circuit annotations such as the eliminated-variable
assignments of the Opt3 pipeline survive :func:`merge_results`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from repro.serialization import json_sanitize
from repro.qcircuit.statevector import (
    Statevector,
    bitstring_to_index,
    index_to_bitstring,
    sample_histogram,
)


def split_shots(shots: int, parts: int) -> list[int]:
    """Split a shot budget over ``parts`` consumers without losing any.

    The first ``shots mod parts`` entries take one extra shot, so the
    allocation always sums to ``shots`` exactly — the conservation rule the
    variable-elimination pipeline and the noise model's trajectory sampling
    share.  A budget smaller than ``parts`` leaves trailing zero entries.
    """
    base, extra = divmod(shots, parts)
    return [base + (1 if index < extra else 0) for index in range(parts)]


@dataclass
class SampleResult:
    """A histogram of measurement outcomes.

    Keys are little-endian bitstrings (character ``i`` is qubit ``i``), values
    are shot counts.  ``metadata`` carries solver-specific annotations such as
    the eliminated-variable assignment that produced the histogram.
    """

    counts: dict[str, int] = field(default_factory=dict)
    shots: int = 0
    metadata: dict = field(default_factory=dict)

    @classmethod
    def from_counts(cls, counts: Mapping[str, int], metadata: dict | None = None) -> "SampleResult":
        total = int(sum(counts.values()))
        return cls(counts=dict(counts), shots=total, metadata=dict(metadata or {}))

    @classmethod
    def from_statevector(
        cls,
        statevector: Statevector,
        shots: int,
        rng: np.random.Generator | None = None,
        metadata: dict | None = None,
    ) -> "SampleResult":
        counts = statevector.sample_counts(shots, rng=rng)
        return cls(counts=counts, shots=shots, metadata=dict(metadata or {}))

    @classmethod
    def from_probabilities(
        cls,
        probabilities: np.ndarray,
        num_qubits: int,
        shots: int,
        rng: np.random.Generator | None = None,
        metadata: dict | None = None,
    ) -> "SampleResult":
        counts = sample_histogram(
            probabilities, shots, lambda index: index_to_bitstring(index, num_qubits), rng=rng
        )
        return cls(counts=counts, shots=shots, metadata=dict(metadata or {}))

    @classmethod
    def from_subspace_probabilities(
        cls,
        probabilities: np.ndarray,
        subspace_map,
        shots: int,
        rng: np.random.Generator | None = None,
        metadata: dict | None = None,
    ) -> "SampleResult":
        """Sample a feasible-subspace distribution into a bitstring histogram.

        ``probabilities[k]`` is the probability of subspace coordinate ``k``
        of a :class:`~repro.core.subspace.SubspaceMap`; each sampled
        coordinate is lifted to its full-register bitstring key.
        """
        counts = sample_histogram(
            probabilities, shots, subspace_map.bitstring_of, rng=rng
        )
        return cls(counts=counts, shots=shots, metadata=dict(metadata or {}))

    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable form (see :mod:`repro.serialization`)."""
        return {
            "counts": {key: int(value) for key, value in self.counts.items()},
            "shots": int(self.shots),
            "metadata": json_sanitize(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SampleResult":
        """Rebuild a histogram from :meth:`to_dict` output."""
        return cls(
            counts=dict(data.get("counts", {})),
            shots=int(data.get("shots", 0)),
            metadata=dict(data.get("metadata", {})),
        )

    def frequencies(self) -> dict[str, float]:
        """Relative frequencies of each measured bitstring."""
        if self.shots == 0:
            return {}
        return {key: value / self.shots for key, value in self.counts.items()}

    def most_common(self, limit: int | None = None) -> list[tuple[str, int]]:
        ordered = sorted(self.counts.items(), key=lambda item: item[1], reverse=True)
        return ordered if limit is None else ordered[:limit]

    def assignments(self) -> list[tuple[np.ndarray, int]]:
        """Return (bit-array, count) pairs; index ``i`` of the array is x_i."""
        result = []
        for key, value in self.counts.items():
            bits = np.array([int(ch) for ch in key], dtype=int)
            result.append((bits, value))
        return result

    def probability_of_index(self, index: int, num_qubits: int) -> float:
        key = index_to_bitstring(index, num_qubits)
        if self.shots == 0:
            return 0.0
        return self.counts.get(key, 0) / self.shots

    def merge(self, other: "SampleResult") -> "SampleResult":
        """Combine two histograms (used when merging eliminated-variable runs).

        Counts add, shots add, and ``metadata`` from both operands is
        combined via :func:`combine_metadata` so annotations such as the
        Opt3 pipeline's eliminated-variable assignments are not lost.
        """
        merged = dict(self.counts)
        for key, value in other.counts.items():
            merged[key] = merged.get(key, 0) + value
        return SampleResult(
            counts=merged,
            shots=self.shots + other.shots,
            metadata=combine_metadata(self.metadata, other.metadata),
        )

    def __len__(self) -> int:
        return len(self.counts)


def combine_metadata(left: Mapping, right: Mapping) -> dict:
    """Combine two metadata dictionaries without losing either side.

    Keys unique to one side are kept as-is.  For a shared key, lists are
    treated as collections (the convention used for per-sub-circuit
    annotation lists): list values concatenate and a non-list value joins a
    list as one element, so folding any number of results through
    :func:`merge_results` always yields flat lists, never nested ones.
    Equal non-list values collapse; conflicting ones are collected into a
    list.  The collapse means the result can depend on merge grouping in
    one corner — equal scalars later meeting a list — which the annotation
    convention (every per-sub-circuit value is born as a list) avoids.
    """
    combined = dict(left)
    for key, value in right.items():
        if key not in combined:
            combined[key] = value
            continue
        existing = combined[key]
        if isinstance(existing, list) or isinstance(value, list):
            as_list = lambda v: v if isinstance(v, list) else [v]  # noqa: E731
            combined[key] = as_list(existing) + as_list(value)
        elif not _values_equal(existing, value):
            combined[key] = [existing, value]
    return combined


def _values_equal(left, right) -> bool:
    """Equality that tolerates values without scalar ``==`` (numpy arrays)."""
    try:
        return bool(left == right)
    except (TypeError, ValueError):
        return bool(np.array_equal(left, right))


def merge_results(results: Iterable[SampleResult]) -> SampleResult:
    """Merge an iterable of histograms into one (metadata included)."""
    merged = SampleResult()
    for result in results:
        merged = merged.merge(result)
    return merged


def subspace_exact_distribution(
    probabilities: np.ndarray, subspace_map, tolerance: float = 1e-12
) -> dict[str, float]:
    """Exact bitstring distribution of a feasible-subspace state.

    The subspace analogue of :func:`exact_distribution`: coordinate ``k`` of
    a :class:`~repro.core.subspace.SubspaceMap` contributes its probability
    under the coordinate's full-register bitstring key.
    """
    probabilities = np.asarray(probabilities, dtype=float)
    result: dict[str, float] = {}
    for coordinate in np.nonzero(probabilities > tolerance)[0]:
        result[subspace_map.bitstring_of(int(coordinate))] = float(
            probabilities[coordinate]
        )
    return result


def exact_distribution(statevector: Statevector) -> dict[str, float]:
    """The exact measurement distribution (no shot noise)."""
    probabilities = statevector.probabilities()
    indices = np.flatnonzero(probabilities > 1e-12)
    # All keys in one batch: qubit q is character q, as in index_to_bitstring.
    n = statevector.num_qubits
    chars = ((indices[:, None] >> np.arange(n)) & 1).astype(np.uint8) + ord("0")
    keys = chars.view(f"S{n}").ravel().astype(f"U{n}").tolist()
    return dict(zip(keys, probabilities[indices].tolist()))


def counts_to_probability_vector(counts: Mapping[str, int], num_qubits: int) -> np.ndarray:
    """Convert a counts histogram into a dense probability vector."""
    vector = np.zeros(2**num_qubits, dtype=float)
    total = sum(counts.values())
    if total == 0:
        return vector
    for key, value in counts.items():
        vector[bitstring_to_index(key)] += value / total
    return vector
