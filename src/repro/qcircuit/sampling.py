"""Measurement sampling utilities.

Solvers interact with the simulator through :class:`SampleResult`, a
histogram of measured bitstrings.  Helpers here turn probability vectors
into shot histograms and the bit-assignment arrays the problem layer
consumes, and split a shot budget over the multiple circuit executions that
the variable-elimination technique of Section IV-C requires (and over the
noise model's trajectories); each caller sums its partial histograms itself.

Two state layouts feed this module:

* **dense** — probabilities indexed by the full ``2^n`` computational basis
  (:meth:`SampleResult.from_statevector`);
* **subspace** — probabilities indexed by the compact coordinates of a
  :class:`~repro.core.subspace.SubspaceMap`
  (:meth:`SampleResult.from_subspace_probabilities` /
  :func:`subspace_exact_distribution`), whose basis rows are the
  coordinates' feasible assignments.

Either way the kept indices become ``(k, n)`` bit rows and all their keys
come from one :func:`~repro.qcircuit.statevector.bitstring_keys` call, so
downstream metrics code sees the exact same histogram format.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.serialization import json_sanitize
from repro.qcircuit.statevector import (
    Statevector,
    bitstring_keys,
    index_bits,
    key_bits,
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
            probabilities, shots, lambda coordinates: subspace_map.basis[coordinates], rng=rng
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
        keys = list(self.counts)
        if not keys:
            return []
        rows = key_bits(keys, len(keys[0])).astype(int)
        return list(zip(rows, self.counts.values()))

    def __len__(self) -> int:
        return len(self.counts)


def subspace_exact_distribution(
    probabilities: np.ndarray, subspace_map, tolerance: float = 1e-12
) -> dict[str, float]:
    """Exact bitstring distribution of a feasible-subspace state.

    The subspace analogue of :func:`exact_distribution`: coordinate ``k`` of
    a :class:`~repro.core.subspace.SubspaceMap` contributes its probability
    under the key of basis row ``k``.
    """
    probabilities = np.asarray(probabilities, dtype=float)
    coordinates = np.flatnonzero(probabilities > tolerance)
    keys = bitstring_keys(subspace_map.basis[coordinates])
    return dict(zip(keys, probabilities[coordinates].tolist()))


def exact_distribution(statevector: Statevector) -> dict[str, float]:
    """The exact measurement distribution (no shot noise)."""
    probabilities = statevector.probabilities()
    indices = np.flatnonzero(probabilities > 1e-12)
    keys = bitstring_keys(index_bits(indices, statevector.num_qubits))
    return dict(zip(keys, probabilities[indices].tolist()))
