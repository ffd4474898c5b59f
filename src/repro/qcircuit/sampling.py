"""Measurement outcomes of a final state.

Solvers interact with the simulator through :class:`SampleResult`, a
histogram of measured bitstrings.  Every final state — dense, feasible
subspace or noisy trajectory — becomes outcomes through one function per
kind of outcome:

* :func:`outcome_distribution` — the exact bitstring distribution;
* :func:`sample_histogram` — a ``shots``-sized bitstring histogram.

Both take the state's probability vector and the layout's row map
``bits_of(indices) -> (k, n)`` uint8 bit rows, the only thing a layout
supplies: ``index_bits(indices, n)`` for a dense ``2^n`` state (ideal or
noisy), ``subspace_map.basis[indices]`` for the compact coordinates of a
:class:`~repro.core.subspace.SubspaceMap`.  The kept indices' keys all come
from one :func:`~repro.qcircuit.statevector.bitstring_keys` call, so
downstream metrics code sees one histogram format.  :func:`split_shots`
divides a shot budget over the circuit executions that the
variable-elimination technique of Section IV-C requires (and over the noise
model's trajectories); each caller sums its partial histograms itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.serialization import json_sanitize
from repro.qcircuit.statevector import bitstring_keys, key_bits

#: Fallback generator for ad-hoc/interactive sampling without a
#: caller-provided rng.  Seeded, so even unthreaded sampling reproduces
#: run-to-run; every library path threads a SeedSequence-derived rng and
#: never touches this.
_FALLBACK_RNG = np.random.default_rng(0x5EED)


def outcome_distribution(probabilities: np.ndarray, bits_of) -> dict[str, float]:
    """The exact bitstring distribution of a probability vector (no shot noise).

    ``bits_of(indices)`` maps ascending, distinct indices to their ``(k,
    n)`` bit rows.  Indices whose probability does not exceed ``1e-12`` are
    left out; the rest contribute their probability under the key of their
    bit row, in index order.
    """
    probabilities = np.asarray(probabilities, dtype=float)
    indices = np.flatnonzero(probabilities > 1e-12)
    keys = bitstring_keys(bits_of(indices))
    return dict(zip(keys, probabilities[indices].tolist()))


def sample_histogram(
    probabilities: np.ndarray,
    shots: int,
    bits_of,
    rng: np.random.Generator | None = None,
) -> dict[str, int]:
    """Sample ``shots`` outcomes from a probability vector into a histogram.

    The one sampling loop: one ``rng.choice`` draw of all ``shots``, then
    one key per distinct sampled index, in index order (``bits_of`` as in
    :func:`outcome_distribution`).
    """
    rng = _FALLBACK_RNG if rng is None else rng
    probabilities = np.asarray(probabilities, dtype=float)
    probabilities = probabilities / probabilities.sum()
    outcomes = rng.choice(len(probabilities), size=shots, p=probabilities)
    indices, counts = np.unique(outcomes, return_counts=True)
    return dict(zip(bitstring_keys(bits_of(indices)), counts.tolist()))


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
