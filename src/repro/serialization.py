"""JSON-sanitization helpers shared by the serializable result types.

Solver results carry numpy scalars, numpy arrays and tuples in their
metadata (initial assignments, shot allocations, frozen-variable pairs...).
:func:`json_sanitize` normalizes such a structure into plain JSON types so
``to_dict()`` outputs can be persisted by the :mod:`repro.run` experiment
runner and hashed canonically.

The mapping is lossy on purpose: tuples become lists and numpy arrays become
nested lists, so ``from_dict(to_dict(x)).to_dict() == to_dict(x)`` is the
round-trip invariant (dict-level fixed point), not object-level identity.
Values of types JSON cannot represent (a noise model, say) degrade to their
``repr`` — serialization must never be the thing that makes a run crash.
"""

from __future__ import annotations

from typing import Any

import numpy as np


def is_integer(value: Any) -> bool:
    """A Python or numpy integer, not a ``bool``: what an integer run field
    (seed, shots, case index...) read from JSON must hold before use."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def json_sanitize(value: Any) -> Any:
    """Recursively convert ``value`` into plain JSON-serializable types."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return [json_sanitize(item) for item in value.tolist()]
    if isinstance(value, dict):
        return {str(key): json_sanitize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=repr) if isinstance(value, (set, frozenset)) else value
        return [json_sanitize(item) for item in items]
    to_dict = getattr(value, "to_dict", None)
    if callable(to_dict):
        # Serializable objects (a NoiseConfig riding inside a RunSpec config
        # dict, say) flatten to their canonical dict form instead of a repr.
        return json_sanitize(to_dict())
    return repr(value)
