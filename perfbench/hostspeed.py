"""Host-speed reference: a fixed numpy kernel timed beside the measured work.

On a shared host the CPU's speed drifts by up to ~1.8x from run to run with
no steal time (CPU time per op tracks wall time).  A benchmark run times this
kernel, which uses nothing from the program under test, between its ops, and
reports a time ``t`` as ``t * (NOMINAL_MS / median(reference)) ** EXPONENT``:
the time at the host speed the kernel had when ``NOMINAL_MS`` was fixed.  A
change to the program moves the metric; a change of host speed moves the
kernel too and largely cancels out.

Of the kernels tried, elementwise work on 2^16-entry complex vectors tracked
op time best (a pure-Python dict/list loop and a small-array numpy loop
tracked it worse).  The kernel swings more than op time in some periods and
as much in others, so the scale is damped with ``EXPONENT``.  Spread of op
time (interquartile range over median) over four sets of 4-8 runs of 12-15 s,
unscaled and then scaled with exponents 0.5, 0.75 and 1 (sets a, b and
lineup-dense timed an allocating 12-round variant of the kernel, set c this
one):

=================  ======  =====  =====  =====
set                 raw     0.5    0.75   1
=================  ======  =====  =====  =====
seeds-subspace a    0.160   0.082  0.075  0.114
seeds-subspace b    0.219   0.123  0.076  0.047
seeds-subspace c    0.153   0.103  0.070  0.158
lineup-dense        0.229   0.119  0.064  0.010
=================  ======  =====  =====  =====

Over the ten-run sets in README.md, 0.75 took ``seeds-subspace`` op time
from 0.168 to 0.043 and ``seeds-dense`` from 0.170 to 0.107.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: About the kernel's median time (ms) on the 2-core x86 host the bounds
#: were set on, where it ranged from 12.9 to 24.9 ms with the host's speed.
NOMINAL_MS = 20.0
EXPONENT = 0.75
DIMENSION = 1 << 16
ROUNDS = 8

_START = np.exp(1j * np.linspace(0.0, 1.0, DIMENSION))
_PHASES = np.linspace(0.0, 3.0, DIMENSION)
# Preallocated, so the kernel's time does not depend on the allocator state
# the program under test leaves behind.
_STATE = np.empty(DIMENSION, dtype=complex)
_ROTATION = np.empty(DIMENSION, dtype=complex)


def kernel() -> complex:
    np.copyto(_STATE, _START)
    norm = 0j
    for _ in range(ROUNDS):
        np.multiply(_PHASES, 1j, out=_ROTATION)
        np.exp(_ROTATION, out=_ROTATION)
        np.multiply(_STATE, _ROTATION, out=_STATE)
        norm = np.vdot(_STATE, _STATE)
    return norm


def sample_ms() -> float:
    """Time one call of the kernel, in ms."""
    begin = time.perf_counter()
    kernel()
    return (time.perf_counter() - begin) * 1e3


def scale(reference_ms) -> float:
    """Factor that turns a time measured beside ``reference_ms`` into a time
    at nominal host speed (a rate is divided by it)."""
    if not reference_ms:
        raise ValueError("no host-speed reference samples")
    return (NOMINAL_MS / statistics.median(reference_ms)) ** EXPONENT


def around(sample, count: int, references: int = 3) -> tuple[list, list[float]]:
    """Call ``sample`` ``count`` times with ``references`` reference samples
    before the first call and after every call; return the calls' results
    and the reference samples."""
    reference_ms = [sample_ms() for _ in range(references)]
    results = []
    for _ in range(count):
        results.append(sample())
        reference_ms += [sample_ms() for _ in range(references)]
    return results, reference_ms
