"""Process-wide memo of compiled solve structures.

A solve's compile step depends on the problem's structure and the solver
config, never on the run seed: Choco-Q derives its nullspace moves and
commute driver and the serialized/decomposed driver circuit (paper §IV),
then lays out the feasible subspace and the cost diagonal.  This module
keeps the last :data:`MEMO_CAPACITY` compiled structures of the process in
one LRU, so every later seed of a structure — in a seed sweep, a plan, a
service group or a coalesced expectation sweep — goes straight to the
optimizer.  Every built-in solver's ``build_spec`` reads it through
:func:`memoized_spec`, Choco-Q's Opt3 elimination plans ride it through
:func:`memoized`, and the service's
:class:`~repro.service.coalesce.SpecCompiler` keeps no cache of its own.
The optimizer still runs on every solve: nothing here depends on a seed.

* **Key.** Derived, never hand-kept: the kind of value, the solver class,
  the canonical ``to_dict()`` JSON of the config without its ``noise``
  field and a content digest of what the build reads.  Noise acts only
  when a solve samples, so one structure solved noise-free and under any
  device profiles compiles once; the build receives the noise-free config,
  so it cannot read noise.  A problem's digest (:func:`problem_digest`) covers
  ``num_variables``, ``sense``, the objective terms and every constraint's
  coefficients and right-hand side, in their stored order (the order a
  cost diagonal sums in) and by ``repr`` (exact for floats, so ``-0.0`` and
  ``0.0`` differ).  The problem's name and variable names never reach a
  spec and are left out.  An elimination plan is keyed on the constraint
  matrix alone (:func:`matrix_digest`).
* **Seed.** A build receives the config and the problem, never the
  solver's :class:`~repro.solvers.variational.EngineOptions`, so no seed can
  reach a cached value.  Initial parameters drawn from the seed (HEA, and
  penalty QAOA without ``linear_ramp_init``) are set per call on the
  handed-out copy (:func:`with_initial_parameters`), which then compiles
  its own reference circuit, as every spec did before the memo.
* **Compile report.** A cached spec carries ``compile_reports``, one dict
  shared by every copy of the entry.
  :meth:`~repro.solvers.variational.VariationalEngine.run` fills it once
  per :class:`~repro.qcircuit.transpile.TranspileOptions` with the
  reference circuit, the transpiled depth and the modeled circuit
  duration, so a warm solve neither rebuilds the circuit nor walks it.
* **Mutation.** Cached arrays (initial state, cost diagonal, initial
  parameters, the subspace basis) are read-only, and each call gets its own
  spec copy with its own deep-copied ``metadata``, so no caller can change
  a later solve.
* **Bound.** :data:`MEMO_CAPACITY` (32) entries, least recently used out
  first.  Measured with ``tracemalloc``, a 16-qubit dense Choco-Q entry
  (K4, three layers) holds 2.1 MB: the 1 MiB initial state, the 0.5 MiB
  cost diagonal and the evolution program's 0.5 MiB level index.  Its
  compile report adds 0.1 MB once a solve has filled it.  The subspace
  entry of the same problem holds 0.02 MB before its compile report and
  0.14 MB after, and a 12-qubit dense entry (K2) 0.23 MB, so a full memo
  of 16-qubit dense structures pins about 70 MB.  A subspace entry grows
  with ``|F|``: its map holds the ``(|F|, n)`` uint8 basis plus one sorted
  copy and an int64 argsort, 3.7 MB at ``|F| = 65536`` and ``n = 24``.
* **Threads.** A lock guards lookup and insert
  (:class:`~repro.memo.LruMemo`).  Two threads missing on the same key both
  build; the first insert becomes the entry, and both return correct
  values.

:func:`structure_cache_info` reports the process-wide hit, miss and entry
counts; the service serves them through its ``stats`` operation.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import replace
from typing import Any, Callable, TypeVar

import numpy as np

from repro.core.problem import ConstrainedBinaryProblem
from repro.memo import LruMemo, MemoInfo
from repro.solvers.variational import AnsatzSpec, SubspaceStateBackend

T = TypeVar("T")

#: Entries the memo holds, as many as the service's sweep cache held
#: before the two caches became one.
MEMO_CAPACITY = 32

_MEMO = LruMemo(MEMO_CAPACITY)


def problem_digest(problem: ConstrainedBinaryProblem) -> bytes:
    """Digest of every problem field a solver's build reads (see the module docstring)."""
    tokens = (
        problem.num_variables,
        problem.sense,
        tuple(problem.objective.terms.items()),
        tuple(
            (tuple(constraint.coefficients), constraint.rhs)
            for constraint in problem.constraints
        ),
    )
    return hashlib.blake2b(repr(tokens).encode(), digest_size=20).digest()


def matrix_digest(matrix: np.ndarray) -> bytes:
    """Digest of a constraint matrix: dtype, shape and bytes."""
    digest = hashlib.blake2b(digest_size=20)
    digest.update(repr((matrix.dtype.str, matrix.shape)).encode())
    digest.update(np.ascontiguousarray(matrix).tobytes())
    return digest.digest()


def structure_cache_info() -> MemoInfo:
    """Process-wide hit, miss and entry counts of the structure memo."""
    return _MEMO.info()


def structure_misses_in_thread() -> int:
    """Memo misses (builds) the calling thread has made so far."""
    return _MEMO.thread_misses()


def clear_structure_cache() -> None:
    """Drop every entry and zero the counters (a cold process)."""
    _MEMO.clear()


def memoized(kind: str, solver, content: bytes, build: Callable[[Any], T]) -> T:
    """``build(config)``, kept per (``kind``, solver class, config, ``content``).

    ``config`` is the solver's config without its ``noise`` field: noise
    acts only when a solve samples, so variants differing only in noise
    share one entry, and ``build`` receives that noise-free config so it
    cannot read noise.  ``content`` is the digest of everything ``build``
    reads besides the config; ``build`` must not read the solver's engine
    options.
    """
    config = solver.config
    if getattr(config, "noise", None) is not None:
        config = config.replace(noise=None)
    # default=repr: a NumPy scalar in a config field keys by its repr (its
    # type included) instead of failing to serialize.
    key = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"), default=repr)
    return _MEMO.get_or_build((kind, type(solver), key, content), lambda: build(config))


def memoized_spec(
    solver, problem: ConstrainedBinaryProblem, build: Callable[[Any], tuple[AnsatzSpec, Any]]
) -> tuple[AnsatzSpec, Any]:
    """A private copy of the cached ``(spec, extra)`` of ``problem``'s structure.

    ``build(config)`` compiles the seed-free spec and anything the solver
    keeps beside it (Choco-Q's driver) from the noise-free config (see
    :func:`memoized`); a miss freezes the spec's arrays and gives it an
    empty ``compile_reports`` dict before it is stored.
    """
    spec, extra = memoized(
        "spec", solver, problem_digest(problem), lambda config: _frozen(*build(config))
    )
    return replace(spec, metadata=copy.deepcopy(spec.metadata)), extra


def with_initial_parameters(spec: AnsatzSpec, parameters: np.ndarray) -> AnsatzSpec:
    """``spec`` starting from per-call (seed-drawn) parameters.

    Its reference circuit depends on them, so the copy shares no compile
    report and the engine compiles it on every run.
    """
    return replace(spec, initial_parameters=parameters, compile_reports=None)


def _frozen(spec: AnsatzSpec, extra: Any) -> tuple[AnsatzSpec, Any]:
    arrays = [spec.initial_state, spec.cost_diagonal, spec.initial_parameters]
    if isinstance(spec.backend, SubspaceStateBackend):
        arrays.append(spec.backend.subspace_map.basis)
    for array in arrays:
        array.flags.writeable = False
    spec.compile_reports = {}
    return spec, extra
