"""Request coalescing: compatible pending work collapses into shared sweeps.

Two coalescing layers back the solve service:

* **Sweep coalescing** — an expectation-sweep request names an ansatz
  (solver + benchmark + config) and carries a batch of parameter vectors.
  All pending sweeps on the same ansatz collapse into *one*
  :func:`~repro.solvers.variational.batched_expectations` call over the
  stacked parameter sets: the ansatz is compiled once (and kept across
  batches in the structure memo that solves share), the ``(k_total, |F|)``
  evolution runs as a single broadcast pass, and the scores fan back out
  per request — so N clients probing the same landscape with different
  initial parameters cost one sweep.
* **Solve grouping** — full-solve specs that are identical in every
  content-hashed field *except the seed* share one compatibility key
  (:func:`solve_group_key`).  The service dispatches a whole pending group
  as a single worker task (:func:`execute_group`), so the per-process
  benchmark/optimum memoisation is shared and the executor round-trips
  amortise; each spec still executes through
  :func:`~repro.run.plan.execute_spec`, keeping every record bit-identical
  to an un-coalesced run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.exceptions import ServiceError
from repro.run.plan import HASHED_FIELDS, RunRecord, RunSpec, execute_spec
from repro.run.problems import resolve_benchmark
from repro.run.registry import make_solver
from repro.serialization import json_sanitize
from repro.solvers.structure import structure_misses_in_thread
from repro.solvers.variational import AnsatzSpec, batched_expectations

__all__ = [
    "SweepRequest",
    "SpecCompiler",
    "execute_group",
    "execute_sweep",
    "solve_group_key",
]


def solve_group_key(spec: RunSpec) -> str:
    """Compatibility key of a solve request: its spec minus the seed.

    The key covers every content-hashed :class:`RunSpec` field except
    ``seed`` (``label`` never identifies work).  Specs sharing a key
    differ only in sampling seed, so they resolve the
    same benchmark, build the same solver, and can ride one worker dispatch.
    """
    payload = {
        key: value
        for key, value in spec.to_dict().items()
        if key in HASHED_FIELDS and key != "seed"
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def execute_group(
    specs: Sequence[RunSpec],
    execute_fn: Callable[[RunSpec], RunRecord] | None = None,
) -> list[tuple[RunSpec, RunRecord | None, BaseException | None]]:
    """Execute a compatible group as one worker task.

    Per-spec failures are isolated: every spec gets a ``(spec, record,
    error)`` triple with exactly one of ``record``/``error`` set, so one
    poisoned seed cannot take down its whole group.
    """
    execute = execute_fn if execute_fn is not None else execute_spec
    outcomes: list[tuple[RunSpec, RunRecord | None, BaseException | None]] = []
    for spec in specs:
        try:
            outcomes.append((spec, execute(spec), None))
        except Exception as error:
            outcomes.append((spec, None, error))
    return outcomes


# ---------------------------------------------------------------------------
# Expectation sweeps
# ---------------------------------------------------------------------------


@dataclass
class SweepRequest:
    """One expectation-sweep request: an ansatz plus parameter vectors.

    ``parameter_sets`` is a ``(k, num_parameters)`` batch (a single vector is
    promoted to ``k = 1``); the response is the length-``k`` list of exact
    cost expectations, bit-identical to evaluating each vector alone.
    """

    solver: str
    benchmark: str
    parameter_sets: np.ndarray
    config: dict | None = None
    case_index: int = 0
    _key: str = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.parameter_sets = np.atleast_2d(np.asarray(self.parameter_sets, dtype=float))
        if self.parameter_sets.ndim != 2:
            raise ServiceError("parameter_sets must be a (k, num_parameters) array")
        payload = {
            "solver": str(self.solver).lower(),
            "benchmark": str(self.benchmark),
            "case_index": int(self.case_index),
            "config": json_sanitize(dict(self.config)) if self.config else None,
        }
        self._key = json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def coalesce_key(self) -> str:
        """Requests sharing this key evaluate the same compiled ansatz."""
        return self._key

    def to_dict(self) -> dict:
        return {
            "solver": self.solver,
            "benchmark": self.benchmark,
            "case_index": int(self.case_index),
            "config": json_sanitize(dict(self.config)) if self.config else None,
            "parameter_sets": self.parameter_sets.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepRequest":
        return cls(
            solver=data["solver"],
            benchmark=data["benchmark"],
            parameter_sets=np.asarray(data["parameter_sets"], dtype=float),
            config=data.get("config"),
            case_index=int(data.get("case_index", 0)),
        )


class SpecCompiler:
    """Resolves the compiled :class:`AnsatzSpec` of each sweep request.

    Compiling an ansatz (subspace map, pair indices, cost diagonal) is the
    expensive part of a sweep.  Every built-in solver's ``build_spec`` keeps
    its compiled structures in the process-wide structure memo
    (:mod:`repro.solvers.structure`), which solves share, so a hot key pays
    compilation once across every batch the service coalesces and every
    solve of the same structure.  ``compilations`` counts the memo misses
    this compiler's lookups caused.
    """

    def __init__(self) -> None:
        self.compilations = 0

    def spec_for(self, request: SweepRequest) -> AnsatzSpec:
        misses = structure_misses_in_thread()
        spec = self._compile(request)
        self.compilations += structure_misses_in_thread() - misses
        return spec

    def _compile(self, request: SweepRequest) -> AnsatzSpec:
        problem = resolve_benchmark(request.benchmark, request.case_index)
        solver = make_solver(request.solver, dict(request.config) if request.config else None)
        build_spec = getattr(solver, "build_spec", None)
        if build_spec is None:
            raise ServiceError(
                f"solver {request.solver!r} does not expose build_spec(); "
                "expectation sweeps need a compilable ansatz "
                "(every built-in solver has one)"
            )
        built = build_spec(problem)
        # ChocoQSolver.build_spec returns (spec, driver); the other solvers
        # return the spec alone.  Either way the first AnsatzSpec is the
        # compiled ansatz.
        spec = built[0] if isinstance(built, tuple) else built
        if not isinstance(spec, AnsatzSpec):
            raise ServiceError(
                f"solver {request.solver!r} build_spec() returned "
                f"{type(spec).__name__}, expected an AnsatzSpec"
            )
        return spec


def execute_sweep(
    compiler: SpecCompiler, requests: Sequence[SweepRequest]
) -> list[list[float]]:
    """Evaluate a coalesced batch of same-key sweeps in one broadcast pass.

    All requests must share one :meth:`SweepRequest.coalesce_key`.  Their
    parameter sets are stacked into a single
    :func:`~repro.solvers.variational.batched_expectations` call; the result
    is split back per request, each slice bit-identical to evaluating that
    request alone (batched evolution rows match sequential evolution bit for
    bit — pinned in ``tests/test_compiled_evolution.py``).
    """
    if not requests:
        return []
    keys = {request.coalesce_key() for request in requests}
    if len(keys) != 1:
        raise ServiceError("execute_sweep requires requests sharing one coalesce key")
    num_parameters = {request.parameter_sets.shape[1] for request in requests}
    if len(num_parameters) != 1:
        raise ServiceError("coalesced sweeps must agree on num_parameters")
    spec = compiler.spec_for(requests[0])
    stacked = np.vstack([request.parameter_sets for request in requests])
    scores = batched_expectations(spec, stacked)
    split: list[list[float]] = []
    offset = 0
    for request in requests:
        count = request.parameter_sets.shape[0]
        split.append([float(score) for score in scores[offset : offset + count]])
        offset += count
    return split
