"""Declarative experiment plans and the parallel batch runner.

The paper's evaluation is a grid of (solver x problem x seed) runs; this
module makes that grid a first-class, serializable object:

* :class:`RunSpec` — one run as pure data: solver name, config dict,
  benchmark name/case, seed, shot budget and optimizer settings.  A spec has
  a canonical JSON form and a content hash, so identical work is
  recognisable across processes and sessions.
* :class:`ExperimentPlan` — an ordered list of specs (usually built with
  :meth:`ExperimentPlan.grid`).  Specs without an explicit seed get one
  derived deterministically from the plan's ``base_seed`` via
  ``SeedSequence``-style spawn keys, so results never depend on execution
  order or worker count.
* :func:`run_plan` — executes a plan sequentially or with
  :class:`concurrent.futures.ProcessPoolExecutor` workers.  Completed runs
  are appended to a JSONL file as they finish; re-running the same plan
  against the same file skips every spec whose content hash is already
  recorded (crash-safe resume, and a content-addressed result cache).
* :func:`shard_plan` / :func:`merge_records` — the zero-coordination farm
  layer: shard ``i`` of ``n`` owns exactly the specs whose content hash maps
  to it, each shard appends to its own JSONL file, and merging the shard
  files is idempotent (later lines win, duplicate hashes tolerated).

Because a run is deterministic given its spec, the parallel execution is
bit-identical in metrics to the sequential one — asserted by the test suite.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.exceptions import PlanExecutionError, SolverError
from repro.run.jsonl import JsonlSink, load_jsonl_records
from repro.run.problems import benchmark_optimum, resolve_benchmark
from repro.run.registry import make_solver
from repro.serialization import json_sanitize
from repro.solvers.base import SolverResult
from repro.solvers.optimizer import make_optimizer
from repro.solvers.variational import EngineOptions, child_seed_sequence

#: Spec fields that identify the computation (everything except ``label``,
#: which is presentation-only and excluded from the content hash).
HASHED_FIELDS = (
    "solver",
    "benchmark",
    "case_index",
    "config",
    "seed",
    "shots",
    "optimizer",
    "max_iterations",
    "multistart",
    "noise",
    "optimization_level",
)


@dataclass(frozen=True)
class RunSpec:
    """One run of the experiment grid, as pure serializable data.

    ``noise`` is the serializable device-noise scenario — a
    :class:`~repro.solvers.config.NoiseConfig`, a device name, or the dict
    form (``{"device": "fez", ...}``); ``None`` samples ideally.  It is
    canonicalised to the full validated ``NoiseConfig`` dict on
    construction, so equivalent spellings (partial dict, mixed-case device
    name, config instance) are one spec with one content hash — and cached
    noisy and noiseless runs of otherwise identical specs never collide.
    It is the one spelling: a ``noise`` key inside ``config`` is rejected.
    ``solver`` is lowercased on construction, as the registry looks it up,
    so ``"Choco-Q"`` and ``"choco-q"`` are one spec with one content hash.
    """

    solver: str
    benchmark: str
    config: dict | None = None
    seed: int | None = None
    shots: int = 4096
    optimizer: str = "cobyla"
    max_iterations: int = 100
    multistart: int = 1
    case_index: int = 0
    noise: dict | str | None = None
    optimization_level: int | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        if isinstance(self.solver, str):
            object.__setattr__(self, "solver", self.solver.lower())
        if self.config and "noise" in self.config:
            # Two spellings of one run would get two content hashes (and two
            # store entries), and the override below would silently win.
            raise SolverError(
                "put the noise scenario in the RunSpec 'noise' field, not inside 'config'"
            )
        if self.noise is not None:
            from repro.solvers.config import as_noise_config

            object.__setattr__(self, "noise", as_noise_config(self.noise).to_dict())

    def to_dict(self) -> dict:
        """Canonical JSON form (config/noise sanitized to plain JSON types)."""
        return {
            "solver": self.solver,
            "benchmark": self.benchmark,
            "case_index": int(self.case_index),
            "config": json_sanitize(dict(self.config)) if self.config else None,
            "seed": self.seed if self.seed is None else int(self.seed),
            "shots": int(self.shots),
            "optimizer": self.optimizer,
            "max_iterations": int(self.max_iterations),
            "multistart": int(self.multistart),
            "noise": json_sanitize(self.noise) if self.noise else None,
            "optimization_level": (
                None if self.optimization_level is None else int(self.optimization_level)
            ),
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunSpec":
        known = {f for f in data if f in {*HASHED_FIELDS, "label"}}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SolverError(f"unknown RunSpec field(s) {unknown}")
        return cls(**{key: data[key] for key in known})

    def content_hash(self) -> str:
        """Hash of the computation-identifying fields (``label`` excluded).

        A ``noise`` of ``None`` is dropped from the hashed payload, so every
        noiseless spec keeps the content hash it had before the noise field
        existed — JSONL caches written by earlier revisions stay valid.  The
        same convention covers ``optimization_level``: ``None`` (package
        default) is dropped, an explicit level is hashed.
        """
        payload = {key: value for key, value in self.to_dict().items() if key in HASHED_FIELDS}
        if payload.get("noise") is None:
            payload.pop("noise", None)
        if payload.get("optimization_level") is None:
            payload.pop("optimization_level", None)
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def display_name(self) -> str:
        return self.label or f"{self.solver}@{self.benchmark}"


@dataclass
class ExperimentPlan:
    """An ordered grid of :class:`RunSpec` runs."""

    specs: list[RunSpec] = field(default_factory=list)
    name: str = "plan"
    base_seed: int = 0

    @classmethod
    def grid(
        cls,
        solvers: Sequence[str],
        benchmarks: Sequence[str],
        seeds: Sequence[int | None] = (None,),
        *,
        configs: Mapping[str, dict] | None = None,
        shots: int = 4096,
        optimizer: str = "cobyla",
        max_iterations: int = 100,
        multistart: int = 1,
        noise=None,
        optimization_level: int | None = None,
        name: str = "grid",
        base_seed: int = 0,
    ) -> "ExperimentPlan":
        """The cartesian product benchmark x solver x seed as a plan.

        ``configs`` maps solver names to config-override dicts.  Seeds may be
        ``None`` to request plan-derived deterministic seeds.  ``noise``
        applies one device-noise scenario to every spec of the grid — a
        :class:`~repro.solvers.config.NoiseConfig`, a device name such as
        ``"fez"``, or the dict form (each spec canonicalises and validates
        it on construction).  ``optimization_level`` pins the transpiler's
        optimization pipeline for every spec (``None`` = package default).
        """
        specs = [
            RunSpec(
                solver=solver,
                benchmark=str(benchmark),
                config=dict((configs or {}).get(solver) or {}) or None,
                seed=seed,
                shots=shots,
                optimizer=optimizer,
                max_iterations=max_iterations,
                multistart=multistart,
                noise=noise,
                optimization_level=optimization_level,
                label=f"{solver}@{benchmark}" + (f"#s{seed}" if seed is not None else ""),
            )
            for benchmark in benchmarks
            for solver in solvers
            for seed in seeds
        ]
        return cls(specs=specs, name=name, base_seed=base_seed)

    def to_dict(self) -> dict:
        """Canonical JSON form — the file a farm distributes to its shards."""
        return {
            "name": self.name,
            "base_seed": int(self.base_seed),
            "specs": [spec.to_dict() for spec in self.specs],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ExperimentPlan":
        return cls(
            specs=[RunSpec.from_dict(spec) for spec in data.get("specs", [])],
            name=str(data.get("name", "plan")),
            base_seed=int(data.get("base_seed", 0)),
        )

    def resolved_specs(self) -> list[RunSpec]:
        """Specs with every ``seed=None`` replaced by a derived seed.

        Child ``i`` is :func:`~repro.solvers.variational.child_seed_sequence`
        ``(base_seed, i)``, collapsed to one integer.  The seed depends only
        on ``(base_seed, position)``, so parallel and sequential executions
        of the same plan are seeded identically.
        """
        resolved = []
        for index, spec in enumerate(self.specs):
            if spec.seed is None:
                child = child_seed_sequence(self.base_seed, index)
                derived = int(child.generate_state(1, np.uint64)[0])
                spec = RunSpec(**{**spec.to_dict(), "seed": derived})
            resolved.append(spec)
        return resolved

    def __len__(self) -> int:
        return len(self.specs)


@dataclass
class RunRecord:
    """One completed run: its spec, the serialized result, and the metrics."""

    spec: RunSpec
    spec_hash: str
    result: dict
    metrics: dict
    cached: bool = False

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "spec_hash": self.spec_hash,
            "result": self.result,
            "metrics": self.metrics,
        }

    @classmethod
    def from_dict(cls, data: Mapping, cached: bool = False) -> "RunRecord":
        return cls(
            spec=RunSpec.from_dict(data["spec"]),
            spec_hash=data["spec_hash"],
            result=dict(data["result"]),
            metrics=dict(data["metrics"]),
            cached=cached,
        )

    def solver_result(self) -> SolverResult:
        """The run's full :class:`SolverResult`, rebuilt from its dict form."""
        return SolverResult.from_dict(self.result)


def execute_spec(spec: RunSpec) -> RunRecord:
    """Run one spec to completion (the unit of work a pool worker executes).

    The record's ``metrics`` are deterministic given the spec —
    ``latency_s`` is the one wall-clock-dependent entry.
    """
    problem = resolve_benchmark(spec.benchmark, spec.case_index)
    # The noise scenario rides as a config override: every registered solver
    # config carries a ``noise`` field, and the engine seeds the materialised
    # model from the spec seed, so a noisy spec is as deterministic as an
    # ideal one.
    overrides = {"noise": dict(spec.noise)} if spec.noise else {}
    solver = make_solver(
        spec.solver,
        spec.config or None,
        optimizer=make_optimizer(spec.optimizer, max_iterations=spec.max_iterations),
        options=EngineOptions(
            shots=spec.shots,
            seed=spec.seed,
            multistart=spec.multistart,
            optimization_level=spec.optimization_level,
        ),
        **overrides,
    )
    result = solver.solve(problem)
    optimal_value = benchmark_optimum(spec.benchmark, spec.case_index)
    report = result.metrics(problem, optimal_value)
    metrics = {
        "success_rate": report.success_rate,
        "in_constraints_rate": report.in_constraints_rate,
        "arg": report.approximation_ratio_gap,
        "depth": report.circuit_depth,
        "iterations": int(result.metadata.get("iterations", 0)),
        "optimal_value": float(optimal_value),
        "latency_s": result.latency.total,
    }
    return RunRecord(
        spec=spec,
        spec_hash=spec.content_hash(),
        result=result.to_dict(),
        metrics=metrics,
    )


def _execute_spec_payload(spec_dict: dict) -> dict:
    """Pickle-friendly worker entry point: dict in, dict out."""
    return execute_spec(RunSpec.from_dict(spec_dict)).to_dict()


def load_records(jsonl_path) -> dict[str, dict]:
    """Completed records from a JSONL file, keyed by spec content hash.

    Later lines win on duplicate hashes (append-only files self-heal);
    malformed trailing lines — a run killed mid-write — are skipped.
    """
    return load_jsonl_records(jsonl_path)


def _pool_context():
    """Prefer ``fork`` so runtime-registered solvers/benchmarks reach workers."""
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


def run_plan(
    plan: ExperimentPlan,
    *,
    max_workers: int = 1,
    jsonl_path: str | os.PathLike | None = None,
    resume: bool = True,
    progress: bool = False,
) -> list[RunRecord]:
    """Execute every spec of a plan; return records in plan order.

    Args:
        plan: the grid to run (seeds are resolved deterministically first).
        max_workers: ``1`` runs in-process; larger values fan pending specs
            out over a process pool.
        jsonl_path: persistence file.  Completed runs are appended as they
            finish; with ``resume=True`` (default) any spec whose content
            hash already appears in the file is returned from the file
            instead of re-executed (``RunRecord.cached`` marks those).
        progress: print one line per completed run.

    Raises:
        :class:`~repro.exceptions.PlanExecutionError` when any spec fails,
        after every other spec has run, whatever ``max_workers`` is; its
        ``failures`` list names every failed spec (display name + content
        hash) and the first failure's exception is chained.  Completed runs
        still reach the JSONL sink before the raise — that is the
        crash-safety contract.
    """
    specs = plan.resolved_specs()
    cache = load_records(jsonl_path) if resume else {}

    records: list[RunRecord | None] = [None] * len(specs)
    pending: list[tuple[int, RunSpec]] = []
    # Duplicate content hashes inside one plan (e.g. the same spec under two
    # labels) execute exactly once: the first index owns the execution and
    # the record fans out to every index sharing the hash.
    owners: dict[str, list[int]] = {}
    for index, spec in enumerate(specs):
        spec_hash = spec.content_hash()
        cached = cache.get(spec_hash)
        if cached is not None:
            records[index] = RunRecord.from_dict(cached, cached=True)
            continue
        if spec_hash in owners:
            owners[spec_hash].append(index)
        else:
            owners[spec_hash] = [index]
            pending.append((index, spec))
    num_cached = sum(1 for record in records if record is not None)

    executed = 0
    failures: list[dict] = []
    sink = JsonlSink(jsonl_path) if jsonl_path else None
    try:
        def finish(record: RunRecord) -> None:
            nonlocal executed
            executed += 1
            owner_index, *duplicate_indices = owners[record.spec_hash]
            records[owner_index] = record
            for position in duplicate_indices:
                # A duplicate-hash index keeps its own spec (labels may
                # differ) around the one shared execution's payload.
                records[position] = RunRecord(
                    spec=specs[position],
                    spec_hash=record.spec_hash,
                    result=record.result,
                    metrics=record.metrics,
                )
            if sink is not None:
                sink.append(record.to_dict())
            if progress:
                print(
                    f"[{plan.name}] executed {executed}/{len(pending)} "
                    f"(+{num_cached} cached) {record.spec.display_name()}"
                )

        # Every spec runs even when one fails: completed runs must reach the
        # JSONL sink (that is the crash-safety contract), so failures are
        # collected and raised only after the last spec, with every failed
        # spec identified — in-process and pooled alike.
        first_failure: BaseException | None = None

        def record_failure(spec: RunSpec, error: BaseException) -> None:
            nonlocal first_failure
            if first_failure is None:
                first_failure = error
            failures.append(
                {
                    "display_name": spec.display_name(),
                    "spec_hash": spec.content_hash(),
                    "error": str(error),
                }
            )

        if max_workers <= 1 or len(pending) <= 1:
            for _index, spec in pending:
                try:
                    record = execute_spec(spec)
                except Exception as error:
                    record_failure(spec, error)
                    continue
                finish(record)
        else:
            context = _pool_context()
            with ProcessPoolExecutor(max_workers=max_workers, mp_context=context) as pool:
                futures = {
                    pool.submit(_execute_spec_payload, spec.to_dict()): spec
                    for _index, spec in pending
                }
                remaining = set(futures)
                while remaining:
                    done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                    for future in done:
                        spec = futures[future]
                        try:
                            record = RunRecord.from_dict(future.result())
                        except BaseException as error:  # noqa: BLE001 - re-raised below
                            record_failure(spec, error)
                            continue
                        finish(record)
        if failures:
            raise PlanExecutionError(failures) from first_failure
    finally:
        if sink is not None:
            sink.close()

    return [record for record in records if record is not None]


# ---------------------------------------------------------------------------
# Sharding: split one plan over a farm with zero coordination
# ---------------------------------------------------------------------------


def shard_owner(spec_hash: str, num_shards: int) -> int:
    """The shard index that owns a spec content hash.

    Ownership is a pure function of the hash, so any number of machines can
    partition one plan without talking to each other.
    """
    return int(spec_hash, 16) % num_shards


def shard_plan(plan: ExperimentPlan, num_shards: int, shard_index: int) -> ExperimentPlan:
    """The sub-plan shard ``shard_index`` of ``num_shards`` owns.

    Seeds are resolved *before* partitioning (a spec's content hash depends
    on its seed), so every shard derives the same seed for the same grid
    position and the shards exactly partition the resolved plan:
    ``run_plan`` over each shard, merged, is record-for-record identical to
    ``run_plan`` of the whole plan.
    """
    if num_shards < 1:
        raise SolverError("num_shards must be at least 1")
    if not 0 <= shard_index < num_shards:
        raise SolverError(
            f"shard_index must be in [0, {num_shards}), got {shard_index}"
        )
    specs = [
        spec
        for spec in plan.resolved_specs()
        if shard_owner(spec.content_hash(), num_shards) == shard_index
    ]
    return ExperimentPlan(
        specs=specs,
        name=f"{plan.name}-shard{shard_index}of{num_shards}",
        base_seed=plan.base_seed,
    )


def merge_records(
    paths: Sequence["str | os.PathLike"],
    output_path: "str | os.PathLike | None" = None,
) -> dict[str, dict]:
    """Merge shard JSONL files into one record set, keyed by content hash.

    Idempotent and duplicate-tolerant: within a file later lines win, across
    files later *paths* win, and merging a file with itself (or re-merging
    merged output) is a no-op.  Missing paths are skipped, so a partially
    finished farm merges cleanly.  When ``output_path`` is given the merged
    records are written there as JSONL via an atomic rename, so a crashed
    merge never leaves a half-written file.
    """
    merged: dict[str, dict] = {}
    for path in paths:
        merged.update(load_records(path))
    if output_path is not None:
        output_path = os.fspath(output_path)
        staging = output_path + ".tmp"
        with open(staging, "w", encoding="utf-8") as handle:
            for payload in merged.values():
                handle.write(json.dumps(payload) + "\n")
        os.replace(staging, output_path)
    return merged
