"""Unified experiment API: solver registry, facade, and batch runner.

This package is the single addressable run surface for the repository:

* :mod:`repro.run.registry` — string-addressable solver registry
  (:func:`register_solver`, :func:`available_solvers`, :func:`make_solver`);
* :mod:`repro.run.facade` — ``repro.solve(problem, solver="choco-q", ...)``;
* :mod:`repro.run.plan` — declarative :class:`ExperimentPlan` grids of
  :class:`RunSpec` runs, executed by :func:`run_plan` with process workers,
  deterministic per-run seeding, and a content-hashed JSONL result cache;
* :mod:`repro.run.problems` — benchmark-name resolution (Table-II scales
  plus runtime-registered problems).
"""

from repro.run.facade import solve
from repro.run.jsonl import JsonlSink, load_jsonl_records
from repro.run.plan import (
    ExperimentPlan,
    RunRecord,
    RunSpec,
    execute_spec,
    merge_records,
    run_plan,
    shard_owner,
    shard_plan,
)
from repro.run.problems import (
    available_benchmarks,
    register_benchmark,
    resolve_benchmark,
    unregister_benchmark,
)
from repro.run.registry import (
    SolverEntry,
    available_solvers,
    get_solver_entry,
    make_solver,
    register_solver,
    unregister_solver,
)

__all__ = [
    "ExperimentPlan",
    "JsonlSink",
    "RunRecord",
    "RunSpec",
    "SolverEntry",
    "available_benchmarks",
    "available_solvers",
    "execute_spec",
    "get_solver_entry",
    "load_jsonl_records",
    "make_solver",
    "merge_records",
    "register_benchmark",
    "register_solver",
    "resolve_benchmark",
    "run_plan",
    "shard_owner",
    "shard_plan",
    "solve",
    "unregister_benchmark",
    "unregister_solver",
]
