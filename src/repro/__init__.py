"""repro — a from-scratch reproduction of Choco-Q (HPCA 2025).

Choco-Q is a commute-Hamiltonian-based QAOA framework for constrained binary
optimization.  This package reimplements the full system described in the
paper, including the quantum-circuit simulation substrate, the baselines it
is compared against, the three application domains of its evaluation, and
the benchmark harnesses that regenerate every table and figure.

Quick start — one call runs any registered solver::

    import repro

    problem = repro.make_benchmark("F1")
    result = repro.solve(problem, solver="choco-q", num_layers=2)
    print(result.metrics(problem))

Solvers are string-addressable (``repro.available_solvers()`` lists
``choco-q``, ``penalty-qaoa``, ``cyclic-qaoa`` and ``hea``), configured by
frozen ``*Config`` dataclasses with a ``to_dict``/``from_dict`` round-trip,
and every :class:`~repro.solvers.base.SolverResult` serializes the same way.
Whole evaluation grids run through the batch runner::

    from repro.run import ExperimentPlan, run_plan

    plan = ExperimentPlan.grid(
        solvers=repro.available_solvers(),
        benchmarks=["F1", "G1", "K1"],
        seeds=[0, 1, 2],
        shots=2048,
    )
    records = run_plan(plan, max_workers=4, jsonl_path="results.jsonl")

``run_plan`` executes specs on process workers with deterministic per-spec
seeding (parallel results are bit-identical to sequential ones), appends
each completed run to the JSONL file, and skips any spec whose content hash
is already recorded there — re-running a finished plan is free.

Package layout:

* :mod:`repro.core`        — problem model, constraint machinery, metrics
* :mod:`repro.qcircuit`    — circuit IR, statevector simulator, transpiler, noise
* :mod:`repro.hamiltonian` — commute Hamiltonians, compiled evolution, Trotter baseline
* :mod:`repro.solvers`     — Choco-Q, penalty QAOA, cyclic QAOA, HEA
* :mod:`repro.run`         — solver registry, ``solve`` facade, batch runner
* :mod:`repro.problems`    — FLP / GCP / KPP generators and the benchmark suite
* :mod:`repro.analysis`    — convergence, parallelism, ablation, reporting
"""

from repro.core import (
    ConstrainedBinaryProblem,
    LinearConstraint,
    MetricsReport,
    Objective,
    approximation_ratio_gap,
    evaluate_outcomes,
    in_constraints_rate,
    success_rate,
)
from repro.problems import make_benchmark
from repro.run import (
    ExperimentPlan,
    RunRecord,
    RunSpec,
    available_solvers,
    register_solver,
    run_plan,
    solve,
)
from repro.solvers import (
    ChocoQConfig,
    ChocoQSolver,
    CyclicQAOAConfig,
    CyclicQAOASolver,
    EngineOptions,
    HEAConfig,
    HEASolver,
    NoiseConfig,
    PenaltyQAOAConfig,
    PenaltyQAOASolver,
    SolverResult,
)

__version__ = "1.1.0"

__all__ = [
    "ChocoQConfig",
    "ChocoQSolver",
    "ConstrainedBinaryProblem",
    "CyclicQAOAConfig",
    "CyclicQAOASolver",
    "EngineOptions",
    "ExperimentPlan",
    "HEAConfig",
    "HEASolver",
    "LinearConstraint",
    "MetricsReport",
    "NoiseConfig",
    "Objective",
    "PenaltyQAOAConfig",
    "PenaltyQAOASolver",
    "RunRecord",
    "RunSpec",
    "SolverResult",
    "approximation_ratio_gap",
    "available_solvers",
    "evaluate_outcomes",
    "in_constraints_rate",
    "make_benchmark",
    "register_solver",
    "run_plan",
    "solve",
    "success_rate",
    "__version__",
]
