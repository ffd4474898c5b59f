"""The one-call run surface: ``repro.solve(problem, solver="choco-q")``.

The facade ties the registry together: resolve the solver name, build its
config (defaults, a config instance/dict, plus keyword overrides), construct
the solver with the given optimizer/options, and run it.  Every example and
benchmark drives solvers through this entry point; scripts no longer need to
know which class implements which design.
"""

from __future__ import annotations

from repro.core.problem import ConstrainedBinaryProblem
from repro.exceptions import SolverError
from repro.run.problems import resolve_benchmark
from repro.run.registry import make_solver
from repro.solvers.base import QuantumSolver, SolverResult
from repro.solvers.optimizer import Optimizer
from repro.solvers.variational import EngineOptions


def solve(
    problem: ConstrainedBinaryProblem | str,
    solver: str | QuantumSolver = "choco-q",
    config=None,
    *,
    optimizer: Optimizer | str | None = None,
    options: EngineOptions | None = None,
    **overrides,
) -> SolverResult:
    """Solve ``problem`` with a registered solver.

    Args:
        problem: a :class:`~repro.core.problem.ConstrainedBinaryProblem`, or
            a benchmark name resolvable by
            :func:`~repro.run.problems.resolve_benchmark` (``"G2"``...).
        solver: a registered solver name (see
            :func:`~repro.run.registry.available_solvers`) or an already
            constructed :class:`~repro.solvers.base.QuantumSolver`.
        config: the solver's ``*Config`` instance, its dict form, or ``None``
            for defaults.
        optimizer: an :class:`~repro.solvers.optimizer.Optimizer` or an
            optimizer name (``"cobyla"``, ``"nelder-mead"``, ``"spsa"``).
        options: shared :class:`~repro.solvers.variational.EngineOptions`
            (shots, seed, multistart, optimization level); they carry no
            noise.
        **overrides: config-field overrides, e.g. ``num_layers=2``.  Noise
            is one of them: every solver config has a ``noise`` field, so
            ``noise="fez"`` (a :class:`~repro.solvers.config.NoiseConfig`,
            a device-profile name such as ``"fez"``, ``"osaka"`` or
            ``"sherbrooke"``, or its dict form) samples through that device
            model, seeded from the run seed and so reproducible.

    Returns:
        The solver's :class:`~repro.solvers.base.SolverResult`.
    """
    if isinstance(problem, str):
        problem = resolve_benchmark(problem)
    if isinstance(solver, QuantumSolver):
        if config is not None or overrides or optimizer is not None or options is not None:
            raise SolverError(
                "when passing a solver instance, configure it directly instead of "
                "passing config/optimizer/options/overrides to solve()"
            )
        return solver.solve(problem)
    instance = make_solver(solver, config, optimizer=optimizer, options=options, **overrides)
    return instance.solve(problem)
