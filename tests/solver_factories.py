"""Shared problem and solver factories for the test suite.

These are the single home for the small instances and seeded fast-optimizer
solvers that used to be duplicated across ``test_subspace_backend.py`` and
``test_solvers_baselines.py``.  They live in their own module (not
``conftest.py``) so test files can import them by name — the repo has two
conftest files (``tests/`` and ``benchmarks/``), and a bare ``from conftest
import ...`` resolves to whichever was imported first in a whole-repo run.
``conftest.py`` wraps each factory in a fixture for tests that prefer
injection.
"""

from __future__ import annotations

from repro.core.problem import ConstrainedBinaryProblem, LinearConstraint, Objective
from repro.solvers.chocoq import ChocoQConfig, ChocoQSolver
from repro.solvers.cyclic_qaoa import CyclicQAOAConfig, CyclicQAOASolver
from repro.solvers.optimizer import CobylaOptimizer
from repro.solvers.variational import EngineOptions


def make_one_hot_problem(
    weights=(2.0, 1.0, 3.0),
    rhs: float = 1.0,
    sense: str = "min",
    name: str = "one-hot",
) -> ConstrainedBinaryProblem:
    """A linear-objective problem with a single one-hot summation chain.

    ``min/max sum_i w_i x_i`` subject to ``sum_i x_i = rhs`` — the smallest
    family the cyclic driver encodes exactly, shared by the baseline,
    backend-equivalence and hop-regression tests.
    """
    weights = list(weights)
    return ConstrainedBinaryProblem(
        num_variables=len(weights),
        objective=Objective.from_linear(weights),
        constraints=[LinearConstraint(tuple(1.0 for _ in weights), rhs)],
        sense=sense,
        name=name,
    )


def make_chocoq_solver(
    backend: str = "dense",
    seed: int = 9,
    shots: int = 1024,
    max_iterations: int = 40,
    **config_kwargs,
) -> ChocoQSolver:
    """A seeded, fast-optimizer ChocoQSolver for one test run."""
    return ChocoQSolver(
        config=ChocoQConfig(backend=backend, **config_kwargs),
        optimizer=CobylaOptimizer(max_iterations=max_iterations),
        options=EngineOptions(shots=shots, seed=seed),
    )


def make_cyclic_solver(
    backend: str = "dense",
    seed: int = 9,
    shots: int = 1024,
    max_iterations: int = 40,
    num_layers: int = 2,
    **config_kwargs,
) -> CyclicQAOASolver:
    """A seeded, fast-optimizer CyclicQAOASolver for one test run."""
    return CyclicQAOASolver(
        config=CyclicQAOAConfig(num_layers=num_layers, backend=backend, **config_kwargs),
        optimizer=CobylaOptimizer(max_iterations=max_iterations),
        options=EngineOptions(shots=shots, seed=seed),
    )
