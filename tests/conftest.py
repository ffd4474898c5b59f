"""Shared fixtures, factories and markers for the test suite.

Markers:
    slow: long-running benchmark-scale tests.  Tier-1 CI can skip them with
        ``pytest -m "not slow"``; the full suite (no ``-m``) still runs
        everything.
    xslow: scaled-up randomized sweeps (large instances, many cases).  These
        are *skipped by default* and only run when ``--xslow`` is passed (or
        ``RUN_XSLOW=1`` is set), so the tier-1 invocation ``pytest -x -q``
        never pays for them; ``make test-all`` opts in.

The problem fixtures/factories here are the single home for the small
instances that used to be duplicated across ``test_subspace_backend.py`` and
``test_solvers_baselines.py``; solver factories carry the fast optimizer and
seeded engine options most tests want.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from solver_factories import (  # noqa: E402
    make_chocoq_solver,
    make_cyclic_solver,
    make_one_hot_problem,
)

from repro.core.problem import ConstrainedBinaryProblem, LinearConstraint, Objective
from repro.qcircuit.statevector import StatevectorSimulator
from repro.solvers.structure import clear_structure_cache


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers",
        "slow: long-running benchmark-scale test; deselect with -m 'not slow'",
    )
    config.addinivalue_line(
        "markers",
        "xslow: scaled-up randomized sweep; skipped unless --xslow is given",
    )


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--xslow",
        action="store_true",
        default=False,
        help="run tests marked xslow (scaled-up randomized sweeps)",
    )


def pytest_collection_modifyitems(config: pytest.Config, items: list[pytest.Item]) -> None:
    truthy = ("1", "true", "yes", "on")
    if config.getoption("--xslow") or os.environ.get("RUN_XSLOW", "").lower() in truthy:
        return
    skip_xslow = pytest.mark.skip(reason="xslow tier: pass --xslow (or RUN_XSLOW=1) to run")
    for item in items:
        if "xslow" in item.keywords:
            item.add_marker(skip_xslow)


@pytest.fixture(autouse=True)
def cold_structure_memo():
    """Start every test with an empty structure memo and zeroed counters.

    Compiled solve structures are kept per process
    (:mod:`repro.solvers.structure`); tests that count builds, spy on the
    compile path or assert cache counters expect the first build of a
    structure inside the test to be cold.
    """
    clear_structure_cache()
    yield


@pytest.fixture
def stall_guard():
    """Opt-in event-loop stall sanitizer (see :mod:`repro.lint.sanitize`).

    Every loop the test creates (``asyncio.run`` included) runs in asyncio
    debug mode with a tight slow-callback threshold; the fixture raises at
    teardown if any callback stalled the loop or a task exception went
    unhandled.  ``tests/test_service.py`` applies it module-wide.  The
    threshold is deliberately generous (loaded CI machines jitter) and
    overridable via ``REPRO_STALL_THRESHOLD`` seconds.
    """
    from repro.lint.sanitize import loop_stall_guard

    threshold = float(os.environ.get("REPRO_STALL_THRESHOLD", "0.5"))
    with loop_stall_guard(threshold=threshold) as guard:
        yield guard


@pytest.fixture
def simulator() -> StatevectorSimulator:
    return StatevectorSimulator(max_qubits=16)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


# ---------------------------------------------------------------------------
# Shared small problems
# ---------------------------------------------------------------------------


@pytest.fixture
def paper_example_problem() -> ConstrainedBinaryProblem:
    """The running example of Fig. 2(a) / Fig. 3.

    Four binary variables, two constraints ``x0 - x2 = 0`` and
    ``x0 + x1 + x3 = 1``; maximize ``3 x0 + 2 x1 + 3 x2 + x3``.
    The optimum is ``(1, 0, 1, 0)`` with value 6.
    """
    objective = Objective({(0,): 3.0, (1,): 2.0, (2,): 3.0, (3,): 1.0})
    constraints = [
        LinearConstraint((1.0, 0.0, -1.0, 0.0), 0.0),
        LinearConstraint((1.0, 1.0, 0.0, 1.0), 1.0),
    ]
    return ConstrainedBinaryProblem(
        num_variables=4,
        objective=objective,
        constraints=constraints,
        sense="max",
        name="paper-example",
    )


@pytest.fixture
def small_min_problem() -> ConstrainedBinaryProblem:
    """A small minimization problem with one summation constraint."""
    objective = Objective({(0,): 2.0, (1,): 1.0, (2,): 3.0, (0, 2): -1.0})
    constraints = [LinearConstraint((1.0, 1.0, 1.0), 1.0)]
    return ConstrainedBinaryProblem(
        num_variables=3,
        objective=objective,
        constraints=constraints,
        sense="min",
        name="small-min",
    )


@pytest.fixture
def twin_problem() -> ConstrainedBinaryProblem:
    """Two decoupled one-hot pairs; eliminating x0 yields twin sub-instances.

    The flat objective keeps the optimised state in superposition, so the two
    (structurally identical) sub-circuits must draw *different* samples —
    the regression the per-instance SeedSequence spawn fixes.
    """
    constraints = [
        LinearConstraint((1.0, 1.0, 0.0, 0.0), 1.0),
        LinearConstraint((0.0, 0.0, 1.0, 1.0), 1.0),
    ]
    return ConstrainedBinaryProblem(
        4, Objective(), constraints, sense="max", name="twin"
    )


@pytest.fixture
def one_hot_problem_factory():
    return make_one_hot_problem


# ---------------------------------------------------------------------------
# Shared solver factories (see solver_factories.py)
# ---------------------------------------------------------------------------


@pytest.fixture
def chocoq_solver_factory():
    return make_chocoq_solver


@pytest.fixture
def cyclic_solver_factory():
    return make_cyclic_solver
