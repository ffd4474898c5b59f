"""Whole-result goldens for variable elimination (Opt3).

``tests/data/golden_elimination_solves.json`` holds, per case, the full
``SolverResult.to_dict()`` of a fixed-seed choco-q solve with elimination,
modeled latency included.  The cases cover K1, K2, F2 and G2 with one and
two eliminated variables on the dense and subspace backends, a plan whose
every sub-instance is a single feasible point (K1 with three eliminated
variables), and a ``fez``-noisy plan.  Every dict is compared in insertion
order, so the pins cover the merged ``exact_distribution`` and counts
order, the shot allocation, the eliminated assignments, the depths and the
transpile report.

Regenerate (only when a change means to move these records, and say so)
with ``PYTHONPATH=src:tests python -c "import test_elimination_golden as t;
t.write_golden()"``.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.problems import make_benchmark
from repro.solvers.chocoq import ChocoQConfig, ChocoQSolver
from repro.solvers.config import NoiseConfig
from repro.solvers.optimizer import CobylaOptimizer
from repro.solvers.variational import EngineOptions

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "golden_elimination_solves.json"
)

CASES = {
    f"{name}[eliminate={count},{backend}]": (
        name,
        ChocoQConfig(num_eliminated_variables=count, backend=backend),
    )
    for name in ("K1", "K2", "F2", "G2")
    for count in (1, 2)
    for backend in ("dense", "subspace")
}
CASES["K1[eliminate=3,dense]"] = ("K1", ChocoQConfig(num_eliminated_variables=3))
CASES["F2[eliminate=1,fez]"] = (
    "F2",
    ChocoQConfig(
        num_eliminated_variables=1, noise=NoiseConfig(device="fez", trajectories=2)
    ),
)


#: The variables each case's plan eliminates, in pick order.  The plan is
#: memoized per constraint matrix and config; a cold and a warm solve must
#: both pick these.
CHOSEN_VARIABLES = {
    "K1": {1: [6], 2: [6, 4], 3: [6, 4, 0]},
    "K2": {1: [10], 2: [10, 8]},
    "F2": {1: [2], 2: [2, 4]},
    "G2": {1: [0], 2: [0, 2]},
}


def _record(case: str) -> dict:
    name, config = CASES[case]
    result = ChocoQSolver(
        config=config,
        optimizer=CobylaOptimizer(max_iterations=60),
        options=EngineOptions(shots=1024, seed=7),
    ).solve(make_benchmark(name))
    return json.loads(json.dumps(result.to_dict()))


def _ordered(value):
    """Dicts as item lists, recursively, so ``==`` also compares key order."""
    if isinstance(value, dict):
        return [(key, _ordered(item)) for key, item in value.items()]
    if isinstance(value, list):
        return [_ordered(item) for item in value]
    return value


def write_golden(path: str = GOLDEN_PATH) -> None:
    with open(path, "w") as handle:
        json.dump({case: _record(case) for case in CASES}, handle, separators=(",", ":"))
        handle.write("\n")


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_golden_covers_every_case(golden):
    assert list(golden) == list(CASES)


@pytest.mark.parametrize("case", list(CASES))
def test_elimination_solve_matches_golden(golden, case):
    """A cold solve and a warm one, which reads its plan and sub-instance
    specs from the structure memo, both reproduce the golden record and
    eliminate the pinned variables."""
    name, config = CASES[case]
    chosen = CHOSEN_VARIABLES[name][config.num_eliminated_variables]
    assert golden[case]["metadata"]["eliminated_variables"] == chosen
    cold = _record(case)
    warm = _record(case)
    assert _ordered(cold) == _ordered(golden[case])
    assert _ordered(warm) == _ordered(golden[case])


def test_all_trivial_plan_runs_no_circuit(golden):
    metadata = golden["K1[eliminate=3,dense]"]["metadata"]
    assert metadata["iterations"] == 0
    assert "state_backend" not in metadata and "transpile_report" not in metadata
