"""Whole-result goldens for variable elimination (Opt3).

``tests/data/golden_elimination_solves.json`` holds, per case, the full
``SolverResult.to_dict()`` of a fixed-seed choco-q solve with elimination,
minus the wall-clock fields (``latency.compilation_s``,
``classical_processing_s``, ``total_s`` and ``metadata.wall_clock_s``).  The
cases cover K1, K2, F2 and G2 with one and two eliminated variables on the
dense and subspace backends, a plan whose every sub-instance is a single
feasible point (K1 with three eliminated variables), and a ``fez``-noisy
plan.  Every dict is compared in insertion order, so the pins cover the
merged ``exact_distribution`` and counts order, the shot allocation, the
eliminated assignments, the depths and the transpile report.

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


def _record(case: str) -> dict:
    name, config = CASES[case]
    result = ChocoQSolver(
        config=config,
        optimizer=CobylaOptimizer(max_iterations=60),
        options=EngineOptions(shots=1024, seed=7),
    ).solve(make_benchmark(name))
    record = json.loads(json.dumps(result.to_dict()))
    for field in ("compilation_s", "classical_processing_s", "total_s"):
        del record["latency"][field]
    del record["metadata"]["wall_clock_s"]
    return record


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
    assert _ordered(_record(case)) == _ordered(golden[case])


def test_all_trivial_plan_runs_no_circuit(golden):
    metadata = golden["K1[eliminate=3,dense]"]["metadata"]
    assert metadata["iterations"] == 0
    assert "state_backend" not in metadata and "transpile_report" not in metadata
