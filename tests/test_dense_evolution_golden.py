"""Dense evolution pinned by the sha256 of its bytes.

``tests/data/golden_dense_evolution.json`` holds, per case, the sha256 of
``spec.evolve(p).tobytes()`` for one ``(P,)`` parameter vector and one
``(3, P)`` batch.  The cases cover every ansatz that evolves the dense
``2^n`` layout: choco-q on K1, K4 and G4, cyclic on K2, penalty on K2 and
on the 16-qubit K4 (its qubit-0 mixer sides are stride-2 slabs, and every
rotation temporary is past numpy's 256 KiB elision threshold), and HEA on
K2.  The digests were recorded with the int64 gather/scatter rotation, so a
change to how dense hop sides are addressed must keep every bit.

Regenerate (only when a change means to move these bits, and say so) with
``PYTHONPATH=src:tests python -c "import test_dense_evolution_golden as t;
t.write_golden()"``.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest

from solver_factories import make_chocoq_solver, make_cyclic_solver
from repro.problems import make_benchmark
from repro.solvers.hea import HEAConfig, HEASolver
from repro.solvers.penalty_qaoa import PenaltyQAOAConfig, PenaltyQAOASolver

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_dense_evolution.json")
NUM_LAYERS = 2
BATCH_ROWS = 3


def _chocoq():
    return make_chocoq_solver("dense", num_layers=NUM_LAYERS)


def _cyclic():
    return make_cyclic_solver("dense", num_layers=NUM_LAYERS)


def _penalty():
    return PenaltyQAOASolver(config=PenaltyQAOAConfig(num_layers=NUM_LAYERS))


def _hea():
    return HEASolver(config=HEAConfig(num_layers=NUM_LAYERS))


CASES = {
    "choco-q-dense-K1": (_chocoq, "K1"),
    "choco-q-dense-K4": (_chocoq, "K4"),
    "choco-q-dense-G4": (_chocoq, "G4"),
    "cyclic-dense-K2": (_cyclic, "K2"),
    "penalty-dense-K2": (_penalty, "K2"),
    "penalty-dense-K4": (_penalty, "K4"),
    "hea-dense-K2": (_hea, "K2"),
}


def case_digests(name: str) -> dict:
    """sha256 of the evolved vector and batch bytes for one case."""
    make_solver, case = CASES[name]
    built = make_solver().build_spec(make_benchmark(case))
    spec = built[0] if isinstance(built, tuple) else built
    assert spec.backend is None, f"{name} must run the dense layout"
    num_parameters = len(spec.initial_parameters)
    rng = np.random.default_rng(sum(map(ord, name)))
    vector = rng.uniform(-np.pi, np.pi, num_parameters)
    batch = rng.uniform(-np.pi, np.pi, (BATCH_ROWS, num_parameters))
    return {
        "vector": hashlib.sha256(spec.evolve(vector).tobytes()).hexdigest(),
        "batch": hashlib.sha256(spec.evolve(batch).tobytes()).hexdigest(),
    }


def write_golden() -> None:
    with open(GOLDEN_PATH, "w") as handle:
        json.dump({name: case_digests(name) for name in CASES}, handle, indent=1, sort_keys=True)
        handle.write("\n")


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_dense_evolution_matches_golden(golden, name):
    assert case_digests(name) == golden[name]
