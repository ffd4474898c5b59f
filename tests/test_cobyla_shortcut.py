"""The ``getcpen`` shortcut in repro's private copy of PRIMA's COBYLA core.

Every iteration of PRIMA's ``cobylb`` calls ``getcpen`` to raise the
constraint-penalty weight ``cpen``, which costs a whole trust-region LP.
Repro hands the core no constraint, so ``getcpen`` can only return ``cpen``
unchanged; :mod:`repro.solvers.optimizer` wraps it to return at once when
there is no constraint row.  These tests pin the premise (SciPy's own
``getcpen`` never changes ``cpen`` on repro's calls), the scope (only
repro's copy is wrapped), the fallback (a constrained call still runs
PRIMA's ``getcpen``, bit for bit as SciPy) and that repro's solves really
take the shortcut.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter

import numpy as np
import pytest
from scipy.optimize import minimize

import repro
from reference import engine_cost
from repro.solvers import optimizer as optimizer_module

SOLVERS = ["choco-q", "cyclic-qaoa", "penalty-qaoa", "hea"]

repro_cobylb = importlib.import_module(f"{optimizer_module._PRIMA_PACKAGE}.cobyla.cobylb")
scipy_cobylb = importlib.import_module("scipy._lib.pyprima.cobyla.cobylb")
scipy_cobyla = importlib.import_module("scipy._lib.pyprima.cobyla.cobyla").cobyla

#: PRIMA's own ``getcpen`` in repro's copy of the core.
original_getcpen = repro_cobylb.getcpen.__wrapped__


def count_calls(codes, run):
    """``run()``'s result, and how often each code object in ``codes`` was entered."""
    counts: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[frame.f_code] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(previous)
    return result, counts


def test_only_repros_copy_is_wrapped():
    repro.solve("K1", "choco-q")
    scipy_getcpen = scipy_cobylb.getcpen
    assert scipy_getcpen.__module__ == "scipy._lib.pyprima.cobyla.cobylb"
    assert scipy_getcpen.__name__ == "getcpen"
    assert not hasattr(scipy_getcpen, "__wrapped__")
    assert repro_cobylb.getcpen is not scipy_getcpen
    assert original_getcpen.__module__ == f"{optimizer_module._PRIMA_PACKAGE}.cobyla.cobylb"
    assert original_getcpen.__code__.co_filename == scipy_getcpen.__code__.co_filename


@pytest.mark.parametrize("solver", SOLVERS)
def test_scipy_getcpen_keeps_cpen_on_solver_costs(solver, monkeypatch):
    # The shortcut's premise, checked on SciPy's untouched path.
    calls = []
    getcpen = scipy_cobylb.getcpen

    def spy(amat, bvec, conmat, cpen, *args):
        updated = getcpen(amat, bvec, conmat, cpen, *args)
        calls.append((np.size(conmat, 0), cpen, updated))
        return updated

    monkeypatch.setattr(scipy_cobylb, "getcpen", spy)
    cost, initial = engine_cost(solver, "K1")
    minimize(cost, initial, method="COBYLA", options={"maxiter": 40, "rhobeg": 0.5, "tol": 1e-4})
    assert calls
    assert all(rows == 0 and updated == cpen for rows, cpen, updated in calls)


def test_constrained_call_falls_back_to_prima_bit_for_bit(monkeypatch):
    # Minimise the bowl around (1, -2) subject to x0 + x1 >= 0, written as
    # -x0 - x1 <= 0: the constraint binds, and getcpen raises cpen.
    def bowl(x: np.ndarray) -> float:
        return float(np.sum((x - np.array([1.0, -2.0])) ** 2))

    def run(core):
        points = []

        def calcfc(x):
            points.append(np.array(x, dtype=float))
            return bowl(x), np.zeros(0)

        start = np.zeros(2)
        result = core(
            calcfc,
            0,
            start.copy(),
            Aineq=np.array([[-1.0, -1.0]]),
            bineq=np.array([0.0]),
            f0=bowl(start),
            nlconstr0=np.zeros(0),
            rhobeg=0.5,
            rhoend=1e-6,
            maxfun=200,
            iprint=0,
        )
        return points, result

    raised = []
    getcpen = scipy_cobylb.getcpen

    def spy(amat, bvec, conmat, cpen, *args):
        updated = getcpen(amat, bvec, conmat, cpen, *args)
        raised.append(updated > cpen)
        return updated

    monkeypatch.setattr(scipy_cobylb, "getcpen", spy)
    expected_points, expected = run(scipy_cobyla)
    assert any(raised)

    (points, result), counts = count_calls(
        {original_getcpen.__code__}, lambda: run(optimizer_module._prima_cobyla)
    )
    assert counts[original_getcpen.__code__] == len(raised)
    assert [p.tobytes() for p in points] == [p.tobytes() for p in expected_points]
    assert result.x.tobytes() == expected.x.tobytes()
    assert np.float64(result.f).tobytes() == np.float64(expected.f).tobytes()
    assert (result.nf, result.info, result.cstrv) == (expected.nf, expected.info, expected.cstrv)


@pytest.mark.parametrize("solver", SOLVERS)
def test_repro_solve_never_runs_prima_getcpen(solver):
    shortcut = repro_cobylb.getcpen
    codes = {shortcut.__code__, original_getcpen.__code__}
    _, counts = count_calls(codes, lambda: repro.solve("K1", solver))
    # cobylb still calls getcpen by that name once per iteration, and the
    # wrapper answers every call without PRIMA's LP.
    assert counts[shortcut.__code__] > 0
    assert counts[original_getcpen.__code__] == 0
