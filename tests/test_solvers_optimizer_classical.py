"""Tests for the classical optimizers shared by the variational loops."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import repro
from repro.exceptions import SolverError
from repro.solvers.optimizer import (
    CobylaOptimizer,
    NelderMeadOptimizer,
    SpsaOptimizer,
    make_optimizer,
)


def quadratic_bowl(x: np.ndarray) -> float:
    return float(np.sum((x - np.array([1.0, -2.0])) ** 2))


class TestOptimizers:
    @pytest.mark.parametrize(
        "optimizer",
        [
            CobylaOptimizer(max_iterations=200),
            NelderMeadOptimizer(max_iterations=300),
            SpsaOptimizer(max_iterations=300, seed=0),
        ],
    )
    def test_minimizes_quadratic_bowl(self, optimizer):
        result = optimizer.minimize(quadratic_bowl, [0.0, 0.0])
        assert result.cost < 0.3
        assert result.trace.num_iterations > 0

    def test_trace_records_every_evaluation(self):
        optimizer = CobylaOptimizer(max_iterations=30)
        result = optimizer.minimize(quadratic_bowl, [0.0, 0.0])
        assert len(result.trace.costs) == result.num_iterations
        assert result.trace.best_cost <= result.trace.costs[0]

    def test_invalid_iterations(self):
        with pytest.raises(SolverError):
            CobylaOptimizer(max_iterations=0)

    def test_cobyla_rejects_a_budget_below_num_parameters_plus_two(self):
        # SciPy would silently raise 3 to 4 and report 4 evaluations.
        with pytest.raises(SolverError, match=r"num_parameters \+ 2 = 4, got 3"):
            CobylaOptimizer(max_iterations=3).minimize(quadratic_bowl, [0.0, 0.0])

    def test_cobyla_minimum_budget_runs_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = CobylaOptimizer(max_iterations=4).minimize(quadratic_bowl, [0.0, 0.0])
        assert result.num_iterations <= 4

    def test_solve_rejects_a_budget_below_the_ansatz_minimum(self):
        # HEA on F1 has 4 RY layers of 6 qubits: 24 parameters.
        with pytest.raises(SolverError, match=r"= 26, got 8"):
            repro.solve("F1", "hea", optimizer=CobylaOptimizer(max_iterations=8))

    def test_factory(self):
        assert isinstance(make_optimizer("cobyla"), CobylaOptimizer)
        assert isinstance(make_optimizer("SPSA", seed=1), SpsaOptimizer)
        with pytest.raises(SolverError):
            make_optimizer("adam")

    def test_trace_iterations_to_reach(self):
        optimizer = CobylaOptimizer(max_iterations=100)
        result = optimizer.minimize(quadratic_bowl, [5.0, 5.0])
        first = result.trace.iterations_to_reach(1.0)
        assert first is not None
        assert result.trace.costs[first] <= 1.0
