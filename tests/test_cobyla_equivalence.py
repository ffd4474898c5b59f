"""``CobylaOptimizer`` runs PRIMA's COBYLA core exactly as SciPy does.

The optimizer calls PRIMA's ``cobyla()`` directly instead of going through
``scipy.optimize.minimize(method="COBYLA")``.  These tests run both on the
same cost and compare every evaluated point and value bit for bit, plus the
final point, value, success flag and evaluation count.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import minimize

import repro
from repro.run.registry import make_solver
from repro.solvers.optimizer import CobylaOptimizer


def quadratic_bowl(x: np.ndarray) -> float:
    return float(np.sum((x - np.array([1.0, -2.0])) ** 2))


def rosenbrock(x: np.ndarray) -> float:
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def spiky_bowl(x: np.ndarray) -> float:
    """The bowl, but ``inf`` past ``x0 > 0.6`` and NaN below ``x1 < -0.4``."""
    if x[0] > 0.6:
        return float("inf")
    if x[1] < -0.4:
        return float("nan")
    return quadratic_bowl(x)


def scipy_cobyla(cost, initial, max_iterations, rhobeg, tolerance):
    """SciPy's COBYLA on ``cost``, recording every evaluation."""
    points: list[np.ndarray] = []
    values: list[float] = []

    def recorded(parameters):
        value = float(cost(np.asarray(parameters, dtype=float)))
        points.append(np.array(parameters, dtype=float))
        values.append(value)
        return value

    result = minimize(
        recorded,
        np.asarray(initial, dtype=float),
        method="COBYLA",
        options={"maxiter": max_iterations, "rhobeg": rhobeg, "tol": tolerance},
    )
    return points, values, result


def assert_same_run(cost, initial, max_iterations=100, rhobeg=0.5, tolerance=1e-4):
    """Run both paths and compare them bit for bit; return the direct result."""
    points, values, expected = scipy_cobyla(cost, initial, max_iterations, rhobeg, tolerance)
    result = CobylaOptimizer(
        max_iterations=max_iterations, tolerance=tolerance, rhobeg=rhobeg
    ).minimize(cost, initial)

    assert result.num_iterations == len(values)
    assert [p.tobytes() for p in result.trace.parameters] == [p.tobytes() for p in points]
    assert np.array(result.trace.costs).tobytes() == np.array(values).tobytes()
    assert result.parameters.tobytes() == np.asarray(expected.x, dtype=float).tobytes()
    assert np.float64(result.cost).tobytes() == np.float64(expected.fun).tobytes()
    assert result.converged is bool(expected.success)
    return result


@pytest.mark.parametrize(
    "cost, initial",
    [
        (quadratic_bowl, [0.0, 0.0]),
        (quadratic_bowl, [5.0, 5.0]),
        (rosenbrock, [-1.2, 1.0]),
        (rosenbrock, [0.5, -0.3, 1.1, 0.0]),
    ],
)
def test_smooth_costs(cost, initial):
    assert_same_run(cost, initial, max_iterations=200)


def test_inf_and_nan_values():
    result = assert_same_run(spiky_bowl, [0.0, 0.0], max_iterations=120)
    costs = np.array(result.trace.costs)
    assert np.isinf(costs).any() and np.isnan(costs).any()


def test_exhausted_minimum_budget():
    # P + 2 evaluations: the initial simplex and one step.
    result = assert_same_run(rosenbrock, [-1.2, 1.0], max_iterations=4)
    assert result.num_iterations == 4
    assert not result.converged


def test_early_convergence():
    result = assert_same_run(quadratic_bowl, [0.0, 0.0], max_iterations=500, tolerance=1e-2)
    assert result.converged and result.num_iterations < 500


def test_initial_point_is_evaluated_once():
    result = assert_same_run(quadratic_bowl, [0.25, 0.5], max_iterations=10)
    assert not np.array_equal(result.trace.parameters[0], result.trace.parameters[1])


@pytest.mark.parametrize("instance", ["F1", "K1"])
@pytest.mark.parametrize("solver", ["choco-q", "cyclic-qaoa", "penalty-qaoa", "hea"])
def test_solver_cost_closures(solver, instance):
    spec = make_solver(solver).build_spec(repro.make_benchmark(instance, 0))
    if solver == "choco-q":
        spec, _driver = spec

    def cost(parameters: np.ndarray) -> float:
        # The variational engine's cost closure.
        probabilities = np.abs(spec.evolve(parameters)) ** 2
        return float(np.dot(probabilities, spec.cost_diagonal))

    initial = np.asarray(spec.initial_parameters, dtype=float)
    assert_same_run(cost, initial, max_iterations=max(40, initial.size + 12))
