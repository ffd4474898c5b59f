"""Classical parameter optimizers for the variational loops.

The paper uses COBYLA (constrained optimization by linear approximation,
ref. [39]) to update the QAOA parameters for every design it evaluates; this
module wraps SciPy's implementation and adds two gradient-free alternatives
(Nelder-Mead and SPSA) used in the ablation and robustness tests.

Each optimizer exposes the same ``minimize(cost, initial)`` interface and
records every cost evaluation in an :class:`~repro.solvers.base.OptimizationTrace`
so convergence curves (Fig. 9a) and iteration counts (Fig. 11b) can be
reconstructed afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import optimize as scipy_optimize

from repro.exceptions import SolverError
from repro.serialization import is_integer
from repro.solvers.base import OptimizationTrace

CostFunction = Callable[[np.ndarray], float]


@dataclass
class OptimizerResult:
    """Outcome of one classical optimization run."""

    parameters: np.ndarray
    cost: float
    trace: OptimizationTrace
    num_iterations: int
    converged: bool


class Optimizer:
    """Base class: subclasses implement :meth:`_run`."""

    name = "optimizer"

    def __init__(self, max_iterations: int = 100, tolerance: float = 1e-4) -> None:
        if not is_integer(max_iterations) or max_iterations < 1:
            raise SolverError(
                f"max_iterations must be a positive integer, got {max_iterations!r}"
            )
        self.max_iterations = max_iterations
        self.tolerance = tolerance

    def minimize(self, cost: CostFunction, initial: Sequence[float]) -> OptimizerResult:
        initial = np.asarray(initial, dtype=float)
        trace = OptimizationTrace()

        def tracked(parameters: np.ndarray) -> float:
            value = float(cost(np.asarray(parameters, dtype=float)))
            trace.record(value, parameters)
            return value

        parameters, value, converged = self._run(tracked, initial)
        return OptimizerResult(
            parameters=np.asarray(parameters, dtype=float),
            cost=float(value),
            trace=trace,
            num_iterations=trace.num_iterations,
            converged=converged,
        )

    def _run(self, cost: CostFunction, initial: np.ndarray) -> tuple[np.ndarray, float, bool]:
        raise NotImplementedError


class CobylaOptimizer(Optimizer):
    """COBYLA — the parameter-update method used throughout the paper."""

    name = "cobyla"

    def __init__(self, max_iterations: int = 100, tolerance: float = 1e-4, rhobeg: float = 0.5) -> None:
        super().__init__(max_iterations=max_iterations, tolerance=tolerance)
        self.rhobeg = rhobeg

    def _run(self, cost: CostFunction, initial: np.ndarray) -> tuple[np.ndarray, float, bool]:
        # SciPy would silently raise a smaller budget to this minimum (the
        # initial simplex) and report the larger iteration count.
        minimum = initial.size + 2
        if self.max_iterations < minimum:
            raise SolverError(
                f"COBYLA needs max_iterations >= num_parameters + 2 = {minimum}, "
                f"got {self.max_iterations}"
            )
        result = scipy_optimize.minimize(
            cost,
            initial,
            method="COBYLA",
            options={
                "maxiter": self.max_iterations,
                "rhobeg": self.rhobeg,
                "tol": self.tolerance,
            },
        )
        return result.x, float(result.fun), bool(result.success)


class NelderMeadOptimizer(Optimizer):
    """Nelder-Mead simplex search; a common COBYLA alternative."""

    name = "nelder-mead"

    def _run(self, cost: CostFunction, initial: np.ndarray) -> tuple[np.ndarray, float, bool]:
        result = scipy_optimize.minimize(
            cost,
            initial,
            method="Nelder-Mead",
            options={"maxiter": self.max_iterations, "fatol": self.tolerance},
        )
        return result.x, float(result.fun), bool(result.success)


class SpsaOptimizer(Optimizer):
    """Simultaneous perturbation stochastic approximation.

    A standard choice when cost evaluations are noisy (shot-sampled); included
    for the robustness experiments.  Uses the usual gain sequences
    ``a_k = a / (k + 1 + A)^alpha`` and ``c_k = c / (k + 1)^gamma``.
    """

    name = "spsa"

    def __init__(
        self,
        max_iterations: int = 100,
        tolerance: float = 1e-4,
        a: float = 0.2,
        c: float = 0.1,
        alpha: float = 0.602,
        gamma: float = 0.101,
        seed: int | None = None,
    ) -> None:
        super().__init__(max_iterations=max_iterations, tolerance=tolerance)
        self.a = a
        self.c = c
        self.alpha = alpha
        self.gamma = gamma
        self._rng = np.random.default_rng(seed)

    def _run(self, cost: CostFunction, initial: np.ndarray) -> tuple[np.ndarray, float, bool]:
        parameters = initial.copy()
        best_parameters = parameters.copy()
        best_value = cost(parameters)
        stability_offset = 0.1 * self.max_iterations
        for iteration in range(self.max_iterations):
            a_k = self.a / (iteration + 1 + stability_offset) ** self.alpha
            c_k = self.c / (iteration + 1) ** self.gamma
            delta = self._rng.choice([-1.0, 1.0], size=parameters.shape)
            value_plus = cost(parameters + c_k * delta)
            value_minus = cost(parameters - c_k * delta)
            gradient = (value_plus - value_minus) / (2.0 * c_k) * delta
            parameters = parameters - a_k * gradient
            value = cost(parameters)
            if value < best_value:
                best_value = value
                best_parameters = parameters.copy()
        return best_parameters, best_value, True


def make_optimizer(name: str, **kwargs) -> Optimizer:
    """Factory used by solver configuration."""
    registry = {
        "cobyla": CobylaOptimizer,
        "nelder-mead": NelderMeadOptimizer,
        "spsa": SpsaOptimizer,
    }
    key = name.lower()
    if key not in registry:
        raise SolverError(f"unknown optimizer {name!r}; available: {sorted(registry)}")
    return registry[key](**kwargs)
