"""Classical parameter optimizers for the variational loops.

The paper uses COBYLA (constrained optimization by linear approximation,
ref. [39]) to update the QAOA parameters for every design it evaluates.
:class:`CobylaOptimizer` calls PRIMA's pure-Python COBYLA core, the one
SciPy >= 1.16 runs behind ``minimize(method="COBYLA")``, directly: the same
call with the same arguments, so trajectories are bit-identical to SciPy's,
without importing ``scipy.optimize`` (~40 MB and ~0.4 s of every cold
start).  The core is loaded once, at import, from the installed SciPy's
``_lib/pyprima`` directory under a private package name, so PRIMA's own
``__init__`` (which imports ``scipy.optimize``) never runs.  Two
gradient-free alternatives ride along for the ablation and robustness
tests: Nelder-Mead (SciPy's, imported when it runs) and SPSA.

Each optimizer exposes the same ``minimize(cost, initial)`` interface and
records every cost evaluation in an :class:`~repro.solvers.base.OptimizationTrace`
so convergence curves (Fig. 9a) and iteration counts (Fig. 11b) can be
reconstructed afterwards.
"""

from __future__ import annotations

import copy
import importlib
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.exceptions import SolverError
from repro.serialization import is_integer
from repro.solvers.base import OptimizationTrace

#: Name the PRIMA core is imported under; a package of this name never
#: exists on disk.
_PRIMA_PACKAGE = "repro.solvers._prima"


def _load_prima_cobyla():
    """PRIMA's ``cobyla`` function and its converged ``info`` codes.

    Imports ``cobyla/`` and ``common/`` of SciPy's ``_lib/pyprima`` (19
    NumPy-only modules) as subpackages of :data:`_PRIMA_PACKAGE`, whose
    ``__path__`` points at that directory: their relative imports resolve
    inside it, and ``pyprima/__init__.py`` is never executed.
    """
    import scipy

    root = os.path.join(os.path.dirname(scipy.__file__), "_lib", "pyprima")
    if not os.path.isfile(os.path.join(root, "cobyla", "cobyla.py")):
        raise ImportError(
            "repro needs SciPy >= 1.16, whose COBYLA is PRIMA's pure-Python core "
            f"(scipy/_lib/pyprima); SciPy {scipy.__version__} has none"
        )
    spec = importlib.machinery.ModuleSpec(_PRIMA_PACKAGE, None, is_package=True)
    spec.submodule_search_locations = [root]
    sys.modules[_PRIMA_PACKAGE] = importlib.util.module_from_spec(spec)
    core = importlib.import_module(f"{_PRIMA_PACKAGE}.cobyla.cobyla")
    infos = importlib.import_module(f"{_PRIMA_PACKAGE}.common.infos")
    return core.cobyla, (infos.SMALL_TR_RADIUS, infos.FTARGET_ACHIEVED)


_prima_cobyla, _COBYLA_CONVERGED = _load_prima_cobyla()

#: SciPy's default constraint tolerance (``catol``); with no constraints the
#: violation is 0, so it only enters the ``converged`` test.
_COBYLA_CTOL = np.sqrt(np.finfo(float).eps)

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

    def seeded(self, seed: np.random.SeedSequence) -> "Optimizer":
        """This optimizer for one run whose reserved stream is ``seed``.

        Deterministic optimizers draw nothing and return ``self``.
        """
        return self

    def _run(self, cost: CostFunction, initial: np.ndarray) -> tuple[np.ndarray, float, bool]:
        raise NotImplementedError


class CobylaOptimizer(Optimizer):
    """COBYLA — the parameter-update method used throughout the paper.

    ``rhobeg`` is the initial trust-region radius and ``tolerance`` the
    final one (PRIMA's ``rhoend``); both must be finite and positive with
    ``tolerance <= rhobeg``.  PRIMA itself would replace invalid values
    with its defaults and only warn.
    """

    name = "cobyla"

    def __init__(self, max_iterations: int = 100, tolerance: float = 1e-4, rhobeg: float = 0.5) -> None:
        super().__init__(max_iterations=max_iterations, tolerance=tolerance)
        if not (_is_positive_real(rhobeg) and _is_positive_real(tolerance) and tolerance <= rhobeg):
            raise SolverError(
                "COBYLA needs a finite positive rhobeg and tolerance with "
                f"tolerance <= rhobeg, got rhobeg={rhobeg!r}, tolerance={tolerance!r}"
            )
        self.rhobeg = rhobeg

    def _run(self, cost: CostFunction, initial: np.ndarray) -> tuple[np.ndarray, float, bool]:
        # PRIMA would silently raise a smaller budget to this minimum (the
        # initial simplex) and report the larger iteration count.
        minimum = initial.size + 2
        if self.max_iterations < minimum:
            raise SolverError(
                f"COBYLA needs max_iterations >= num_parameters + 2 = {minimum}, "
                f"got {self.max_iterations}"
            )
        # What scipy.optimize.minimize(method="COBYLA") hands PRIMA with no
        # bounds or constraints: infinite bounds and x0 projected onto them.
        lower = np.full(initial.size, -np.inf)
        upper = np.full(initial.size, np.inf)
        start = np.nanmin((np.nanmax((initial, lower), axis=0), upper), axis=0)

        # What SciPy's ScalarFunction shows the cost: x0 is evaluated once,
        # here, and handed to PRIMA as f0; every evaluation gets its own
        # float64 copy; a point equal to the last evaluated one reuses its
        # value.
        last_point = start.copy()
        last_value = cost(last_point.copy())

        def calcfc(parameters: np.ndarray) -> tuple[float, np.ndarray]:
            nonlocal last_point, last_value
            if not np.array_equal(parameters, last_point):
                last_point = np.array(parameters, dtype=float)
                last_value = cost(last_point.copy())
            return last_value, np.zeros(0)

        result = _prima_cobyla(
            calcfc,
            0,
            start,
            xl=lower,
            xu=upper,
            f0=last_value,
            nlconstr0=np.zeros(0),
            rhobeg=self.rhobeg,
            rhoend=self.tolerance,
            maxfun=self.max_iterations,
            iprint=0,
            ctol=_COBYLA_CTOL,
            ftarget=-np.inf,
        )
        converged = result.cstrv <= _COBYLA_CTOL and result.info in _COBYLA_CONVERGED
        return result.x, float(result.f), bool(converged)


class NelderMeadOptimizer(Optimizer):
    """Nelder-Mead simplex search; a common COBYLA alternative."""

    name = "nelder-mead"

    def _run(self, cost: CostFunction, initial: np.ndarray) -> tuple[np.ndarray, float, bool]:
        # Imported here: no COBYLA solve should pay for scipy.optimize.
        from scipy.optimize import minimize

        result = minimize(
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

    Every :meth:`minimize` call draws its perturbations from a fresh
    generator seeded with ``seed``; the variational engine replaces it with
    a child of the run seed (:meth:`seeded`), so a run spec's seed fixes the
    whole trajectory.
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
        seed: int | np.random.SeedSequence | None = None,
    ) -> None:
        super().__init__(max_iterations=max_iterations, tolerance=tolerance)
        self.a = a
        self.c = c
        self.alpha = alpha
        self.gamma = gamma
        self.seed = seed

    def seeded(self, seed: np.random.SeedSequence) -> "SpsaOptimizer":
        run = copy.copy(self)
        run.seed = seed
        return run

    def _run(self, cost: CostFunction, initial: np.ndarray) -> tuple[np.ndarray, float, bool]:
        rng = np.random.default_rng(self.seed)
        parameters = initial.copy()
        best_parameters = parameters.copy()
        best_value = cost(parameters)
        stability_offset = 0.1 * self.max_iterations
        for iteration in range(self.max_iterations):
            a_k = self.a / (iteration + 1 + stability_offset) ** self.alpha
            c_k = self.c / (iteration + 1) ** self.gamma
            delta = rng.choice([-1.0, 1.0], size=parameters.shape)
            value_plus = cost(parameters + c_k * delta)
            value_minus = cost(parameters - c_k * delta)
            gradient = (value_plus - value_minus) / (2.0 * c_k) * delta
            parameters = parameters - a_k * gradient
            value = cost(parameters)
            if value < best_value:
                best_value = value
                best_parameters = parameters.copy()
        return best_parameters, best_value, True


def _is_positive_real(value) -> bool:
    return (
        isinstance(value, (int, float, np.integer, np.floating))
        and not isinstance(value, bool)
        and math.isfinite(value)
        and value > 0
    )


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
