"""Quickstart: solve a small constrained binary optimization with repro.solve.

This walks through the unified experiment API in ~40 lines:

1. define a problem (objective + linear equality constraints),
2. run any registered solver with one ``repro.solve(...)`` call,
3. inspect the measurement histogram and the Table-II metrics,
4. compare against the classical exact solution.

``repro.available_solvers()`` lists the registered designs (``choco-q``,
``penalty-qaoa``, ``cyclic-qaoa``, ``hea``); keyword overrides such as
``num_layers=2`` configure the solver without touching its config class.

Run with ``python examples/quickstart.py``.
"""

from __future__ import annotations

import os

import repro
from repro import ConstrainedBinaryProblem, EngineOptions, LinearConstraint, Objective

SMOKE = os.environ.get("REPRO_SMOKE", "") == "1"


def main() -> None:
    # The running example of the paper (Fig. 2a / Fig. 3):
    #   maximize 3 x0 + 2 x1 + 3 x2 + x3
    #   subject to x0 - x2 = 0 and x0 + x1 + x3 = 1.
    objective = Objective({(0,): 3.0, (1,): 2.0, (2,): 3.0, (3,): 1.0})
    constraints = [
        LinearConstraint((1.0, 0.0, -1.0, 0.0), 0.0),
        LinearConstraint((1.0, 1.0, 0.0, 1.0), 1.0),
    ]
    problem = ConstrainedBinaryProblem(
        num_variables=4,
        objective=objective,
        constraints=constraints,
        sense="max",
        name="quickstart",
    )

    # Classical ground truth (exponential, fine at this size).
    optimum, optimal_value = problem.brute_force_optimum()
    print(f"classical optimum: x = {optimum}, value = {optimal_value}")
    print(f"registered solvers: {repro.available_solvers()}")

    # Choco-Q: the commute-Hamiltonian driver guarantees every sample is feasible.
    result = repro.solve(
        problem,
        solver="choco-q",
        num_layers=2,
        options=EngineOptions(shots=256 if SMOKE else 4096, seed=0),
    )

    print(f"\nmost frequent measurements ({result.outcomes.shots} shots):")
    for bitstring, count in result.outcomes.most_common(5):
        bits = tuple(int(ch) for ch in bitstring)
        print(
            f"  {bitstring}  count={count:5d}  objective={problem.evaluate(bits):5.1f}"
            f"  feasible={problem.is_feasible(bits)}"
        )

    metrics = result.metrics(problem)
    print("\nmetrics (Table II format):")
    print(f"  success rate        = {100 * metrics.success_rate:.2f}%")
    print(f"  in-constraints rate = {100 * metrics.in_constraints_rate:.2f}%")
    print(f"  approximation gap   = {metrics.approximation_ratio_gap:.3f}")
    print(f"  circuit depth       = {metrics.circuit_depth}")
    print(f"  optimizer iterations= {result.metadata['iterations']}")

    # Every run serializes: result.to_dict() round-trips through JSON, which
    # is how the repro.run batch runner persists whole experiment grids.
    restored = repro.SolverResult.from_dict(result.to_dict())
    print(f"\nserialization round-trip ok: {restored.to_dict() == result.to_dict()}")


if __name__ == "__main__":
    main()
