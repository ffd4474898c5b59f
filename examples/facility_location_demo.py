"""Facility location: compare all four QAOA designs on one FLP instance.

The scenario from the paper's introduction: decide which facilities to open
and which facility serves each demand point, minimizing opening plus service
cost, with assignment and linking constraints.  The script builds an F1-scale
instance, runs Penalty-QAOA, Cyclic-QAOA, HEA and Choco-Q on it, and prints a
Table-II-style comparison plus the decoded best plan.

Run with ``python examples/facility_location_demo.py``.
"""

from __future__ import annotations

import os

import repro
from repro import EngineOptions
from repro.analysis import print_table
from repro.core.metrics import best_measured
from repro.problems.facility_location import (
    facility_location_problem,
    random_facility_location,
    variable_layout,
)
from repro.solvers import CobylaOptimizer

SMOKE = os.environ.get("REPRO_SMOKE", "") == "1"

#: registry name -> layer-count override for this demo's comparison.
LAYERS = {"penalty-qaoa": 3, "cyclic-qaoa": 3, "hea": 2, "choco-q": 2}


def main() -> None:
    instance = random_facility_location(num_facilities=2, num_demands=1, seed=42)
    problem = facility_location_problem(instance, name="demo-flp")
    print(f"instance: {instance.num_facilities} facilities, {instance.num_demands} demand points")
    print(f"opening costs: {instance.opening_costs}")
    print(f"service costs: {instance.service_costs}")
    print(f"problem size : {problem.num_variables} variables, {problem.num_constraints} constraints\n")

    options = EngineOptions(shots=256 if SMOKE else 4096, seed=1)

    _, optimal_value = problem.brute_force_optimum()
    rows = []
    best_plan = None
    for name, layers in LAYERS.items():
        # HEA's 3 x 6 RY angles need COBYLA's minimum smoke budget of 18 + 2.
        smoke_budget = 20 if name == "hea" else 10
        optimizer = CobylaOptimizer(max_iterations=smoke_budget if SMOKE else 80)
        result = repro.solve(
            problem, solver=name, num_layers=layers, optimizer=optimizer, options=options
        )
        metrics = result.metrics(problem, optimal_value)
        rows.append(
            {
                "solver": name,
                "success_%": 100 * metrics.success_rate,
                "in_constraints_%": 100 * metrics.in_constraints_rate,
                "arg": metrics.approximation_ratio_gap,
                "depth": metrics.circuit_depth,
                "iterations": result.metadata.get("iterations", 0),
            }
        )
        if name == "choco-q":
            best_plan, _ = best_measured(problem, dict(result.distribution()))

    print_table(rows, title=f"FLP comparison (classical optimum = {optimal_value})")

    if best_plan is not None:
        layout = variable_layout(instance.num_facilities, instance.num_demands)
        print("\nChoco-Q best measured plan:")
        for facility in range(instance.num_facilities):
            state = "open" if best_plan[layout[f"y{facility}"]] else "closed"
            print(f"  facility {facility}: {state}")
        for demand in range(instance.num_demands):
            for facility in range(instance.num_facilities):
                if best_plan[layout[f"x{demand}_{facility}"]]:
                    print(f"  demand {demand} served by facility {facility}")


if __name__ == "__main__":
    main()
