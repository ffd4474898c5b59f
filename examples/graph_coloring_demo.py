"""Graph coloring on a noisy device model.

Builds a G1-scale graph coloring instance, solves it with Choco-Q twice —
once on the ideal simulator and once under the IBM Fez noise model — and
decodes the best measured coloring.  This mirrors the paper's Fig. 10
hardware experiment: noise erodes the ideal rates but the commute-Hamiltonian
encoding keeps most samples feasible.

Run with ``python examples/graph_coloring_demo.py``.
"""

from __future__ import annotations

import os

import repro
from repro import ChocoQConfig, EngineOptions, NoiseConfig
from repro.analysis import print_table
from repro.core.metrics import best_measured
from repro.problems.graph_coloring import (
    coloring_from_assignment,
    graph_coloring_problem,
    is_proper_coloring,
    random_graph_coloring,
)
from repro.solvers import CobylaOptimizer

SMOKE = os.environ.get("REPRO_SMOKE", "") == "1"


def main() -> None:
    instance = random_graph_coloring(num_vertices=3, num_edges=2, num_colors=2, seed=7)
    problem = graph_coloring_problem(instance, name="demo-gcp")
    print(f"graph: {instance.num_vertices} vertices, edges = {list(instance.edges)}")
    print(f"colors: {instance.num_colors}, per-color costs = {instance.color_costs}")
    print(f"problem size: {problem.num_variables} variables, {problem.num_constraints} constraints\n")

    _, optimal_value = problem.brute_force_optimum()
    optimizer = CobylaOptimizer(max_iterations=8 if SMOKE else 60)
    config = ChocoQConfig(num_layers=2)

    rows = []
    decoded = {}
    fez = NoiseConfig(device="fez", trajectories=2 if SMOKE else 8)
    for label, noise in (("ideal", None), ("fez-noise", fez)):
        options = EngineOptions(shots=128 if SMOKE else 2048, seed=2)
        result = repro.solve(problem, solver="choco-q", config=config.replace(noise=noise),
                             optimizer=optimizer, options=options)
        metrics = result.metrics(problem, optimal_value)
        rows.append(
            {
                "backend": label,
                "success_%": 100 * metrics.success_rate,
                "in_constraints_%": 100 * metrics.in_constraints_rate,
                "arg": metrics.approximation_ratio_gap,
            }
        )
        best, _ = best_measured(problem, dict(result.distribution()))
        decoded[label] = best

    print_table(rows, title="Choco-Q on graph coloring: ideal vs. Fez noise model")

    for label, assignment in decoded.items():
        if assignment is None:
            print(f"\n{label}: no feasible sample observed")
            continue
        coloring = coloring_from_assignment(instance, assignment)
        print(f"\n{label}: best measured coloring = {coloring} "
              f"(proper: {is_proper_coloring(instance, coloring)})")


if __name__ == "__main__":
    main()
