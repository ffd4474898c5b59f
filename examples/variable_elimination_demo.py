"""Variable elimination: trading measurement overhead for circuit depth.

Reproduces the reasoning of Section IV-C interactively: for an F2-scale
facility location instance, eliminate 0, 1 and 2 variables and report how the
transpiled circuit depth, the qubit count, the number of circuit executions,
and the noisy success rate respond.  Shallower circuits survive NISQ noise
better, which is why the paper reports large success gains from the first
one or two eliminations and diminishing returns afterwards.

Run with ``python examples/variable_elimination_demo.py``.
"""

from __future__ import annotations

import os

import repro
from repro import EngineOptions, NoiseConfig
from repro.analysis import print_table
from repro.core import choose_elimination_variables, ternary_nullspace_basis
from repro.problems import make_benchmark
from repro.solvers import CobylaOptimizer

SMOKE = os.environ.get("REPRO_SMOKE", "") == "1"


def main() -> None:
    problem = make_benchmark("F2")
    matrix, _ = problem.constraint_matrix()
    basis = ternary_nullspace_basis(matrix)
    print(f"problem: {problem.name} — {problem.num_variables} variables, "
          f"{problem.num_constraints} constraints")
    print(f"driver basis: {len(basis)} solution vectors of C u = 0")
    print("elimination order (most non-zeros first):",
          choose_elimination_variables(problem, 2), "\n")

    _, optimal_value = problem.brute_force_optimum()
    optimizer = CobylaOptimizer(max_iterations=5 if SMOKE else 30)
    rows = []
    for eliminated in (0, 1) if SMOKE else (0, 1, 2):
        config = {"num_layers": 1, "num_eliminated_variables": eliminated}

        ideal = repro.solve(
            problem, solver="choco-q", config=config, optimizer=optimizer,
            options=EngineOptions(shots=128 if SMOKE else 1024, seed=3),
        )

        noisy = repro.solve(
            problem, solver="choco-q", config=config, optimizer=optimizer,
            options=EngineOptions(shots=64 if SMOKE else 512, seed=3),
            noise=NoiseConfig(device="fez", trajectories=2 if SMOKE else 8),
        )
        noisy_metrics = noisy.metrics(problem, optimal_value)

        rows.append(
            {
                "eliminated": eliminated,
                "qubits": ideal.metadata.get("sub_problem_qubits", ideal.num_qubits),
                "circuit_executions": ideal.metadata.get("num_circuits", 1),
                "transpiled_depth": ideal.transpiled_depth,
                "noisy_success_%": 100 * noisy_metrics.success_rate,
                "noisy_in_constraints_%": 100 * noisy_metrics.in_constraints_rate,
            }
        )

    print_table(rows, title="Variable elimination on F2 (ideal depth, Fez-noise success)")


if __name__ == "__main__":
    main()
