"""Figure 13 — the effect of variable elimination.

Panel (a): transpiled circuit depth after eliminating 0-3 variables on the
mid-scale cases (F2, G2, K2) — each elimination shrinks the constraint
matrix, the solution vectors, and therefore the decomposed driver.
Panel (b): success rate under a device noise model — shallower circuits
survive noise better, so elimination buys success rate despite splitting the
shot budget over more circuit executions; the gains taper off once most
non-zeros have been eliminated (the paper's diminishing-returns observation).
"""

from __future__ import annotations

from harness import FEZ_NOISE, engine_options, optimizer, percentage

from repro.analysis.report import print_table
from repro.problems import make_benchmark
from repro.solvers.chocoq import ChocoQConfig, ChocoQSolver

CASES = ("F2", "G2", "K2")
ELIMINATION_COUNTS = (0, 1, 2)
NOISY_SHOTS = 512
NOISY_ITERATIONS = 20


def _fig13_rows() -> list[dict]:
    depth_rows = []
    success_rows = []
    for case in CASES:
        problem = make_benchmark(case)
        _, optimal_value = problem.brute_force_optimum()
        depth_row: dict = {"case": case}
        success_row: dict = {"case": case}
        for eliminated in ELIMINATION_COUNTS:
            config = ChocoQConfig(num_layers=1, num_eliminated_variables=eliminated)
            ideal_solver = ChocoQSolver(
                config=config, optimizer=optimizer(NOISY_ITERATIONS), options=engine_options()
            )
            ideal_result = ideal_solver.solve(problem)
            depth_row[f"depth[elim={eliminated}]"] = ideal_result.transpiled_depth

            noisy_solver = ChocoQSolver(
                config=config.replace(noise=FEZ_NOISE),
                optimizer=optimizer(NOISY_ITERATIONS),
                options=engine_options(shots=NOISY_SHOTS),
            )
            noisy_result = noisy_solver.solve(problem)
            metrics = noisy_result.metrics(problem, optimal_value)
            success_row[f"success_%[elim={eliminated}]"] = percentage(metrics.success_rate)
        depth_rows.append(depth_row)
        success_rows.append(success_row)
    return depth_rows + success_rows


def bench_fig13_elimination(benchmark):
    rows = benchmark.pedantic(_fig13_rows, rounds=1, iterations=1)
    depth_rows = rows[: len(CASES)]
    success_rows = rows[len(CASES):]
    print()
    print_table(depth_rows, title="Figure 13(a) — transpiled depth vs. eliminated variables")
    print()
    print_table(success_rows, title="Figure 13(b) — noisy success rate vs. eliminated variables")
    # Depth decreases (or at worst stays flat) as variables are eliminated.
    # The paper notes KPP benefits little (uniformly distributed non-zeros),
    # so a small slack is allowed; the FLP/GCP cases must show a real drop.
    for row in depth_rows:
        assert row["depth[elim=1]"] <= row["depth[elim=0]"] * 1.1
        assert row["depth[elim=2]"] <= row["depth[elim=1]"] * 1.1
    by_case = {row["case"]: row for row in depth_rows}
    assert by_case["F2"]["depth[elim=2]"] < by_case["F2"]["depth[elim=0]"]
