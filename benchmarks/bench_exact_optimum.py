"""The exact optimum as a minimum over the feasible set ``F``.

Success rate and ARG are scored against
:meth:`~repro.core.problem.ConstrainedBinaryProblem.brute_force_optimum`,
which walks ``F = {x in {0,1}^n : C x = c}`` block by block as
:func:`~repro.core.feasibility.feasible_rows` enumerates it, and evaluates
the objective on each block.  The same enumerator builds the subspace basis
and the start state.  This benchmark records per instance:

* ``n`` and ``feasible`` — the register width and ``|F|``;
* ``enumerate_ms`` — ms to walk ``F`` (:func:`count_feasible_assignments`);
* ``optimum_ms`` — ms for ``brute_force_optimum``.

Both times are the minimum over rounds.  The instances are case 0 of the
12 suite scales, two seeded generator instances past the suite's 16
variables (``random_k_partition(12, 14)`` with 24 variables and
``random_facility_location(3, 4)`` with 27) and a 20-variable unconstrained
QUBO, whose ``F`` is the whole cube.  The gate: the 27-variable optimum
takes under :data:`WIDE_OPTIMUM_BUDGET_S`.

Run directly (``python benchmarks/bench_exact_optimum.py``, which writes
``BENCH_exact_optimum.json``) or through pytest-benchmark
(``pytest benchmarks/bench_exact_optimum.py -o python_functions="bench_*"``,
fewer rounds, writes no file).
"""

from __future__ import annotations

import time

import numpy as np

from harness import print_speedup_rows, write_bench_json

from repro.core.feasibility import count_feasible_assignments
from repro.core.problem import ConstrainedBinaryProblem, Objective
from repro.problems import (
    facility_location_problem,
    k_partition_problem,
    random_facility_location,
    random_k_partition,
)
from repro.problems.benchmark_suite import SCALE_NAMES, make_benchmark

BENCH_NAME = "exact_optimum"
ROUNDS = 5
QUBO_VARIABLES = 20
#: The 27-variable facility-location optimum must take less than this.
WIDE_OPTIMUM_BUDGET_S = 1.0
WIDE_CASE = "facility_location(3, 4)"


def dense_qubo(num_variables: int, seed: int = 0) -> ConstrainedBinaryProblem:
    """An unconstrained QUBO with a weight on every variable and pair."""
    rng = np.random.default_rng(seed)
    objective = Objective.from_linear(rng.integers(-5, 6, num_variables).astype(float).tolist())
    for i in range(num_variables):
        for j in range(i + 1, num_variables):
            objective.add_term((i, j), float(rng.integers(-3, 4)))
    return ConstrainedBinaryProblem(num_variables, objective, name=f"qubo-{num_variables}")


def instances() -> list[tuple[str, ConstrainedBinaryProblem]]:
    cases = [(scale, make_benchmark(scale, 0)) for scale in SCALE_NAMES]
    cases.append(("k_partition(12, 14)", k_partition_problem(random_k_partition(12, 14, seed=0))))
    cases.append((WIDE_CASE, facility_location_problem(random_facility_location(3, 4, seed=0))))
    cases.append((f"qubo({QUBO_VARIABLES})", dense_qubo(QUBO_VARIABLES)))
    return cases


def _best_ms(call, rounds: int) -> float:
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return min(times) * 1e3


def run_exact_optimum(rounds: int = ROUNDS) -> list[dict]:
    """One row per instance: ``n``, ``|F|`` and the two minimum times."""
    rows = []
    for case, problem in instances():
        matrix, rhs = problem.constraint_matrix()
        rows.append(
            {
                "case": case,
                "n": problem.num_variables,
                "feasible": count_feasible_assignments(matrix, rhs),
                "enumerate_ms": _best_ms(lambda: count_feasible_assignments(matrix, rhs), rounds),
                "optimum_ms": _best_ms(problem.brute_force_optimum, rounds),
            }
        )
    return rows


def check_rows(rows: list[dict]) -> None:
    """The gate: the 27-variable optimum is well under a second."""
    (wide,) = [row for row in rows if row["case"] == WIDE_CASE]
    assert wide["n"] == 27
    assert wide["optimum_ms"] < WIDE_OPTIMUM_BUDGET_S * 1e3, (
        f"the {wide['n']}-variable exact optimum took {wide['optimum_ms']:.0f} ms, "
        f"wanted < {WIDE_OPTIMUM_BUDGET_S * 1e3:.0f} ms"
    )


def print_rows(rows: list[dict]) -> None:
    printable = [
        {key: f"{value:.2f}" if key.endswith("_ms") else value for key, value in row.items()}
        for row in rows
    ]
    print_speedup_rows(printable, title="Exact optimum over the feasible set")


def bench_exact_optimum(benchmark):
    rows = benchmark.pedantic(run_exact_optimum, kwargs={"rounds": 2}, rounds=1, iterations=1)
    print()
    print_rows(rows)
    check_rows(rows)


if __name__ == "__main__":
    table_rows = run_exact_optimum()
    print_rows(table_rows)
    check_rows(table_rows)
    path = write_bench_json(
        BENCH_NAME,
        table_rows,
        metadata={
            "rounds": ROUNDS,
            "statistic": "min",
            "qubo_variables": QUBO_VARIABLES,
            "wide_optimum_budget_s": WIDE_OPTIMUM_BUDGET_S,
        },
    )
    print(f"trajectory written to {path}")
