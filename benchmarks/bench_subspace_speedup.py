"""Feasible-subspace backend — dense-vs-subspace roofline comparison.

Choco-Q's evolution never leaves the feasible subspace ``F``, so the
``subspace`` backend simulates each COBYLA iteration over ``|F|`` amplitudes
instead of ``2^n``.  Following the roofline-style methodology of HPC AI500,
this benchmark measures the quantity that bounds end-to-end solver throughput
— the per-iteration ansatz evolution — on the seed problem suite:

* columns ``2^n`` vs ``|F|`` show the state compression;
* per-iteration wall-clock for both backends and their ratio show the
  crossover: at toy scales the dense path's flat NumPy vectorisation wins,
  but the subspace advantage grows with the register until it dominates
  (the ratio must exceed 5x on the largest constrained case, where
  ``|F| << 2^n``);
* every row is only reported after both backends agree on the evolved state
  to ``AGREEMENT_TOLERANCE`` (1e-9), so the speedup is never bought with
  accuracy.

The two backends are timed in turn within each of ``REPEATS`` rounds: the
``*_ms/iter`` columns are best-of per backend, and ``speedup`` is the median
of the per-round dense/subspace ratios, so one slow round cannot move the
gate.

Run directly (``python benchmarks/bench_subspace_speedup.py``) or through
pytest-benchmark like the sibling benchmarks
(``pytest benchmarks/bench_subspace_speedup.py -o python_functions="bench_*"``
— without the ``python_functions`` override pytest collects nothing).
"""

from __future__ import annotations

from harness import (
    check_speedup_rows,
    interleaved_round_ms,
    max_backend_error,
    median_round_ratio,
    print_speedup_rows,
    write_bench_json,
)

from repro.problems import make_benchmark
from repro.solvers.chocoq import ChocoQConfig, ChocoQSolver
from repro.solvers.optimizer import CobylaOptimizer
from repro.solvers.variational import EngineOptions

CASES = ("F1", "G1", "K1", "K2", "G3", "G4")
LARGE_CASE = "G4"
NUM_LAYERS = 2
REPEATS = 15
AGREEMENT_TOLERANCE = 1e-9
TARGET_SPEEDUP = 5.0


def _build_specs(problem, num_layers: int):
    """Dense and subspace AnsatzSpecs for the same problem and layer count."""
    optimizer = CobylaOptimizer(max_iterations=1)
    options = EngineOptions(shots=1, seed=0)
    dense_solver = ChocoQSolver(
        ChocoQConfig(num_layers=num_layers, backend="dense"), optimizer, options
    )
    subspace_solver = ChocoQSolver(
        ChocoQConfig(num_layers=num_layers, backend="subspace"), optimizer, options
    )
    dense_spec, _ = dense_solver.build_spec(problem)
    subspace_spec, _ = subspace_solver.build_spec(problem)
    return dense_spec, subspace_spec


def verify_backend_agreement(
    problem, num_layers: int = NUM_LAYERS, num_parameter_sets: int = 3, specs=None
) -> float:
    """Max |dense - lifted subspace| amplitude error over random parameters.

    ``specs`` may pass prebuilt ``(dense_spec, subspace_spec)`` so callers
    timing the same specs do not pay the feasible-set enumeration and
    pairing precompute twice.
    """
    dense_spec, subspace_spec = specs if specs is not None else _build_specs(problem, num_layers)
    return max_backend_error(dense_spec, subspace_spec, num_parameter_sets)


def run_subspace_speedup(
    cases=CASES, num_layers: int = NUM_LAYERS, repeats: int = REPEATS
) -> list[dict]:
    """One table row per case: sizes, agreement, per-iteration times, speedup."""
    rows = []
    for case in cases:
        problem = make_benchmark(case)
        dense_spec, subspace_spec = specs = _build_specs(problem, num_layers)
        agreement = verify_backend_agreement(problem, num_layers, specs=specs)
        parameters = dense_spec.initial_parameters
        rounds = interleaved_round_ms(
            {"dense": dense_spec.evolve, "subspace": subspace_spec.evolve}, parameters, repeats
        )
        rows.append(
            {
                "case": case,
                "qubits": problem.num_variables,
                "2^n": 2**problem.num_variables,
                "|F|": subspace_spec.metadata["subspace_size"],
                "max_err": agreement,
                "dense_ms/iter": float(rounds["dense"].min()),
                "subspace_ms/iter": float(rounds["subspace"].min()),
                "speedup": median_round_ratio(rounds, "dense", "subspace"),
            }
        )
    return rows


def check_rows(rows: list[dict]) -> None:
    """The benchmark's acceptance assertions."""
    check_speedup_rows(rows, LARGE_CASE, "|F|", TARGET_SPEEDUP, AGREEMENT_TOLERANCE)


def print_rows(rows: list[dict]) -> None:
    print_speedup_rows(
        rows, title="Feasible-subspace backend — per-iteration evolution speedup"
    )


def bench_subspace_speedup(benchmark):
    rows = benchmark.pedantic(run_subspace_speedup, rounds=1, iterations=1)
    print()
    print_rows(rows)
    check_rows(rows)


if __name__ == "__main__":
    table_rows = run_subspace_speedup()
    print_rows(table_rows)
    check_rows(table_rows)
    json_path = write_bench_json(
        "subspace_speedup",
        table_rows,
        metadata={"num_layers": NUM_LAYERS, "repeats": REPEATS, "target_speedup": TARGET_SPEEDUP},
    )
    print(f"trajectory written to {json_path}")
    print("all backend-agreement and speedup checks passed")
