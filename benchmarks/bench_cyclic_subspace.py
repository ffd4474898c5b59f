"""Cyclic-QAOA subspace backend — dense-vs-subspace roofline comparison.

The cyclic baseline's ring mixers conserve the excitation number of every
encoded summation chain, so its evolution never leaves the feasible set of
the *encoded* constraint rows — the same invariant the Choco-Q ``subspace``
backend exploits (``bench_subspace_speedup.py``).  This benchmark measures
the per-iteration ansatz evolution of :class:`CyclicQAOASolver` on both
state layouts across the seed suite:

* ``2^n`` vs ``|F_enc|`` shows the compression of the encoded sector (the
  unencoded constraints stay soft, so ``|F_enc|`` exceeds the fully-feasible
  ``|F|`` — the ring driver simply cannot restrict further);
* per-iteration wall-clock for both backends and their ratio must clear
  ``TARGET_SPEEDUP`` (10x) on the 16-qubit ``LARGE_CASE``;
* a ``sweep`` column times the batched ``(k, |F_enc|)`` evolution of
  ``SWEEP_SIZE`` parameter vectors against evolving them one by one,
  showing what vectorised COBYLA restarts / parameter sweeps save;
* every row is only reported after both backends agree on the evolved state
  to ``AGREEMENT_TOLERANCE`` (1e-9).

The two backends are timed in turn within each of ``REPEATS`` rounds: the
``*_ms/iter`` columns are best-of per backend, and ``speedup`` is the median
of the per-round dense/subspace ratios, so one slow round cannot move the
gate.

Run directly (``python benchmarks/bench_cyclic_subspace.py``) or through
pytest-benchmark like the sibling benchmarks
(``pytest benchmarks/bench_cyclic_subspace.py -o python_functions="bench_*"``).
"""

from __future__ import annotations

import numpy as np

from harness import (
    check_speedup_rows,
    interleaved_round_ms,
    max_backend_error,
    median_round_ratio,
    print_speedup_rows,
    time_call,
    write_bench_json,
)

from repro.problems import make_benchmark
from repro.solvers.cyclic_qaoa import CyclicQAOAConfig, CyclicQAOASolver
from repro.solvers.optimizer import CobylaOptimizer
from repro.solvers.variational import EngineOptions, evolve_parameter_sets

CASES = ("F1", "G1", "K1", "K2", "G4", "K4")
LARGE_CASE = "K4"  # 16 qubits, all constraints one-hot pairs: |F_enc| = 256
NUM_LAYERS = 2
REPEATS = 15
SWEEP_SIZE = 8
AGREEMENT_TOLERANCE = 1e-9
TARGET_SPEEDUP = 10.0


def _build_specs(problem, num_layers: int):
    """Dense and subspace AnsatzSpecs for the same problem and layer count."""
    optimizer = CobylaOptimizer(max_iterations=1)
    options = EngineOptions(shots=1, seed=0)
    dense_spec = CyclicQAOASolver(
        config=CyclicQAOAConfig(num_layers=num_layers, backend="dense"),
        optimizer=optimizer,
        options=options,
    ).build_spec(problem)
    subspace_spec = CyclicQAOASolver(
        config=CyclicQAOAConfig(num_layers=num_layers, backend="subspace"),
        optimizer=optimizer,
        options=options,
    ).build_spec(problem)
    return dense_spec, subspace_spec


def verify_backend_agreement(
    problem, num_layers: int = NUM_LAYERS, num_parameter_sets: int = 3, specs=None
) -> float:
    """Max |dense - lifted subspace| amplitude error over random parameters."""
    dense_spec, subspace_spec = specs if specs is not None else _build_specs(problem, num_layers)
    return max_backend_error(dense_spec, subspace_spec, num_parameter_sets)


def run_cyclic_subspace(
    cases=CASES, num_layers: int = NUM_LAYERS, repeats: int = REPEATS
) -> list[dict]:
    """One table row per case: sizes, agreement, per-iteration times, speedups."""
    rows = []
    for case in cases:
        problem = make_benchmark(case)
        dense_spec, subspace_spec = specs = _build_specs(problem, num_layers)
        agreement = verify_backend_agreement(problem, num_layers, specs=specs)
        parameters = dense_spec.initial_parameters
        rounds = interleaved_round_ms(
            {"dense": dense_spec.evolve, "subspace": subspace_spec.evolve}, parameters, repeats
        )
        # Batched sweep: k parameter vectors in one (k, |F_enc|) pass vs a
        # Python loop of k sequential evolutions on the same layout.
        sweep = np.tile(parameters, (SWEEP_SIZE, 1))
        batched_seconds = time_call(
            lambda: evolve_parameter_sets(subspace_spec, sweep), repeats
        )
        looped_seconds = time_call(
            lambda: [subspace_spec.evolve(p) for p in sweep], repeats
        )
        rows.append(
            {
                "case": case,
                "qubits": problem.num_variables,
                "2^n": 2**problem.num_variables,
                "|F_enc|": subspace_spec.metadata["subspace_size"],
                "max_err": agreement,
                "dense_ms/iter": float(rounds["dense"].min()),
                "subspace_ms/iter": float(rounds["subspace"].min()),
                "speedup": median_round_ratio(rounds, "dense", "subspace"),
                "sweep_speedup": looped_seconds / batched_seconds,
            }
        )
    return rows


def check_rows(rows: list[dict]) -> None:
    """The benchmark's acceptance assertions."""
    large = check_speedup_rows(
        rows, LARGE_CASE, "|F_enc|", TARGET_SPEEDUP, AGREEMENT_TOLERANCE
    )
    assert large["qubits"] == 16, "the large case must be a 16-qubit register"


def print_rows(rows: list[dict]) -> None:
    print_speedup_rows(
        rows, title="Cyclic-QAOA subspace backend — per-iteration evolution speedup"
    )


def bench_cyclic_subspace(benchmark):
    rows = benchmark.pedantic(run_cyclic_subspace, rounds=1, iterations=1)
    print()
    print_rows(rows)
    check_rows(rows)


if __name__ == "__main__":
    table_rows = run_cyclic_subspace()
    print_rows(table_rows)
    check_rows(table_rows)
    json_path = write_bench_json(
        "cyclic_subspace",
        table_rows,
        metadata={
            "num_layers": NUM_LAYERS,
            "repeats": REPEATS,
            "sweep_size": SWEEP_SIZE,
            "target_speedup": TARGET_SPEEDUP,
        },
    )
    print(f"trajectory written to {json_path}")
    print("all backend-agreement and speedup checks passed")
