"""Per-iteration cost-evaluation throughput: compiled vs recompute-every-call.

The optimizer inner loop is the paper's latency story, and before this
benchmark's PR the loop re-derived its own structure on every cost
evaluation: the dense path rebuilt ``np.arange(2^n)`` plus two boolean masks
per term, and the subspace path recomputed the entire pairing permutation —
a Python loop of per-row dict lookups — per term, per layer, per COBYLA
iteration.  A compiled :class:`~repro.hamiltonian.compiled.EvolutionProgram`
resolves all of that once per solver prepare.

This benchmark times one full cost evaluation (ansatz evolution +
probability reduction + diagonal expectation) per backend and path:

* ``*_recompute`` — the structure-per-call paths: the dense one rebuilds
  :func:`~repro.hamiltonian.commute.dense_term_pairing` per term and call,
  the subspace one runs
  :func:`~repro.hamiltonian.commute.subspace_pairing_loop` per term and call,
  and both re-factor the cost diagonal's level table
  (:func:`~repro.hamiltonian.compiled.diagonal_levels`) per call;
* ``*_compiled``  — the same arithmetic over the program's cached hop
  sides: strided views of the ``(2,)*n`` qubit tensor on the dense layout,
  coordinate arrays on the subspace one (bit-identical final states,
  ``tobytes()``-compared on every row).

The four paths are timed in turn within each repeat round (best-of per
path), so a change in host speed hits all of them alike.  The acceptance
gate requires the compiled subspace path to clear
``TARGET_SPEEDUP`` (5x) over the recompute path on the 16-qubit gate case.
Results are written to ``BENCH_iteration_throughput.json`` through the
shared writer in :mod:`harness`, seeding the repo's machine-readable perf
trajectory (``make bench-hotpath`` refreshes it).

Run directly (``python benchmarks/bench_iteration_throughput.py``) or through
pytest-benchmark
(``pytest benchmarks/bench_iteration_throughput.py -o python_functions="bench_*"``).
"""

from __future__ import annotations

import time

import numpy as np

from harness import print_speedup_rows, write_bench_json

from repro.hamiltonian.commute import (
    dense_term_pairing,
    rotate_pairs_cs,
    subspace_pairing_loop,
)
from repro.hamiltonian.compiled import (
    apply_diagonal_phase,
    diagonal_levels,
    prepare_ansatz_state,
)
from repro.problems import make_benchmark
from repro.solvers.chocoq import ChocoQConfig, ChocoQSolver
from repro.solvers.optimizer import CobylaOptimizer
from repro.solvers.variational import EngineOptions

BENCH_NAME = "iteration_throughput"
CASES = ("F1", "K1", "K2", "G4", "K4")
#: 16-qubit case the acceptance gate applies to.  G4 is also 16 qubits but
#: its feasible set holds just 2 states, so its recompute path has almost no
#: pairing work to hoist; K4 (|F| = 70, 7 driver terms) is the case that
#: actually exercises the per-call pairing loop the compiled path removes.
GATE_CASES = ("K4",)
GATE_QUBITS = 16
NUM_LAYERS = 2
#: Best-of repeats per timing.  Individual cost evaluations are sub-ms, so a
#: generous repeat count costs little and keeps the gate ratio stable against
#: scheduler jitter.
REPEATS = 15
TARGET_SPEEDUP = 5.0
#: The compiled dense path rotates strided views of the ``(2,)*n`` qubit
#: tensor where the recompute path rebuilds and gathers through int64 index
#: arrays per call: 3.9x on K4 at 16 qubits (2-core x86; 2.8x when the
#: compiled path still gathered).  Both paths are memory-bound on 1 MiB
#: states and swing together with host load, so the dense check stays a
#: no-regression floor with jitter headroom, not a speedup gate.
DENSE_NO_REGRESSION = 0.9


def _build_specs(problem, num_layers: int):
    """Compiled dense and subspace AnsatzSpecs plus the shared driver."""
    optimizer = CobylaOptimizer(max_iterations=1)
    options = EngineOptions(shots=1, seed=0)
    dense_spec, driver = ChocoQSolver(
        ChocoQConfig(num_layers=num_layers, backend="dense"), optimizer, options
    ).build_spec(problem)
    subspace_spec, _ = ChocoQSolver(
        ChocoQConfig(num_layers=num_layers, backend="subspace"), optimizer, options
    ).build_spec(problem)
    return dense_spec, subspace_spec, driver


def legacy_dense_evolve(driver, spec, num_layers: int):
    """The pre-PR dense inner loop: term structure re-derived per call."""

    def evolve(parameters: np.ndarray) -> np.ndarray:
        parameters, state = prepare_ansatz_state(spec.initial_state, parameters)
        levels, level_index = diagonal_levels(spec.cost_diagonal)
        for layer in range(num_layers):
            gamma = parameters[..., 2 * layer]
            beta = parameters[..., 2 * layer + 1]
            state = apply_diagonal_phase(state, gamma, levels, level_index)
            for term in driver.terms:
                # Rebuilds np.arange(2^n) + both masks per term and call.
                rotate_pairs_cs(state, np.cos(beta), np.sin(beta), *dense_term_pairing(term))
        return state

    return evolve


def legacy_subspace_evolve(driver, spec, num_layers: int):
    """The pre-PR subspace inner loop: full pairing recomputed per call."""
    subspace_map = spec.backend.subspace_map

    def evolve(parameters: np.ndarray) -> np.ndarray:
        parameters, state = prepare_ansatz_state(spec.initial_state, parameters)
        levels, level_index = diagonal_levels(spec.cost_diagonal)
        for layer in range(num_layers):
            gamma = parameters[..., 2 * layer]
            beta = parameters[..., 2 * layer + 1]
            state = apply_diagonal_phase(state, gamma, levels, level_index)
            cos_b = np.cos(beta)
            sin_b = np.sin(beta)
            for term in driver.terms:
                # The O(|F|) Python partner loop the compiled path hoisted.
                a_coordinates, b_coordinates = subspace_pairing_loop(term, subspace_map)
                rotate_pairs_cs(state, cos_b, sin_b, a_coordinates, b_coordinates)
        return state

    return evolve


def _cost_function(evolve, cost_diagonal: np.ndarray):
    """One optimizer iteration's cost evaluation, as the engine performs it."""

    def cost(parameters: np.ndarray) -> float:
        state = evolve(parameters)
        probabilities = np.abs(state) ** 2
        return float(np.dot(probabilities, cost_diagonal))

    return cost


def interleaved_best_ms(costs: dict, parameters: np.ndarray, repeats: int) -> dict:
    """Best-of-``repeats`` ms per cost function, one call of each per round.

    Timing every repeat of one path before starting the next lets a swing
    in host speed between paths skew their ratio; running the paths in turn
    within each round exposes all of them to the same swings.
    """
    best = dict.fromkeys(costs, float("inf"))
    for _ in range(repeats):
        for label, cost in costs.items():
            start = time.perf_counter()
            cost(parameters)
            best[label] = min(best[label], time.perf_counter() - start)
    return {label: seconds * 1e3 for label, seconds in best.items()}


def run_iteration_throughput(
    cases=CASES, num_layers: int = NUM_LAYERS, repeats: int = REPEATS
) -> list[dict]:
    """One row per case: per-iteration cost-eval times for all four paths."""
    rows = []
    for case in cases:
        problem = make_benchmark(case)
        dense_spec, subspace_spec, driver = _build_specs(problem, num_layers)
        dense_legacy = legacy_dense_evolve(driver, dense_spec, num_layers)
        subspace_legacy = legacy_subspace_evolve(driver, subspace_spec, num_layers)
        parameters = np.asarray(dense_spec.initial_parameters, dtype=float)

        # The compiled paths must be drop-in: bit-identical final states,
        # compared byte for byte (np.array_equal would let -0.0 pass as 0.0).
        bit_identical = (
            dense_spec.evolve(parameters).tobytes() == dense_legacy(parameters).tobytes()
            and subspace_spec.evolve(parameters).tobytes()
            == subspace_legacy(parameters).tobytes()
        )

        timings = interleaved_best_ms(
            {
                "dense_recompute": _cost_function(dense_legacy, dense_spec.cost_diagonal),
                "dense_compiled": _cost_function(dense_spec.evolve, dense_spec.cost_diagonal),
                "subspace_recompute": _cost_function(
                    subspace_legacy, subspace_spec.cost_diagonal
                ),
                "subspace_compiled": _cost_function(
                    subspace_spec.evolve, subspace_spec.cost_diagonal
                ),
            },
            parameters,
            repeats,
        )
        rows.append(
            {
                "case": case,
                "qubits": problem.num_variables,
                "2^n": 2**problem.num_variables,
                "|F|": subspace_spec.metadata["subspace_size"],
                "terms": len(driver.terms),
                "bit_identical": bit_identical,
                "dense_recompute_ms/iter": timings["dense_recompute"],
                "dense_compiled_ms/iter": timings["dense_compiled"],
                "dense_speedup": timings["dense_recompute"] / timings["dense_compiled"],
                "subspace_recompute_ms/iter": timings["subspace_recompute"],
                "subspace_compiled_ms/iter": timings["subspace_compiled"],
                "subspace_speedup": timings["subspace_recompute"]
                / timings["subspace_compiled"],
            }
        )
    return rows


def check_rows(rows: list[dict]) -> None:
    """The benchmark's acceptance gate."""
    for row in rows:
        assert row["bit_identical"], (
            f"{row['case']}: compiled states are not bit-identical to the "
            "recompute-every-call path"
        )
    gated = [row for row in rows if row["case"] in GATE_CASES]
    assert gated, f"no gate case among {[row['case'] for row in rows]}"
    for row in gated:
        assert row["qubits"] == GATE_QUBITS, (
            f"{row['case']}: gate case must be {GATE_QUBITS} qubits"
        )
        assert row["subspace_speedup"] >= TARGET_SPEEDUP, (
            f"{row['case']}: compiled subspace path only "
            f"{row['subspace_speedup']:.1f}x over the recompute path, "
            f"wanted >= {TARGET_SPEEDUP}x"
        )
        assert row["dense_speedup"] >= DENSE_NO_REGRESSION, (
            f"{row['case']}: compiling the dense path made it slower "
            f"({row['dense_speedup']:.2f}x)"
        )


def write_trajectory(rows: list[dict]) -> str:
    """Record the run in BENCH_iteration_throughput.json (the perf gate file)."""
    return write_bench_json(
        BENCH_NAME,
        rows,
        metadata={
            "num_layers": NUM_LAYERS,
            "repeats": REPEATS,
            "target_speedup": TARGET_SPEEDUP,
            "dense_no_regression": DENSE_NO_REGRESSION,
            "gate_cases": list(GATE_CASES),
            "gate_qubits": GATE_QUBITS,
        },
    )


def print_rows(rows: list[dict]) -> None:
    printable = [
        {key: value for key, value in row.items() if key != "bit_identical"}
        for row in rows
    ]
    print_speedup_rows(
        printable, title="Compiled evolution programs — per-iteration cost-eval throughput"
    )


def bench_iteration_throughput(benchmark):
    rows = benchmark.pedantic(run_iteration_throughput, rounds=1, iterations=1)
    print()
    print_rows(rows)
    check_rows(rows)


if __name__ == "__main__":
    table_rows = run_iteration_throughput()
    print_rows(table_rows)
    check_rows(table_rows)
    path = write_trajectory(table_rows)
    print(f"trajectory written to {path}")
    print("all bit-identity and throughput-gate checks passed")
