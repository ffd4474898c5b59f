"""Whole solves with and without a compiled structure: cold vs warm.

A choco-q solve compiles a structure that does not depend on its seed (the
nullspace moves and commute driver, the feasible subspace, the cost
diagonal, the evolution program, the reference circuit and its modeled
duration), and :mod:`repro.solvers.structure` keeps it per process.  This
benchmark times whole solves, ``RunSpec`` to ``RunRecord`` through
:func:`~repro.run.plan.execute_spec`, the way a seed sweep runs them:

* ``cold_ms`` — the structure memo is emptied before the solve, so it
  compiles everything, as every seed of a structure did before the memo
  (the transpile memo stays warm, as it was for a repeated seed);
* ``warm_ms`` — the same spec solved right after, its structure compiled.

Each round runs the pair back to back with a fresh seed; the columns are
medians over rounds.  Both records of a pair must be identical, modeled
latency included (``bit_identical``), which is the gate; the times are
recorded, not gated.  One untimed solve per case first warms
imports, the benchmark optimum and the transpile memo.

Run directly (``python benchmarks/bench_structure_memo.py``, which writes
``BENCH_structure_memo.json``) or through pytest-benchmark
(``pytest benchmarks/bench_structure_memo.py -o python_functions="bench_*"``,
one round per case, writes no file).
"""

from __future__ import annotations

import time

import numpy as np

from harness import CHOCO_LAYERS, print_speedup_rows, write_bench_json

from repro.run.plan import RunSpec, execute_spec
from repro.solvers.structure import clear_structure_cache, structure_cache_info

BENCH_NAME = "structure_memo"
CASES = (
    ("K4", "subspace"),
    ("F4", "subspace"),
    ("G4", "subspace"),
    ("K4", "dense"),
    ("G4", "dense"),
)
#: The settings of the whole-solve benchmark's seed sweeps (perfbench).
SHOTS = 2048
MAX_ITERATIONS = 60
ROUNDS = 3


def _spec(case: str, backend: str, seed: int) -> RunSpec:
    return RunSpec(
        solver="choco-q",
        benchmark=case,
        config={"num_layers": CHOCO_LAYERS, "backend": backend},
        seed=seed,
        shots=SHOTS,
        max_iterations=MAX_ITERATIONS,
    )


def _timed(spec: RunSpec) -> tuple[float, dict]:
    start = time.perf_counter()
    record = execute_spec(spec)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    return elapsed_ms, record.to_dict()


def run_structure_memo(cases=CASES, rounds: int = ROUNDS) -> list[dict]:
    """One row per case: median cold and warm whole-solve ms."""
    rows = []
    for case, backend in cases:
        execute_spec(_spec(case, backend, seed=0))
        cold, warm, identical = [], [], True
        for seed in range(1, rounds + 1):
            clear_structure_cache()
            cold_ms, cold_record = _timed(_spec(case, backend, seed))
            warm_ms, warm_record = _timed(_spec(case, backend, seed))
            # One build by the cold solve, one lookup by the warm one.
            assert structure_cache_info() == (1, 1, 1)
            identical &= warm_record == cold_record
            cold.append(cold_ms)
            warm.append(warm_ms)
        cold_ms, warm_ms = float(np.median(cold)), float(np.median(warm))
        rows.append(
            {
                "case": case,
                "backend": backend,
                "qubits": cold_record["result"]["num_qubits"],
                "bit_identical": identical,
                "cold_ms": cold_ms,
                "warm_ms": warm_ms,
                "saved_ms": cold_ms - warm_ms,
                "saved_%": 100.0 * (cold_ms - warm_ms) / cold_ms,
            }
        )
    return rows


def check_rows(rows: list[dict]) -> None:
    """The gate: a warm solve's record equals the cold one's."""
    for row in rows:
        assert row["bit_identical"], (
            f"{row['case']} {row['backend']}: the warm solve's record differs "
            "from the cold solve's"
        )


def print_rows(rows: list[dict]) -> None:
    printable = [
        {key: value for key, value in row.items() if key != "bit_identical"}
        for row in rows
    ]
    print_speedup_rows(printable, title="Structure memo — whole choco-q solves, cold vs warm")


def bench_structure_memo(benchmark):
    rows = benchmark.pedantic(run_structure_memo, kwargs={"rounds": 1}, rounds=1, iterations=1)
    print()
    print_rows(rows)
    check_rows(rows)


if __name__ == "__main__":
    table_rows = run_structure_memo()
    print_rows(table_rows)
    check_rows(table_rows)
    path = write_bench_json(
        BENCH_NAME,
        table_rows,
        metadata={
            "solver": "choco-q",
            "num_layers": CHOCO_LAYERS,
            "shots": SHOTS,
            "max_iterations": MAX_ITERATIONS,
            "rounds": ROUNDS,
        },
    )
    print(f"trajectory written to {path}")
    print("every warm record equals its cold record")
