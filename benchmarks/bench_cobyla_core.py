"""COBYLA on the solvers' own cost closures: repro's path against SciPy's.

:class:`~repro.solvers.optimizer.CobylaOptimizer` calls PRIMA's COBYLA core
directly, with PRIMA's penalty update (``getcpen``, a whole trust-region LP
per iteration) skipped because repro hands the core no constraint.  This
benchmark runs that path and ``scipy.optimize.minimize(method="COBYLA")``
on the same cost, the variational engine's closure
(``|evolve(theta)|^2 . cost_diagonal``) of choco-q, cyclic, penalty and HEA
on K1, K2 and F2, and records per (solver, scale):

* ``params`` and ``evals`` — parameter count and cost evaluations of one
  minimisation (the same on both paths);
* ``repro_ms`` / ``scipy_ms`` — median ms per ``minimize`` call;
* ``*_overhead_ms`` — the same less the time spent inside the cost
  closure: what the optimizer itself costs;
* ``speedup`` / ``overhead_speedup`` — the median over rounds of that
  round's SciPy / repro ratio of the two times;
* ``bit_identical`` — every evaluated point and value, and the final
  point and value, are the same bytes on both paths in every round.

Both paths evaluate the same closure at the same points, so the whole-call
ratio shrinks as the closure gets dearer; the overhead ratio does not.  The
gates: every row is bit-identical, and the median ``overhead_speedup`` over
all rows is at least :data:`TARGET_SPEEDUP`.

Run directly (``python benchmarks/bench_cobyla_core.py``, which writes
``BENCH_cobyla_core.json``) or through pytest-benchmark
(``pytest benchmarks/bench_cobyla_core.py -o python_functions="bench_*"``,
fewer rounds, writes no file).
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np
from scipy.optimize import minimize

from harness import print_speedup_rows, write_bench_json

# The cost closures come from the test suite's reference module, both as a
# script and under pytest.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests"))
from reference import engine_cost  # noqa: E402

from repro.solvers.optimizer import CobylaOptimizer  # noqa: E402

BENCH_NAME = "cobyla_core"
SOLVERS = ("choco-q", "cyclic-qaoa", "penalty-qaoa", "hea")
SCALES = ("K1", "K2", "F2")
#: The whole-solve benchmark's COBYLA settings (perfbench, repro's defaults).
MAX_ITERATIONS = 60
RHOBEG = 0.5
TOLERANCE = 1e-4
ROUNDS = 5
#: Floor of the median overhead_speedup over all rows.  It read 1.49-1.59x
#: on a 2-core x86 host, and 1.04x with PRIMA's getcpen left in; the floor
#: leaves room for a noisy CI runner.
TARGET_SPEEDUP = 1.25


class _TimedCost:
    """The cost closure, timing every call, so overhead = total - evaluation."""

    def __init__(self, cost) -> None:
        self.cost = cost
        self.seconds = 0.0

    def __call__(self, parameters: np.ndarray) -> float:
        start = time.perf_counter()
        value = self.cost(parameters)
        self.seconds += time.perf_counter() - start
        return value


def _repro_run(cost, initial) -> dict:
    optimizer = CobylaOptimizer(max_iterations=MAX_ITERATIONS, tolerance=TOLERANCE, rhobeg=RHOBEG)
    timed = _TimedCost(cost)
    start = time.perf_counter()
    result = optimizer.minimize(timed, initial)
    elapsed = time.perf_counter() - start
    return {
        "ms": elapsed * 1e3,
        "overhead_ms": (elapsed - timed.seconds) * 1e3,
        "points": [np.asarray(point, dtype=float) for point in result.trace.parameters],
        "values": list(result.trace.costs),
        "x": result.parameters,
        "f": result.cost,
    }


def _scipy_run(cost, initial) -> dict:
    points: list[np.ndarray] = []
    values: list[float] = []
    timed = _TimedCost(cost)

    def recorded(parameters):
        value = float(timed(np.asarray(parameters, dtype=float)))
        points.append(np.array(parameters, dtype=float))
        values.append(value)
        return value

    start = time.perf_counter()
    result = minimize(
        recorded,
        initial,
        method="COBYLA",
        options={"maxiter": MAX_ITERATIONS, "rhobeg": RHOBEG, "tol": TOLERANCE},
    )
    elapsed = time.perf_counter() - start
    return {
        "ms": elapsed * 1e3,
        "overhead_ms": (elapsed - timed.seconds) * 1e3,
        "points": points,
        "values": values,
        "x": np.asarray(result.x, dtype=float),
        "f": float(result.fun),
    }


def _same_bytes(ours: dict, theirs: dict) -> bool:
    return (
        [point.tobytes() for point in ours["points"]]
        == [point.tobytes() for point in theirs["points"]]
        and np.array(ours["values"]).tobytes() == np.array(theirs["values"]).tobytes()
        and ours["x"].tobytes() == theirs["x"].tobytes()
        and np.float64(ours["f"]).tobytes() == np.float64(theirs["f"]).tobytes()
    )


def run_cobyla_core(rounds: int = ROUNDS) -> list[dict]:
    """One row per (solver, scale): ms per minimize on both paths."""
    rows = []
    for scale in SCALES:
        for solver in SOLVERS:
            cost, initial = engine_cost(solver, scale)
            _repro_run(cost, initial)  # warm caches and the closure
            _scipy_run(cost, initial)
            runs: dict[str, list[dict]] = {"repro": [], "scipy": []}
            identical = True
            for round_index in range(rounds):
                # Alternate which path goes first, so neither always runs warm.
                if round_index % 2:
                    theirs = _scipy_run(cost, initial)
                    ours = _repro_run(cost, initial)
                else:
                    ours = _repro_run(cost, initial)
                    theirs = _scipy_run(cost, initial)
                identical &= _same_bytes(ours, theirs)
                runs["repro"].append(ours)
                runs["scipy"].append(theirs)

            def median(path: str, key: str) -> float:
                return float(np.median([run[key] for run in runs[path]]))

            def median_ratio(key: str) -> float:
                return float(
                    np.median([s[key] / r[key] for r, s in zip(runs["repro"], runs["scipy"])])
                )

            rows.append(
                {
                    "solver": solver,
                    "scale": scale,
                    "params": int(initial.size),
                    "evals": len(ours["values"]),
                    "bit_identical": identical,
                    "repro_ms": median("repro", "ms"),
                    "scipy_ms": median("scipy", "ms"),
                    "repro_overhead_ms": median("repro", "overhead_ms"),
                    "scipy_overhead_ms": median("scipy", "overhead_ms"),
                    "speedup": median_ratio("ms"),
                    "overhead_speedup": median_ratio("overhead_ms"),
                }
            )
    return rows


def check_rows(rows: list[dict]) -> None:
    """The gates: identical trajectories, and repro's path is faster."""
    for row in rows:
        assert row["bit_identical"], (
            f"{row['solver']}@{row['scale']}: repro's COBYLA trajectory differs from SciPy's"
        )
    median = float(np.median([row["overhead_speedup"] for row in rows]))
    assert median >= TARGET_SPEEDUP, (
        f"repro's COBYLA overhead is only {median:.2f}x below SciPy's "
        f"(median over rows), wanted >= {TARGET_SPEEDUP}x"
    )


def print_rows(rows: list[dict]) -> None:
    printable = [
        {key: value for key, value in row.items() if key != "bit_identical"}
        for row in rows
    ]
    print_speedup_rows(printable, title="COBYLA per minimize — repro's core call vs scipy.optimize")


def bench_cobyla_core(benchmark):
    rows = benchmark.pedantic(run_cobyla_core, kwargs={"rounds": 3}, rounds=1, iterations=1)
    print()
    print_rows(rows)
    check_rows(rows)


if __name__ == "__main__":
    table_rows = run_cobyla_core()
    print_rows(table_rows)
    check_rows(table_rows)
    path = write_bench_json(
        BENCH_NAME,
        table_rows,
        metadata={
            "max_iterations": MAX_ITERATIONS,
            "rhobeg": RHOBEG,
            "tolerance": TOLERANCE,
            "rounds": ROUNDS,
            "target_speedup": TARGET_SPEEDUP,
        },
    )
    print(f"trajectory written to {path}")
    print("every trajectory is bit-identical to SciPy's")
