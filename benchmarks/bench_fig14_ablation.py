"""Figure 14 — ablation of the three optimization passes.

Compares the four configurations Opt1, Opt1+2, Opt1+3, Opt1+2+3 (serialization
always on; equivalent decomposition and variable elimination toggled) in
terms of transpiled circuit depth and success rate under the IBM noise model,
averaged over one case per domain.

Expected shape (paper): the equivalent decomposition (Opt2) is the largest
depth saver (~5.7x there), variable elimination (Opt3) adds a further
reduction, and the success-rate ranking follows the depth ranking under
noise.
"""

from __future__ import annotations

import numpy as np

from harness import percentage

from repro.analysis.ablation import run_ablation
from repro.analysis.report import print_table
from repro.problems import make_benchmark
from repro.solvers.config import NoiseConfig

CASES = ("F1", "G1", "K1")


def _fig14_rows() -> list[dict]:
    accumulator: dict[str, dict[str, list[float]]] = {}
    for case in CASES:
        problem = make_benchmark(case)
        rows = run_ablation(
            problem,
            num_layers=1,
            shots=512,
            seed=9,
            noise=NoiseConfig(device="fez"),
            max_iterations=20,
        )
        for row in rows:
            slot = accumulator.setdefault(row.label, {"depth": [], "success": []})
            slot["depth"].append(row.transpiled_depth)
            slot["success"].append(row.success_rate)
    result_rows = []
    for label, values in accumulator.items():
        result_rows.append(
            {
                "configuration": label,
                "avg_depth": round(float(np.mean(values["depth"])), 1),
                "avg_success_%": percentage(float(np.mean(values["success"]))),
            }
        )
    return result_rows


def bench_fig14_ablation(benchmark):
    rows = benchmark.pedantic(_fig14_rows, rounds=1, iterations=1)
    print()
    print_table(rows, title="Figure 14 — ablation of Opt1/Opt2/Opt3 (avg over F1, G1, K1)")
    by_label = {row["configuration"]: row for row in rows}
    # The equivalent decomposition is the big depth saver.
    assert by_label["Opt1+2"]["avg_depth"] < by_label["Opt1"]["avg_depth"]
    assert by_label["Opt1+2+3"]["avg_depth"] <= by_label["Opt1+2"]["avg_depth"] * 1.1
