"""Figure 10 — success and in-constraints rates under device noise models.

The paper runs the small-scale cases (F1, G1, K1) on three IBM devices (Fez,
Osaka, Sherbrooke).  We substitute the hardware with the depolarizing +
readout noise models calibrated from the gate fidelities quoted in Section
V-A (README, "Deviations from the paper") and regenerate the same grid: per
device and per case, the success rate and in-constraints rate of every
design.

The whole grid is one declarative :class:`~repro.run.ExperimentPlan` — each
(device, case, design) cell is a :class:`~repro.run.RunSpec` whose ``noise``
field names the device profile — executed by :func:`~repro.run.run_plan`
with the shared ``REPRO_BENCH_WORKERS`` / ``REPRO_BENCH_CACHE`` knobs.  The
noise scenario participates in the spec content hash, so a cached noisy grid
re-runs for free and never collides with its noiseless twin.

Expected shape (paper): noise lowers every number, Fez (native CZ, 99.7%)
beats the ECR devices, and Choco-Q keeps the highest in-constraints rate
(2.43x average improvement) and success rate (2.65x) across devices.
"""

from __future__ import annotations

import numpy as np

from harness import CACHE_PATH, SEED, WORKERS, percentage, write_bench_json

from repro.analysis.report import print_table
from repro.qcircuit import DEFAULT_OPTIMIZATION_LEVEL
from repro.run import ExperimentPlan, RunSpec, run_plan

CASES = ("F1", "G1", "K1")
DEVICES = ("fez", "osaka", "sherbrooke")
#: Transpiler optimization levels the grid sweeps: raw lowering (0) against
#: the default pass pipeline, so the circuit-optimization stack shows up as a
#: measurable success-rate axis (fewer gates -> higher fidelity factor).
OPTIMIZATION_LEVELS = (0, DEFAULT_OPTIMIZATION_LEVEL)
NOISY_SHOTS = 512
NOISY_ITERATIONS = 25
NOISY_TRAJECTORIES = 8

#: Table label -> (registry name, config overrides).  Choco-Q follows the
#: Table-II footnote: one eliminated variable on hardware, trading
#: measurement overhead for a shallower (more noise-tolerant) circuit.
FIG10_DESIGNS = {
    "penalty": ("penalty-qaoa", {"num_layers": 2}),
    "hea": ("hea", {"num_layers": 1}),
    "choco-q": ("choco-q", {"num_layers": 1, "num_eliminated_variables": 1}),
}


def fig10_plan() -> ExperimentPlan:
    """The (device x case x design x optimization level) grid as one plan."""
    specs = [
        RunSpec(
            solver=solver,
            benchmark=case,
            config=dict(config),
            noise={"device": device, "trajectories": NOISY_TRAJECTORIES},
            seed=SEED,
            shots=NOISY_SHOTS,
            max_iterations=NOISY_ITERATIONS,
            optimization_level=level,
            label=f"{label}@{case}#{device}!o{level}",
        )
        for device in DEVICES
        for case in CASES
        for level in OPTIMIZATION_LEVELS
        for label, (solver, config) in FIG10_DESIGNS.items()
    ]
    return ExperimentPlan(specs=specs, name="fig10", base_seed=SEED)


def _fig10_rows() -> list[dict]:
    plan = fig10_plan()
    records = run_plan(plan, max_workers=WORKERS, jsonl_path=CACHE_PATH)
    design_of = {solver: label for label, (solver, _) in FIG10_DESIGNS.items()}
    rows: dict[tuple[str, str, int], dict] = {}
    for spec, record in zip(plan.specs, records):
        label, device = design_of[spec.solver], spec.noise["device"]
        row = rows.setdefault(
            (device, spec.benchmark, spec.optimization_level),
            {
                "device": device,
                "case": spec.benchmark,
                "opt_level": spec.optimization_level,
            },
        )
        row[f"success_%[{label}]"] = percentage(record.metrics["success_rate"])
        row[f"in_cons_%[{label}]"] = percentage(record.metrics["in_constraints_rate"])
    return list(rows.values())


def _check_rows(rows: list[dict]) -> dict[str, float]:
    """The acceptance checks shared by the pytest and script entries.

    Raised explicitly (not ``assert``) so the ``__main__`` path that writes
    ``BENCH_fig10_hardware.json`` cannot record a regressed grid under
    ``python -O``.
    """
    averages = {
        label: float(np.mean([float(row[f"in_cons_%[{label}]"]) for row in rows]))
        for label in FIG10_DESIGNS
    }
    # Choco-Q keeps a clear in-constraints lead over the penalty design and
    # stays competitive with the (much shallower) HEA circuits under noise.
    if not averages["choco-q"] > averages["penalty"]:
        raise AssertionError(f"choco-q lost its in-constraints lead: {averages}")
    if not averages["choco-q"] > 0.7 * averages["hea"]:
        raise AssertionError(f"choco-q fell behind 0.7x HEA: {averages}")
    return averages


def bench_fig10_hardware(benchmark):
    rows = benchmark.pedantic(_fig10_rows, rounds=1, iterations=1)
    print()
    print_table(rows, title="Figure 10 — noisy-device success / in-constraints rates")
    averages = _check_rows(rows)
    print(
        "\naverage in-constraints rate: "
        + " ".join(f"{label}={value:.1f}%" for label, value in averages.items())
    )


if __name__ == "__main__":
    fig10_rows = _fig10_rows()
    print_table(
        fig10_rows, title="Figure 10 — noisy-device success / in-constraints rates"
    )
    fig10_averages = _check_rows(fig10_rows)
    print(
        "average in-constraints rate: "
        + " ".join(f"{label}={value:.1f}%" for label, value in fig10_averages.items())
    )
    write_bench_json(
        "fig10_hardware",
        fig10_rows,
        metadata={
            "cases": list(CASES),
            "devices": list(DEVICES),
            "optimization_levels": list(OPTIMIZATION_LEVELS),
            "shots": NOISY_SHOTS,
            "iterations": NOISY_ITERATIONS,
            "trajectories": NOISY_TRAJECTORIES,
            "seed": SEED,
            "designs": {label: list(entry) for label, entry in FIG10_DESIGNS.items()},
        },
    )
