"""Shared helpers for the benchmark suite.

Every ``bench_*.py`` file reproduces one table or figure of the paper.  The
helpers here build the standard solver line-up (Penalty, Cyclic, HEA,
Choco-Q) and convert results into the plain-text rows the paper reports, so
the individual benchmark files stay focused on the experiment they
regenerate.  The main-table benchmarks (Table I/II, Fig. 8) drive the
line-up through the :mod:`repro.run` batch runner — a declarative
:class:`~repro.run.RunSpec` grid per scale — and the Fig. 10 device-noise
grid rides the same runner via the serializable ``noise`` field of
:class:`~repro.run.RunSpec` (each spec names its device profile, so noisy
results cache and parallelise like everything else).

Environment knobs (all optional):

* ``REPRO_BENCH_SHOTS``      — shots per circuit execution (default 2048)
* ``REPRO_BENCH_ITERATIONS`` — classical optimizer iteration cap (default 60)
* ``REPRO_BENCH_SEED``       — RNG seed shared by all benchmarks (default 17)
* ``REPRO_BENCH_WORKERS``    — batch-runner process workers (default 1)
* ``REPRO_BENCH_CACHE``      — JSONL path for the runner's result cache;
  re-running a finished table is then free
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import time
from dataclasses import dataclass

import numpy as np

from repro.run import ExperimentPlan, RunRecord, RunSpec, run_plan
from repro.solvers.base import SolverResult
from repro.solvers.config import NoiseConfig
from repro.solvers.optimizer import CobylaOptimizer
from repro.solvers.variational import EngineOptions

SHOTS = int(os.environ.get("REPRO_BENCH_SHOTS", "2048"))
MAX_ITERATIONS = int(os.environ.get("REPRO_BENCH_ITERATIONS", "60"))
SEED = int(os.environ.get("REPRO_BENCH_SEED", "17"))
WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))
CACHE_PATH = os.environ.get("REPRO_BENCH_CACHE") or None

BASELINE_LAYERS = 3
CHOCO_LAYERS = 3

#: Table column label -> registry name, in the paper's presentation order.
LINEUP_NAMES = {
    "penalty": "penalty-qaoa",
    "cyclic": "cyclic-qaoa",
    "hea": "hea",
    "choco-q": "choco-q",
}


#: The benchmarks' device-noise scenario (a config field; the engine seeds
#: its model from each run's seed).
FEZ_NOISE = NoiseConfig(device="fez", trajectories=8)


def engine_options(shots: int | None = None) -> EngineOptions:
    return EngineOptions(shots=shots if shots is not None else SHOTS, seed=SEED)


def optimizer(max_iterations: int | None = None) -> CobylaOptimizer:
    return CobylaOptimizer(max_iterations=max_iterations or MAX_ITERATIONS)


@dataclass
class SolverRun:
    """One (solver, problem) execution with its Table-II metrics attached."""

    solver_name: str
    result: SolverResult
    success_rate: float
    in_constraints_rate: float
    arg: float
    depth: int
    latency_s: float
    iterations: int


# ---------------------------------------------------------------------------
# Batch-runner line-up (Table I/II, Fig. 8)
# ---------------------------------------------------------------------------


def lineup_configs(
    baseline_layers: int = BASELINE_LAYERS,
    choco_layers: int = CHOCO_LAYERS,
    choco_eliminated: int = 0,
) -> dict[str, dict]:
    """Per-label config overrides of the four designs compared throughout
    the evaluation section (Penalty, Cyclic, HEA, Choco-Q)."""
    return {
        "penalty": {"num_layers": baseline_layers},
        "cyclic": {"num_layers": baseline_layers},
        "hea": {"num_layers": 2},
        "choco-q": {
            "num_layers": choco_layers,
            "num_eliminated_variables": choco_eliminated,
        },
    }


def lineup_plan(scales: "list[str] | tuple[str, ...]", **config_kwargs) -> ExperimentPlan:
    """A declarative (scale x line-up) grid with the shared bench settings."""
    configs = lineup_configs(**config_kwargs)
    specs = [
        RunSpec(
            solver=LINEUP_NAMES[label],
            benchmark=scale,
            config=configs[label],
            seed=SEED,
            shots=SHOTS,
            max_iterations=MAX_ITERATIONS,
            label=f"{label}@{scale}",
        )
        for scale in scales
        for label in LINEUP_NAMES
    ]
    return ExperimentPlan(specs=specs, name="lineup", base_seed=SEED)


def solver_run_from_record(label: str, record: RunRecord) -> SolverRun:
    """Adapt one batch-runner record into the row type the tables consume."""
    metrics = record.metrics
    return SolverRun(
        solver_name=label,
        result=record.solver_result(),
        success_rate=metrics["success_rate"],
        in_constraints_rate=metrics["in_constraints_rate"],
        arg=metrics["arg"],
        depth=metrics["depth"],
        latency_s=metrics["latency_s"],
        iterations=metrics["iterations"],
    )


def run_lineup_plan(
    scales: "list[str] | tuple[str, ...]", **config_kwargs
) -> dict[str, dict[str, SolverRun]]:
    """Run the line-up over ``scales`` through the batch runner.

    Returns ``{scale: {label: SolverRun}}`` with labels in presentation
    order.  Worker count and JSONL caching come from the
    ``REPRO_BENCH_WORKERS`` / ``REPRO_BENCH_CACHE`` environment knobs.
    """
    plan = lineup_plan(scales, **config_kwargs)
    records = run_plan(plan, max_workers=WORKERS, jsonl_path=CACHE_PATH)
    labels = list(LINEUP_NAMES)
    by_scale: dict[str, dict[str, SolverRun]] = {}
    for spec, record in zip(plan.specs, records):
        label = spec.label.split("@", 1)[0]
        by_scale.setdefault(spec.benchmark, {})[label] = solver_run_from_record(label, record)
    return {
        scale: {label: runs[label] for label in labels}
        for scale, runs in by_scale.items()
    }


def percentage(value: float) -> float:
    """A rate as a percent, rounded to 2 decimals.

    Returns a JSON *number*: these values land in ``BENCH_*.json`` rows,
    and the artifact-hygiene lint rule rejects numbers serialized as
    strings (gates cannot compare them).
    """
    return round(100.0 * value, 2)


# ---------------------------------------------------------------------------
# Machine-readable perf trajectory (BENCH_*.json)
# ---------------------------------------------------------------------------

#: Repository root — the BENCH_*.json trajectory files live at the top level
#: so the perf history of the repo is visible next to ROADMAP.md.
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bench_json_path(name: str) -> str:
    """Canonical path of one benchmark's trajectory file."""
    return os.path.join(REPO_ROOT, f"BENCH_{name}.json")


def write_bench_json(
    name: str,
    rows: "list[dict]",
    metadata: "dict | None" = None,
    path: "str | None" = None,
) -> str:
    """Write one benchmark's rows as a machine-readable trajectory file.

    The shared writer behind every ``BENCH_*.json``: committing the output
    turns each benchmark run into a point on the repo's perf trajectory, so
    later PRs can be gated against the recorded numbers instead of
    re-deriving a baseline.  Every knob that shaped the measurement must go
    in ``metadata`` — the writer records only environment facts it can
    vouch for (interpreter, machine, timestamp).  Rows pass through
    :func:`repro.serialization.json_sanitize`, so NumPy scalars are fine.
    Returns the path written.
    """
    from repro.serialization import json_sanitize

    payload = {
        "benchmark": name,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "metadata": json_sanitize(metadata or {}),
        "rows": json_sanitize(rows),
    }
    path = path or bench_json_path(name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return path


def load_bench_json(name: str, path: "str | None" = None) -> "dict | None":
    """Load a recorded trajectory file, or ``None`` when absent."""
    path = path or bench_json_path(name)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def latency_percentiles(
    latencies_s: "list[float]", quantiles: "tuple[int, ...]" = (50, 99)
) -> dict:
    """Latency quantiles in milliseconds, keyed ``p50_ms``/``p99_ms``/...

    The HPC-AI500-style service rows report throughput alongside tail
    latency; this is the shared reduction from raw per-request seconds.
    """
    samples = np.asarray(latencies_s, dtype=float)
    if samples.size == 0:
        return {f"p{quantile}_ms": 0.0 for quantile in quantiles}
    return {
        f"p{quantile}_ms": round(float(np.percentile(samples, quantile)) * 1e3, 3)
        for quantile in quantiles
    }


def time_call(function, repeats: int) -> float:
    """Best-of-``repeats`` wall-clock of one call (seconds)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def interleaved_round_ms(calls: dict, parameters: np.ndarray, repeats: int) -> dict:
    """Per-round ms of each call on ``parameters``, one timed call of each per round.

    Timing every repeat of one path before starting the next lets a swing
    in host speed between paths skew their ratio; running the paths in turn
    within each round exposes all of them to the same swings.  Each timed
    call follows an untimed call of the same path, so a path is timed with
    its own data in cache, as in an optimizer loop that calls it back to
    back, and not with the data the previous path left there.
    """
    rounds = {label: np.empty(repeats) for label in calls}
    for index in range(repeats):
        for label, call in calls.items():
            call(parameters)
            start = time.perf_counter()
            call(parameters)
            rounds[label][index] = (time.perf_counter() - start) * 1e3
    return rounds


def median_round_ratio(rounds: dict, slow: str, fast: str) -> float:
    """Median over rounds of the ``slow``/``fast`` time ratio.

    Both paths of a round run back to back, so each round's ratio sees one
    host speed; the median of those ratios ignores the rounds a load spike
    hit, where the ratio of two best-ofs can pair timings from different
    seconds.
    """
    return float(np.median(rounds[slow] / rounds[fast]))


def max_backend_error(
    dense_spec, subspace_spec, num_parameter_sets: int = 3, seed: int = 42
) -> float:
    """Max |dense - lifted subspace| amplitude error over random parameters."""
    subspace_map = subspace_spec.backend.subspace_map
    rng = np.random.default_rng(seed)
    num_parameters = len(dense_spec.initial_parameters)
    worst = 0.0
    for _ in range(num_parameter_sets):
        parameters = rng.uniform(-np.pi, np.pi, size=num_parameters)
        dense_state = dense_spec.evolve(parameters)
        lifted = subspace_map.lift_vector(subspace_spec.evolve(parameters))
        worst = max(worst, float(np.max(np.abs(dense_state - lifted))))
    return worst


def check_speedup_rows(
    rows: list[dict],
    large_case: str,
    size_key: str,
    target_speedup: float,
    tolerance: float,
) -> dict:
    """Shared roofline acceptance assertions; returns the large-case row.

    Every row must show backend agreement within ``tolerance``; the
    ``large_case`` row must have ``size_key`` at least 32x smaller than the
    Hilbert dimension (otherwise it does not exercise the compression the
    benchmark claims) and clear ``target_speedup``.  Callers append any
    benchmark-specific assertions to the returned row.
    """
    for row in rows:
        assert row["max_err"] <= tolerance, (
            f"{row['case']}: backends disagree by {row['max_err']:.2e}"
        )
    by_case = {row["case"]: row for row in rows}
    large = by_case[large_case]
    assert large[size_key] * 32 <= large["2^n"], f"large case is not {size_key} << 2^n"
    assert large["speedup"] >= target_speedup, (
        f"{large_case}: only {large['speedup']:.1f}x, wanted >= {target_speedup}x"
    )
    return large


def print_speedup_rows(rows: list[dict], title: str) -> None:
    """Render roofline rows with the shared column formatting."""
    from repro.analysis.report import print_table

    def fmt(key: str, value):
        if key == "max_err":
            return f"{value:.1e}"
        if key.endswith("ms/iter"):
            return f"{value:.3f}"
        if key.endswith("speedup"):
            return f"{value:.1f}x"
        return value

    print_table(
        [{key: fmt(key, value) for key, value in row.items()} for row in rows],
        title=title,
    )
