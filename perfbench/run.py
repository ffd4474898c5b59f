#!/usr/bin/env python3
"""Whole-solve benchmark of the Choco-Q reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload seeds-subspace --seed 1 --seconds 25 --trace 0

Workloads (see README.md): ``seeds-subspace``, ``seeds-dense``,
``lineup-dense`` and ``service-mixed``.  ``--trace 0`` measures the
end-to-end metrics untraced; ``--trace 1`` installs the span wrappers and
reports the per-layer metrics.  The metric names and units come from
``BENCHMARK.json``; end-to-end times are scaled to nominal host speed with
the reference kernel of ``hostspeed.py``.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
line before it, which starts with ``# perfbench``, holds the run's drift
diagnostics and unscaled values, which are also written with the spans under
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
#: Fresh-process set-ups per run; ``setup_s`` is their median, at nominal
#: host speed (see hostspeed.py).
SETUP_SAMPLES = 3
#: One BLAS thread per solving process.  OpenBLAS otherwise runs the 2^16
#: ``np.dot`` of each dense cost evaluation on both cores of a 2-core host
#: for no gain in wall time (K4+G4: ~3.0 s either way, 5.5 vs 3.0 CPU s),
#: which ties the dense workloads to whatever else runs on the second core.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def require_program() -> None:
    """Put the checkout's sources on the path, or exit without a result."""
    for path in (ROOT / "src" / "repro" / "__init__.py", ROOT / "benchmarks" / "harness.py"):
        if not path.is_file():
            sys.exit(f"perfbench: {path.relative_to(ROOT)} is missing; run from a checkout of the repository")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]


def load_metric_units() -> tuple[dict, dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return (
        {metric["name"]: metric["unit"] for metric in spec["end_to_end"]},
        {metric["name"]: metric["unit"] for metric in spec["per_layer"]},
    )


def setup_probe(workload: str, seed: int) -> None:
    """The set-up a batch run does, in a fresh process, then ``ready``."""
    import batch

    batch.prepare(workload, seed)
    print("ready", flush=True)


def sample_setup(workload: str, seed: int, timeout_s: float = 120.0) -> float:
    """Seconds from spawning a fresh process to the end of its set-up."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--setup-probe"]
    begin = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as process:
        ready, _, _ = select.select([process.stdout], [], [], timeout_s)
        line = process.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - begin
        if line.strip() != "ready":
            process.kill()
            raise RuntimeError(f"set-up probe for {workload} failed")
        process.wait()
    return elapsed


def diagnostics(workload: str, seed: int, trace: bool, seconds: float) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description="Whole-solve benchmark (see README.md).")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    arguments = parser.parse_args(argv)
    for variable, value in BLAS_THREADS.items():
        os.environ.setdefault(variable, value)
    require_program()
    if arguments.setup_probe:
        setup_probe(arguments.workload, arguments.seed)
        return 0

    import hostspeed
    import stats

    end_to_end_units, per_layer_units = load_metric_units()
    trace = bool(arguments.trace)
    OUT_DIR.mkdir(exist_ok=True)
    tracer = None
    if arguments.workload == workloads.SERVICE_WORKLOAD:
        import service_load

        result = service_load.run(arguments.seed, arguments.seconds, trace, SETUP_SAMPLES, OUT_DIR)
        setup_s, setup_reference_ms = result["setup_s"], result["setup_reference_ms"]
    else:
        import batch

        setup_s, setup_reference_ms = hostspeed.around(
            lambda: sample_setup(arguments.workload, arguments.seed), SETUP_SAMPLES
        )
        if trace:
            from spans import Tracer, solve_layer_metrics

            tracer = Tracer()
            tracer.install_solve_seams()
        try:
            result = batch.run(arguments.workload, arguments.seed, arguments.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            result["per_layer"].update(solve_layer_metrics(tracer.spans))

    setup_speed = hostspeed.scale(setup_reference_ms)
    measured = {**result["end_to_end"], "setup_s": stats.median(setup_s) * setup_speed}
    if trace:
        measured = {name: 0.0 for name in per_layer_units} | {
            name: value for name, value in result["per_layer"].items() if name in per_layer_units
        }
    units = per_layer_units if trace else end_to_end_units
    missing = sorted(set(units) - set(measured))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")

    diag = diagnostics(arguments.workload, arguments.seed, trace, arguments.seconds)
    diag.update(result["diagnostics"], setup_samples_s=setup_s,
                setup_reference_ms=stats.median(setup_reference_ms), errors=result["errors"],
                end_to_end=result["end_to_end"], per_layer=result["per_layer"])
    name = f"{arguments.workload}-seed{arguments.seed}-trace{int(trace)}"
    with open(OUT_DIR / f"{name}.json", "w", encoding="utf-8") as handle:
        spans = tracer.spans if tracer is not None else result.get("spans", [])
        json.dump({"diagnostics": diag, "spans": spans}, handle)
    print("# perfbench " + json.dumps(diag))
    print(json.dumps({
        "correct": not result["errors"] and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": float(measured[name]), "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
