"""Closed-loop batch workloads: one client runs one op at a time.

An op is a tuple of ``RunSpec`` dicts run in turn through
``repro.run.plan.execute_spec``, the per-spec call ``run_plan`` makes.  After
each op the client times the host-speed reference (``hostspeed.py``); the
next op starts as soon as that returns.  Reference time is left out of the
timed span.
"""

from __future__ import annotations

import math
import time

import hostspeed
import stats
import workloads

QUALITY = ("success_rate", "in_constraints_rate", "arg")
#: Ops generated per run; far more than the slowest machine finishes.
MAX_OPS = 4096
#: ``in_constraints_rate`` sums exact probabilities, which can land one ulp
#: below 1.0 (K4 gives 0.9999999999999999), so "== 1.0" is checked to 1e-9.
IN_CONSTRAINTS_TOLERANCE = 1e-9
#: Solvers whose trajectory depends on the run seed (HEA draws its initial
#: parameters from it).  They are left out of the quality means and of the
#: same-structure check, so those stay exact across seeds.
SEED_DEPENDENT_SOLVERS = frozenset({"hea"})


def prepare(workload: str, seed: int) -> list[tuple[dict, ...]]:
    """Set-up: the op list, problem builds and brute-force optima."""
    import repro.run.plan as plan_module
    from harness import lineup_configs

    ops = workloads.batch_ops(workload, seed, MAX_OPS, lineup_configs())
    for op in ops[: workloads.cycle_length(workload)]:
        for spec in op:
            plan_module.benchmark_optimum(spec["benchmark"], spec["case_index"])
    return ops


class OutputCheck:
    """Checks every record of a run and keeps the first failure messages."""

    def __init__(self) -> None:
        self.reference: dict[tuple, dict] = {}
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    def record(self, record) -> None:
        spec = record.spec
        metrics = dict(record.metrics)
        name = f"{spec.solver}@{spec.benchmark}#{spec.case_index} seed {spec.seed}"
        if not all(isinstance(value, (int, float)) and math.isfinite(value) for value in metrics.values()):
            self.fail(f"{name}: non-finite metrics {metrics}")
        if metrics.get("iterations", 0) < 1:
            self.fail(f"{name}: no optimizer iterations")
        if spec.solver == "choco-q" and abs(metrics["in_constraints_rate"] - 1.0) > IN_CONSTRAINTS_TOLERANCE:
            self.fail(f"{name}: in_constraints_rate {metrics['in_constraints_rate']!r} != 1")
        if spec.solver in SEED_DEPENDENT_SOLVERS:
            return
        # The metrics come from the exact distribution, so every seed of one
        # structure must reproduce them bit for bit (latency_s is host time).
        metrics.pop("latency_s", None)
        key = (spec.solver, spec.benchmark, spec.case_index, str(spec.config))
        reference = self.reference.setdefault(key, metrics)
        if metrics != reference:
            self.fail(f"{name}: metrics {metrics} differ from an earlier seed's {reference}")


def run(workload: str, seed: int, seconds: float, tracer=None) -> dict:
    """Run one batch workload for ``seconds``; return raw measurements.

    With a ``tracer`` every odd op is traced, so traced and untraced ops see
    the same machine and their medians give the tracing overhead.
    """
    from repro.run.plan import RunSpec, execute_spec

    if tracer is not None:
        with tracer.op("setup", root="run.setup"):
            ops = prepare(workload, seed)
    else:
        ops = prepare(workload, seed)

    check = OutputCheck()
    op_ms: list[float] = []
    traced_flags: list[bool] = []
    ok_flags: list[bool] = []
    late_s: list[float] = []
    reference_ms: list[float] = []
    per_op_quality: list[dict] = []
    per_solve: list[dict] = []
    failed = 0

    steal_before = stats.cpu_times()
    cpu_before = time.process_time()
    start = time.perf_counter()
    previous_end = start
    index = 0
    while time.perf_counter() - start < seconds and index < len(ops):
        traced = tracer is not None and index % 2 == 1
        specs = [RunSpec(**spec) for spec in ops[index]]
        begin = time.perf_counter()
        late_s.append(begin - previous_end)
        records = []
        try:
            for spec in specs:
                if traced:
                    with tracer.op(spec.content_hash()):
                        records.append(execute_spec(spec))
                else:
                    records.append(execute_spec(spec))
        except Exception as error:  # noqa: BLE001 - a failed op is counted, not fatal
            failed += 1
            check.fail(f"op {index}: {type(error).__name__}: {error}")
        end = time.perf_counter()
        reference_ms.append(hostspeed.sample_ms())
        previous_end = time.perf_counter()
        errors_before = len(check.errors)
        for record in records:
            check.record(record)
        op_ok = len(records) == len(specs) and len(check.errors) == errors_before
        op_ms.append((end - begin) * 1e3)
        traced_flags.append(traced)
        ok_flags.append(op_ok)
        if len(records) == len(specs):
            scored = [record for record in records if record.spec.solver not in SEED_DEPENDENT_SOLVERS]
            per_op_quality.append(
                {key: stats.mean([record.metrics[key] for record in scored]) for key in QUALITY}
            )
            per_solve.append(
                {
                    "iterations": stats.mean([record.metrics["iterations"] for record in records]),
                    "two_qubit_gates": stats.mean(
                        [record.result["num_two_qubit_gates"] for record in records]
                    ),
                    "modeled_latency_s": stats.mean([record.metrics["latency_s"] for record in records]),
                }
            )
        index += 1
    wall_s = previous_end - start - sum(reference_ms) / 1e3
    cpu_s = time.process_time() - cpu_before
    steal = stats.steal_pct(steal_before, stats.cpu_times())

    # Every cycle of structures repeats the first one's quality metrics (the
    # check above enforces it), so the means are over the first cycle: a
    # mean over however many cycles a run finished differs in the last ulp.
    cycle = workloads.cycle_length(workload)
    limit = workloads.LATENCY_LIMIT_MS[workload]
    good = sum(ok and ms <= limit for ok, ms in zip(ok_flags, op_ms))
    traced_ms = [ms for ms, flag in zip(op_ms, traced_flags) if flag]
    untraced_ms = [ms for ms, flag in zip(op_ms, traced_flags) if not flag]
    p90 = stats.tail_percentile(op_ms, 90)
    speed = hostspeed.scale(reference_ms)
    raw = {
        "ops_per_s": len(op_ms) / wall_s,
        "op_ms_p50": stats.median(op_ms),
        "goodput_per_s": good / wall_s,
    }
    return {
        "attempted": len(op_ms),
        "failed": failed,
        "errors": check.errors,
        # times at nominal host speed (see hostspeed.py)
        "end_to_end": {
            "ops_per_s": raw["ops_per_s"] / speed,
            "op_ms_p50": raw["op_ms_p50"] * speed,
            "goodput_per_s": raw["goodput_per_s"] / speed,
            **{
                key: stats.mean([quality[key] for quality in per_op_quality[:cycle]])
                for key in QUALITY
            },
            "peak_rss_mb": stats.peak_rss_mb_self(),
        },
        "per_layer": {
            "op_ms_p90": p90 if p90 is not None else 0.0,
            "solvers.iterations": stats.mean([row["iterations"] for row in per_solve[:cycle]]),
            "qcircuit.two_qubit_gates": stats.mean([row["two_qubit_gates"] for row in per_solve[:cycle]]),
            "solvers.modeled_latency_s": stats.mean([row["modeled_latency_s"] for row in per_solve]),
            "loadgen.late_ms_p50": stats.median(late_s) * 1e3,
            "loadgen.late_ms_max": max(late_s) * 1e3 if late_s else 0.0,
            # includes the host-speed reference after each op
            "process.cpu_ms_per_op": cpu_s * 1e3 / max(len(op_ms), 1),
            "host.reference_ms": stats.median(reference_ms),
            "process.steal_pct": steal,
            "trace.overhead_pct": (
                100.0 * (stats.median(traced_ms) / stats.median(untraced_ms) - 1.0)
                if traced_ms and untraced_ms
                else 0.0
            ),
        },
        "diagnostics": {
            "ops": len(op_ms),
            "wall_s": wall_s,
            "raw": raw,
            "host_reference_ms": stats.median(reference_ms),
            "latency_limit_ms": limit,
        },
    }
