"""Self-tests of the benchmark's own helpers.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import stats  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, span_self_times, solve_layer_metrics  # noqa: E402

CONFIGS = {
    "penalty": {"num_layers": 3},
    "cyclic": {"num_layers": 3},
    "hea": {"num_layers": 2},
    "choco-q": {"num_layers": 3, "num_eliminated_variables": 0},
}


# -- the percentile rule -----------------------------------------------------


def test_p90_needs_ten_samples_beyond():
    assert stats.tail_percentile(list(range(99)), 90) is None
    assert stats.tail_percentile(list(range(100)), 90) == pytest.approx(89.1)
    assert stats.tail_percentile(list(range(20)), 50) == pytest.approx(9.5)
    assert stats.tail_percentile(list(range(19)), 50) is None


def test_percentile_matches_linear_interpolation():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(samples, 0) == 1.0
    assert stats.percentile(samples, 50) == 3.0
    assert stats.percentile(samples, 100) == 5.0
    assert stats.percentile(samples, 90) == pytest.approx(4.6)


# -- span self-time arithmetic ---------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    assert stats.self_time(0.0, 10.0, []) == 10.0
    assert stats.self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == pytest.approx(7.0)
    # overlapping children are counted once
    assert stats.self_time(0.0, 10.0, [(1.0, 4.0), (2.0, 5.0)]) == pytest.approx(6.0)
    # a child reaching outside its parent is clipped to it
    assert stats.self_time(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0)]) == pytest.approx(2.0)


def test_span_tree_self_times_and_layer_reduction():
    spans = [
        ["run.execute", 0.0, 1.0, None, "a", {}],
        ["solvers.optimizer", 0.1, 0.7, 0, "a", {}],
        ["hamiltonian.eval", 0.2, 0.3, 1, "a", {}],
        ["hamiltonian.eval", 0.4, 0.6, 1, "a", {}],
        ["qcircuit.transpile", 0.7, 0.9, 0, "a", {}],
        ["service.sweep", 2.0, 3.0, None, None, {}],
    ]
    assert span_self_times(spans) == pytest.approx([0.2, 0.3, 0.1, 0.2, 0.2, 1.0])
    layers = solve_layer_metrics(spans)
    assert layers["run.execute_ms"] == pytest.approx(1000.0)
    assert layers["solvers.optimizer_ms"] == pytest.approx(300.0)
    assert layers["hamiltonian.eval_ms"] == pytest.approx(300.0)
    assert layers["hamiltonian.evals"] == 2
    assert layers["solvers.optimizer_overhead_ms_per_eval"] == pytest.approx(150.0)
    assert layers["qcircuit.transpile_ms"] == pytest.approx(200.0)
    assert layers["trace.attributed_pct"] == pytest.approx(80.0)


# -- open-loop lateness accounting -------------------------------------------


def test_lateness_and_latency_are_measured_from_the_due_time():
    due = [0.0, 1.0, 2.0, 3.0]
    sent = [0.001, 1.5, 1.999, 3.0]
    assert stats.lateness(due, sent) == pytest.approx([0.001, 0.5, 0.0, 0.0])
    # a request held up by a stalled generator is charged the stall
    assert stats.latencies_from_due(due, [0.1, 1.6, 2.2, 3.05]) == pytest.approx([0.1, 0.6, 0.2, 0.05])
    with pytest.raises(ValueError):
        stats.lateness(due, sent[:-1])


def test_lateness_growth_flags_a_backlog():
    steady = [0.001] * 30
    growing = [0.001 * index for index in range(30)]
    assert stats.lateness_growth(steady) == 0.0
    assert stats.lateness_growth(growing) > 0.015


# -- host-speed scaling ------------------------------------------------------


def test_host_speed_scale_is_damped_and_uses_the_median():
    import hostspeed

    assert hostspeed.scale([hostspeed.NOMINAL_MS]) == 1.0
    slow = [hostspeed.NOMINAL_MS * 2] * 3 + [hostspeed.NOMINAL_MS * 100]
    assert hostspeed.scale(slow) == pytest.approx(0.5 ** hostspeed.EXPONENT)
    with pytest.raises(ValueError):
        hostspeed.scale([])


def test_around_samples_the_reference_before_and_after_every_call():
    import hostspeed

    calls = []
    results, reference = hostspeed.around(lambda: calls.append(1) or len(calls), 3, references=2)
    assert results == [1, 2, 3]
    assert len(reference) == 2 * (3 + 1)


def test_the_service_listening_line_gives_host_and_port():
    from service_load import LISTENING

    match = LISTENING.search("repro solve service listening on 127.0.0.1:40817 (0 stored record(s))\n")
    assert (match["host"], match["port"]) == ("127.0.0.1", "40817")


# -- generators: same seed, same inputs ------------------------------------


@pytest.mark.parametrize("workload", workloads.BATCH_WORKLOADS)
def test_batch_ops_depend_only_on_the_seed(workload):
    first = workloads.batch_ops(workload, 7, 12, CONFIGS)
    assert first == workloads.batch_ops(workload, 7, 12, CONFIGS)
    assert first != workloads.batch_ops(workload, 8, 12, CONFIGS)
    seeds = [spec["seed"] for op in first for spec in op]
    assert len(set(seeds)) == 12  # one run seed per op


def test_service_schedule_depends_only_on_the_seed():
    config = {"num_layers": 3, "backend": "subspace"}
    first = workloads.service_schedule(3, 20, config)
    assert first == workloads.service_schedule(3, 20, config)
    other = workloads.service_schedule(4, 20, config)
    assert first != other
    # the counts per kind, and so the expected counters, do not depend on it
    assert workloads.expected_counts(first) == workloads.expected_counts(other)


def test_service_reads_repeat_solves_sent_long_before():
    events = workloads.service_schedule(5, 30, {"num_layers": 3})
    sent_at = {}
    for event in events:
        if event.kind in ("write", "dedup", "group"):
            for request in event.requests:
                sent_at.setdefault(id(request), event.due)
    reads = [event for event in events if event.kind == "read"]
    assert reads
    for event in reads:
        assert event.due - sent_at[id(event.requests[0])] >= workloads.READ_AFTER_S
    fresh = [
        (event.requests[0]["spec"]["benchmark"], event.requests[0]["spec"]["case_index"])
        for event in events
        if event.kind in ("write", "dedup", "group")
    ]
    assert len(fresh) == len(set(fresh))  # every solve structure is new


def test_service_executions_do_not_share_a_slot():
    events = workloads.service_schedule(6, 25, {"num_layers": 3})
    starts = [event.due for event in events if event.kind in ("write", "dedup", "group")]
    assert len(starts) == 25
    assert all(later - earlier == pytest.approx(workloads.SLOT_S) for earlier, later in zip(starts, starts[1:]))


def test_service_structures_per_kind_do_not_depend_on_the_seed():
    def structures(seed):
        return {
            kind: sorted(
                (event.requests[0]["spec"]["benchmark"], event.requests[0]["spec"]["case_index"])
                for event in workloads.service_schedule(seed, 25, {"num_layers": 3})
                if event.kind == kind
            )
            for kind in ("write", "dedup", "group")
        }

    assert structures(1) == structures(2)


def test_apportion_keeps_the_total():
    counts = workloads._apportion(25, workloads.EXEC_MIX)
    assert counts == {"write": 19, "dedup": 3, "group": 3}
    assert sum(workloads._apportion(17, workloads.FAST_MIX).values()) == 17


# -- the traced-run wrappers restore what they patch -----------------------


_ABSENT = object()


def _raw(owner, name):
    """The attribute as stored on ``owner`` itself (classmethod objects stay
    wrapped; an inherited method counts as absent)."""
    return owner.__dict__.get(name, _ABSENT) if isinstance(owner, type) else getattr(owner, name)


def test_uninstall_restores_every_patched_attribute():
    pytest.importorskip("repro")
    from server import install_service_seams

    probe = Tracer()
    install_service_seams(probe, {})
    targets = [(owner, name) for owner, name, _original in probe._patches]
    probe.uninstall()
    assert len(targets) >= 17

    before = [_raw(owner, name) for owner, name in targets]
    tracer = Tracer()
    install_service_seams(tracer, {})
    assert all(_raw(owner, name) is not raw for (owner, name), raw in zip(targets, before))
    tracer.uninstall()
    assert [_raw(owner, name) for owner, name in targets] == before
    assert all(_raw(owner, name) is raw for (owner, name), raw in zip(targets, before))


def test_wrappers_record_only_inside_a_traced_op():
    pytest.importorskip("repro")
    from repro.run.plan import RunSpec, execute_spec
    from repro.run.problems import register_benchmark, unregister_benchmark
    from repro.core.problem import ConstrainedBinaryProblem, LinearConstraint, Objective

    def one_hot():
        return ConstrainedBinaryProblem(
            num_variables=3,
            objective=Objective.from_linear([2.0, 1.0, 3.0]),
            constraints=[LinearConstraint((1.0, 1.0, 1.0), 1.0)],
            sense="min",
            name="perfbench-one-hot",
        )

    register_benchmark("perfbench-one-hot", one_hot, replace=True)
    tracer = Tracer()
    tracer.install_solve_seams()
    try:
        spec = RunSpec(solver="choco-q", benchmark="perfbench-one-hot", config={"num_layers": 1},
                       seed=1, shots=16, max_iterations=4)
        untraced = execute_spec(spec)
        assert tracer.spans == []
        with tracer.op(spec.content_hash()):
            traced = execute_spec(spec)
    finally:
        tracer.uninstall()
        unregister_benchmark("perfbench-one-hot")
    assert traced.metrics["success_rate"] == untraced.metrics["success_rate"]
    names = {span[0] for span in tracer.spans}
    assert {"run.execute", "solvers.build_spec", "solvers.optimizer", "hamiltonian.eval",
            "qcircuit.transpile", "qcircuit.sample", "run.record"} <= names
    layers = solve_layer_metrics(tracer.spans)
    assert layers["hamiltonian.evals"] == traced.metrics["iterations"]
