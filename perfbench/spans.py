"""In-memory spans around the public seams of each layer, for traced runs.

A :class:`Tracer` patches public functions and methods of the program with
thin wrappers and restores every one of them on :meth:`Tracer.uninstall`.
A wrapper records a span only while its thread is inside a traced op (see
:meth:`Tracer.op`), so untraced ops in the same process pay one attribute
check per call.  Spans are ``[name, start, end, parent, op, attrs]`` lists
kept in memory and written out when the run ends.

Layer names are the program's modules: ``run``, ``core``, ``hamiltonian``,
``solvers``, ``qcircuit`` and ``service``.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

from stats import mean, self_time

_MISSING = object()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def active(self) -> bool:
        return getattr(self._local, "op", None) is not None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def op(self, op_id: str, root: str = "run.execute"):
        """Trace everything this thread calls inside the block as one op,
        under a root span named ``root``."""
        self._local.op = op_id
        try:
            with self.span(root) as attrs:
                yield attrs
        finally:
            self._local.op = None

    @contextmanager
    def span(self, name: str, *, force: bool = False, op: str | None = None):
        """Record one span; ``force`` records it outside a traced op too."""
        if not force and not self.active():
            yield {}
            return
        stack = self._stack()
        attrs: dict = {}
        record = [
            name,
            time.perf_counter(),
            None,
            stack[-1] if stack else None,
            op if op is not None else getattr(self._local, "op", None),
            attrs,
        ]
        self.spans.append(record)
        stack.append(len(self.spans) - 1)
        try:
            yield attrs
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    # -- patching -------------------------------------------------------

    def patch(self, owner, attribute: str, replacement) -> None:
        """Replace ``owner.attribute``; :meth:`uninstall` puts it back."""
        original = owner.__dict__.get(attribute, _MISSING) if isinstance(owner, type) else getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def wrap(self, owner, attribute: str, name: str, on_result=None) -> None:
        """Time every call of ``owner.attribute`` as span ``name``.

        ``on_result(attrs, result, args)`` may annotate the span.  Module
        functions and methods or classmethods defined on ``owner`` itself are
        supported.
        """
        raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        is_classmethod = isinstance(raw, classmethod)
        target = raw.__func__ if is_classmethod else raw

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            if not self.active():
                return target(*args, **kwargs)
            with self.span(name) as attrs:
                result = target(*args, **kwargs)
                if on_result is not None:
                    on_result(attrs, result, args)
                return result

        self.patch(owner, attribute, classmethod(wrapper) if is_classmethod else wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    # -- the program's seams --------------------------------------------

    def install_solve_seams(self) -> None:
        """Wrap the seams one solve passes through (see README.md)."""
        import repro.run.plan as plan_module
        import repro.solvers.variational as variational
        from repro.core.subspace import SubspaceMap
        from repro.solvers.base import SolverResult
        from repro.solvers.chocoq import ChocoQSolver
        from repro.solvers.cyclic_qaoa import CyclicQAOASolver
        from repro.solvers.latency import LatencyModel
        from repro.solvers.optimizer import Optimizer

        def subspace_size(attrs, result, _args):
            attrs["size"] = 0 if result is None else int(result.size)

        def state_dimension(attrs, _result, args):
            attrs["dimension"] = int(len(args[1]))

        self.wrap(plan_module, "resolve_benchmark", "run.problem")
        self.wrap(plan_module, "benchmark_optimum", "run.optimum")
        self.wrap(SolverResult, "to_dict", "run.record")
        self.wrap(SolverResult, "metrics", "solvers.result_metrics")
        self.wrap(SubspaceMap, "from_problem", "core.subspace", subspace_size)
        self.wrap(SubspaceMap, "try_from_problem", "core.subspace", subspace_size)
        self.wrap(ChocoQSolver, "build_spec", "solvers.build_spec")
        self.wrap(CyclicQAOASolver, "build_spec", "solvers.build_spec")
        self.wrap(LatencyModel, "estimate", "solvers.latency")
        self.wrap(variational, "transpile_with_report", "qcircuit.transpile")
        self.wrap(variational, "transpile", "qcircuit.transpile")
        for backend in (variational.DenseStateBackend, variational.SubspaceStateBackend):
            self.wrap(backend, "sample", "qcircuit.sample", state_dimension)
            self.wrap(backend, "exact_distribution", "qcircuit.sample")

        minimize = Optimizer.__dict__["minimize"]
        tracer = self

        @functools.wraps(minimize)
        def traced_minimize(optimizer, cost, initial):
            if not tracer.active():
                return minimize(optimizer, cost, initial)

            def timed_cost(parameters):
                with tracer.span("hamiltonian.eval"):
                    return cost(parameters)

            with tracer.span("solvers.optimizer"):
                return minimize(optimizer, timed_cost, initial)

        self.patch(Optimizer, "minimize", traced_minimize)


# ---------------------------------------------------------------------------
# Reduction of spans to per-layer metrics
# ---------------------------------------------------------------------------


def span_self_times(spans: list[list]) -> list[float]:
    """Self time of every span: its duration minus what its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _op, _attrs in spans:
        if parent is not None and end is not None:
            children[parent].append((start, end))
    return [
        self_time(start, end, children.get(index, ())) if end is not None else 0.0
        for index, (name, start, end, _parent, _op, _attrs) in enumerate(spans)
    ]


def solve_layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-solve layer metrics from the spans under ``run.execute`` roots.

    Times are self times in ms per solve.  ``run.optimum_ms`` is the total
    over the whole process, set-up included, because its work is memoised
    there.
    """
    selfs = span_self_times(spans)
    roots = {index for index, span in enumerate(spans) if span[0] == "run.execute" and span[2] is not None}
    # map every span to its root so spans outside a solve (sweeps) drop out
    root_of: list[int | None] = []
    for index, span in enumerate(spans):
        parent = span[3]
        root_of.append(index if index in roots else (root_of[parent] if parent is not None else None))

    self_ms: dict[str, float] = defaultdict(float)
    total_ms: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    dimensions: list[int] = []
    subspace_sizes: list[int] = []
    for index, (name, start, end, _parent, _op, attrs) in enumerate(spans):
        if name == "run.optimum" and end is not None:
            total_ms["run.optimum.all"] += (end - start) * 1e3
        if root_of[index] is None or end is None:
            continue
        self_ms[name] += selfs[index] * 1e3
        total_ms[name] += (end - start) * 1e3
        count[name] += 1
        if "dimension" in attrs:
            dimensions.append(attrs["dimension"])
        if "size" in attrs:
            subspace_sizes.append(attrs["size"])

    solves = max(count["run.execute"], 1)
    evals = count["hamiltonian.eval"]
    execute_ms = total_ms["run.execute"]
    return {
        "run.execute_ms": execute_ms / solves,
        "run.optimum_ms": total_ms["run.optimum.all"],
        "run.problem_ms": self_ms["run.problem"] / solves,
        "run.record_ms": self_ms["run.record"] / solves,
        "run.self_ms": self_ms["run.execute"] / solves,
        "core.subspace_ms": self_ms["core.subspace"] / solves,
        "core.subspace_size": mean(subspace_sizes),
        "solvers.build_spec_ms": self_ms["solvers.build_spec"] / solves,
        "hamiltonian.eval_ms": self_ms["hamiltonian.eval"] / solves,
        "hamiltonian.evals": evals / solves,
        # labelled as computed: one complex128 state of the backend's layout
        "hamiltonian.computed_mb_per_eval": mean(dimensions) * 16 / 1e6,
        "solvers.optimizer_ms": self_ms["solvers.optimizer"] / solves,
        "solvers.optimizer_overhead_ms_per_eval": self_ms["solvers.optimizer"] / evals if evals else 0.0,
        "qcircuit.transpile_ms": self_ms["qcircuit.transpile"] / solves,
        "qcircuit.transpile_calls": count["qcircuit.transpile"] / solves,
        "qcircuit.sample_ms": self_ms["qcircuit.sample"] / solves,
        "solvers.result_metrics_ms": self_ms["solvers.result_metrics"] / solves,
        "solvers.latency_ms": self_ms["solvers.latency"] / solves,
        "trace.attributed_pct": (
            100.0 * (1.0 - self_ms["run.execute"] / execute_ms) if execute_ms else 0.0
        ),
    }
