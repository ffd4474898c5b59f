"""Solver interfaces and result types.

Every quantum solver in this package follows the same life-cycle:

1. **encode** the problem into an ansatz (circuit family + cost function),
2. **optimize** the variational parameters with a classical optimizer,
3. **sample** the final circuit and report a measurement histogram.

:class:`QuantumSolver` fixes that contract; :class:`SolverResult` is the
uniform output consumed by the metrics layer and the benchmark harnesses: the
outcome distribution, the optimization trace (for Fig. 9a), circuit-depth
accounting (Table II), and the latency breakdown (Fig. 11).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.core.metrics import MetricsReport, evaluate_outcomes
from repro.core.problem import ConstrainedBinaryProblem
from repro.exceptions import SolverError
from repro.qcircuit.sampling import SampleResult
from repro.serialization import json_sanitize


@dataclass
class OptimizationTrace:
    """Cost values and parameters visited during classical optimization."""

    costs: list[float] = field(default_factory=list)
    parameters: list[np.ndarray] = field(default_factory=list)

    def record(self, cost: float, parameters: np.ndarray) -> None:
        self.costs.append(float(cost))
        self.parameters.append(np.asarray(parameters, dtype=float).copy())

    @property
    def num_iterations(self) -> int:
        return len(self.costs)

    @property
    def best_cost(self) -> float:
        if not self.costs:
            raise ValueError("empty optimization trace")
        return min(self.costs)

    def iterations_to_reach(self, threshold: float) -> int | None:
        """First iteration whose cost is at or below ``threshold`` (or None)."""
        for iteration, cost in enumerate(self.costs):
            if cost <= threshold:
                return iteration
        return None

    def to_dict(self) -> dict:
        """JSON-serializable form of the trace."""
        return {
            "costs": [float(cost) for cost in self.costs],
            "parameters": [np.asarray(p, dtype=float).tolist() for p in self.parameters],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "OptimizationTrace":
        """Rebuild a trace from :meth:`to_dict` output."""
        return cls(
            costs=[float(cost) for cost in data.get("costs", [])],
            parameters=[np.asarray(p, dtype=float) for p in data.get("parameters", [])],
        )


@dataclass
class LatencyBreakdown:
    """Modeled end-to-end latency components (Fig. 11), in seconds.

    Built by :meth:`repro.solvers.latency.LatencyModel.estimate` from the
    device model alone, so it reproduces bit for bit.
    """

    quantum_execution: float = 0.0
    classical_processing: float = 0.0

    @property
    def total(self) -> float:
        return self.quantum_execution + self.classical_processing

    def as_dict(self) -> dict[str, float]:
        return {
            "quantum_execution_s": self.quantum_execution,
            "classical_processing_s": self.classical_processing,
            "total_s": self.total,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "LatencyBreakdown":
        """Rebuild a breakdown from :meth:`as_dict` output (total is derived;
        an older record's ``compilation_s`` is ignored)."""
        return cls(
            quantum_execution=float(data.get("quantum_execution_s", 0.0)),
            classical_processing=float(data.get("classical_processing_s", 0.0)),
        )


@dataclass
class SolverResult:
    """The uniform output of every solver run."""

    solver_name: str
    problem_name: str
    outcomes: SampleResult
    exact_distribution: dict[str, float] | None = None
    optimal_parameters: np.ndarray | None = None
    trace: OptimizationTrace = field(default_factory=OptimizationTrace)
    circuit_depth: int = 0
    transpiled_depth: int = 0
    num_qubits: int = 0
    num_two_qubit_gates: int = 0
    latency: LatencyBreakdown = field(default_factory=LatencyBreakdown)
    metadata: dict = field(default_factory=dict)

    def distribution(self) -> Mapping[str, float]:
        """Exact probabilities when available, else shot frequencies."""
        if self.exact_distribution is not None:
            return self.exact_distribution
        return self.outcomes.frequencies()

    def metrics(self, problem: ConstrainedBinaryProblem, optimal_value: float | None = None) -> MetricsReport:
        """Evaluate the Table-II metrics against the originating problem."""
        return evaluate_outcomes(
            problem,
            self.distribution(),
            circuit_depth=self.transpiled_depth or self.circuit_depth,
            optimal_value=optimal_value,
        )

    # ------------------------------------------------------------------
    # Serialization (the contract the repro.run experiment runner persists)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """The full result as a JSON-serializable dict.

        The invariant is a dict-level fixed point:
        ``SolverResult.from_dict(r.to_dict()).to_dict() == r.to_dict()``.
        Tuples inside ``metadata`` come back as lists (see
        :mod:`repro.serialization`).
        """
        return {
            "solver_name": self.solver_name,
            "problem_name": self.problem_name,
            "outcomes": self.outcomes.to_dict(),
            "exact_distribution": (
                {key: float(value) for key, value in self.exact_distribution.items()}
                if self.exact_distribution is not None
                else None
            ),
            "optimal_parameters": (
                np.asarray(self.optimal_parameters, dtype=float).tolist()
                if self.optimal_parameters is not None
                else None
            ),
            "trace": self.trace.to_dict(),
            "circuit_depth": int(self.circuit_depth),
            "transpiled_depth": int(self.transpiled_depth),
            "num_qubits": int(self.num_qubits),
            "num_two_qubit_gates": int(self.num_two_qubit_gates),
            "latency": self.latency.as_dict(),
            "metadata": json_sanitize(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SolverResult":
        """Rebuild a result from :meth:`to_dict` output."""
        optimal_parameters = data.get("optimal_parameters")
        return cls(
            solver_name=data["solver_name"],
            problem_name=data["problem_name"],
            outcomes=SampleResult.from_dict(data.get("outcomes", {})),
            exact_distribution=(
                dict(data["exact_distribution"])
                if data.get("exact_distribution") is not None
                else None
            ),
            optimal_parameters=(
                np.asarray(optimal_parameters, dtype=float)
                if optimal_parameters is not None
                else None
            ),
            trace=OptimizationTrace.from_dict(data.get("trace", {})),
            circuit_depth=int(data.get("circuit_depth", 0)),
            transpiled_depth=int(data.get("transpiled_depth", 0)),
            num_qubits=int(data.get("num_qubits", 0)),
            num_two_qubit_gates=int(data.get("num_two_qubit_gates", 0)),
            latency=LatencyBreakdown.from_dict(data.get("latency", {})),
            metadata=dict(data.get("metadata", {})),
        )


class QuantumSolver:
    """Base class of every variational solver in the package.

    Subclasses name their frozen config dataclass in ``config_cls`` and the
    COBYLA iteration budget used when no optimizer is given in
    ``default_max_iterations``, and define ``build_spec(problem)``; the
    constructor and :meth:`solve` are shared.
    """

    name: str = "solver"
    config_cls: type
    default_max_iterations: int = 100

    def __init__(self, config=None, optimizer=None, options=None) -> None:
        # Imported here (and in solve): both modules import this one.
        from repro.solvers.optimizer import CobylaOptimizer
        from repro.solvers.variational import EngineOptions

        if config is None:
            config = self.config_cls()
        elif not isinstance(config, self.config_cls):
            # An int or dict sliding into the first positional slot fails
            # here instead of deep inside solve().
            raise SolverError(
                f"config must be a {self.config_cls.__name__} (or None), "
                f"got {type(config).__name__}"
            )
        self.config = config
        self.optimizer = optimizer or CobylaOptimizer(
            max_iterations=self.default_max_iterations
        )
        self.options = options or EngineOptions()

    def solve(self, problem: ConstrainedBinaryProblem) -> SolverResult:
        """Run the full encode → optimize → sample pipeline on ``problem``.

        Runs the spec of the subclass's ``build_spec(problem)`` on a
        :class:`~repro.solvers.variational.VariationalEngine`; the engine
        folds ``spec.metadata`` into the result's metadata.
        """
        from repro.solvers.variational import VariationalEngine

        engine = VariationalEngine(self.optimizer, self.options, self.config.noise)
        return engine.run(self.build_spec(problem), problem)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"
