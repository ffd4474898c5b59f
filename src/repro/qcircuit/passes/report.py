"""Frozen, serializable transpilation reports.

Every optimized transpile produces a :class:`TranspileReport`: the metric
triple (size, depth, two-qubit count/ratio) of the circuit *before* lowering,
*after* lowering, and *after* optimization, plus a :class:`PassRecord` for
every pass application that changed the circuit.  Reports ride inside solver
result metadata (plain dicts via ``to_dict``), so each optimization pass is a
quantified, cacheable measurement rather than an invisible side effect — the
measurement-first reporting style of the per-circuit tables in
qiskit-zx-transpiler's ``benchmarks_output.txt``.

:meth:`CircuitStats.from_circuit` walks a circuit three times, through the
:class:`QuantumCircuit` helpers ``size``, ``depth`` and
``num_two_qubit_gates``, and derives the ratio from the size and two-qubit
count it already holds, by the same formula as ``two_qubit_ratio``.  The
helpers stay the reference: ``tests/test_passes.py::TestStatsChain`` pins
``from_circuit`` to all four on randomized circuits, so reports and circuit
``summary()`` lines cannot disagree.  A transpile computes each circuit's
stats once: a pass record's ``before`` is the previous record's ``after``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.qcircuit.circuit import QuantumCircuit


@dataclass(frozen=True)
class CircuitStats:
    """The metric triple every report row carries."""

    size: int
    depth: int
    two_qubit_gates: int
    two_qubit_ratio: float

    @classmethod
    def from_circuit(cls, circuit: QuantumCircuit) -> "CircuitStats":
        size = circuit.size()
        two_qubit_gates = circuit.num_two_qubit_gates()
        return cls(
            size=size,
            depth=circuit.depth(),
            two_qubit_gates=two_qubit_gates,
            two_qubit_ratio=two_qubit_gates / size if size else 0.0,
        )

    def to_dict(self) -> dict:
        return {
            "size": self.size,
            "depth": self.depth,
            "two_qubit_gates": self.two_qubit_gates,
            "two_qubit_ratio": self.two_qubit_ratio,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CircuitStats":
        return cls(
            size=int(payload["size"]),
            depth=int(payload["depth"]),
            two_qubit_gates=int(payload["two_qubit_gates"]),
            two_qubit_ratio=float(payload["two_qubit_ratio"]),
        )


@dataclass(frozen=True)
class PassRecord:
    """Before/after metrics of one pass application that changed the circuit."""

    pass_name: str
    round_index: int
    before: CircuitStats
    after: CircuitStats

    def to_dict(self) -> dict:
        return {
            "pass_name": self.pass_name,
            "round_index": self.round_index,
            "before": self.before.to_dict(),
            "after": self.after.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PassRecord":
        return cls(
            pass_name=str(payload["pass_name"]),
            round_index=int(payload["round_index"]),
            before=CircuitStats.from_dict(payload["before"]),
            after=CircuitStats.from_dict(payload["after"]),
        )


@dataclass(frozen=True)
class TranspileReport:
    """What one transpile did: source → lowered → optimized, pass by pass."""

    circuit_name: str
    num_qubits: int
    optimization_level: int
    basis_gates: tuple[str, ...]
    source: CircuitStats
    lowered: CircuitStats
    optimized: CircuitStats
    passes: tuple[PassRecord, ...] = ()

    # -- derived metrics -----------------------------------------------------

    def size_reduction(self) -> float:
        """Fractional size win of the optimizer over plain lowering."""
        return self._reduction(self.lowered.size, self.optimized.size)

    def depth_reduction(self) -> float:
        return self._reduction(self.lowered.depth, self.optimized.depth)

    def two_qubit_reduction(self) -> float:
        return self._reduction(
            self.lowered.two_qubit_gates, self.optimized.two_qubit_gates
        )

    @staticmethod
    def _reduction(before: int, after: int) -> float:
        if before == 0:
            return 0.0
        return (before - after) / before

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "circuit_name": self.circuit_name,
            "num_qubits": self.num_qubits,
            "optimization_level": self.optimization_level,
            "basis_gates": list(self.basis_gates),
            "source": self.source.to_dict(),
            "lowered": self.lowered.to_dict(),
            "optimized": self.optimized.to_dict(),
            "passes": [record.to_dict() for record in self.passes],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TranspileReport":
        return cls(
            circuit_name=str(payload["circuit_name"]),
            num_qubits=int(payload["num_qubits"]),
            optimization_level=int(payload["optimization_level"]),
            basis_gates=tuple(str(g) for g in payload["basis_gates"]),
            source=CircuitStats.from_dict(payload["source"]),
            lowered=CircuitStats.from_dict(payload["lowered"]),
            optimized=CircuitStats.from_dict(payload["optimized"]),
            passes=tuple(
                PassRecord.from_dict(record) for record in payload.get("passes", ())
            ),
        )

    # -- rendering ---------------------------------------------------------------

    def summary(self) -> str:
        """Per-circuit report table (lowered vs optimized, with ratios)."""
        lines = [
            f"{self.circuit_name}: {self.num_qubits} qubits, "
            f"optimization_level={self.optimization_level}",
            f"  size:      {self.lowered.size} -> {self.optimized.size} "
            f"(-{self.size_reduction():.1%})",
            f"  depth:     {self.lowered.depth} -> {self.optimized.depth} "
            f"(-{self.depth_reduction():.1%})",
            f"  two-qubit: {self.lowered.two_qubit_gates} -> "
            f"{self.optimized.two_qubit_gates} "
            f"(-{self.two_qubit_reduction():.1%}, "
            f"ratio {self.optimized.two_qubit_ratio:.2f})",
        ]
        for record in self.passes:
            lines.append(
                f"  [round {record.round_index}] {record.pass_name}: "
                f"size {record.before.size} -> {record.after.size}, "
                f"two-qubit {record.before.two_qubit_gates} -> "
                f"{record.after.two_qubit_gates}"
            )
        return "\n".join(lines)
