"""Gate-level quantum circuit intermediate representation.

:class:`QuantumCircuit` is an ordered list of :class:`Instruction` objects,
each pairing a :class:`~repro.qcircuit.gates.Gate` with the qubit indices it
acts on.  The IR supports:

* builder methods for every gate in the library (``circuit.h(0)``,
  ``circuit.cx(0, 1)``, ``circuit.mcp(theta, controls, target)`` ...),
* measurement and barrier markers,
* composition, inversion, and deep copies,
* depth and gate-count accounting (used heavily by the evaluation section).

Qubit ordering is little-endian throughout the package: qubit 0 is the
least-significant bit of a computational basis index, so the basis state
``|q_{n-1} ... q_1 q_0>`` has index ``sum_i q_i 2^i``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import CircuitError
from repro.qcircuit.gates import (
    Gate,
    mcp_gate,
    mcx_gate,
    standard_gate,
    unitary_gate,
)


@dataclass(frozen=True)
class Instruction:
    """A gate (or directive) applied to a specific tuple of qubits."""

    gate: Gate
    qubits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.qubits)) != len(self.qubits):
            raise CircuitError(f"duplicate qubits in instruction: {self.qubits}")
        if self.gate.name not in ("measure", "barrier") and len(self.qubits) != self.gate.num_qubits:
            raise CircuitError(
                f"gate {self.gate.name!r} expects {self.gate.num_qubits} qubits, "
                f"got {len(self.qubits)}"
            )

    @property
    def name(self) -> str:
        return self.gate.name

    @property
    def is_directive(self) -> bool:
        """Directives (measure / barrier) carry no unitary."""
        return self.gate.name in ("measure", "barrier")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Instruction({self.gate.name!r}, qubits={self.qubits})"


class QuantumCircuit:
    """An ordered sequence of gate instructions on ``num_qubits`` qubits."""

    def __init__(self, num_qubits: int, name: str = "circuit") -> None:
        if num_qubits < 1:
            raise CircuitError("a circuit needs at least one qubit")
        self.num_qubits = int(num_qubits)
        self.name = name
        self._instructions: list[Instruction] = []

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self._instructions[index]

    @property
    def instructions(self) -> tuple[Instruction, ...]:
        return tuple(self._instructions)

    # ------------------------------------------------------------------
    # Low-level append
    # ------------------------------------------------------------------

    def append(self, gate: Gate, qubits: Sequence[int]) -> "QuantumCircuit":
        """Append ``gate`` on ``qubits`` (validates the indices)."""
        return self.append_instruction(Instruction(gate, tuple(int(q) for q in qubits)))

    def append_instruction(self, instruction: Instruction) -> "QuantumCircuit":
        """Append an existing :class:`Instruction`, directives included.

        The public path for cloning or rewriting circuits instruction by
        instruction (e.g. the noise model's trajectory sampling): qubit
        indices are validated against this circuit's register, then the
        frozen instance itself is appended and shared with its source, not
        rebuilt.
        """
        for qubit in instruction.qubits:
            if not 0 <= qubit < self.num_qubits:
                raise CircuitError(
                    f"qubit index {qubit} out of range for a {self.num_qubits}-qubit circuit"
                )
        self._instructions.append(instruction)
        return self

    def extend(self, instructions: Iterable[Instruction]) -> "QuantumCircuit":
        for instruction in instructions:
            self.append_instruction(instruction)
        return self

    # ------------------------------------------------------------------
    # Builder methods: single-qubit gates
    # ------------------------------------------------------------------

    def i(self, qubit: int) -> "QuantumCircuit":
        return self.append(standard_gate("id"), [qubit])

    def x(self, qubit: int) -> "QuantumCircuit":
        return self.append(standard_gate("x"), [qubit])

    def y(self, qubit: int) -> "QuantumCircuit":
        return self.append(standard_gate("y"), [qubit])

    def z(self, qubit: int) -> "QuantumCircuit":
        return self.append(standard_gate("z"), [qubit])

    def h(self, qubit: int) -> "QuantumCircuit":
        return self.append(standard_gate("h"), [qubit])

    def s(self, qubit: int) -> "QuantumCircuit":
        return self.append(standard_gate("s"), [qubit])

    def sdg(self, qubit: int) -> "QuantumCircuit":
        return self.append(standard_gate("sdg"), [qubit])

    def t(self, qubit: int) -> "QuantumCircuit":
        return self.append(standard_gate("t"), [qubit])

    def tdg(self, qubit: int) -> "QuantumCircuit":
        return self.append(standard_gate("tdg"), [qubit])

    def sx(self, qubit: int) -> "QuantumCircuit":
        return self.append(standard_gate("sx"), [qubit])

    def rx(self, theta: float, qubit: int) -> "QuantumCircuit":
        return self.append(standard_gate("rx", theta), [qubit])

    def ry(self, theta: float, qubit: int) -> "QuantumCircuit":
        return self.append(standard_gate("ry", theta), [qubit])

    def rz(self, theta: float, qubit: int) -> "QuantumCircuit":
        return self.append(standard_gate("rz", theta), [qubit])

    def p(self, theta: float, qubit: int) -> "QuantumCircuit":
        return self.append(standard_gate("p", theta), [qubit])

    # ------------------------------------------------------------------
    # Builder methods: two-qubit gates
    # ------------------------------------------------------------------

    def cx(self, control: int, target: int) -> "QuantumCircuit":
        return self.append(standard_gate("cx"), [control, target])

    def cz(self, qubit_a: int, qubit_b: int) -> "QuantumCircuit":
        return self.append(standard_gate("cz"), [qubit_a, qubit_b])

    def cp(self, theta: float, control: int, target: int) -> "QuantumCircuit":
        return self.append(standard_gate("cp", theta), [control, target])

    def swap(self, qubit_a: int, qubit_b: int) -> "QuantumCircuit":
        return self.append(standard_gate("swap"), [qubit_a, qubit_b])

    def rxx(self, theta: float, qubit_a: int, qubit_b: int) -> "QuantumCircuit":
        return self.append(standard_gate("rxx", theta), [qubit_a, qubit_b])

    def ryy(self, theta: float, qubit_a: int, qubit_b: int) -> "QuantumCircuit":
        return self.append(standard_gate("ryy", theta), [qubit_a, qubit_b])

    def rzz(self, theta: float, qubit_a: int, qubit_b: int) -> "QuantumCircuit":
        return self.append(standard_gate("rzz", theta), [qubit_a, qubit_b])

    # ------------------------------------------------------------------
    # Builder methods: multi-qubit gates and directives
    # ------------------------------------------------------------------

    def mcx(self, controls: Sequence[int], target: int) -> "QuantumCircuit":
        """Multi-controlled X. Controls precede the target in operand order."""
        return self.append(mcx_gate(len(controls)), [*controls, target])

    def mcp(self, theta: float, controls: Sequence[int], target: int) -> "QuantumCircuit":
        """Multi-controlled phase, Eq. (15): phases the all-ones state."""
        return self.append(mcp_gate(len(controls), theta), [*controls, target])

    def unitary(self, matrix: np.ndarray, qubits: Sequence[int], label: str | None = None) -> "QuantumCircuit":
        return self.append(unitary_gate(matrix, label=label), qubits)

    def barrier(self, qubits: Sequence[int] | None = None) -> "QuantumCircuit":
        qubits = tuple(range(self.num_qubits)) if qubits is None else tuple(int(q) for q in qubits)
        return self.append_instruction(Instruction(Gate("barrier", max(len(qubits), 1)), qubits))

    def measure_all(self) -> "QuantumCircuit":
        gate = Gate("measure", self.num_qubits)
        self._instructions.append(Instruction(gate, tuple(range(self.num_qubits))))
        return self

    # ------------------------------------------------------------------
    # Composition and transformation
    # ------------------------------------------------------------------

    def copy(self) -> "QuantumCircuit":
        duplicate = QuantumCircuit(self.num_qubits, name=self.name)
        duplicate._instructions = list(self._instructions)
        return duplicate

    def compose(self, other: "QuantumCircuit", qubits: Sequence[int] | None = None) -> "QuantumCircuit":
        """Append ``other`` onto this circuit (in place) and return self.

        ``qubits`` maps the other circuit's qubit ``i`` to ``qubits[i]`` of
        this circuit; by default the identity mapping is used.
        """
        if qubits is None:
            if other.num_qubits > self.num_qubits:
                raise CircuitError("composed circuit has more qubits than the host")
            mapping = list(range(other.num_qubits))
        else:
            mapping = [int(q) for q in qubits]
            if len(mapping) != other.num_qubits:
                raise CircuitError("qubit mapping length must match the composed circuit")
        for instruction in other:
            self.append_instruction(
                Instruction(instruction.gate, tuple(mapping[q] for q in instruction.qubits))
            )
        return self

    def inverse(self) -> "QuantumCircuit":
        """Return the adjoint circuit (reversed order, inverted gates)."""
        inverted = QuantumCircuit(self.num_qubits, name=f"{self.name}_dg")
        for instruction in reversed(self._instructions):
            if instruction.is_directive:
                continue
            inverted.append(instruction.gate.inverse(), instruction.qubits)
        return inverted

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def count_ops(self) -> dict[str, int]:
        """Return a histogram of gate names (excluding barriers)."""
        counts: dict[str, int] = {}
        for instruction in self._instructions:
            if instruction.name == "barrier":
                continue
            counts[instruction.name] = counts.get(instruction.name, 0) + 1
        return counts

    def size(self) -> int:
        """Total number of gate instructions (excluding directives)."""
        return sum(1 for inst in self._instructions if not inst.is_directive)

    def num_two_qubit_gates(self) -> int:
        return sum(
            1
            for inst in self._instructions
            if not inst.is_directive and len(inst.qubits) == 2
        )

    def two_qubit_ratio(self) -> float:
        """Fraction of gate instructions that are two-qubit (0.0 when empty).

        The non-local-gate ratio the transpile reports track: entangling
        gates dominate error budgets on hardware, so optimization passes are
        scored primarily on how far they push this number down.
        """
        size = self.size()
        if size == 0:
            return 0.0
        return self.num_two_qubit_gates() / size

    def depth(self) -> int:
        """Circuit depth: the longest chain of gates over any qubit timeline.

        Barriers synchronise the qubits they cover; measurements count as a
        layer on the measured qubits.
        """
        frontier = [0] * self.num_qubits
        for instruction in self._instructions:
            if instruction.name == "barrier":
                if instruction.qubits:
                    level = max(frontier[q] for q in instruction.qubits)
                    for qubit in instruction.qubits:
                        frontier[qubit] = level
                continue
            level = max(frontier[q] for q in instruction.qubits) + 1
            for qubit in instruction.qubits:
                frontier[qubit] = level
        return max(frontier) if frontier else 0

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QuantumCircuit(name={self.name!r}, num_qubits={self.num_qubits}, "
            f"size={self.size()}, depth={self.depth()})"
        )

    def summary(self) -> str:
        """A short multi-line human readable description of the circuit."""
        ops = ", ".join(f"{name}:{count}" for name, count in sorted(self.count_ops().items()))
        return (
            f"{self.name}: {self.num_qubits} qubits, {self.size()} gates, "
            f"depth {self.depth()}, two-qubit {self.num_two_qubit_gates()} "
            f"({self.two_qubit_ratio():.1%})\n  ops: {ops}"
        )
