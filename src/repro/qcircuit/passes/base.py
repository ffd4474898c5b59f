"""Pass protocol and the streaming timeline the peephole passes share.

A :class:`CircuitPass` is a pure circuit-to-circuit rewrite: it must return a
circuit that implements the same unitary as its input **up to global phase**
(the package-wide transpilation contract), on the same register, and must be
deterministic — the content-hash result cache in :mod:`repro.run` relies on
transpilation being a pure function of the circuit and options.

The concrete passes are all *peephole* rewrites over per-qubit timelines:
two instructions are rewritable together exactly when they are adjacent on
the timeline of **every** qubit they act on (anything between them then
touches disjoint qubits and commutes trivially).  :class:`InstructionTimeline`
implements that bookkeeping as a streaming builder — each qubit carries a
stack of the live instruction indices that touch it — so every pass is a
single linear sweep instead of a quadratic scan.
"""

from __future__ import annotations

import abc

from repro.exceptions import TranspileError
from repro.qcircuit.circuit import Instruction, QuantumCircuit


class CircuitPass(abc.ABC):
    """One rewrite step of the optimization pipeline.

    Subclasses set ``name`` (used in :class:`~repro.qcircuit.passes.report.
    PassRecord` entries) and implement :meth:`run`.
    """

    name: str = "pass"

    @abc.abstractmethod
    def run(self, circuit: QuantumCircuit) -> QuantumCircuit:
        """Return an equivalent (up to global phase) rewritten circuit."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class InstructionTimeline:
    """Streaming output builder tracking per-qubit instruction adjacency.

    Instructions are :meth:`push`-ed in circuit order; each qubit keeps a
    stack of the indices of live (not yet removed) instructions touching it.
    A pass inspects the stacks to find patterns that are timeline-adjacent
    and calls :meth:`remove` to rewrite them.  Directives (measure/barrier)
    are pushed like gates so they fence the qubits they cover.
    """

    def __init__(self) -> None:
        self._out: list[Instruction | None] = []
        self._stacks: dict[int, list[int]] = {}

    # -- building ----------------------------------------------------------

    def push(self, instruction: Instruction) -> int:
        """Append ``instruction`` and return its index."""
        index = len(self._out)
        self._out.append(instruction)
        for qubit in instruction.qubits:
            self._stacks.setdefault(qubit, []).append(index)
        return index

    def remove(self, index: int) -> None:
        """Delete a live instruction from the output and every qubit stack."""
        instruction = self._out[index]
        if instruction is None:
            raise TranspileError(f"instruction {index} was already removed")
        self._out[index] = None
        for qubit in instruction.qubits:
            self._stacks[qubit].remove(index)

    def remove_all(self, indices: list[int]) -> None:
        for index in sorted(indices, reverse=True):
            self.remove(index)

    # -- inspection ---------------------------------------------------------

    def last_index(self, qubit: int, depth: int = 0) -> int | None:
        """Index of the ``depth``-th most recent live instruction on ``qubit``."""
        stack = self._stacks.get(qubit)
        if stack is None or len(stack) <= depth:
            return None
        return stack[-1 - depth]

    def instruction_at(self, index: int) -> Instruction:
        instruction = self._out[index]
        if instruction is None:
            raise TranspileError(f"instruction {index} was already removed")
        return instruction

    # -- finishing ----------------------------------------------------------

    def to_circuit(self, source: QuantumCircuit) -> QuantumCircuit:
        """Materialise the surviving instructions on ``source``'s register."""
        result = QuantumCircuit(source.num_qubits, name=source.name)
        for instruction in self._out:
            if instruction is not None:
                result.append_instruction(instruction)
        return result


def adjacent_pair(
    timeline: InstructionTimeline, instruction: Instruction
) -> tuple[int, Instruction] | None:
    """The live instruction timeline-adjacent to an incoming one, if any.

    Returns ``(index, previous)`` when every qubit of ``instruction`` has the
    same most-recent live instruction *and* that instruction acts on exactly
    the same qubit set — the condition under which the pair is adjacent as
    operators regardless of what sits between them in list order.
    """
    indices = set()
    for qubit in instruction.qubits:
        index = timeline.last_index(qubit)
        if index is None:
            return None
        indices.add(index)
    if len(indices) != 1:
        return None
    index = indices.pop()
    previous = timeline.instruction_at(index)
    if previous.is_directive:
        return None
    if set(previous.qubits) != set(instruction.qubits):
        return None
    return index, previous
