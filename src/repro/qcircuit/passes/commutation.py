"""Commuting-diagonal reordering.

Every gate in the diagonal family (``z``-axis rotations, phases, ``cz``,
``rzz``, ``cp``, ``mcp``) is diagonal in the computational basis, so any two
of them commute exactly — regardless of qubit overlap or angle.  Within each
maximal run of consecutive diagonal instructions the pass stable-sorts by
(qubit tuple, gate name), dragging same-axis rotations on the same qubits
next to each other so the fusion pass can merge them even when they were
separated by other commuting phase terms (the cross-layer fusion opportunity
in QAOA-style cost layers).

The sort is stable and keyed only on structural fields, so the pass is
deterministic and idempotent; non-diagonal gates and directives end runs.
"""

from __future__ import annotations

from repro.qcircuit.circuit import Instruction, QuantumCircuit
from repro.qcircuit.passes.base import CircuitPass

DIAGONAL_GATES = frozenset(
    {"id", "z", "s", "sdg", "t", "tdg", "rz", "p", "cz", "cp", "rzz", "mcp"}
)


def _is_diagonal(instruction: Instruction) -> bool:
    return not instruction.is_directive and instruction.gate.name in DIAGONAL_GATES


def _sort_key(instruction: Instruction) -> tuple:
    return (tuple(sorted(instruction.qubits)), instruction.gate.name)


class CommuteDiagonalPass(CircuitPass):
    """Stable-sort maximal runs of mutually-commuting diagonal gates."""

    name = "commute-diagonal"

    def run(self, circuit: QuantumCircuit) -> QuantumCircuit:
        result = QuantumCircuit(circuit.num_qubits, name=circuit.name)
        run: list[Instruction] = []

        def flush() -> None:
            run.sort(key=_sort_key)
            result.extend(run)
            run.clear()

        for instruction in circuit:
            if _is_diagonal(instruction):
                run.append(instruction)
            else:
                flush()
                result.append_instruction(instruction)
        flush()
        return result
