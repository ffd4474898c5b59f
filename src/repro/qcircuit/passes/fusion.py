"""Adjacent same-axis rotation fusion.

``RZ(a)·RZ(b) = RZ(a+b)`` holds exactly (same for every rotation family in
the library, including the symmetric two-qubit rotations and ``mcp``), so
timeline-adjacent rotations of the same kind on the same qubit set merge
into one instruction, and a merged (or standalone) rotation whose angle is
numerically zero is elided entirely — ``R(0)`` is the identity for every
family here (``p``/``cp``/``mcp`` included, where the phase factor is
``e^{i·0} = 1``).
"""

from __future__ import annotations

from repro.qcircuit.circuit import Instruction, QuantumCircuit
from repro.qcircuit.gates import Gate, mcp_gate, standard_gate
from repro.qcircuit.passes.base import CircuitPass, InstructionTimeline, adjacent_pair

#: Angles below this magnitude are treated as zero.  Merging is exact float
#: addition, so an inverse pair like ``rz(t)·rz(-t)`` lands on 0.0 exactly;
#: the tolerance only matters for angles that were themselves computed.
ZERO_ANGLE_TOLERANCE = 1e-12

#: Rotation families that merge by angle addition.  All two-qubit members are
#: symmetric under qubit exchange (their matrices commute with SWAP), and
#: ``mcp`` phases the all-ones state of its qubit *set*, so operand order
#: need not match for the pair to fuse.
_FUSABLE = frozenset({"rx", "ry", "rz", "p", "cp", "rxx", "ryy", "rzz", "mcp"})


def _fusable_angle(instruction: Instruction) -> float | None:
    gate = instruction.gate
    if gate.name not in _FUSABLE:
        return None
    return float(gate.params[0])


def _merged_gate(previous: Gate, angle: float) -> Gate:
    if previous.name == "mcp":
        return mcp_gate(previous.num_controls, angle)
    return standard_gate(previous.name, angle)


class RotationFusionPass(CircuitPass):
    """Merge adjacent same-axis rotations; drop zero-angle rotations."""

    name = "rotation-fusion"

    def run(self, circuit: QuantumCircuit) -> QuantumCircuit:
        timeline = InstructionTimeline()
        for instruction in circuit:
            if instruction.is_directive:
                timeline.push(instruction)
                continue
            angle = _fusable_angle(instruction)
            if angle is None:
                timeline.push(instruction)
                continue
            if abs(angle) < ZERO_ANGLE_TOLERANCE:
                continue
            pair = adjacent_pair(timeline, instruction)
            if pair is not None:
                index, previous = pair
                previous_angle = _fusable_angle(previous)
                if previous_angle is not None and previous.gate.name == instruction.gate.name:
                    timeline.remove(index)
                    merged = previous_angle + angle
                    if abs(merged) >= ZERO_ANGLE_TOLERANCE:
                        timeline.push(
                            Instruction(
                                _merged_gate(previous.gate, merged), previous.qubits
                            )
                        )
                    continue
            timeline.push(instruction)
        return timeline.to_circuit(circuit)
