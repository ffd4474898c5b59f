"""CX-ladder re-synthesis into multi-qubit phase gates.

The transpiler lowers every phase-type interaction into CX-conjugated RZ
ladders (``rzz`` → ``cx·rz·cx``; ``cp``/``mcp`` → the five-gate
``rz·cx·rz·cx·rz`` identity).  When the target basis allows richer phase
gates this pass runs the identities *backwards* — the myqlm-wiring
``cnots=False`` trick, where emitting multi-qubit phase gates instead of
CNOT ladders halves the entangling-gate count:

* ``cx(a,b) · rz(t,b) · cx(a,b)  →  rzz(t,a,b)``          (exact identity)
* ``rz(t,c) · rzz(-t,c,t) · rz(t,t)  →  cp(2t,c,t)``      (up to global phase)
* ``rz(t,c) · cx · rz(-t,t) · cx · rz(t,t)  →  cp(2t,c,t)``  (likewise)

Diagonal single-qubit gates commute through a CX *control*, so the first
pattern also matches when leftover phases sit between the two CX on the
control line (the tail of every lowered Toffoli).  Angle relations are
checked with exact float equality: the patterns target the transpiler's own
emissions, where the halves are exact negations, and an exact match keeps
the rewrite error-free rather than approximately sound.
"""

from __future__ import annotations

from repro.qcircuit.circuit import Instruction, QuantumCircuit
from repro.qcircuit.gates import mcp_gate, standard_gate
from repro.qcircuit.passes.base import CircuitPass, InstructionTimeline

#: Diagonal single-qubit gates that commute through a CX control line.
_CONTROL_COMMUTING = frozenset({"id", "z", "s", "sdg", "t", "tdg", "rz", "p"})


def _angle_of(instruction: Instruction, name: str) -> float | None:
    gate = instruction.gate
    if gate.name != name:
        return None
    return float(gate.params[0])


class LadderResynthesisPass(CircuitPass):
    """Rebuild ``rzz``/``cp`` gates out of their lowered CX ladders.

    Only rewrites toward gates named in ``basis_gates``; with none of
    ``rzz``/``cp``/``mcp`` allowed the pass is a no-op.
    """

    name = "ladder-resynthesis"

    def __init__(self, basis_gates: frozenset[str]) -> None:
        self._emit_rzz = "rzz" in basis_gates
        if "cp" in basis_gates:
            self._phase_gate: str | None = "cp"
        elif "mcp" in basis_gates:
            self._phase_gate = "mcp"
        else:
            self._phase_gate = None

    @property
    def is_noop(self) -> bool:
        return not self._emit_rzz and self._phase_gate is None

    def run(self, circuit: QuantumCircuit) -> QuantumCircuit:
        if self.is_noop:
            return circuit.copy()
        timeline = InstructionTimeline()
        for instruction in circuit:
            if instruction.is_directive:
                timeline.push(instruction)
                continue
            if self._emit_rzz and instruction.gate.name == "cx":
                if self._try_rzz(timeline, instruction):
                    continue
            if self._phase_gate is not None and instruction.gate.name == "rz":
                if self._try_cp_from_rzz(timeline, instruction):
                    continue
                if self._try_cp_from_ladder(timeline, instruction):
                    continue
            timeline.push(instruction)
        return timeline.to_circuit(circuit)

    # ------------------------------------------------------------------

    def _push_phase(
        self, timeline: InstructionTimeline, theta: float, control: int, target: int
    ) -> None:
        if self._phase_gate == "cp":
            gate = standard_gate("cp", theta)
        else:
            gate = mcp_gate(1, theta)
        timeline.push(Instruction(gate, (control, target)))

    @staticmethod
    def _control_line_clear(
        timeline: InstructionTimeline, control: int, until_index: int
    ) -> bool:
        """True if everything on ``control`` above ``until_index`` commutes
        through a CX control (diagonal single-qubit gates on that line)."""
        depth = 0
        while True:
            index = timeline.last_index(control, depth)
            if index is None or index < until_index:
                return False
            if index == until_index:
                return True
            between = timeline.instruction_at(index)
            if between.qubits != (control,) or (
                between.gate.name not in _CONTROL_COMMUTING
            ):
                return False
            depth += 1

    def _try_rzz(
        self, timeline: InstructionTimeline, incoming: Instruction
    ) -> bool:
        """``cx(a,b) · [diag on a] · rz(t,b) · cx(a,b)`` → ``rzz(t,a,b)``."""
        control, target = incoming.qubits
        rz_index = timeline.last_index(target)
        cx_index = timeline.last_index(target, 1)
        if rz_index is None or cx_index is None:
            return False
        theta = _angle_of(timeline.instruction_at(rz_index), "rz")
        if theta is None or timeline.instruction_at(rz_index).qubits != (target,):
            return False
        if timeline.instruction_at(cx_index).gate.name != "cx":
            return False
        if timeline.instruction_at(cx_index).qubits != incoming.qubits:
            return False
        if not self._control_line_clear(timeline, control, cx_index):
            return False
        timeline.remove_all([rz_index, cx_index])
        timeline.push(
            Instruction(standard_gate("rzz", theta), (control, target))
        )
        return True

    def _try_cp_from_rzz(
        self, timeline: InstructionTimeline, incoming: Instruction
    ) -> bool:
        """``rz(t,c) · rzz(-t,c,t) · rz(t,t)`` → ``cp(2t,c,t)``."""
        alpha = _angle_of(incoming, "rz")
        if alpha is None:
            return False
        (target,) = incoming.qubits
        zz_index = timeline.last_index(target)
        if zz_index is None:
            return False
        zz = timeline.instruction_at(zz_index)
        if _angle_of(zz, "rzz") != -alpha:
            return False
        control = zz.qubits[0] if zz.qubits[1] == target else zz.qubits[1]
        if target not in zz.qubits or timeline.last_index(control) != zz_index:
            return False
        rzc_index = timeline.last_index(control, 1)
        if rzc_index is None:
            return False
        rzc = timeline.instruction_at(rzc_index)
        if rzc.qubits != (control,) or _angle_of(rzc, "rz") != alpha:
            return False
        timeline.remove_all([zz_index, rzc_index])
        self._push_phase(timeline, 2.0 * alpha, control, target)
        return True

    def _try_cp_from_ladder(
        self, timeline: InstructionTimeline, incoming: Instruction
    ) -> bool:
        """The transpiler's own five-gate ``cp`` lowering, run backwards."""
        alpha = _angle_of(incoming, "rz")
        if alpha is None:
            return False
        (target,) = incoming.qubits
        cx2_index = timeline.last_index(target)
        if cx2_index is None:
            return False
        cx2 = timeline.instruction_at(cx2_index)
        if cx2.gate.name != "cx" or cx2.qubits[1] != target:
            return False
        control = cx2.qubits[0]
        if timeline.last_index(control) != cx2_index:
            return False
        rz2_index = timeline.last_index(target, 1)
        cx1_index = timeline.last_index(target, 2)
        rzc_index = timeline.last_index(control, 2)
        if rz2_index is None or cx1_index is None or rzc_index is None:
            return False
        rz2 = timeline.instruction_at(rz2_index)
        if rz2.qubits != (target,) or _angle_of(rz2, "rz") != -alpha:
            return False
        if timeline.last_index(control, 1) != cx1_index:
            return False
        if timeline.instruction_at(cx1_index).qubits != cx2.qubits:
            return False
        if timeline.instruction_at(cx1_index).gate.name != "cx":
            return False
        rzc = timeline.instruction_at(rzc_index)
        if rzc.qubits != (control,) or _angle_of(rzc, "rz") != alpha:
            return False
        timeline.remove_all([cx2_index, rz2_index, cx1_index, rzc_index])
        self._push_phase(timeline, 2.0 * alpha, control, target)
        return True
