"""Transpilation of circuits to a NISQ basis gate set.

The evaluation in the paper reports *circuit depth after decomposition into
basic gates* (Table II, Fig. 12, Fig. 13).  This module lowers the high-level
gates emitted by the algorithm front-ends — most importantly the
multi-controlled phase gate ``P(beta)`` of Lemma 2 and the multi-controlled X
used by its reference decomposition — into the basis
``{x, sx, h, rz, cx, cz}``.

Key synthesis routines:

* ``cp`` → two CX and three RZ rotations (textbook identity),
* ``ccx`` (Toffoli) → 6 CX + 7 RZ(±pi/4) + 2 H (up to global phase),
* ``mcx`` with ``k`` controls → a V-chain of Toffolis over ``k - 2`` clean
  ancilla qubits (linear time and depth).  The paper re-uses only two
  ancillas via a borrowed-ancilla construction; we use the simpler clean
  V-chain, which has the same linear asymptotics (README, "Deviations
  from the paper").
* ``mcp`` → compute the AND of all-but-one involved qubits into an ancilla
  chain, apply a controlled-phase against the remaining qubit, uncompute —
  again linear, matching Section IV-B's complexity claim,
* ``rxx`` / ``ryy`` / ``rzz`` → standard CX-conjugated RZ identities,
* opaque ``unitary`` gates (emitted only by the Trotter baseline) are kept
  as-is and charged an exponential synthesis penalty by
  :func:`depth_after_transpile`, reflecting the generic-synthesis cost the
  paper attributes to approximation-based decompositions.

After lowering, the optimization pass stack of :mod:`repro.qcircuit.passes`
runs according to ``TranspileOptions.optimization_level`` (level 0 skips it,
reproducing the plain lowering bit for bit), and
:func:`transpile_with_report` exposes a serializable per-circuit
:class:`~repro.qcircuit.passes.report.TranspileReport` of what every pass
changed.

Transpiled circuits are equivalent to their sources **up to global phase**,
which is irrelevant for all sampling-based metrics.

Structure memo
--------------
A fixed-structure ansatz yields the same circuit for every seed of a
problem, so :func:`transpile_with_report` keeps the last
:data:`MEMO_CAPACITY` results in a process-wide LRU and answers a repeated
circuit without lowering or optimizing it again.  Lowering and the pass
stack are deterministic, so a hit is bit-identical to a miss.

* **Key.** A blake2b digest of the circuit's content — its name (copied
  into the report), ``num_qubits``, and per instruction the gate name,
  qubit count, ``num_controls``, ``label``, qubits, params and the bytes of
  ``gate.matrix`` — plus the full :class:`TranspileOptions`.  The matrix is
  hashed explicitly because ``Gate`` equality ignores it; params, which a
  gate checks are real scalars, by type name and value, a float by its exact
  hex form (so ``-0.0`` and ``0.0`` differ).
* **Bound.** Four entries, enough for every structure a seed sweep cycles
  through (the whole-solve benchmark's widest sweep cycles three); a
  retained K4 circuit costs about 1 MB.  The solvers' structure memo
  (:mod:`repro.solvers.structure`) keeps each compiled structure's
  reference circuit, transpiled depth and modeled duration, but the engine
  still transpiles that circuit on every solve, and this memo answers it:
  a warm structure's transpile is a digest and a copy here (about 1 ms for
  K4), and the report it returns is the one the result carries.  So this
  memo serves the reference circuits of the last few structures of every
  solver, and a structure the structure memo still holds but this one has
  evicted is lowered again.  Circuits that never repeat — HEA's seed-drawn
  initial angles, or a noisy run's final circuit, which carries the
  optimized parameters — simply miss and are evicted first; they cost no
  more than without the memo.
* **Miss.** A miss lowers, runs the pass stack and computes each distinct
  circuit's stats once (pass records chain their before/after stats).
  Passes re-append the frozen instructions they keep instead of rebuilding
  them, so the optimized circuit shares instances with the lowering.  A
  choco-q solve's reference circuit at the service's 8-12-qubit scales
  costs about 25-45 ms cold on a 2-core x86 host.
* **Copy on return.** The memo owns its circuit and every call returns a
  fresh :meth:`~repro.qcircuit.circuit.QuantumCircuit.copy`, so a caller
  appending to the result never changes a later hit.  Instructions and the
  report are frozen and shared.
* **Threads.** A lock guards lookup and insert
  (:class:`~repro.memo.LruMemo`); two threads missing on the same circuit
  both transpile, and both return the result stored first.

:func:`transpile_cache_info` reports the process-wide hit and miss counts.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.exceptions import TranspileError
from repro.memo import LruMemo
from repro.qcircuit.circuit import Instruction, QuantumCircuit
from repro.qcircuit.gates import BASIS_GATES, Gate
from repro.qcircuit.passes.manager import (
    DEFAULT_OPTIMIZATION_LEVEL,
    MAX_OPTIMIZATION_LEVEL,
    PassManager,
    default_pipeline,
)
from repro.qcircuit.passes.report import CircuitStats, TranspileReport


@dataclass(frozen=True)
class TranspileOptions:
    """Options controlling lowering and optimization.

    Attributes:
        basis_gates: target basis; instructions already in the basis pass
            through untouched.
        optimization_level: which pass pipeline runs after lowering (see
            :func:`~repro.qcircuit.passes.manager.default_pipeline`).
            Level 0 skips optimization entirely and is bit-identical to the
            pre-pass-stack transpiler output.
    """

    basis_gates: frozenset[str] = BASIS_GATES
    optimization_level: int = DEFAULT_OPTIMIZATION_LEVEL

    def __post_init__(self) -> None:
        if not 0 <= self.optimization_level <= MAX_OPTIMIZATION_LEVEL:
            raise TranspileError(
                "optimization_level must be between 0 and "
                f"{MAX_OPTIMIZATION_LEVEL}, got {self.optimization_level}"
            )


class Transpiler:
    """Lower a circuit to the basis gate set."""

    def __init__(self, options: TranspileOptions | None = None) -> None:
        self.options = options or TranspileOptions()

    # ------------------------------------------------------------------

    def run(self, circuit: QuantumCircuit) -> QuantumCircuit:
        """Return an equivalent circuit (up to global phase) in the basis.

        The output may have more qubits than the input when ancillas are
        required; ancillas occupy the highest indices and always start and
        end in ``|0>``.
        """
        num_ancillas = self._required_ancillas(circuit)
        total_qubits = circuit.num_qubits + num_ancillas
        lowered = QuantumCircuit(total_qubits, name=f"{circuit.name}_t")
        ancillas = list(range(circuit.num_qubits, total_qubits))
        for instruction in circuit:
            if instruction.is_directive:
                lowered.append_instruction(instruction)
                continue
            self._lower_instruction(lowered, instruction, ancillas)
        return lowered

    # ------------------------------------------------------------------

    def _required_ancillas(self, circuit: QuantumCircuit) -> int:
        needed = 0
        for instruction in circuit:
            name = instruction.gate.name
            if name == "mcx":
                k = instruction.gate.num_controls
                needed = max(needed, max(0, k - 2))
            elif name == "mcp":
                # mcp involves k controls + 1 target = k + 1 qubits; the AND
                # of k of them is computed into a ladder of k - 1 ancillas.
                k = instruction.gate.num_controls
                needed = max(needed, max(0, k - 1))
        return needed

    def _lower_instruction(
        self, output: QuantumCircuit, instruction: Instruction, ancillas: list[int]
    ) -> None:
        gate = instruction.gate
        qubits = instruction.qubits
        name = gate.name
        if name in self.options.basis_gates:
            output.append(gate, qubits)
            return
        if name == "id":
            return
        if name in ("s", "sdg", "t", "tdg", "z", "p"):
            self._lower_phase_like(output, name, gate, qubits[0])
            return
        if name == "y":
            output.rz(math.pi, qubits[0])
            output.x(qubits[0])
            return
        if name in ("rx", "ry"):
            self._lower_rotation(output, name, float(gate.params[0]), qubits[0])
            return
        if name == "swap":
            output.cx(qubits[0], qubits[1])
            output.cx(qubits[1], qubits[0])
            output.cx(qubits[0], qubits[1])
            return
        if name == "cp":
            self._lower_cp(output, float(gate.params[0]), qubits[0], qubits[1])
            return
        if name == "rzz":
            theta = float(gate.params[0])
            output.cx(qubits[0], qubits[1])
            output.rz(theta, qubits[1])
            output.cx(qubits[0], qubits[1])
            return
        if name == "rxx":
            theta = float(gate.params[0])
            output.h(qubits[0])
            output.h(qubits[1])
            output.cx(qubits[0], qubits[1])
            output.rz(theta, qubits[1])
            output.cx(qubits[0], qubits[1])
            output.h(qubits[0])
            output.h(qubits[1])
            return
        if name == "ryy":
            theta = float(gate.params[0])
            for q in (qubits[0], qubits[1]):
                output.rz(math.pi / 2, q)
                output.h(q)
            output.cx(qubits[0], qubits[1])
            output.rz(theta, qubits[1])
            output.cx(qubits[0], qubits[1])
            for q in (qubits[0], qubits[1]):
                output.h(q)
                output.rz(-math.pi / 2, q)
            return
        if name == "mcx":
            self._lower_mcx(output, list(qubits[:-1]), qubits[-1], ancillas)
            return
        if name == "mcp":
            self._lower_mcp(output, float(gate.params[0]), list(qubits), ancillas)
            return
        if name == "unitary":
            # Arbitrary unitaries are kept opaque; they only occur in the
            # Trotter baseline, whose deployability the paper also rejects.
            output.append(gate, qubits)
            return
        raise TranspileError(f"cannot lower gate {name!r} to the basis")

    # ------------------------------------------------------------------
    # Single-qubit helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _lower_phase_like(output: QuantumCircuit, name: str, gate: Gate, qubit: int) -> None:
        angles = {
            "z": math.pi,
            "s": math.pi / 2,
            "sdg": -math.pi / 2,
            "t": math.pi / 4,
            "tdg": -math.pi / 4,
        }
        theta = float(gate.params[0]) if name == "p" else angles[name]
        # P(theta) and RZ(theta) differ only by a global phase, which is
        # irrelevant for sampling probabilities once fully decomposed.
        output.rz(theta, qubit)

    @staticmethod
    def _lower_rotation(output: QuantumCircuit, name: str, theta: float, qubit: int) -> None:
        if name == "rx":
            output.h(qubit)
            output.rz(theta, qubit)
            output.h(qubit)
        else:  # ry: RY(theta) = RZ(pi/2) RX(theta) RZ(-pi/2) as operators
            output.rz(-math.pi / 2, qubit)
            output.h(qubit)
            output.rz(theta, qubit)
            output.h(qubit)
            output.rz(math.pi / 2, qubit)

    @staticmethod
    def _lower_cp(output: QuantumCircuit, theta: float, control: int, target: int) -> None:
        output.rz(theta / 2, control)
        output.cx(control, target)
        output.rz(-theta / 2, target)
        output.cx(control, target)
        output.rz(theta / 2, target)

    # ------------------------------------------------------------------
    # Multi-controlled gates
    # ------------------------------------------------------------------

    def _lower_ccx(self, output: QuantumCircuit, c0: int, c1: int, target: int) -> None:
        """Standard 6-CX Toffoli decomposition (up to global phase)."""
        output.h(target)
        output.cx(c1, target)
        output.rz(-math.pi / 4, target)
        output.cx(c0, target)
        output.rz(math.pi / 4, target)
        output.cx(c1, target)
        output.rz(-math.pi / 4, target)
        output.cx(c0, target)
        output.rz(math.pi / 4, c1)
        output.rz(math.pi / 4, target)
        output.h(target)
        output.cx(c0, c1)
        output.rz(math.pi / 4, c0)
        output.rz(-math.pi / 4, c1)
        output.cx(c0, c1)

    def _lower_mcx(
        self, output: QuantumCircuit, controls: list[int], target: int, ancillas: list[int]
    ) -> None:
        k = len(controls)
        if k == 0:
            output.x(target)
            return
        if k == 1:
            output.cx(controls[0], target)
            return
        if k == 2:
            self._lower_ccx(output, controls[0], controls[1], target)
            return
        # V-chain: compute partial ANDs up a Toffoli ladder, flip, uncompute.
        assert len(ancillas) >= k - 2
        compute: list[tuple[int, int, int]] = []
        self._lower_ccx(output, controls[0], controls[1], ancillas[0])
        compute.append((controls[0], controls[1], ancillas[0]))
        for i in range(2, k - 1):
            self._lower_ccx(output, controls[i], ancillas[i - 2], ancillas[i - 1])
            compute.append((controls[i], ancillas[i - 2], ancillas[i - 1]))
        self._lower_ccx(output, controls[k - 1], ancillas[k - 3], target)
        for c0, c1, t in reversed(compute):
            self._lower_ccx(output, c0, c1, t)

    def _lower_mcp(
        self, output: QuantumCircuit, theta: float, qubits: list[int], ancillas: list[int]
    ) -> None:
        """Lower a multi-controlled phase over the qubit set ``qubits``.

        The gate is symmetric in its qubits (it phases the all-ones state),
        so we compute the AND of all but the last qubit into an ancilla chain
        and apply a controlled-phase between the chain head and the last
        qubit, then uncompute — linear depth, exactly the complexity claimed
        in Section IV-B.
        """
        k = len(qubits)
        if k == 1:
            output.rz(theta, qubits[0])
            return
        if k == 2:
            self._lower_cp(output, theta, qubits[0], qubits[1])
            return
        chain = ancillas[: k - 2]
        compute: list[tuple[int, int, int]] = []
        self._lower_ccx(output, qubits[0], qubits[1], chain[0])
        compute.append((qubits[0], qubits[1], chain[0]))
        for i in range(2, k - 1):
            self._lower_ccx(output, qubits[i], chain[i - 2], chain[i - 1])
            compute.append((qubits[i], chain[i - 2], chain[i - 1]))
        self._lower_cp(output, theta, chain[k - 3], qubits[k - 1])
        for c0, c1, t in reversed(compute):
            self._lower_ccx(output, c0, c1, t)

# ---------------------------------------------------------------------------
# Structure memo (see the module docstring)
# ---------------------------------------------------------------------------

MEMO_CAPACITY = 4


class TranspileCacheInfo(NamedTuple):
    """Process-wide hit and miss counts of the transpile structure memo."""

    hits: int
    misses: int


def _param_token(value: float) -> tuple:
    # The type name keeps e.g. a numpy scalar from sharing an entry with the
    # equal Python number: a hit hands back the first caller's objects.
    # A gate holds only real scalars, so what is not a float is an integer.
    if isinstance(value, (float, np.floating)):
        return (type(value).__name__, float(value).hex())
    return (type(value).__name__, int(value))


def _circuit_digest(circuit: QuantumCircuit) -> bytes:
    """Canonical digest of everything in ``circuit`` the transpile output reads."""
    digest = hashlib.blake2b(digest_size=20)
    tokens: list = [circuit.name, circuit.num_qubits]
    for instruction in circuit:
        gate = instruction.gate
        tokens.append(
            (
                gate.name,
                gate.num_qubits,
                gate.num_controls,
                gate.label,
                instruction.qubits,
                tuple(map(_param_token, gate.params)),
            )
        )
        if gate.matrix is not None:
            matrix = np.ascontiguousarray(gate.matrix)
            tokens.append((matrix.dtype.str, matrix.shape))
            digest.update(matrix.tobytes())
    digest.update(repr(tokens).encode())
    return digest.digest()


_MEMO = LruMemo(MEMO_CAPACITY)


def transpile_cache_info() -> TranspileCacheInfo:
    """Process-wide hit and miss counts of :func:`transpile_with_report`'s memo."""
    info = _MEMO.info()
    return TranspileCacheInfo(hits=info.hits, misses=info.misses)


def transpile(circuit: QuantumCircuit, options: TranspileOptions | None = None) -> QuantumCircuit:
    """Lower to the basis, then optimize per ``options.optimization_level``.

    At ``optimization_level=0`` the output is bit-identical to the plain
    :class:`Transpiler` lowering (the pre-pass-stack behaviour).
    """
    return transpile_with_report(circuit, options)[0]


def transpile_with_report(
    circuit: QuantumCircuit, options: TranspileOptions | None = None
) -> tuple[QuantumCircuit, TranspileReport]:
    """Transpile and report what lowering and every optimization pass did.

    A circuit whose content and options match a recent call is answered
    from the structure memo (see the module docstring) with a fresh copy of
    the same optimized circuit and the same report.
    """
    options = options or TranspileOptions()
    optimized, report = _MEMO.get_or_build(
        (_circuit_digest(circuit), options), lambda: _transpile_uncached(circuit, options)
    )
    return optimized.copy(), report


def _transpile_uncached(
    circuit: QuantumCircuit, options: TranspileOptions
) -> tuple[QuantumCircuit, TranspileReport]:
    lowered = Transpiler(options).run(circuit)
    pipeline = default_pipeline(options.optimization_level, options.basis_gates)
    if pipeline:
        optimized, records = PassManager(pipeline).run(lowered)
    else:
        optimized, records = lowered, ()
    # The records chain each circuit's stats, so only an unchanged lowering
    # still needs its own walk.
    lowered_stats = records[0].before if records else CircuitStats.from_circuit(lowered)
    report = TranspileReport(
        circuit_name=circuit.name,
        num_qubits=optimized.num_qubits,
        optimization_level=options.optimization_level,
        basis_gates=tuple(sorted(options.basis_gates)),
        source=CircuitStats.from_circuit(circuit),
        lowered=lowered_stats,
        optimized=records[-1].after if records else lowered_stats,
        passes=records,
    )
    return optimized, report


def unitary_synthesis_penalty(circuit: QuantumCircuit) -> int:
    """Pessimistic synthesis cost of the opaque ``unitary`` gates in a circuit.

    A ``k``-qubit unitary is charged ``4**k - 1`` basic gates, reflecting the
    exponential cost of generic unitary synthesis discussed in Section IV-B
    of the paper (only the Trotter baseline emits such gates).
    """
    penalty = 0
    for instruction in circuit:
        if instruction.gate.name == "unitary":
            k = len(instruction.qubits)
            penalty += max(4**k - 1, 0)
    return penalty


def depth_after_transpile(
    circuit: QuantumCircuit, options: TranspileOptions | None = None
) -> int:
    """Depth of the circuit after transpilation to the basis gate set.

    Opaque ``unitary`` gates are charged the exponential
    :func:`unitary_synthesis_penalty` on top of the structural depth.
    """
    transpiled = transpile(circuit, options)
    return transpiled.depth() + unitary_synthesis_penalty(transpiled)
