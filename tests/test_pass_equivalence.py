"""Randomized pass-stack equivalence harness.

Every optimization pass — and every sampled ``PassManager`` pipeline
permutation — must preserve the circuit unitary up to a global phase.
Seeded random circuits (the fixture style of
``tests/test_cross_backend_equivalence.py``) are drawn from the full
high-level gate set with deliberate adjacent-duplicate structure so fusion,
cancellation, commutation, and ladder re-synthesis all get real work, then
each rewrite's full unitary is compared column-by-column against its input.
"""

from __future__ import annotations

import itertools
import zlib

import numpy as np
import pytest

from reference import operators_equal_up_to_phase
from repro.qcircuit.circuit import QuantumCircuit
from repro.qcircuit.gates import BASIS_GATES
from repro.qcircuit.passes import (
    CommuteDiagonalPass,
    InverseCancellationPass,
    LadderResynthesisPass,
    PassManager,
    RotationFusionPass,
)
from repro.qcircuit.statevector import Statevector, StatevectorSimulator
from repro.qcircuit.transpile import TranspileOptions, transpile

NUM_QUBITS = 3
CASE_SEEDS = tuple(range(6))
#: Basis views mirroring bench_transpile_optimization: the package default
#: and the extended basis that lets ladder re-synthesis emit rzz/cp.
BASES = {
    "default": frozenset(BASIS_GATES),
    "+rzz+cp": frozenset(BASIS_GATES | {"rzz", "cp"}),
}

_SINGLE_CLIFFORDS = ("h", "s", "sdg", "t", "tdg", "x", "y", "z", "sx")
_SINGLE_ROTATIONS = ("rx", "ry", "rz", "p")
_TWO_QUBIT_PLAIN = ("cx", "cz", "swap")
_TWO_QUBIT_ROTATIONS = ("cp", "rzz", "rxx", "ryy")


def _case_seed(*parts) -> int:
    """Deterministic per-case RNG seed (str hash() is salted per process)."""
    return zlib.crc32("/".join(str(part) for part in parts).encode())


def random_circuit(num_qubits: int, num_gates: int, seed: int) -> QuantumCircuit:
    """A seeded random circuit with adjacent-duplicate structure.

    A quarter of the draws immediately repeat the previous gate so
    self-inverse pairs (cancellation) and same-axis rotation pairs (fusion)
    actually occur; occasional barriers exercise directive fencing.
    """
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(num_qubits, name=f"rand{seed}")
    previous = None
    while circuit.size() < num_gates:
        if previous is not None and rng.random() < 0.25:
            circuit.append(previous[0], previous[1])
            previous = None
            continue
        if rng.random() < 0.05:
            circuit.barrier()
            previous = None
            continue
        roll = rng.random()
        if roll < 0.30:
            name = rng.choice(_SINGLE_CLIFFORDS)
            qubits = [int(rng.integers(num_qubits))]
            getattr(circuit, name)(qubits[0])
        elif roll < 0.55:
            name = rng.choice(_SINGLE_ROTATIONS)
            qubits = [int(rng.integers(num_qubits))]
            getattr(circuit, name)(float(rng.uniform(-np.pi, np.pi)), qubits[0])
        elif roll < 0.75:
            name = rng.choice(_TWO_QUBIT_PLAIN)
            qubits = [int(q) for q in rng.choice(num_qubits, size=2, replace=False)]
            getattr(circuit, name)(qubits[0], qubits[1])
        elif roll < 0.95:
            name = rng.choice(_TWO_QUBIT_ROTATIONS)
            qubits = [int(q) for q in rng.choice(num_qubits, size=2, replace=False)]
            getattr(circuit, name)(float(rng.uniform(-np.pi, np.pi)), qubits[0], qubits[1])
        else:
            qubits = [int(q) for q in rng.choice(num_qubits, size=3, replace=False)]
            circuit.mcp(float(rng.uniform(-np.pi, np.pi)), qubits[:2], qubits[2])
        previous = (circuit.instructions[-1].gate, circuit.instructions[-1].qubits)
    return circuit


def circuit_unitary(circuit: QuantumCircuit) -> np.ndarray:
    """The circuit's full unitary, one simulated column per basis state."""
    dim = 2**circuit.num_qubits
    simulator = StatevectorSimulator(max_qubits=circuit.num_qubits)
    matrix = np.zeros((dim, dim), dtype=complex)
    for column in range(dim):
        basis = np.zeros(dim, dtype=complex)
        basis[column] = 1.0
        state = Statevector(data=basis, num_qubits=circuit.num_qubits)
        matrix[:, column] = simulator.statevector(circuit, initial_state=state).data
    return matrix


def _all_passes(basis_gates: frozenset) -> tuple:
    return (
        CommuteDiagonalPass(),
        LadderResynthesisPass(basis_gates),
        RotationFusionPass(),
        InverseCancellationPass(),
    )


def _lowered(seed: int, basis_gates: frozenset) -> QuantumCircuit:
    source = random_circuit(NUM_QUBITS, num_gates=24, seed=seed)
    options = TranspileOptions(basis_gates=basis_gates, optimization_level=0)
    # Lowering may pad the register (multi-controlled phases borrow an
    # ancilla); every comparison below is between circuits sharing that
    # padded register, so the unitaries stay the same shape.
    return transpile(source, options)


class TestSinglePassEquivalence:
    @pytest.mark.parametrize("basis_label", sorted(BASES))
    @pytest.mark.parametrize("case", CASE_SEEDS)
    @pytest.mark.parametrize(
        "pass_index", range(4), ids=["commute", "resynth", "fusion", "cancel"]
    )
    def test_pass_preserves_unitary(self, pass_index, case, basis_label):
        basis = BASES[basis_label]
        lowered = _lowered(_case_seed("single", case, basis_label), basis)
        circuit_pass = _all_passes(basis)[pass_index]
        rewritten = circuit_pass.run(lowered)
        assert operators_equal_up_to_phase(
            circuit_unitary(lowered), circuit_unitary(rewritten)
        ), f"{circuit_pass.name} changed the unitary"


class TestPipelinePermutationEquivalence:
    @pytest.mark.parametrize("basis_label", sorted(BASES))
    @pytest.mark.parametrize("case", CASE_SEEDS[:3])
    def test_sampled_permutations_preserve_unitary(self, case, basis_label):
        basis = BASES[basis_label]
        seed = _case_seed("perm", case, basis_label)
        lowered = _lowered(seed, basis)
        reference = circuit_unitary(lowered)
        permutations = list(itertools.permutations(_all_passes(basis)))
        rng = np.random.default_rng(seed)
        for index in rng.choice(len(permutations), size=4, replace=False):
            pipeline = permutations[int(index)]
            optimized, _ = PassManager(pipeline).run(lowered)
            order = "->".join(p.name for p in pipeline)
            assert optimized.size() <= lowered.size(), order
            assert operators_equal_up_to_phase(
                reference, circuit_unitary(optimized)
            ), f"pipeline {order} changed the unitary"


class TestTranspileLevelEquivalence:
    @pytest.mark.parametrize("basis_label", sorted(BASES))
    @pytest.mark.parametrize("case", CASE_SEEDS[:3])
    @pytest.mark.parametrize("level", (1, 2))
    def test_levels_match_level_zero(self, level, case, basis_label):
        basis = BASES[basis_label]
        source = random_circuit(
            NUM_QUBITS, num_gates=24, seed=_case_seed("level", case, basis_label)
        )
        level_zero = transpile(
            source, TranspileOptions(basis_gates=basis, optimization_level=0)
        )
        optimized = transpile(
            source, TranspileOptions(basis_gates=basis, optimization_level=level)
        )
        assert optimized.size() <= level_zero.size()
        assert operators_equal_up_to_phase(
            circuit_unitary(level_zero), circuit_unitary(optimized)
        ), f"level {level} changed the unitary"
