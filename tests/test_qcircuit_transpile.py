"""Tests for the transpiler: basis coverage and unitary equivalence.

Transpiled circuits must equal their sources up to a global phase; the
``global_phase_equal`` helper from conftest encodes that comparison.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.qcircuit.circuit import QuantumCircuit
from repro.qcircuit.gates import BASIS_GATES
from repro.qcircuit.statevector import Statevector, StatevectorSimulator
from repro.qcircuit.transpile import (
    TranspileOptions,
    depth_after_transpile,
    gate_counts_after_transpile,
    transpile,
    transpile_with_report,
)

from repro.testing import global_phase_equal


def random_state(num_qubits: int, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    state = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return state / np.linalg.norm(state)


def assert_equivalent(circuit: QuantumCircuit, seed: int = 7) -> None:
    """Transpiled circuit acts identically (up to global phase) on a random state."""
    simulator = StatevectorSimulator(max_qubits=18)
    state = random_state(circuit.num_qubits, seed)
    ideal = simulator.statevector(
        circuit, initial_state=Statevector(data=state.copy(), num_qubits=circuit.num_qubits)
    ).data
    lowered = transpile(circuit)
    padded = np.zeros(2**lowered.num_qubits, dtype=complex)
    padded[: len(state)] = state
    lowered_state = simulator.statevector(
        lowered, initial_state=Statevector(data=padded, num_qubits=lowered.num_qubits)
    ).data
    # Ancillas must return to |0>, so only the first block may be populated.
    assert np.allclose(
        np.linalg.norm(lowered_state[len(state):]), 0.0, atol=1e-8
    ), "ancilla qubits were not returned to |0>"
    assert global_phase_equal(ideal, lowered_state[: len(state)])


class TestBasisCoverage:
    @pytest.mark.parametrize(
        "builder",
        [
            lambda c: c.y(0),
            lambda c: c.s(0),
            lambda c: c.t(1),
            lambda c: c.p(0.3, 0),
            lambda c: c.rx(0.7, 1),
            lambda c: c.ry(1.2, 0),
            lambda c: c.swap(0, 1),
            lambda c: c.cp(0.5, 0, 1),
            lambda c: c.rzz(0.8, 0, 1),
            lambda c: c.rxx(0.4, 0, 1),
            lambda c: c.ryy(0.9, 0, 1),
        ],
    )
    def test_all_gates_lower_to_basis(self, builder):
        circuit = QuantumCircuit(2)
        builder(circuit)
        lowered = transpile(circuit)
        for instruction in lowered:
            if instruction.is_directive:
                continue
            assert instruction.gate.name in BASIS_GATES

    def test_mcx_and_mcp_lower_to_basis(self):
        circuit = QuantumCircuit(5)
        circuit.mcx([0, 1, 2, 3], 4)
        circuit.mcp(0.7, [0, 1, 2], 4)
        lowered = transpile(circuit)
        names = {inst.gate.name for inst in lowered if not inst.is_directive}
        assert names.issubset(BASIS_GATES)

    def test_directives_preserved(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).measure_all()
        lowered = transpile(circuit)
        assert any(inst.gate.name == "measure" for inst in lowered)


class TestEquivalence:
    @pytest.mark.parametrize(
        "builder",
        [
            lambda c: (c.y(0), c.s(1), c.t(0)),
            lambda c: (c.rx(0.7, 0), c.ry(1.3, 1), c.p(0.2, 1)),
            lambda c: (c.swap(0, 1), c.cp(0.6, 1, 0)),
            lambda c: (c.rzz(0.4, 0, 1), c.rxx(0.5, 0, 1), c.ryy(0.7, 1, 0)),
        ],
    )
    def test_two_qubit_circuits(self, builder):
        circuit = QuantumCircuit(2)
        builder(circuit)
        assert_equivalent(circuit)

    @pytest.mark.parametrize("num_controls", [2, 3, 4])
    def test_mcx_equivalence(self, num_controls):
        circuit = QuantumCircuit(num_controls + 1)
        for qubit in range(num_controls + 1):
            circuit.h(qubit)
        circuit.mcx(list(range(num_controls)), num_controls)
        assert_equivalent(circuit)

    @pytest.mark.parametrize("num_controls", [1, 2, 3, 4])
    @pytest.mark.parametrize("theta", [0.3, -1.1])
    def test_mcp_equivalence(self, num_controls, theta):
        circuit = QuantumCircuit(num_controls + 1)
        for qubit in range(num_controls + 1):
            circuit.h(qubit)
        circuit.mcp(theta, list(range(num_controls)), num_controls)
        assert_equivalent(circuit)

    def test_no_ancilla_mode_still_equivalent(self):
        circuit = QuantumCircuit(5)
        for qubit in range(5):
            circuit.h(qubit)
        circuit.mcp(0.9, [0, 1, 2, 3], 4)
        options = TranspileOptions(use_ancillas=False)
        lowered = transpile(circuit, options)
        assert lowered.num_qubits == 5
        simulator = StatevectorSimulator()
        state = random_state(5)
        ideal = simulator.statevector(
            circuit, initial_state=Statevector(data=state.copy(), num_qubits=5)
        ).data
        lowered_state = simulator.statevector(
            lowered, initial_state=Statevector(data=state.copy(), num_qubits=5)
        ).data
        assert global_phase_equal(ideal, lowered_state)


class TestDepthAccounting:
    def test_depth_after_transpile_counts_unitary_penalty(self):
        circuit = QuantumCircuit(2)
        circuit.unitary(np.eye(4), [0, 1])
        assert depth_after_transpile(circuit) >= 4**2 - 1

    def test_mcp_depth_is_linear_in_support(self):
        depths = []
        for size in (3, 5, 7, 9):
            circuit = QuantumCircuit(size)
            circuit.mcp(0.5, list(range(size - 1)), size - 1)
            depths.append(depth_after_transpile(circuit))
        growth = [b - a for a, b in zip(depths, depths[1:])]
        # Linear growth: successive increments stay within a constant factor.
        assert max(growth) <= 2.5 * min(growth)

    def test_gate_counts_after_transpile(self):
        circuit = QuantumCircuit(2)
        circuit.swap(0, 1)
        counts = gate_counts_after_transpile(circuit)
        assert counts.get("cx", 0) == 3


def _golden_source() -> QuantumCircuit:
    circuit = QuantumCircuit(5, name="golden")
    circuit.h(0).y(1).s(2).t(3).sdg(4)
    circuit.rx(0.7, 0).ry(-1.3, 1).p(0.4, 2)
    circuit.swap(0, 1).cp(0.6, 1, 2).rzz(0.8, 2, 3)
    circuit.rxx(0.5, 3, 4).ryy(0.9, 0, 4)
    circuit.mcx([0, 1, 2], 3).mcp(0.7, [1, 2], 4)
    circuit.barrier().measure_all()
    return circuit


def _load_golden(filename: str):
    fixture = os.path.join(os.path.dirname(__file__), "data", filename)
    with open(fixture) as handle:
        return json.load(handle)


def _instruction_rows(circuit: QuantumCircuit) -> list:
    return [
        [
            instruction.gate.name,
            list(instruction.qubits),
            [repr(float(p)) for p in instruction.gate.params],
        ]
        for instruction in circuit
    ]


class TestLevelZeroGolden:
    """``optimization_level=0`` is pinned bit-identical to the pre-pass-stack
    transpiler via a golden fixture captured from the unmodified seed."""

    def test_level_zero_bit_identical_to_golden(self):
        lowered = transpile(_golden_source(), TranspileOptions(optimization_level=0))
        payload = {
            "num_qubits": lowered.num_qubits,
            "instructions": _instruction_rows(lowered),
        }
        assert payload == _load_golden("golden_transpile_level0.json")

    def test_default_level_only_shrinks_the_golden_circuit(self):
        source = _golden_source()
        level_zero = transpile(source, TranspileOptions(optimization_level=0))
        optimized = transpile(source)
        assert optimized.size() < level_zero.size()
        assert optimized.num_qubits == level_zero.num_qubits


def _solver_reference_circuit(solver: str) -> QuantumCircuit:
    """The reference circuit a default-config solve of K1 transpiles."""
    from repro.run import make_solver
    from repro.run.problems import resolve_benchmark
    from repro.solvers.variational import EngineOptions

    built = make_solver(solver, options=EngineOptions(seed=5)).build_spec(
        resolve_benchmark("K1")
    )
    spec = built[0] if isinstance(built, tuple) else built
    return spec.build_circuit(spec.initial_parameters)


OPTIMIZED_GOLDEN_SOURCES = ("choco-q", "cyclic-qaoa", "penalty-qaoa", "hea", "golden")


class TestOptimizedGolden:
    """Levels 1 and 2 are pinned to a fixture captured before the cold
    transpile stopped re-walking stats and rebuilding instructions: the
    optimized instructions (exact param ``repr``) and the full report."""

    @pytest.mark.parametrize("level", [1, 2])
    @pytest.mark.parametrize("source", OPTIMIZED_GOLDEN_SOURCES)
    def test_optimized_transpile_matches_golden(self, source, level):
        circuit = (
            _golden_source() if source == "golden" else _solver_reference_circuit(source)
        )
        optimized, report = transpile_with_report(
            circuit, TranspileOptions(optimization_level=level)
        )
        payload = {
            "num_qubits": optimized.num_qubits,
            "instructions": _instruction_rows(optimized),
            "report": report.to_dict(),
        }
        golden = _load_golden("golden_transpile_optimized.json")
        assert payload == golden[f"{source}/level{level}"]
