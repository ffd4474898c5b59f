"""Tests for the circuit-optimization pass stack.

Per-pass rewrite units, the timeline bookkeeping they share, the
``PassManager`` fixpoint loop with its per-pass records, and the frozen
``TranspileReport`` that carries the result into solver metadata.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.exceptions import TranspileError
from repro.qcircuit.circuit import Instruction, QuantumCircuit
from repro.qcircuit.gates import BASIS_GATES, standard_gate
from repro.qcircuit.passes import (
    DEFAULT_OPTIMIZATION_LEVEL,
    MAX_OPTIMIZATION_LEVEL,
    CircuitStats,
    CommuteDiagonalPass,
    InstructionTimeline,
    InverseCancellationPass,
    LadderResynthesisPass,
    PassManager,
    PassRecord,
    RotationFusionPass,
    TranspileReport,
    default_pipeline,
)
from repro.qcircuit.transpile import TranspileOptions, transpile, transpile_with_report


def gate_names(circuit: QuantumCircuit) -> list[str]:
    return [
        instruction.gate.name
        for instruction in circuit
        if not instruction.is_directive
    ]


class TestInstructionTimeline:
    def test_push_remove_roundtrip(self):
        source = QuantumCircuit(2, name="tl")
        timeline = InstructionTimeline()
        first = timeline.push(Instruction(standard_gate("h"), (0,)))
        second = timeline.push(Instruction(standard_gate("cx"), (0, 1)))
        assert timeline.last_index(0) == second
        assert timeline.last_index(1) == second
        timeline.remove(second)
        # Removal exposes the previous instruction on qubit 0 and empties 1.
        assert timeline.last_index(0) == first
        assert timeline.last_index(1) is None
        assert gate_names(timeline.to_circuit(source)) == ["h"]

    def test_double_remove_rejected(self):
        timeline = InstructionTimeline()
        index = timeline.push(Instruction(standard_gate("x"), (0,)))
        timeline.remove(index)
        with pytest.raises(TranspileError):
            timeline.remove(index)

    def test_depth_indexing(self):
        timeline = InstructionTimeline()
        first = timeline.push(Instruction(standard_gate("x"), (0,)))
        second = timeline.push(Instruction(standard_gate("z"), (0,)))
        assert timeline.last_index(0, depth=0) == second
        assert timeline.last_index(0, depth=1) == first
        assert timeline.last_index(0, depth=2) is None


class TestRotationFusion:
    def test_adjacent_rz_merge(self):
        circuit = QuantumCircuit(1)
        circuit.rz(0.3, 0)
        circuit.rz(0.4, 0)
        fused = RotationFusionPass().run(circuit)
        assert gate_names(fused) == ["rz"]
        assert fused.instructions[0].gate.params[0] == pytest.approx(0.7)

    def test_inverse_rotations_elide_to_nothing(self):
        circuit = QuantumCircuit(1)
        circuit.rx(0.9, 0)
        circuit.rx(-0.9, 0)
        assert gate_names(RotationFusionPass().run(circuit)) == []

    def test_zero_angle_dropped_on_arrival(self):
        circuit = QuantumCircuit(1)
        circuit.rz(0.0, 0)
        circuit.h(0)
        assert gate_names(RotationFusionPass().run(circuit)) == ["h"]

    def test_fusion_across_disjoint_qubits(self):
        # The rz(1) between the two rz(0) does not block timeline adjacency.
        circuit = QuantumCircuit(2)
        circuit.rz(0.1, 0)
        circuit.rz(0.5, 1)
        circuit.rz(0.2, 0)
        fused = RotationFusionPass().run(circuit)
        assert gate_names(fused) == ["rz", "rz"]
        angles = sorted(
            float(i.gate.params[0]) for i in fused.instructions
        )
        assert angles == pytest.approx([0.3, 0.5])

    def test_blocked_by_interposed_gate(self):
        circuit = QuantumCircuit(1)
        circuit.rz(0.3, 0)
        circuit.h(0)
        circuit.rz(0.4, 0)
        assert gate_names(RotationFusionPass().run(circuit)) == ["rz", "h", "rz"]

    def test_rzz_merges_under_operand_swap(self):
        # rzz is symmetric under qubit exchange, so (0,1) and (1,0) fuse.
        circuit = QuantumCircuit(2)
        circuit.rzz(0.3, 0, 1)
        circuit.rzz(0.4, 1, 0)
        fused = RotationFusionPass().run(circuit)
        assert gate_names(fused) == ["rzz"]
        assert fused.instructions[0].gate.params[0] == pytest.approx(0.7)

    def test_numpy_scalar_rotations_fuse(self):
        circuit = QuantumCircuit(1)
        circuit.rz(np.float64(0.1), 0)
        circuit.rz(np.int64(1), 0)
        circuit.rz(0.2, 0)
        fused = RotationFusionPass().run(circuit)
        assert gate_names(fused) == ["rz"]
        assert fused.instructions[0].gate.params[0] == pytest.approx(1.3)

    def test_barrier_fences_fusion(self):
        circuit = QuantumCircuit(1)
        circuit.rz(0.3, 0)
        circuit.barrier()
        circuit.rz(0.4, 0)
        fused = RotationFusionPass().run(circuit)
        assert gate_names(fused) == ["rz", "rz"]


class TestInverseCancellation:
    def test_hh_cancels(self):
        circuit = QuantumCircuit(1)
        circuit.h(0)
        circuit.h(0)
        assert gate_names(InverseCancellationPass().run(circuit)) == []

    def test_cxcx_cancels(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.cx(0, 1)
        assert gate_names(InverseCancellationPass().run(circuit)) == []

    def test_cx_orientation_must_match(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.cx(1, 0)
        assert gate_names(InverseCancellationPass().run(circuit)) == ["cx", "cx"]

    def test_s_sdg_cancels(self):
        circuit = QuantumCircuit(1)
        circuit.s(0)
        circuit.sdg(0)
        assert gate_names(InverseCancellationPass().run(circuit)) == []

    def test_cancellation_cascades(self):
        # cx h h cx collapses fully within one sweep.
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.h(1)
        circuit.h(1)
        circuit.cx(0, 1)
        assert gate_names(InverseCancellationPass().run(circuit)) == []

    def test_measure_fences_cancellation(self):
        circuit = QuantumCircuit(1)
        circuit.h(0)
        circuit.measure_all()
        circuit.h(0)
        cancelled = InverseCancellationPass().run(circuit)
        assert gate_names(cancelled) == ["h", "h"]


class TestCommuteDiagonal:
    def test_diagonal_run_sorted_by_qubits(self):
        circuit = QuantumCircuit(2)
        circuit.rz(0.1, 1)
        circuit.rz(0.2, 0)
        reordered = CommuteDiagonalPass().run(circuit)
        assert [i.qubits for i in reordered.instructions] == [(0,), (1,)]

    def test_exposes_cross_layer_fusion(self):
        # Two rz(0) separated by a cz(0,1): all diagonal, so the sort drags
        # the rotations together and fusion then merges them.
        circuit = QuantumCircuit(2)
        circuit.rz(0.3, 0)
        circuit.cz(0, 1)
        circuit.rz(0.4, 0)
        pipeline = PassManager([CommuteDiagonalPass(), RotationFusionPass()])
        optimized, _ = pipeline.run(circuit)
        assert sorted(gate_names(optimized)) == ["cz", "rz"]

    def test_non_diagonal_ends_run(self):
        circuit = QuantumCircuit(1)
        circuit.rz(0.3, 0)
        circuit.h(0)
        circuit.rz(0.4, 0)
        reordered = CommuteDiagonalPass().run(circuit)
        assert gate_names(reordered) == ["rz", "h", "rz"]

    def test_idempotent(self):
        circuit = QuantumCircuit(3)
        circuit.rz(0.1, 2)
        circuit.cz(0, 2)
        circuit.rz(0.2, 0)
        circuit.h(1)
        circuit.rz(0.3, 0)
        once = CommuteDiagonalPass().run(circuit)
        twice = CommuteDiagonalPass().run(once)
        assert twice.instructions == once.instructions


class TestLadderResynthesis:
    def test_cx_rz_cx_becomes_rzz(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.rz(0.6, 1)
        circuit.cx(0, 1)
        resynth = LadderResynthesisPass(frozenset(BASIS_GATES | {"rzz"}))
        rewritten = resynth.run(circuit)
        assert gate_names(rewritten) == ["rzz"]
        assert rewritten.instructions[0].gate.params[0] == pytest.approx(0.6)

    def test_noop_without_target_gates(self):
        resynth = LadderResynthesisPass(frozenset(BASIS_GATES))
        assert resynth.is_noop

    def test_lowered_cp_recovered(self):
        # The transpiler lowers cp to rz·cx·rz·cx·rz; with rzz and cp in the
        # basis the full level-2 pipeline recovers a controlled-phase form.
        circuit = QuantumCircuit(2)
        circuit.cp(0.8, 0, 1)
        options = TranspileOptions(
            basis_gates=frozenset(BASIS_GATES | {"rzz", "cp"}),
            optimization_level=2,
        )
        optimized = transpile(circuit, options)
        assert optimized.num_two_qubit_gates() == 1

    def test_diagonal_gate_on_control_line_commutes_through(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.rz(0.5, 0)  # on the control line: commutes with both cx
        circuit.rz(0.6, 1)
        circuit.cx(0, 1)
        resynth = LadderResynthesisPass(frozenset(BASIS_GATES | {"rzz"}))
        rewritten = resynth.run(circuit)
        assert sorted(gate_names(rewritten)) == ["rz", "rzz"]

    def test_x_on_control_line_blocks(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.x(0)  # not diagonal: does not commute through the control
        circuit.rz(0.6, 1)
        circuit.cx(0, 1)
        resynth = LadderResynthesisPass(frozenset(BASIS_GATES | {"rzz"}))
        rewritten = resynth.run(circuit)
        assert "rzz" not in gate_names(rewritten)


class TestPassManager:
    def test_records_only_changing_passes(self):
        circuit = QuantumCircuit(1)
        circuit.rz(0.3, 0)
        circuit.rz(0.4, 0)
        manager = PassManager([RotationFusionPass(), InverseCancellationPass()])
        optimized, records = manager.run(circuit)
        assert gate_names(optimized) == ["rz"]
        assert [record.pass_name for record in records] == ["rotation-fusion"]
        assert records[0].round_index == 1
        assert records[0].before.size == 2
        assert records[0].after.size == 1

    def test_fixpoint_terminates_on_unchanged_round(self):
        circuit = QuantumCircuit(1)
        circuit.h(0)
        manager = PassManager([RotationFusionPass()], max_rounds=4)
        optimized, records = manager.run(circuit)
        assert optimized.instructions == circuit.instructions
        assert records == ()

    def test_invalid_max_rounds_rejected(self):
        with pytest.raises(TranspileError):
            PassManager([], max_rounds=0)

    def test_multi_round_convergence(self):
        # Fusion creates a zero-rotation junction that cancellation then
        # exposes: h rz(t) rz(-t) h needs fusion before the h·h pair exists.
        circuit = QuantumCircuit(1)
        circuit.h(0)
        circuit.rz(0.4, 0)
        circuit.rz(-0.4, 0)
        circuit.h(0)
        manager = PassManager([InverseCancellationPass(), RotationFusionPass()])
        optimized, records = manager.run(circuit)
        assert gate_names(optimized) == []
        assert max(record.round_index for record in records) >= 2


class TestDefaultPipeline:
    def test_level_zero_is_empty(self):
        assert default_pipeline(0, frozenset(BASIS_GATES)) == ()

    def test_level_one_is_local_peephole(self):
        names = [p.name for p in default_pipeline(1, frozenset(BASIS_GATES))]
        assert names == ["rotation-fusion", "inverse-cancellation"]

    def test_level_two_skips_noop_resynthesis(self):
        names = [p.name for p in default_pipeline(2, frozenset(BASIS_GATES))]
        assert "ladder-resynthesis" not in names
        extended = [
            p.name for p in default_pipeline(2, frozenset(BASIS_GATES | {"rzz"}))
        ]
        assert "ladder-resynthesis" in extended

    def test_out_of_range_level_rejected(self):
        with pytest.raises(TranspileError):
            default_pipeline(MAX_OPTIMIZATION_LEVEL + 1, frozenset(BASIS_GATES))
        with pytest.raises(TranspileError):
            default_pipeline(-1, frozenset(BASIS_GATES))

    def test_default_level_in_range(self):
        assert 0 <= DEFAULT_OPTIMIZATION_LEVEL <= MAX_OPTIMIZATION_LEVEL


class TestTwoQubitRatio:
    def test_ratio_and_summary(self):
        circuit = QuantumCircuit(2, name="ratio")
        circuit.h(0)
        circuit.cx(0, 1)
        assert circuit.two_qubit_ratio() == pytest.approx(0.5)
        summary = circuit.summary()
        assert "two-qubit 1 (50.0%)" in summary

    def test_empty_circuit_ratio_zero(self):
        assert QuantumCircuit(1).two_qubit_ratio() == 0.0


def _random_circuit(seed: int) -> QuantumCircuit:
    """A random mix of 1-4-qubit gates, full and partial barriers,
    qubit-less barriers and final measurements."""
    rng = random.Random(seed)
    num_qubits = rng.randint(1, 6)
    circuit = QuantumCircuit(num_qubits, name=f"random-{seed}")
    for _ in range(rng.randint(0, 40)):
        qubits = rng.sample(range(num_qubits), rng.randint(1, min(num_qubits, 4)))
        kind = rng.randrange(6)
        if kind == 0:
            circuit.rz(rng.uniform(-3.0, 3.0), qubits[0])
        elif kind == 1:
            circuit.h(qubits[0])
        elif kind == 2 and len(qubits) >= 2:
            circuit.cp(rng.uniform(-3.0, 3.0), qubits[0], qubits[1])
        elif kind == 3 and len(qubits) >= 3:
            circuit.mcx(qubits[:-1], qubits[-1])
        elif kind == 4:
            circuit.barrier(rng.choice([None, [], qubits]))
        else:
            circuit.x(qubits[0])
    if rng.random() < 0.5:
        circuit.measure_all()
    return circuit


def _assert_record_chain(report: TranspileReport) -> None:
    records = report.passes
    if not records:
        assert report.optimized == report.lowered
        return
    assert records[0].before == report.lowered
    for record, following in zip(records, records[1:]):
        assert record.after == following.before
    assert report.optimized == records[-1].after


class TestStatsChain:
    """``CircuitStats.from_circuit`` against the four ``QuantumCircuit``
    helpers it stands in for, and the before/after chain of a report."""

    @staticmethod
    def _assert_stats_match_helpers(circuit: QuantumCircuit) -> None:
        assert CircuitStats.from_circuit(circuit) == CircuitStats(
            size=circuit.size(),
            depth=circuit.depth(),
            two_qubit_gates=circuit.num_two_qubit_gates(),
            two_qubit_ratio=circuit.two_qubit_ratio(),
        )

    @pytest.mark.parametrize("seed", range(40))
    def test_from_circuit_matches_the_helpers(self, seed):
        circuit = _random_circuit(seed)
        self._assert_stats_match_helpers(circuit)
        self._assert_stats_match_helpers(transpile(circuit))

    def test_from_circuit_on_directive_only_and_empty_circuits(self):
        self._assert_stats_match_helpers(QuantumCircuit(3))
        self._assert_stats_match_helpers(QuantumCircuit(3).barrier().barrier([]))
        self._assert_stats_match_helpers(QuantumCircuit(2).measure_all())
        self._assert_stats_match_helpers(QuantumCircuit(3).cx(0, 1).h(2).rzz(0.2, 1, 2))

    @pytest.mark.parametrize("level", [0, 1, 2])
    @pytest.mark.parametrize("seed", range(20))
    def test_report_records_chain(self, seed, level):
        circuit = _random_circuit(seed)
        for basis in (BASIS_GATES, frozenset(BASIS_GATES | {"rzz"})):
            optimized, report = transpile_with_report(
                circuit, TranspileOptions(basis_gates=basis, optimization_level=level)
            )
            _assert_record_chain(report)
            assert report.source == CircuitStats.from_circuit(circuit)
            assert report.optimized == CircuitStats.from_circuit(optimized)

    def test_multi_record_chain(self):
        circuit = QuantumCircuit(3, name="chain")
        circuit.h(0).rz(0.4, 0).rz(-0.4, 0).h(0)
        circuit.cp(0.3, 1, 2).cp(0.5, 1, 2).mcx([0, 1], 2)
        _, report = transpile_with_report(
            circuit, TranspileOptions(basis_gates=frozenset(BASIS_GATES | {"rzz"}))
        )
        assert len(report.passes) >= 2
        _assert_record_chain(report)


class TestTranspileReport:
    def _report(self) -> TranspileReport:
        circuit = QuantumCircuit(2, name="report")
        circuit.cp(0.8, 0, 1)

        _, report = transpile_with_report(
            circuit,
            TranspileOptions(
                basis_gates=frozenset(BASIS_GATES | {"rzz"}), optimization_level=2
            ),
        )
        return report

    def test_round_trip(self):
        report = self._report()
        assert TranspileReport.from_dict(report.to_dict()) == report

    def test_reductions_match_stats(self):
        report = self._report()
        assert report.two_qubit_reduction() == pytest.approx(
            (report.lowered.two_qubit_gates - report.optimized.two_qubit_gates)
            / report.lowered.two_qubit_gates
        )
        # Lowered cp = 2 cx; resynthesis collapses the pair into one rzz.
        assert report.lowered.two_qubit_gates == 2
        assert report.optimized.two_qubit_gates == 1

    def test_zero_before_reduction_is_zero(self):
        stats = CircuitStats(size=0, depth=0, two_qubit_gates=0, two_qubit_ratio=0.0)
        report = TranspileReport(
            circuit_name="empty",
            num_qubits=1,
            optimization_level=2,
            basis_gates=("cx",),
            source=stats,
            lowered=stats,
            optimized=stats,
        )
        assert report.size_reduction() == 0.0
        assert report.two_qubit_reduction() == 0.0

    def test_summary_renders_passes(self):
        report = self._report()
        text = report.summary()
        assert "report: 2 qubits, optimization_level=2" in text
        assert "two-qubit: 2 -> 1" in text
        for record in report.passes:
            assert record.pass_name in text

    def test_passes_round_trip_through_dict(self):
        report = self._report()
        payload = report.to_dict()
        assert payload["passes"], "the cp rewrite must record pass deltas"
        record = PassRecord.from_dict(payload["passes"][0])
        assert record == report.passes[0]
