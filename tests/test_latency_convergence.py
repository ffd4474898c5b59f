"""Unit tests for the latency model and convergence analysis.

These two modules were previously exercised only indirectly through solver
integration tests; here their arithmetic is pinned directly — the latency
estimate is a closed-form function of gate durations and iteration counts,
and the convergence curves have exact shape/monotonicity invariants.
"""

from __future__ import annotations

import numpy as np
import pytest

from solver_factories import make_one_hot_problem
from repro.core.problem import ConstrainedBinaryProblem, Objective
from repro.qcircuit.circuit import QuantumCircuit
from repro.qcircuit.noise import IBM_FEZ, IBM_OSAKA
from repro.qcircuit.sampling import SampleResult
from repro.qcircuit.transpile import transpile
from repro.run.problems import resolve_benchmark
from repro.solvers.base import OptimizationTrace, SolverResult
from repro.solvers.chocoq import ChocoQSolver
from repro.solvers.latency import LatencyEstimate, LatencyModel
from repro.analysis.convergence import (
    ConvergenceCurve,
    compare_convergence,
    convergence_curve,
)


def result_with_costs(costs, solver_name: str = "stub") -> SolverResult:
    trace = OptimizationTrace()
    for cost in costs:
        trace.record(cost, np.zeros(2))
    return SolverResult(
        solver_name=solver_name,
        problem_name="p",
        outcomes=SampleResult(),
        trace=trace,
        num_qubits=2,
    )


class TestLatencyModel:
    def test_gate_durations_by_kind(self):
        model = LatencyModel(profile=IBM_FEZ)
        assert model.gate_duration("measure", 1) == IBM_FEZ.readout_time
        assert model.gate_duration("cz", 2) == IBM_FEZ.two_qubit_time * IBM_FEZ.cz_cost
        assert model.gate_duration("h", 1) == pytest.approx(35e-9)
        # Virtual-Z gates are free.
        assert model.gate_duration("rz", 1) == 0.0

    def test_ecr_device_pays_translation_cost(self):
        fez = LatencyModel(profile=IBM_FEZ)
        osaka = LatencyModel(profile=IBM_OSAKA)
        assert osaka.gate_duration("cz", 2) == IBM_OSAKA.two_qubit_time * 3
        assert osaka.gate_duration("cz", 2) > fez.gate_duration("cz", 2)

    def test_circuit_duration_is_critical_path(self):
        model = LatencyModel(profile=IBM_FEZ)
        circuit = QuantumCircuit(2)
        circuit.h(0)  # 35 ns on qubit 0
        circuit.h(0)  # 35 ns on qubit 0
        circuit.cz(0, 1)  # 90 ns joining both qubits after 70 ns
        expected = 2 * 35e-9 + 90e-9 + IBM_FEZ.readout_time
        assert model.circuit_duration(circuit) == pytest.approx(expected)

    def test_parallel_gates_do_not_stack(self):
        model = LatencyModel(profile=IBM_FEZ)
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.h(1)  # runs in parallel with the other H
        assert model.circuit_duration(circuit) == pytest.approx(35e-9 + IBM_FEZ.readout_time)

    def test_barrier_aligns_frontiers(self):
        model = LatencyModel(profile=IBM_FEZ)
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.h(0)
        circuit.barrier()
        circuit.h(1)  # must start only after the barrier level (70 ns)
        expected = 2 * 35e-9 + 35e-9 + IBM_FEZ.readout_time
        assert model.circuit_duration(circuit) == pytest.approx(expected)

    def test_empty_circuit_costs_one_readout(self):
        model = LatencyModel(profile=IBM_FEZ)
        assert model.circuit_duration(QuantumCircuit(3)) == pytest.approx(
            IBM_FEZ.readout_time
        )

    def test_execution_time_scales_with_shots(self):
        model = LatencyModel(profile=IBM_FEZ, per_job_overhead=5e-3)
        circuit = QuantumCircuit(1)
        circuit.h(0)
        duration = model.circuit_duration(circuit)
        assert model.execution_time(circuit, shots=100) == pytest.approx(
            5e-3 + 100 * duration
        )

    def test_estimate_accounting(self):
        model = LatencyModel(profile=IBM_FEZ, per_job_overhead=1e-3, classical_update_time=2e-3)
        circuit = QuantumCircuit(1)
        circuit.h(0)
        estimate = model.estimate(circuit, iterations=10, shots=50, compilation_seconds=0.25)
        per_iteration = model.execution_time(circuit, 50)
        assert estimate.compilation == pytest.approx(0.25)
        assert estimate.quantum_execution == pytest.approx(10 * per_iteration)
        assert estimate.classical_processing == pytest.approx(10 * 2e-3)
        assert estimate.iterations == 10
        assert estimate.shots == 50
        assert estimate.total == pytest.approx(
            estimate.compilation + estimate.quantum_execution + estimate.classical_processing
        )

    def test_estimate_total_is_sum_of_parts(self):
        estimate = LatencyEstimate(
            compilation=1.0,
            quantum_execution=2.0,
            classical_processing=3.0,
            circuit_duration=0.1,
            iterations=5,
            shots=10,
        )
        assert estimate.total == pytest.approx(6.0)

    def test_estimate_pinned_on_a_transpiled_k1_circuit(self):
        """Exact values for the K1 choco-q reference circuit (1280 gates).

        Pins the arithmetic bit for bit, so computing the critical path once
        per estimate cannot shift a latency figure.
        """
        problem = resolve_benchmark("K1", 0)
        spec, _driver = ChocoQSolver().build_spec(problem)
        circuit = transpile(spec.build_circuit(spec.initial_parameters))
        estimate = LatencyModel().estimate(
            circuit, iterations=37, shots=1024, compilation_seconds=0.125
        )
        assert estimate == LatencyEstimate(
            compilation=0.125,
            quantum_execution=1.8941276800000129,
            classical_processing=0.074,
            circuit_duration=4.511000000000034e-05,
            iterations=37,
            shots=1024,
        )


class TestConvergenceCurve:
    def test_best_so_far_is_monotone_nonincreasing(self):
        curve = ConvergenceCurve("s", costs=(5.0, 7.0, 3.0, 4.0, 1.0), optimal_cost=0.0)
        best = curve.best_so_far()
        assert best.tolist() == [5.0, 5.0, 3.0, 3.0, 1.0]
        assert np.all(np.diff(best) <= 0)
        assert curve.num_iterations == 5

    def test_relative_gap_normalisation(self):
        curve = ConvergenceCurve("s", costs=(8.0, 6.0, 4.0), optimal_cost=4.0)
        assert curve.relative_gap().tolist() == [1.0, 0.5, 0.0]
        # |optimal| < 1 falls back to an absolute gap (scale clamps to 1).
        small = ConvergenceCurve("s", costs=(0.5,), optimal_cost=0.25)
        assert small.relative_gap().tolist() == [0.25]

    def test_iterations_to_gap_is_one_based(self):
        curve = ConvergenceCurve("s", costs=(8.0, 6.0, 4.0), optimal_cost=4.0)
        assert curve.iterations_to_gap(1.0) == 1
        assert curve.iterations_to_gap(0.5) == 2
        assert curve.iterations_to_gap(0.0) == 3
        assert ConvergenceCurve("s", costs=(8.0,), optimal_cost=4.0).iterations_to_gap(
            0.1
        ) is None

    def test_final_gap(self):
        curve = ConvergenceCurve("s", costs=(8.0, 5.0), optimal_cost=4.0)
        assert curve.final_gap() == pytest.approx(0.25)
        empty = ConvergenceCurve("s", costs=(), optimal_cost=4.0)
        assert empty.final_gap() == float("inf")

    def test_curve_from_result_flips_sign_for_max_problems(self):
        problem = make_one_hot_problem(weights=(3.0, 2.0, 1.0), sense="max")
        # Internally solvers minimize -f; the optimum f* = 3 becomes -3.
        result = result_with_costs([-1.0, -3.0])
        curve = convergence_curve(problem, result)
        assert curve.optimal_cost == pytest.approx(-3.0)
        assert curve.relative_gap()[-1] == pytest.approx(0.0)

    def test_curve_accepts_precomputed_optimum(self):
        problem = make_one_hot_problem()
        result = result_with_costs([2.0, 1.0])
        curve = convergence_curve(problem, result, optimal_value=1.0)
        assert curve.optimal_cost == pytest.approx(1.0)
        assert curve.final_gap() == pytest.approx(0.0)

    def test_compare_convergence_rows(self):
        problem = make_one_hot_problem()  # min, optimum value 1.0 at x = (0,1,0)
        fast = result_with_costs([3.0, 1.0], solver_name="fast")
        stuck = result_with_costs([3.0, 3.0, 3.0], solver_name="stuck")
        rows = compare_convergence(problem, [fast, stuck], gap=0.2)
        by_name = {row["solver"]: row for row in rows}
        assert by_name["fast"]["iterations"] == 2
        assert by_name["fast"]["iterations_to_gap"] == 2
        assert by_name["fast"]["final_gap"] == pytest.approx(0.0)
        assert by_name["stuck"]["iterations_to_gap"] is None
        assert by_name["stuck"]["initial_cost"] == pytest.approx(3.0)

    def test_unconstrained_objective_row(self):
        problem = ConstrainedBinaryProblem(
            2, Objective.from_linear([1.0, 2.0]), sense="min", name="free"
        )
        rows = compare_convergence(problem, [result_with_costs([0.5, 0.0])])
        assert rows[0]["final_gap"] == pytest.approx(0.0)
