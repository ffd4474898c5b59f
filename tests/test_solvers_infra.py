"""Tests for the shared variational engine, solver result types and latency model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.metrics import MetricsReport
from repro.qcircuit.circuit import QuantumCircuit
from repro.qcircuit.noise import IBM_FEZ, IBM_OSAKA
from repro.solvers.base import LatencyBreakdown, OptimizationTrace, SolverResult
from repro.solvers.config import NoiseConfig
from repro.solvers.latency import LatencyModel
from repro.solvers.optimizer import CobylaOptimizer
from repro.hamiltonian.commute import CommuteDriver
from repro.hamiltonian.compiled import EvolutionProgram
from repro.exceptions import SolverError
from repro.problems import facility_location_problem, random_facility_location
from repro.problems.benchmark_suite import make_benchmark
from repro.solvers.chocoq import ChocoQConfig, ChocoQSolver
from repro.solvers.cyclic_qaoa import CyclicQAOAConfig, CyclicQAOASolver
from repro.solvers.hea import HEAConfig, HEASolver
from repro.solvers.penalty_qaoa import PenaltyQAOAConfig, PenaltyQAOASolver
from repro.qcircuit.statevector import MAX_DENSE_QUBITS
from repro.solvers.variational import (
    AnsatzSpec,
    EngineOptions,
    VariationalEngine,
    basis_state,
    interleave,
    layered_ansatz,
    linear_ramp,
    uniform_state,
)
from repro.qcircuit.sampling import SampleResult


class TestStateHelpers:
    def test_basis_state(self):
        state = basis_state(3, [0, 1, 1])
        assert np.argmax(np.abs(state)) == 6

    def test_uniform_state(self):
        state = uniform_state(2)
        assert np.allclose(np.abs(state) ** 2, 0.25)

    def test_single_flip_driver_is_rx_layer(self, simulator):
        # The penalty-QAOA mixer: H_c(-e_j) = X_j, so one layer of the
        # single-bit-flip driver at gamma = 0 is RX(2 beta) on every qubit.
        beta = 0.7
        mixer = CommuteDriver.from_solutions(-np.eye(2, dtype=int))
        program = EvolutionProgram(1, np.zeros(4), mixer.pairings())
        state = program.execute(uniform_state(2), np.array([0.0, beta]))
        circuit = QuantumCircuit(2)
        circuit.h(0).h(1).rx(2 * beta, 0).rx(2 * beta, 1)
        expected = simulator.statevector(circuit).data
        assert np.allclose(state, expected, atol=1e-10)

    def test_hea_evolve_matches_its_circuit(self, simulator, small_min_problem):
        # RY layers and the CZ chain against the gate-level simulator.
        assert small_min_problem.num_variables == 3
        spec = HEASolver(config=HEAConfig(num_layers=2)).build_spec(small_min_problem)
        parameters = np.random.default_rng(4).uniform(-np.pi, np.pi, size=9)
        expected = simulator.statevector(spec.build_circuit(parameters)).data
        assert np.allclose(spec.evolve(parameters), expected, atol=1e-10)


LAYERED_ANSATZE = {
    "choco-q-dense": (ChocoQSolver, ChocoQConfig(num_layers=2)),
    "choco-q-subspace": (ChocoQSolver, ChocoQConfig(num_layers=2, backend="subspace")),
    "choco-q-no-opt2-dense": (
        ChocoQSolver,
        ChocoQConfig(num_layers=2, use_equivalent_decomposition=False),
    ),
    "choco-q-no-opt2-subspace": (
        ChocoQSolver,
        ChocoQConfig(num_layers=2, use_equivalent_decomposition=False, backend="subspace"),
    ),
    "cyclic-dense": (CyclicQAOASolver, CyclicQAOAConfig(num_layers=2)),
    "cyclic-subspace": (CyclicQAOASolver, CyclicQAOAConfig(num_layers=2, backend="subspace")),
    "penalty": (PenaltyQAOASolver, PenaltyQAOAConfig(num_layers=2)),
}


class TestLayeredAnsatz:
    @pytest.mark.parametrize("name", ["F1", "G1", "K1"])
    @pytest.mark.parametrize("ansatz", sorted(LAYERED_ANSATZE))
    def test_circuit_state_matches_the_evolution(self, simulator, name, ansatz):
        solver_cls, config = LAYERED_ANSATZE[ansatz]
        spec = solver_cls(config=config).build_spec(make_benchmark(name))
        spec = spec[0] if isinstance(spec, tuple) else spec
        assert (spec.backend is not None) == ansatz.endswith("subspace")
        parameters = np.random.default_rng(11).uniform(-np.pi, np.pi, size=4)
        state = spec.evolve(parameters)
        if spec.backend is not None:
            state = spec.backend.subspace_map.lift_vector(state)
        circuit_state = simulator.statevector(spec.build_circuit(parameters)).data
        # Up to a global phase: the phase separator drops the constant term.
        assert abs(np.vdot(circuit_state, state)) == pytest.approx(1.0, abs=1e-9)

    def test_parameter_order_and_ramp(self):
        assert interleave([1.0, 2.0], [3.0, 4.0]).tolist() == [1.0, 3.0, 2.0, 4.0]
        assert np.allclose(linear_ramp(2), [0.35, 0.45, 0.7, 0.1])

    def test_uniform_start_is_dense_only(self, paper_example_problem):
        with pytest.raises(SolverError, match="dense layout only"):
            layered_ansatz(
                "uniform",
                paper_example_problem,
                "subspace",
                None,
                cost_terms={},
                initial_bits=None,
                driver=None,
                mix=lambda circuit, beta: None,
                num_layers=1,
                initial_parameters=np.zeros(2),
                metadata={},
            )


class TestDenseCap:
    """Past the dense cap a solver refuses its dense layout with a
    structured error instead of allocating ``2^n`` amplitudes."""

    @pytest.fixture(scope="class")
    def wide_problem(self):
        problem = facility_location_problem(random_facility_location(3, 4, seed=0))
        assert problem.num_variables == 27 > MAX_DENSE_QUBITS
        return problem

    @pytest.mark.parametrize(
        "solver",
        [
            PenaltyQAOASolver(),
            HEASolver(),
            ChocoQSolver(config=ChocoQConfig(backend="dense")),
            CyclicQAOASolver(config=CyclicQAOAConfig(backend="dense")),
        ],
        ids=["penalty-qaoa", "hea", "choco-q-dense", "cyclic-dense"],
    )
    def test_dense_layout_refuses_past_the_cap(self, wide_problem, solver):
        with pytest.raises(SolverError, match=f"27 qubits exceeds the {MAX_DENSE_QUBITS}-qubit"):
            solver.build_spec(wide_problem)

    def test_subspace_layout_still_builds(self, wide_problem):
        spec, _driver = ChocoQSolver(config=ChocoQConfig(backend="subspace")).build_spec(
            wide_problem
        )
        assert spec.metadata["subspace_size"] == spec.initial_state.size == 132


def _toy_spec() -> AnsatzSpec:
    """A 1-parameter, 1-qubit ansatz whose optimum is a pure |1> state."""
    cost = np.array([1.0, 0.0])

    def evolve(parameters: np.ndarray) -> np.ndarray:
        half = float(parameters[0]) / 2.0
        return np.array([np.cos(half), np.sin(half)], dtype=complex)

    def build_circuit(parameters: np.ndarray) -> QuantumCircuit:
        circuit = QuantumCircuit(1)
        circuit.ry(float(parameters[0]), 0)
        return circuit

    return AnsatzSpec(
        name="toy",
        num_qubits=1,
        initial_state=basis_state(1, [0]),
        cost_diagonal=cost,
        evolve=evolve,
        build_circuit=build_circuit,
        initial_parameters=np.array([0.3]),
    )


class TestVariationalEngine:
    def test_optimizes_toy_ansatz(self, small_min_problem):
        engine = VariationalEngine(CobylaOptimizer(max_iterations=60), EngineOptions(shots=256, seed=1))
        result = engine.run(_toy_spec(), small_min_problem)
        assert result.metadata["final_cost"] < 0.05
        # Final distribution concentrates on |1>.
        assert result.distribution().get("1", 0.0) > 0.9

    def test_noisy_execution_path(self, small_min_problem):
        engine = VariationalEngine(
            CobylaOptimizer(max_iterations=20),
            EngineOptions(shots=128, seed=1),
            NoiseConfig(device="osaka", trajectories=4),
        )
        result = engine.run(_toy_spec(), small_min_problem)
        assert result.exact_distribution is None
        assert sum(result.outcomes.counts.values()) > 0

    def test_latency_is_the_device_model_of_the_run(self, small_min_problem):
        engine = VariationalEngine(CobylaOptimizer(max_iterations=10), EngineOptions(shots=64))
        result = engine.run(_toy_spec(), small_min_problem)
        assert result.latency.quantum_execution > 0.0
        assert result.latency == LatencyModel().estimate(
            result.metadata["circuit_duration_s"],
            iterations=result.metadata["iterations"],
            shots=64,
        )


@pytest.mark.parametrize("solver", ["choco-q", "cyclic-qaoa", "penalty-qaoa", "hea"])
def test_result_depths_match_walking_the_circuits(solver):
    """The engine reads its depths and two-qubit count off the transpile
    report; they must equal walking the reference and transpiled circuits."""
    from repro.qcircuit.transpile import transpile, unitary_synthesis_penalty
    from repro.run import make_solver
    from repro.run.problems import resolve_benchmark

    problem = resolve_benchmark("K1")
    options = EngineOptions(shots=64, seed=3)
    instance = make_solver(
        solver, optimizer=CobylaOptimizer(max_iterations=40), options=options
    )
    built = instance.build_spec(problem)
    spec = built[0] if isinstance(built, tuple) else built
    reference = spec.build_circuit(spec.initial_parameters)
    transpiled = transpile(reference, options.transpile_options())
    result = instance.solve(problem)
    assert result.circuit_depth == reference.depth()
    assert result.transpiled_depth == transpiled.depth() + unitary_synthesis_penalty(
        transpiled
    )
    assert result.num_two_qubit_gates == transpiled.num_two_qubit_gates()


class TestLatencyModel:
    def test_two_qubit_gates_dominate(self):
        model = LatencyModel(IBM_FEZ)
        single = QuantumCircuit(2)
        for _ in range(10):
            single.h(0)
        double = QuantumCircuit(2)
        for _ in range(10):
            double.cx(0, 1)
        assert model.circuit_duration(double) > model.circuit_duration(single)

    def test_ecr_devices_are_slower(self):
        circuit = QuantumCircuit(2)
        for _ in range(5):
            circuit.cx(0, 1)
        assert LatencyModel(IBM_OSAKA).circuit_duration(circuit) > LatencyModel(
            IBM_FEZ
        ).circuit_duration(circuit)

    def test_estimate_scales_with_iterations(self):
        model = LatencyModel(IBM_FEZ)
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1)
        duration = model.circuit_duration(circuit)
        base = model.estimate(duration, iterations=10, shots=100)
        doubled = model.estimate(duration, iterations=20, shots=100)
        assert doubled.quantum_execution == pytest.approx(2 * base.quantum_execution)
        assert doubled.classical_processing == pytest.approx(2 * base.classical_processing)


class TestResultTypes:
    def test_optimization_trace(self):
        trace = OptimizationTrace()
        trace.record(3.0, np.array([0.0]))
        trace.record(1.0, np.array([1.0]))
        assert trace.num_iterations == 2
        assert trace.best_cost == pytest.approx(1.0)
        assert trace.iterations_to_reach(2.0) == 1
        assert trace.iterations_to_reach(0.5) is None

    def test_latency_breakdown_dict(self):
        breakdown = LatencyBreakdown(quantum_execution=2.0, classical_processing=0.5)
        assert breakdown.as_dict() == {
            "quantum_execution_s": 2.0,
            "classical_processing_s": 0.5,
            "total_s": 2.5,
        }

    def test_latency_breakdown_ignores_an_older_compilation_field(self):
        older = {
            "compilation_s": 0.3,
            "quantum_execution_s": 2.0,
            "classical_processing_s": 0.5,
            "total_s": 2.8,
        }
        assert LatencyBreakdown.from_dict(older) == LatencyBreakdown(2.0, 0.5)

    def test_solver_result_metrics(self, paper_example_problem):
        result = SolverResult(
            solver_name="stub",
            problem_name=paper_example_problem.name,
            outcomes=SampleResult.from_counts({"1010": 10}),
        )
        report = result.metrics(paper_example_problem)
        assert isinstance(report, MetricsReport)
        assert report.success_rate == pytest.approx(1.0)

    def test_distribution_prefers_exact(self):
        result = SolverResult(
            solver_name="stub",
            problem_name="p",
            outcomes=SampleResult.from_counts({"0": 1}),
            exact_distribution={"1": 1.0},
        )
        assert result.distribution() == {"1": 1.0}
