"""Tests for the analysis layer: convergence, parallelism, ablation, reporting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.ablation import ABLATION_ARMS, run_ablation
from repro.analysis.convergence import compare_convergence, convergence_curve
from repro.analysis.parallelism import parallelism_profile, support_trace
from repro.analysis.report import (
    format_table,
)
from repro.qcircuit.circuit import QuantumCircuit
from repro.solvers.chocoq import ChocoQConfig, ChocoQSolver
from repro.solvers.optimizer import CobylaOptimizer
from repro.solvers.penalty_qaoa import PenaltyQAOAConfig, PenaltyQAOASolver
from repro.solvers.variational import EngineOptions

FAST = EngineOptions(shots=512, seed=5)
FAST_OPTIMIZER = CobylaOptimizer(max_iterations=40)


class TestConvergence:
    def test_choco_converges_faster_than_penalty(self, paper_example_problem):
        choco = ChocoQSolver(
            config=ChocoQConfig(num_layers=2), optimizer=FAST_OPTIMIZER, options=FAST
        ).solve(paper_example_problem)
        penalty = PenaltyQAOASolver(
            config=PenaltyQAOAConfig(num_layers=2),
            optimizer=FAST_OPTIMIZER,
            options=FAST,
        ).solve(paper_example_problem)
        rows = compare_convergence(paper_example_problem, [choco, penalty])
        by_name = {row["solver"]: row for row in rows}
        choco_iters = by_name["choco-q"]["iterations_to_gap"]
        penalty_iters = by_name["penalty-qaoa"]["iterations_to_gap"]
        assert choco_iters is not None
        assert penalty_iters is None or choco_iters <= penalty_iters
        # Choco-Q starts near the optimum (good initial cost); the penalty
        # method starts with a huge penalty-dominated cost.
        assert by_name["choco-q"]["initial_cost"] < by_name["penalty-qaoa"]["initial_cost"]

    def test_curve_shapes(self, paper_example_problem):
        result = ChocoQSolver(
            config=ChocoQConfig(num_layers=1), optimizer=FAST_OPTIMIZER, options=FAST
        ).solve(paper_example_problem)
        curve = convergence_curve(paper_example_problem, result)
        best = curve.best_so_far()
        assert len(best) == curve.num_iterations
        assert np.all(np.diff(best) <= 1e-12)
        assert curve.final_gap() >= 0.0


class TestParallelism:
    def test_support_grows_from_basis_state(self):
        circuit = QuantumCircuit(3)
        circuit.x(0)
        circuit.h(1)
        circuit.cx(1, 2)
        trace = support_trace(circuit, initial_state=[0, 0, 0])
        assert trace[0] == 1
        assert trace[-1] == 2

    def test_profile_progress_axis(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).h(1).cx(0, 1)
        profile = parallelism_profile("test", circuit)
        axis = profile.progress_axis()
        assert axis[0] > 0.0 and axis[-1] == pytest.approx(1.0)
        assert profile.max_support == 4
        assert profile.support_at_progress(1.0) == 4

    def test_chocoq_harvests_parallelism(self, paper_example_problem):
        """Fig. 9b: starting from one basis state, the support grows quickly."""
        solver = ChocoQSolver(
            config=ChocoQConfig(num_layers=1), optimizer=FAST_OPTIMIZER, options=FAST
        )
        spec, _ = solver.build_spec(paper_example_problem)
        # The built circuit already prepares the feasible initial state from
        # |0...0> with X gates, so the simulation starts from the zero state.
        circuit = spec.build_circuit(spec.initial_parameters)
        profile = parallelism_profile("choco-q", circuit)
        assert profile.support_sizes[0] <= 2
        assert profile.max_support >= 3
        assert profile.growth_onset() < 0.75


class TestAblation:
    def test_ablation_rows_and_improvements(self, paper_example_problem):
        rows = run_ablation(
            paper_example_problem,
            num_layers=1,
            shots=256,
            max_iterations=15,
        )
        labels = [row.label for row in rows]
        assert labels == [arm.label for arm in ABLATION_ARMS]
        by_label = {row.label: row for row in rows}
        # Opt2 (equivalent decomposition) must reduce depth versus Opt1.
        assert by_label["Opt1+2"].transpiled_depth < by_label["Opt1"].transpiled_depth


class TestReport:
    def test_format_table_alignment(self):
        rows = [{"name": "a", "value": 1.5}, {"name": "bb", "value": 2.0}]
        text = format_table(rows, title="demo")
        assert "demo" in text
        assert "1.500" in text
        assert text.count("\n") >= 3

    def test_format_table_empty(self):
        assert format_table([]) == "(empty table)"
