"""End-to-end integration tests across the whole stack.

These exercise the full pipeline the paper's evaluation uses: build a
benchmark instance, run every solver, score with the Table-II metrics, and
check the qualitative relationships the paper reports (Choco-Q's 100%
in-constraints rate, its success-rate lead over the baselines, the
constraint-count trend of Fig. 8, and the noisy-hardware behaviour of
Fig. 10 on the smallest cases).
"""

from __future__ import annotations

import pytest

from repro import (
    ChocoQConfig,
    ChocoQSolver,
    CyclicQAOAConfig,
    CyclicQAOASolver,
    EngineOptions,
    HEAConfig,
    HEASolver,
    NoiseConfig,
    PenaltyQAOAConfig,
    PenaltyQAOASolver,
    make_benchmark,
)
from repro.solvers.latency import LatencyModel
from repro.solvers.optimizer import CobylaOptimizer

OPTIONS = EngineOptions(shots=2048, seed=11)
OPTIMIZER = CobylaOptimizer(max_iterations=60)


@pytest.fixture(scope="module")
def f1_problem():
    return make_benchmark("F1")


@pytest.fixture(scope="module")
def g1_problem():
    return make_benchmark("G1")


@pytest.fixture(scope="module")
def k1_problem():
    return make_benchmark("K1")


class TestTableTwoRelationships:
    @pytest.mark.parametrize("scale", ["F1", "G1", "K1"])
    def test_chocoq_beats_baselines_on_small_scales(self, scale):
        problem = make_benchmark(scale)
        _, optimal_value = problem.brute_force_optimum()
        choco = ChocoQSolver(
            config=ChocoQConfig(num_layers=2), optimizer=OPTIMIZER, options=OPTIONS
        ).solve(problem)
        penalty = PenaltyQAOASolver(
            config=PenaltyQAOAConfig(num_layers=3),
            optimizer=OPTIMIZER,
            options=OPTIONS,
        ).solve(
            problem
        )
        hea = HEASolver(
            config=HEAConfig(num_layers=2),
            optimizer=OPTIMIZER,
            options=OPTIONS,
        ).solve(problem)

        choco_metrics = choco.metrics(problem, optimal_value)
        penalty_metrics = penalty.metrics(problem, optimal_value)
        hea_metrics = hea.metrics(problem, optimal_value)

        assert choco_metrics.in_constraints_rate == pytest.approx(1.0)
        assert choco_metrics.success_rate >= penalty_metrics.success_rate
        assert choco_metrics.success_rate >= hea_metrics.success_rate
        assert choco_metrics.approximation_ratio_gap <= penalty_metrics.approximation_ratio_gap

    def test_quantum_optimum_matches_classical(self, f1_problem):
        _, optimal_value = f1_problem.brute_force_optimum()
        result = ChocoQSolver(
            config=ChocoQConfig(num_layers=3), optimizer=OPTIMIZER, options=OPTIONS
        ).solve(f1_problem)
        best_key = max(result.distribution().items(), key=lambda item: item[1])[0]
        best_bits = tuple(int(ch) for ch in best_key[: f1_problem.num_variables])
        assert f1_problem.is_feasible(best_bits)
        assert f1_problem.evaluate(best_bits) == pytest.approx(optimal_value)

    def test_cyclic_shines_on_summation_format(self, k1_problem):
        """Fig./Table II: the cyclic baseline does relatively well on KPP."""
        _, optimal_value = k1_problem.brute_force_optimum()
        cyclic = CyclicQAOASolver(
            config=CyclicQAOAConfig(num_layers=4),
            optimizer=OPTIMIZER,
            options=OPTIONS,
        ).solve(
            k1_problem
        )
        penalty = PenaltyQAOASolver(
            config=PenaltyQAOAConfig(num_layers=4),
            optimizer=OPTIMIZER,
            options=OPTIONS,
        ).solve(
            k1_problem
        )
        cyclic_metrics = cyclic.metrics(k1_problem, optimal_value)
        penalty_metrics = penalty.metrics(k1_problem, optimal_value)
        assert cyclic_metrics.in_constraints_rate >= penalty_metrics.in_constraints_rate

    def test_success_decreases_with_scale_for_baselines(self):
        """Larger instances are harder for the penalty baseline (Table II trend)."""
        small = make_benchmark("F1")
        large = make_benchmark("F3")
        penalty_small = PenaltyQAOASolver(
            config=PenaltyQAOAConfig(num_layers=2),
            optimizer=OPTIMIZER,
            options=OPTIONS,
        ).solve(small)
        penalty_large = PenaltyQAOASolver(
            config=PenaltyQAOAConfig(num_layers=2),
            optimizer=OPTIMIZER,
            options=OPTIONS,
        ).solve(large)
        small_metrics = penalty_small.metrics(small)
        large_metrics = penalty_large.metrics(large)
        assert large_metrics.success_rate <= small_metrics.success_rate + 0.05


class TestNoisyExecution:
    def test_fez_noise_keeps_chocoq_ahead(self, g1_problem):
        """Fig. 10: under the Fez noise model Choco-Q still leads in-constraints rate."""
        fez = NoiseConfig(device="fez", trajectories=8)
        options = EngineOptions(shots=512, seed=3)
        _, optimal_value = g1_problem.brute_force_optimum()
        choco = ChocoQSolver(
            config=ChocoQConfig(num_layers=1, noise=fez),
            optimizer=CobylaOptimizer(max_iterations=25),
            options=options,
        ).solve(g1_problem)
        hea = HEASolver(
            config=HEAConfig(num_layers=1, noise=fez),
            optimizer=CobylaOptimizer(max_iterations=25),
            options=options,
        ).solve(g1_problem)
        choco_metrics = choco.metrics(g1_problem, optimal_value)
        hea_metrics = hea.metrics(g1_problem, optimal_value)
        # Noise erodes the ideal 100%, but feasibility should stay clearly ahead.
        assert choco_metrics.in_constraints_rate > hea_metrics.in_constraints_rate
        assert choco_metrics.in_constraints_rate > 0.2


class TestEndToEndLatencyAccounting:
    def test_latency_fields_consistent(self, f1_problem):
        result = ChocoQSolver(
            config=ChocoQConfig(num_layers=1), optimizer=OPTIMIZER, options=OPTIONS
        ).solve(f1_problem)
        assert result.latency.total == (
            result.latency.quantum_execution + result.latency.classical_processing
        )
        assert result.metadata["iterations"] > 0
        assert result.latency.classical_processing == pytest.approx(
            result.metadata["iterations"] * LatencyModel().classical_update_time
        )
        assert result.latency.quantum_execution > 0.0

    def test_variable_elimination_end_to_end(self, f1_problem):
        result = ChocoQSolver(
            config=ChocoQConfig(num_layers=2, num_eliminated_variables=1),
            optimizer=OPTIMIZER,
            options=OPTIONS,
        ).solve(f1_problem)
        metrics = result.metrics(f1_problem)
        assert metrics.in_constraints_rate == pytest.approx(1.0)
        assert result.metadata["num_circuits"] >= 2
