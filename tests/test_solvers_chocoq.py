"""Tests for the Choco-Q solver — the paper's contribution.

Covers the headline correctness claims: the 100% in-constraints rate, the
high success rate, variable elimination, the ablation toggles, and the
bookkeeping (depth, latency, iterations) the evaluation section relies on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.problem import ConstrainedBinaryProblem, LinearConstraint, Objective
from repro.exceptions import SolverError
from repro.solvers.chocoq import ChocoQConfig, ChocoQSolver
from repro.solvers.optimizer import CobylaOptimizer
from repro.solvers.variational import EngineOptions

FAST = EngineOptions(shots=1024, seed=9)
FAST_OPTIMIZER = CobylaOptimizer(max_iterations=60)


def make_solver(**config_kwargs) -> ChocoQSolver:
    return ChocoQSolver(
        config=ChocoQConfig(**config_kwargs), optimizer=FAST_OPTIMIZER, options=FAST
    )


class TestConfig:
    def test_defaults_valid(self):
        config = ChocoQConfig()
        assert config.num_layers >= 1
        assert config.nullspace_mode in ("basis", "full")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_layers": 0},
            {"nullspace_mode": "everything"},
            {"num_eliminated_variables": -1},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(SolverError):
            ChocoQConfig(**kwargs)


class TestDriverConstruction:
    def test_driver_terms_satisfy_cu_zero(self, paper_example_problem):
        solver = make_solver()
        driver = solver.build_driver(paper_example_problem)
        matrix, _ = paper_example_problem.constraint_matrix()
        for term in driver.terms:
            assert np.allclose(matrix @ np.array(term.u), 0.0)

    def test_full_mode_has_at_least_basis_terms(self, paper_example_problem):
        basis = make_solver(nullspace_mode="basis").build_driver(paper_example_problem)
        full = make_solver(nullspace_mode="full").build_driver(paper_example_problem)
        assert len(full.terms) >= len(basis.terms)

    def test_unconstrained_problem_rejected(self):
        problem = ConstrainedBinaryProblem(2, Objective.from_linear([1.0, 1.0]))
        with pytest.raises(SolverError):
            make_solver().build_driver(problem)


class TestHeadlineClaims:
    def test_hundred_percent_in_constraints_rate(self, paper_example_problem):
        """The defining property: every measured sample is feasible."""
        result = make_solver(num_layers=2).solve(paper_example_problem)
        metrics = result.metrics(paper_example_problem)
        assert metrics.in_constraints_rate == pytest.approx(1.0)

    def test_high_success_rate_on_paper_example(self, paper_example_problem):
        result = make_solver(num_layers=2).solve(paper_example_problem)
        metrics = result.metrics(paper_example_problem)
        assert metrics.success_rate > 0.5
        assert metrics.approximation_ratio_gap < 0.6

    def test_outperforms_penalty_qaoa(self, paper_example_problem):
        from repro.solvers.penalty_qaoa import PenaltyQAOAConfig, PenaltyQAOASolver

        choco = make_solver(num_layers=2).solve(paper_example_problem)
        penalty = PenaltyQAOASolver(
            config=PenaltyQAOAConfig(num_layers=2),
            optimizer=FAST_OPTIMIZER,
            options=FAST,
        ).solve(paper_example_problem)
        choco_metrics = choco.metrics(paper_example_problem)
        penalty_metrics = penalty.metrics(paper_example_problem)
        assert choco_metrics.in_constraints_rate > penalty_metrics.in_constraints_rate
        assert choco_metrics.success_rate >= penalty_metrics.success_rate

    def test_exact_distribution_only_contains_feasible_states(self, paper_example_problem):
        result = make_solver(num_layers=2).solve(paper_example_problem)
        assert result.exact_distribution is not None
        for key in result.exact_distribution:
            bits = tuple(int(ch) for ch in key)
            assert paper_example_problem.is_feasible(bits)

    def test_works_on_minimization_problems(self, small_min_problem):
        result = make_solver(num_layers=2).solve(small_min_problem)
        metrics = result.metrics(small_min_problem)
        assert metrics.in_constraints_rate == pytest.approx(1.0)
        assert metrics.success_rate > 0.3


class TestBookkeeping:
    def test_result_fields(self, paper_example_problem):
        result = make_solver(num_layers=1).solve(paper_example_problem)
        assert result.solver_name == "choco-q"
        assert result.num_qubits == 4
        assert result.circuit_depth > 0
        assert result.transpiled_depth >= result.circuit_depth
        assert result.metadata["num_driver_terms"] >= 2
        assert result.metadata["iterations"] > 0
        assert result.latency.total > 0.0

    def test_layer_count_scales_depth(self, paper_example_problem):
        one = make_solver(num_layers=1).solve(paper_example_problem)
        three = make_solver(num_layers=3).solve(paper_example_problem)
        assert three.transpiled_depth > one.transpiled_depth

    def test_decomposition_toggle_changes_depth(self, paper_example_problem):
        with_decomposition = make_solver(num_layers=1, use_equivalent_decomposition=True).solve(
            paper_example_problem
        )
        without = make_solver(num_layers=1, use_equivalent_decomposition=False).solve(
            paper_example_problem
        )
        # Generic synthesis of the opaque local unitaries is charged a much
        # larger depth (Fig. 14's Opt1 vs Opt1+2 comparison).
        assert without.transpiled_depth > with_decomposition.transpiled_depth


class TestVariableElimination:
    def test_elimination_reduces_qubits(self, paper_example_problem):
        result = make_solver(num_layers=2, num_eliminated_variables=1).solve(
            paper_example_problem
        )
        assert result.metadata["num_circuits"] == 2
        assert result.metadata["sub_problem_qubits"] == 3

    def test_elimination_keeps_constraints_satisfied(self, paper_example_problem):
        result = make_solver(num_layers=2, num_eliminated_variables=1).solve(
            paper_example_problem
        )
        metrics = result.metrics(paper_example_problem)
        assert metrics.in_constraints_rate == pytest.approx(1.0)

    def test_elimination_still_finds_optimum(self, paper_example_problem):
        result = make_solver(num_layers=2, num_eliminated_variables=1).solve(
            paper_example_problem
        )
        metrics = result.metrics(paper_example_problem)
        # The optimum lives in one of the two sub-circuits; its share of the
        # merged distribution is bounded by 1 / num_circuits.
        assert metrics.success_rate > 0.2

    def test_two_eliminated_variables(self, paper_example_problem):
        result = make_solver(num_layers=2, num_eliminated_variables=2).solve(
            paper_example_problem
        )
        assert result.metadata["num_circuits"] <= 4
        metrics = result.metrics(paper_example_problem)
        assert metrics.in_constraints_rate == pytest.approx(1.0)

    def test_elimination_requires_constraints(self):
        problem = ConstrainedBinaryProblem(3, Objective.from_linear([1.0, -1.0, 2.0]))
        solver = make_solver(num_eliminated_variables=1)
        with pytest.raises(SolverError):
            solver.solve(problem)

    @pytest.mark.parametrize("eliminated", [0, 1])
    def test_sub_solve_errors_propagate(self, eliminated):
        """A sub-solve failure is raised, never replaced by a made-up answer."""
        from repro.problems import make_benchmark

        class FailingOptimizer(CobylaOptimizer):
            def _run(self, cost, initial):
                raise SolverError("optimizer failed")

        solver = ChocoQSolver(
            config=ChocoQConfig(num_eliminated_variables=eliminated),
            optimizer=FailingOptimizer(),
            options=FAST,
        )
        with pytest.raises(SolverError, match="optimizer failed"):
            solver.solve(make_benchmark("K1"))

    def test_one_driver_per_plan(self, monkeypatch):
        """Every sub-instance shares the reduced matrix, so the plan derives
        its moves and its driver once (warm K4, two eliminated variables)."""
        from repro.hamiltonian.commute import CommuteDriver
        from repro.problems import make_benchmark
        from repro.solvers import chocoq

        problem = make_benchmark("K4")
        solver = make_solver(num_layers=1, num_eliminated_variables=2)
        solver.solve(problem)
        calls = {"nullspace": 0, "driver": 0}
        basis = chocoq.ternary_nullspace_basis
        from_solutions = CommuteDriver.from_solutions.__func__

        def counted_basis(*args, **kwargs):
            calls["nullspace"] += 1
            return basis(*args, **kwargs)

        def counted_driver(cls, solutions):
            calls["driver"] += 1
            return from_solutions(cls, solutions)

        monkeypatch.setattr(chocoq, "ternary_nullspace_basis", counted_basis)
        monkeypatch.setattr(CommuteDriver, "from_solutions", classmethod(counted_driver))
        result = solver.solve(problem)
        assert result.metadata["num_circuits"] == 4
        # One nullspace of the original matrix, one of the reduced matrix.
        assert calls == {"nullspace": 2, "driver": 1}


class TestLargerInstance:
    def test_six_variable_flp_like_instance(self):
        """A 6-variable instance with linking constraints (F1-scale)."""
        from repro.problems import make_benchmark

        problem = make_benchmark("F1")
        result = make_solver(num_layers=3).solve(problem)
        metrics = result.metrics(problem)
        assert metrics.in_constraints_rate == pytest.approx(1.0)
        assert metrics.success_rate > 0.5
