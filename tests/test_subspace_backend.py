"""Dense-vs-subspace backend equivalence and the Opt3 sampling regressions.

The ``subspace`` backend must be an exact drop-in for the dense simulator:
identical evolved states (up to lifting), identical exact distributions, and
the same histogram format.  The elimination pipeline must conserve shots
exactly, decorrelate per-sub-instance RNG streams, and keep its metadata
through histogram merging.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

from solver_factories import make_chocoq_solver as make_solver
from repro.core.problem import ConstrainedBinaryProblem, Objective
from repro.core.subspace import SubspaceMap
from repro.exceptions import SolverError
from repro.problems import make_benchmark
from repro.solvers.chocoq import ChocoQConfig, ChocoQSolver
from repro.solvers.optimizer import CobylaOptimizer
from repro.solvers.variational import (
    DenseStateBackend,
    EngineOptions,
    SubspaceStateBackend,
)

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks"))

SEED_PROBLEMS = ("F1", "G1", "K1")


class TestBackendEquivalence:
    @pytest.mark.parametrize("case", SEED_PROBLEMS)
    def test_evolve_matches_dense_on_seed_problems(self, case):
        problem = make_benchmark(case)
        dense_spec, _ = make_solver("dense", num_layers=2).build_spec(problem)
        subspace_spec, _ = make_solver("subspace", num_layers=2).build_spec(problem)
        subspace_map = SubspaceMap.from_problem(problem)
        rng = np.random.default_rng(1)
        for _ in range(3):
            parameters = rng.uniform(-np.pi, np.pi, size=4)
            dense_state = dense_spec.evolve(parameters)
            lifted = subspace_map.lift_vector(subspace_spec.evolve(parameters))
            assert np.max(np.abs(dense_state - lifted)) < 1e-9

    @pytest.mark.parametrize("case", SEED_PROBLEMS)
    def test_solve_distributions_match_on_seed_problems(self, case):
        problem = make_benchmark(case)
        dense = make_solver("dense", num_layers=2).solve(problem)
        subspace = make_solver("subspace", num_layers=2).solve(problem)
        keys = set(dense.exact_distribution) | set(subspace.exact_distribution)
        for key in keys:
            assert dense.exact_distribution.get(key, 0.0) == pytest.approx(
                subspace.exact_distribution.get(key, 0.0), abs=1e-9
            )
        assert subspace.metadata["state_backend"] == "subspace"
        assert subspace.metadata["subspace_size"] == SubspaceMap.from_problem(problem).size

    def test_monolithic_driver_matches_dense(self, paper_example_problem):
        dense = make_solver("dense", num_layers=1, serialize_driver=False).solve(
            paper_example_problem
        )
        subspace = make_solver("subspace", num_layers=1, serialize_driver=False).solve(
            paper_example_problem
        )
        keys = set(dense.exact_distribution) | set(subspace.exact_distribution)
        for key in keys:
            assert dense.exact_distribution.get(key, 0.0) == pytest.approx(
                subspace.exact_distribution.get(key, 0.0), abs=1e-9
            )

    def test_subspace_samples_are_feasible(self, paper_example_problem):
        result = make_solver("subspace", num_layers=2).solve(paper_example_problem)
        metrics = result.metrics(paper_example_problem)
        assert metrics.in_constraints_rate == pytest.approx(1.0)
        assert result.outcomes.shots == 1024

    def test_subspace_backend_requires_constraints(self):
        problem = ConstrainedBinaryProblem(3, Objective.from_linear([1.0, 1.0, 1.0]))
        with pytest.raises(SolverError):
            make_solver("subspace").solve(problem)

    def test_invalid_backend_rejected(self):
        with pytest.raises(SolverError):
            ChocoQConfig(backend="sparse")

    def test_auto_backend_picks_subspace_when_small(self, paper_example_problem):
        result = make_solver("auto", num_layers=2).solve(paper_example_problem)
        assert result.metadata["state_backend"] == "subspace"
        assert result.metadata["backend_requested"] == "auto"

    def test_auto_backend_falls_back_past_limit(self, paper_example_problem):
        # |F| = 3 for the paper example; a limit of 1 forces the dense path.
        result = make_solver("auto", num_layers=2, subspace_limit=1).solve(
            paper_example_problem
        )
        assert result.metadata["state_backend"] == "dense"

    def test_explicit_subspace_with_limit_raises(self, paper_example_problem):
        from repro.exceptions import SubspaceOverflowError

        with pytest.raises(SubspaceOverflowError):
            make_solver("subspace", num_layers=2, subspace_limit=1).solve(
                paper_example_problem
            )

    def test_invalid_subspace_limit_rejected(self):
        with pytest.raises(SolverError):
            ChocoQConfig(subspace_limit=0)

    def test_backend_objects_report_dimensions(self, paper_example_problem):
        subspace_map = SubspaceMap.from_problem(paper_example_problem)
        assert DenseStateBackend(4).dimension == 16
        assert SubspaceStateBackend(subspace_map).dimension == subspace_map.size


class TestEliminationSampling:
    def test_shot_conservation_with_remainder(self, paper_example_problem):
        """1001 shots over 2 sub-circuits must merge back to exactly 1001."""
        result = make_solver(
            "dense", shots=1001, num_layers=2, num_eliminated_variables=1
        ).solve(paper_example_problem)
        assert result.metadata["num_circuits"] == 2
        assert result.outcomes.shots == 1001
        assert sum(result.outcomes.counts.values()) == 1001
        assert sorted(result.metadata["shot_allocation"]) == [500, 501]

    @pytest.mark.parametrize("backend", ["dense", "subspace"])
    def test_shot_conservation_both_backends(self, paper_example_problem, backend):
        result = make_solver(
            backend, shots=777, num_layers=2, num_eliminated_variables=2
        ).solve(paper_example_problem)
        assert result.outcomes.shots == 777
        assert sum(result.outcomes.counts.values()) == 777

    def test_zero_shot_sub_instance_under_noise(self, paper_example_problem):
        """A sub-instance allotted 0 shots must not crash the noisy path."""
        from repro.solvers.config import NoiseConfig

        solver = ChocoQSolver(
            config=ChocoQConfig(
                num_layers=1,
                num_eliminated_variables=1,
                noise=NoiseConfig(device="fez", trajectories=2),
            ),
            optimizer=CobylaOptimizer(max_iterations=5),
            options=EngineOptions(shots=1, seed=2),
        )
        result = solver.solve(paper_example_problem)
        assert result.metadata["num_circuits"] == 2
        assert result.metadata["shot_allocation"] == [1, 0]
        # Exact conservation is an ideal-path guarantee: NoiseModel.sample
        # itself rounds the budget up to one shot per trajectory
        # (pre-existing), so here we only require the run to complete and
        # the zero-shot instance to contribute nothing.
        annotations = result.outcomes.metadata["eliminated_assignments"]
        assert annotations[1]["shots"] == 0
        assert result.outcomes.shots >= 1

    def test_sub_instances_draw_distinct_samples(self, twin_problem):
        """Twin sub-instances share dynamics but must not share RNG streams."""
        result = make_solver(
            "dense", seed=3, shots=512, num_layers=1, num_eliminated_variables=1
        ).solve(twin_problem)
        conditional: dict[int, dict[str, int]] = {0: {}, 1: {}}
        for key, count in result.outcomes.counts.items():
            suffix = key[2:]
            conditional[int(key[0])][suffix] = (
                conditional[int(key[0])].get(suffix, 0) + count
            )
        # Under the old shared-seed bug both sub-circuits drew the identical
        # stream, making these histograms equal for every seed.
        assert conditional[0] != conditional[1]

    def test_elimination_accepts_seed_sequence(self, twin_problem):
        """EngineOptions.seed may itself be a SeedSequence (as documented)."""
        solver = ChocoQSolver(
            config=ChocoQConfig(num_layers=1, num_eliminated_variables=1),
            optimizer=CobylaOptimizer(max_iterations=10),
            options=EngineOptions(shots=128, seed=np.random.SeedSequence(5)),
        )
        result = solver.solve(twin_problem)
        assert result.outcomes.shots == 128

    def test_repeated_solve_with_seed_sequence_is_reproducible(self, twin_problem):
        """solve() must not mutate a caller-owned SeedSequence between runs."""
        solver = ChocoQSolver(
            config=ChocoQConfig(num_layers=1, num_eliminated_variables=1),
            optimizer=CobylaOptimizer(max_iterations=10),
            options=EngineOptions(shots=256, seed=np.random.SeedSequence(5)),
        )
        first = solver.solve(twin_problem)
        second = solver.solve(twin_problem)
        assert first.outcomes.counts == second.outcomes.counts

    def test_elimination_reproducible_for_fixed_seed(self, twin_problem):
        first = make_solver(
            "dense", seed=5, shots=256, num_layers=1, num_eliminated_variables=1
        ).solve(twin_problem)
        second = make_solver(
            "dense", seed=5, shots=256, num_layers=1, num_eliminated_variables=1
        ).solve(twin_problem)
        assert first.outcomes.counts == second.outcomes.counts

    def test_metadata_survives_merging(self, paper_example_problem):
        result = make_solver(
            "dense", shots=600, num_layers=1, num_eliminated_variables=1
        ).solve(paper_example_problem)
        annotations = result.outcomes.metadata["eliminated_assignments"]
        assert len(annotations) == result.metadata["num_circuits"]
        assert sum(entry["shots"] for entry in annotations) == 600
        eliminated = set(result.metadata["eliminated_variables"])
        for entry in annotations:
            assert set(entry["assignment"]) == eliminated

    def test_subspace_elimination_feasible_and_annotated(self, paper_example_problem):
        result = make_solver(
            "subspace", shots=512, num_layers=2, num_eliminated_variables=1
        ).solve(paper_example_problem)
        metrics = result.metrics(paper_example_problem)
        assert metrics.in_constraints_rate == pytest.approx(1.0)
        assert result.metadata["state_backend"] == "subspace"
        assert "eliminated_assignments" in result.outcomes.metadata


class TestSpeedupBenchmarkSmoke:
    def test_benchmark_agreement_on_small_case(self):
        """Tier-1 smoke: the speedup harness runs and the backends agree."""
        from bench_subspace_speedup import AGREEMENT_TOLERANCE, run_subspace_speedup

        rows = run_subspace_speedup(cases=("F1",), repeats=2)
        assert rows[0]["max_err"] <= AGREEMENT_TOLERANCE
        assert rows[0]["|F|"] < rows[0]["2^n"]
        assert rows[0]["subspace_ms/iter"] > 0

    @pytest.mark.slow
    def test_large_case_speedup_target(self):
        """The |F| << 2^n case must clear the 5x per-iteration speedup bar."""
        from bench_subspace_speedup import (
            LARGE_CASE,
            TARGET_SPEEDUP,
            check_rows,
            run_subspace_speedup,
        )

        rows = run_subspace_speedup(cases=(LARGE_CASE,))
        check_rows(rows)
        assert rows[0]["speedup"] >= TARGET_SPEEDUP
