"""Tests for the unified experiment API (repro.run + repro.solve).

Covers the solver registry, the facade, config and SolverResult
serialization round-trips, the batch runner's parallel determinism and
JSONL resume behaviour, and the multistart initial-parameter picker.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

import repro
from repro.core.problem import ConstrainedBinaryProblem, LinearConstraint, Objective
from repro.exceptions import PlanExecutionError, ProblemError, SolverError
from repro.run import (
    ExperimentPlan,
    RunRecord,
    RunSpec,
    available_benchmarks,
    available_solvers,
    get_solver_entry,
    make_solver,
    register_benchmark,
    register_solver,
    resolve_benchmark,
    run_plan,
    unregister_benchmark,
    unregister_solver,
)
from repro.run import plan as plan_module
from repro.solvers import (
    ChocoQConfig,
    ChocoQSolver,
    CobylaOptimizer,
    CyclicQAOAConfig,
    EngineOptions,
    HEAConfig,
    PenaltyQAOAConfig,
    SolverResult,
)

LINEUP = ("choco-q", "penalty-qaoa", "cyclic-qaoa", "hea")

FAST_OPTIMIZER = CobylaOptimizer(max_iterations=8)
#: HEA at one layer on the 4-variable paper example has 2 x 4 RY angles, and
#: COBYLA needs at least num_parameters + 2 evaluations.
HEA_FAST_OPTIMIZER = CobylaOptimizer(max_iterations=10)
FAST_OPTIONS = EngineOptions(shots=64, seed=7)


def tiny_problem() -> ConstrainedBinaryProblem:
    """3-variable one-hot instance, cheap enough for 12-spec grids."""
    return ConstrainedBinaryProblem(
        num_variables=3,
        objective=Objective.from_linear([2.0, 1.0, 3.0]),
        constraints=[LinearConstraint((1.0, 1.0, 1.0), 1.0)],
        sense="min",
        name="tiny-one-hot",
    )


@pytest.fixture
def tiny_benchmark():
    register_benchmark("tiny-one-hot", tiny_problem, replace=True)
    yield "tiny-one-hot"
    unregister_benchmark("tiny-one-hot")


def tiny_plan(benchmark: str, seeds=(0, 1, 2)) -> ExperimentPlan:
    """4 solvers x 3 seeds = 12 specs at throwaway scale.

    HEA's 2 x 3 RY angles need COBYLA's minimum budget of 6 + 2.
    """
    plan = ExperimentPlan.grid(
        solvers=LINEUP,
        benchmarks=[benchmark],
        seeds=seeds,
        configs={name: {"num_layers": 1} for name in LINEUP},
        shots=64,
        max_iterations=6,
        name="tiny-grid",
    )
    plan.specs = [
        replace(spec, max_iterations=8) if spec.solver == "hea" else spec
        for spec in plan.specs
    ]
    return plan


def deterministic_metrics(record: RunRecord) -> dict:
    """Record metrics minus the one wall-clock-dependent entry."""
    return {key: value for key, value in record.metrics.items() if key != "latency_s"}


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_all_four_solvers_registered(self):
        assert set(LINEUP) <= set(available_solvers())

    def test_unknown_solver_lists_available(self):
        with pytest.raises(SolverError, match="available"):
            get_solver_entry("no-such-solver")

    def test_duplicate_registration_rejected(self):
        entry = get_solver_entry("hea")
        with pytest.raises(SolverError, match="already registered"):
            register_solver("hea", entry.solver_cls, entry.config_cls)

    def test_register_and_replace_custom_solver(self):
        entry = get_solver_entry("choco-q")
        try:
            register_solver("custom-test", entry.solver_cls, entry.config_cls)
            assert "custom-test" in available_solvers()
            register_solver("custom-test", entry.solver_cls, entry.config_cls, replace=True)
        finally:
            unregister_solver("custom-test")
        assert "custom-test" not in available_solvers()

    def test_make_solver_merges_config_and_overrides(self):
        solver = make_solver(
            "choco-q", ChocoQConfig(num_layers=2), num_eliminated_variables=1
        )
        assert isinstance(solver, ChocoQSolver)
        assert solver.config.num_layers == 2
        assert solver.config.num_eliminated_variables == 1

    def test_make_solver_rejects_wrong_config_class(self):
        with pytest.raises(SolverError, match="expects"):
            make_solver("choco-q", HEAConfig())

    def test_make_solver_accepts_optimizer_name(self):
        solver = make_solver("hea", optimizer="spsa")
        assert solver.optimizer.name == "spsa"


# ---------------------------------------------------------------------------
# Benchmark-name resolution
# ---------------------------------------------------------------------------


class TestBenchmarkRegistry:
    def test_scales_always_available(self):
        names = available_benchmarks()
        assert "F1" in names and "K4" in names

    def test_registered_problem_resolves(self, tiny_benchmark):
        problem = resolve_benchmark(tiny_benchmark)
        assert problem.num_variables == 3
        assert tiny_benchmark in available_benchmarks()

    def test_cannot_shadow_builtin_scale(self):
        with pytest.raises(ProblemError, match="shadows"):
            register_benchmark("f1", tiny_problem)

    def test_scale_resolution_matches_make_benchmark(self):
        assert resolve_benchmark("F1").name == repro.make_benchmark("F1").name


# ---------------------------------------------------------------------------
# Facade
# ---------------------------------------------------------------------------


class TestSolveFacade:
    @pytest.mark.parametrize("name", LINEUP)
    def test_every_registered_solver_runs(self, name, paper_example_problem):
        result = repro.solve(
            paper_example_problem,
            solver=name,
            num_layers=1,
            optimizer=HEA_FAST_OPTIMIZER if name == "hea" else FAST_OPTIMIZER,
            options=FAST_OPTIONS,
        )
        assert result.solver_name == name
        assert result.outcomes.shots == 64
        assert result.metadata["num_layers"] == 1

    def test_benchmark_name_as_problem(self):
        result = repro.solve(
            "F1", solver="choco-q", num_layers=1,
            optimizer=FAST_OPTIMIZER, options=FAST_OPTIONS,
        )
        assert result.problem_name == repro.make_benchmark("F1").name

    def test_solver_instance_passthrough(self, paper_example_problem):
        solver = ChocoQSolver(
            config=ChocoQConfig(num_layers=1),
            optimizer=FAST_OPTIMIZER,
            options=FAST_OPTIONS,
        )
        result = repro.solve(paper_example_problem, solver=solver)
        assert result.solver_name == "choco-q"

    def test_solver_instance_rejects_extra_configuration(self, paper_example_problem):
        solver = ChocoQSolver(config=ChocoQConfig(num_layers=1))
        with pytest.raises(SolverError, match="configure it directly"):
            repro.solve(paper_example_problem, solver=solver, num_layers=2)

    def test_config_dict_accepted(self, paper_example_problem):
        result = repro.solve(
            paper_example_problem,
            solver="choco-q",
            config={"num_layers": 2},
            optimizer=FAST_OPTIMIZER,
            options=FAST_OPTIONS,
        )
        assert result.metadata["num_layers"] == 2

    def test_unknown_override_rejected(self, paper_example_problem):
        with pytest.raises(SolverError, match="unknown"):
            repro.solve(paper_example_problem, solver="hea", bogus_field=1)


# ---------------------------------------------------------------------------
# Config serialization
# ---------------------------------------------------------------------------


class TestConfigRoundTrip:
    @pytest.mark.parametrize("name", LINEUP)
    def test_default_config_round_trips(self, name):
        config_cls = get_solver_entry(name).config_cls
        config = config_cls()
        data = config.to_dict()
        json.dumps(data)  # must be JSON-serializable
        assert config_cls.from_dict(data) == config

    def test_non_default_round_trip(self):
        config = ChocoQConfig(num_layers=2, backend="subspace", subspace_limit=64)
        assert ChocoQConfig.from_dict(config.to_dict()) == config

    def test_unknown_key_rejected(self):
        with pytest.raises(SolverError, match="unknown"):
            PenaltyQAOAConfig.from_dict({"num_layers": 2, "typo_field": 1})

    def test_replace_validates(self):
        with pytest.raises(SolverError, match="unknown"):
            HEAConfig().replace(typo_field=1)

    @pytest.mark.parametrize(
        "config_cls",
        [ChocoQConfig, PenaltyQAOAConfig, CyclicQAOAConfig, HEAConfig],
    )
    def test_shared_layer_validation(self, config_cls):
        with pytest.raises(SolverError, match="num_layers"):
            config_cls(num_layers=0)

    def test_shared_backend_validation(self):
        with pytest.raises(SolverError, match="backend"):
            CyclicQAOAConfig(backend="sparse")
        with pytest.raises(SolverError, match="subspace_limit"):
            ChocoQConfig(backend="subspace", subspace_limit=0)

    @pytest.mark.parametrize("bad", [3, {"num_layers": 3}])
    def test_positional_non_config_fails_fast(self, bad):
        # The pre-redesign signature took num_layers positionally; an int or
        # dict sliding into the config slot must fail at construction, not
        # deep inside solve().
        with pytest.raises(SolverError, match="config must be"):
            ChocoQSolver(bad)


# ---------------------------------------------------------------------------
# SolverResult serialization
# ---------------------------------------------------------------------------


class TestSolverResultRoundTrip:
    @pytest.mark.parametrize("name", LINEUP)
    def test_round_trip_is_dict_fixed_point(self, name, paper_example_problem):
        result = repro.solve(
            paper_example_problem, solver=name, num_layers=1,
            optimizer=HEA_FAST_OPTIMIZER if name == "hea" else FAST_OPTIMIZER,
            options=FAST_OPTIONS,
        )
        data = result.to_dict()
        json.dumps(data)
        restored = SolverResult.from_dict(data)
        assert restored.to_dict() == data

    def test_restored_result_reproduces_metrics(self, paper_example_problem):
        result = repro.solve(
            paper_example_problem, solver="choco-q", num_layers=1,
            optimizer=FAST_OPTIMIZER, options=FAST_OPTIONS,
        )
        restored = SolverResult.from_dict(result.to_dict())
        original = result.metrics(paper_example_problem)
        rebuilt = restored.metrics(paper_example_problem)
        assert rebuilt == original

    def test_elimination_result_round_trips(self, paper_example_problem):
        result = repro.solve(
            paper_example_problem, solver="choco-q",
            config={"num_layers": 1, "num_eliminated_variables": 1},
            optimizer=FAST_OPTIMIZER, options=FAST_OPTIONS,
        )
        data = result.to_dict()
        json.dumps(data)
        assert SolverResult.from_dict(data).to_dict() == data

    def test_trace_and_parameters_survive(self, paper_example_problem):
        result = repro.solve(
            paper_example_problem, solver="choco-q", num_layers=1,
            optimizer=FAST_OPTIMIZER, options=FAST_OPTIONS,
        )
        restored = SolverResult.from_dict(result.to_dict())
        assert restored.trace.costs == result.trace.costs
        np.testing.assert_array_equal(
            restored.optimal_parameters, result.optimal_parameters
        )


# ---------------------------------------------------------------------------
# Batch runner
# ---------------------------------------------------------------------------


class TestRunPlan:
    def test_grid_builds_full_product(self, tiny_benchmark):
        plan = tiny_plan(tiny_benchmark)
        assert len(plan) == 12
        assert len({spec.content_hash() for spec in plan.specs}) == 12

    def test_parallel_matches_sequential_bit_for_bit(self, tiny_benchmark):
        plan = tiny_plan(tiny_benchmark)
        sequential = run_plan(plan)
        parallel = run_plan(plan, max_workers=2)
        assert len(sequential) == len(parallel) == 12
        assert [deterministic_metrics(r) for r in sequential] == [
            deterministic_metrics(r) for r in parallel
        ]

    def test_derived_seeds_are_deterministic_and_distinct(self, tiny_benchmark):
        plan = tiny_plan(tiny_benchmark, seeds=(None, None))
        first = plan.resolved_specs()
        second = plan.resolved_specs()
        assert [s.seed for s in first] == [s.seed for s in second]
        assert all(s.seed is not None for s in first)
        # Same solver at different grid positions draws different seeds.
        assert first[0].seed != first[1].seed

    @pytest.mark.parametrize("base_seed", [0, 7, 2**40])
    def test_derived_seeds_are_spawn_children_of_the_base_seed(self, base_seed):
        # Child i of the base seed, collapsed to one integer: stored plans and
        # JSONL caches keep their seeds (and so their content hashes).
        specs = [RunSpec(solver="hea", benchmark="F1") for _ in range(3)]
        plan = ExperimentPlan(specs=specs, base_seed=base_seed)
        expected = [
            int(
                np.random.SeedSequence(entropy=base_seed, spawn_key=(index,))
                .generate_state(1, np.uint64)[0]
            )
            for index in range(3)
        ]
        assert [spec.seed for spec in plan.resolved_specs()] == expected

    def test_resume_returns_cached_records(self, tiny_benchmark, tmp_path):
        plan = tiny_plan(tiny_benchmark)
        path = tmp_path / "plan.jsonl"
        first = run_plan(plan, jsonl_path=path)
        assert all(not record.cached for record in first)
        second = run_plan(plan, jsonl_path=path)
        assert all(record.cached for record in second)
        assert [deterministic_metrics(r) for r in first] == [
            deterministic_metrics(r) for r in second
        ]

    def test_resume_does_not_reexecute_cached_specs(
        self, tiny_benchmark, tmp_path, monkeypatch
    ):
        plan = tiny_plan(tiny_benchmark)
        path = tmp_path / "plan.jsonl"
        run_plan(plan, jsonl_path=path)

        def forbidden(spec):  # pragma: no cover - failing is the assertion
            raise AssertionError(f"cached spec was re-executed: {spec}")

        monkeypatch.setattr(plan_module, "execute_spec", forbidden)
        records = run_plan(plan, jsonl_path=path)
        assert len(records) == 12

    def test_partial_resume_runs_only_missing_specs(
        self, tiny_benchmark, tmp_path, monkeypatch
    ):
        plan = tiny_plan(tiny_benchmark)
        path = tmp_path / "plan.jsonl"
        run_plan(plan, jsonl_path=path)
        # Keep only the first 5 completed lines: 7 specs become pending again.
        lines = path.read_text().splitlines()[:5]
        path.write_text("\n".join(lines) + "\n")

        executed = []
        real_execute = plan_module.execute_spec

        def counting(spec):
            executed.append(spec.content_hash())
            return real_execute(spec)

        monkeypatch.setattr(plan_module, "execute_spec", counting)
        records = run_plan(plan, jsonl_path=path)
        assert len(executed) == 7
        assert sum(1 for record in records if record.cached) == 5

    def test_resume_false_ignores_cache(self, tiny_benchmark, tmp_path):
        plan = tiny_plan(tiny_benchmark)
        path = tmp_path / "plan.jsonl"
        run_plan(plan, jsonl_path=path)
        records = run_plan(plan, jsonl_path=path, resume=False)
        assert all(not record.cached for record in records)

    def test_spec_round_trip_and_label_excluded_from_hash(self):
        spec = RunSpec(
            solver="hea", benchmark="F1", config={"num_layers": 2},
            seed=3, shots=128, label="hea@F1",
        )
        assert RunSpec.from_dict(spec.to_dict()) == spec
        relabelled = RunSpec.from_dict({**spec.to_dict(), "label": "other"})
        assert relabelled.content_hash() == spec.content_hash()
        reseeded = RunSpec.from_dict({**spec.to_dict(), "seed": 4})
        assert reseeded.content_hash() != spec.content_hash()

    def test_solver_name_case_is_one_spec(self):
        # The registry resolves "Choco-Q" and "choco-q" to one solver, so they
        # are one spec: one content hash and one service solve group, and a
        # lowercase spec keeps the hash it had before names were lowercased.
        from repro.service import solve_group_key

        mixed = RunSpec(solver="Choco-Q", benchmark="F1")
        lower = RunSpec(solver="choco-q", benchmark="F1")
        assert mixed == lower
        assert mixed.solver == "choco-q"
        assert mixed.content_hash() == lower.content_hash() == "296ea93ba583e367"
        assert solve_group_key(mixed) == solve_group_key(lower)
        assert RunSpec.from_dict(mixed.to_dict()) == lower

    def test_parallel_failure_preserves_completed_records(self, tmp_path):
        def broken():
            raise ProblemError("deliberately broken benchmark")

        register_benchmark("tiny-one-hot", tiny_problem, replace=True)
        register_benchmark("broken-bench", broken, replace=True)
        try:
            specs = [
                RunSpec(solver="choco-q", benchmark="tiny-one-hot",
                        config={"num_layers": 1}, seed=seed, shots=64, max_iterations=6)
                for seed in range(4)
            ]
            specs.insert(1, RunSpec(solver="choco-q", benchmark="broken-bench", seed=0))
            path = tmp_path / "plan.jsonl"
            with pytest.raises(PlanExecutionError, match="deliberately broken") as excinfo:
                run_plan(ExperimentPlan(specs=specs), max_workers=2, jsonl_path=path)
            # The raised error names the failed spec (display name + hash)
            # and chains the original exception.
            broken_spec = specs[1]
            assert "choco-q@broken-bench" in str(excinfo.value)
            assert excinfo.value.failures == [
                {
                    "display_name": broken_spec.display_name(),
                    "spec_hash": broken_spec.content_hash(),
                    "error": "deliberately broken benchmark",
                }
            ]
            # Every healthy spec still reached the JSONL sink before the
            # failure was re-raised — that is the crash-safety contract.
            assert len(plan_module.load_records(path)) == 4
        finally:
            unregister_benchmark("tiny-one-hot")
            unregister_benchmark("broken-bench")

    def test_benchmark_optimum_cache_invalidated_on_reregister(self):
        from repro.run.problems import benchmark_optimum

        register_benchmark("cache-probe", tiny_problem, replace=True)
        try:
            first = benchmark_optimum("cache-probe")
            register_benchmark(
                "cache-probe",
                lambda: ConstrainedBinaryProblem(
                    num_variables=2,
                    objective=Objective.from_linear([5.0, 9.0]),
                    constraints=[LinearConstraint((1.0, 1.0), 1.0)],
                    sense="min",
                    name="cache-probe-2",
                ),
                replace=True,
            )
            second = benchmark_optimum("cache-probe")
            assert first != second
        finally:
            unregister_benchmark("cache-probe")

    def test_record_solver_result_reconstruction(self, tiny_benchmark):
        plan = ExperimentPlan(
            specs=[RunSpec(solver="choco-q", benchmark=tiny_benchmark,
                           config={"num_layers": 1}, seed=0, shots=64,
                           max_iterations=6)]
        )
        record = run_plan(plan)[0]
        result = record.solver_result()
        assert isinstance(result, SolverResult)
        assert result.solver_name == "choco-q"
        assert result.outcomes.shots == 64


# ---------------------------------------------------------------------------
# Multistart initial-parameter picker
# ---------------------------------------------------------------------------


class TestMultistart:
    def test_multistart_metadata_and_determinism(self, paper_example_problem):
        def run():
            return repro.solve(
                paper_example_problem, solver="choco-q", num_layers=1,
                optimizer=CobylaOptimizer(max_iterations=8),
                options=EngineOptions(shots=64, seed=11, multistart=4),
            )

        first, second = run(), run()
        assert first.metadata["multistart"] == 4
        assert len(first.metadata["multistart_scores"]) == 4
        assert first.metadata["multistart_scores"] == second.metadata["multistart_scores"]
        assert first.metadata["final_cost"] == second.metadata["final_cost"]
        np.testing.assert_array_equal(first.optimal_parameters, second.optimal_parameters)

    def test_multistart_never_starts_worse_than_default(self, paper_example_problem):
        result = repro.solve(
            paper_example_problem, solver="cyclic-qaoa", num_layers=1,
            optimizer=CobylaOptimizer(max_iterations=8),
            options=EngineOptions(shots=64, seed=11, multistart=6),
        )
        scores = result.metadata["multistart_scores"]
        best = result.metadata["multistart_best_index"]
        # Candidate 0 is the ansatz default; the picked basin can only improve.
        assert scores[best] == min(scores)
        assert scores[best] <= scores[0]

    def test_multistart_disabled_leaves_metadata_clean(self, paper_example_problem):
        result = repro.solve(
            paper_example_problem, solver="choco-q", num_layers=1,
            optimizer=FAST_OPTIMIZER, options=FAST_OPTIONS,
        )
        assert "multistart" not in result.metadata

    def test_multistart_validation(self):
        with pytest.raises(SolverError, match="multistart"):
            EngineOptions(multistart=0)

    def test_multistart_through_run_spec(self, tiny_benchmark):
        plan = ExperimentPlan(
            specs=[RunSpec(solver="choco-q", benchmark=tiny_benchmark,
                           config={"num_layers": 1}, seed=0, shots=64,
                           max_iterations=6, multistart=3)]
        )
        record = run_plan(plan)[0]
        assert record.solver_result().metadata["multistart"] == 3


class TestShotsValidation:
    @pytest.mark.parametrize("shots", [-3, 2.5, 64.0, True, "64", None])
    def test_engine_options_reject_bad_shots(self, shots):
        with pytest.raises(SolverError, match="shots"):
            EngineOptions(shots=shots)

    @pytest.mark.parametrize("shots", [0, 1, np.int64(64)])
    def test_engine_options_accept_non_negative_integers(self, shots):
        # 0 stays valid: elimination sub-instances whose share of the shot
        # budget rounds to nothing run with it.
        assert EngineOptions(shots=shots).shots == shots

    @pytest.mark.parametrize("shots", [-3, 2.5])
    def test_execute_spec_rejects_bad_shots(self, tiny_benchmark, shots):
        spec = RunSpec(
            solver="choco-q", benchmark=tiny_benchmark, config={"num_layers": 1},
            seed=0, shots=shots, max_iterations=2,
        )
        with pytest.raises(SolverError, match="shots"):
            plan_module.execute_spec(spec)


class TestIntegerRunFieldValidation:
    """Integer run fields reject non-integers, bools and negatives where consumed."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", 1.5), ("seed", -3), ("seed", True), ("seed", "3"),
            ("multistart", 2.5), ("multistart", True),
            ("optimization_level", 1.5), ("optimization_level", -1),
            ("optimization_level", True),
        ],
    )
    def test_engine_options_reject_bad_values(self, field, value):
        with pytest.raises(SolverError, match=field):
            EngineOptions(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", None), ("seed", 0), ("seed", np.int64(7)),
            ("seed", np.random.SeedSequence(3)), ("multistart", np.int64(2)),
            ("optimization_level", None), ("optimization_level", np.int64(0)),
        ],
    )
    def test_engine_options_accept_integers(self, field, value):
        assert getattr(EngineOptions(**{field: value}), field) is value

    @pytest.mark.parametrize("value", [2.5, True])
    def test_optimizer_rejects_bad_max_iterations(self, value):
        with pytest.raises(SolverError, match="max_iterations"):
            CobylaOptimizer(max_iterations=value)

    @pytest.mark.parametrize("value", [1.5, -1, True])
    def test_make_benchmark_rejects_bad_case_index(self, value):
        with pytest.raises(ProblemError, match="case_index"):
            repro.make_benchmark("K1", value)

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("seed", 1.5, SolverError), ("seed", -3, SolverError),
            ("multistart", 2.5, SolverError), ("optimization_level", 1.5, SolverError),
            ("max_iterations", 2.5, SolverError), ("case_index", 1.5, ProblemError),
        ],
    )
    def test_execute_spec_rejects_bad_values(self, field, value, error):
        fields = {"seed": 0, "shots": 64, "max_iterations": 2, field: value}
        spec = RunSpec(solver="choco-q", benchmark="K1", config={"num_layers": 1}, **fields)
        with pytest.raises(error, match=field):
            plan_module.execute_spec(spec)
