"""Tests for the serializable noise subsystem.

Covers the :class:`~repro.solvers.config.NoiseConfig` round-trip and
validation, the ``noise`` field threading (solver configs, ``repro.solve``,
``RunSpec``), content-hash separation of noisy and noiseless specs, the
parallel-vs-sequential bit-identity of noisy plans, the exact-shot-
conservation contract of ``NoiseModel.sample``, and the public
``append_instruction`` circuit API the trajectory cloning uses.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro
from repro.exceptions import CircuitError, SolverError
from repro.qcircuit.circuit import Instruction, QuantumCircuit
from repro.qcircuit.gates import standard_gate
from repro.qcircuit.noise import IBM_FEZ, IBM_OSAKA, NoiseModel
from repro.run import ExperimentPlan, RunSpec, run_plan
from repro.run import plan as plan_module
from repro.run.problems import register_benchmark, unregister_benchmark
from repro.solvers import (
    ChocoQConfig,
    CobylaOptimizer,
    EngineOptions,
    HEAConfig,
    NoiseConfig,
    as_noise_config,
)
from repro.solvers.variational import noise_seed_sequence

FAST_OPTIMIZER = CobylaOptimizer(max_iterations=6)


def bell_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(2)
    circuit.h(0).cx(0, 1)
    return circuit


# ---------------------------------------------------------------------------
# NoiseConfig round-trip and validation
# ---------------------------------------------------------------------------


class TestNoiseConfig:
    def test_round_trip_is_fixed_point(self):
        config = NoiseConfig(device="fez", mode="analytical", trajectories=4, readout=False)
        data = config.to_dict()
        json.dumps(data)  # must be JSON-serializable
        assert NoiseConfig.from_dict(data) == config

    def test_replace_revalidates(self):
        config = NoiseConfig(device="osaka")
        assert config.replace(trajectories=2).trajectories == 2
        with pytest.raises(SolverError, match="trajectories"):
            config.replace(trajectories=0)
        with pytest.raises(SolverError, match="unknown"):
            config.replace(typo_field=1)

    def test_unknown_device_rejected_as_config_error(self):
        with pytest.raises(SolverError, match="unknown device"):
            NoiseConfig(device="quito")

    def test_bad_mode_rejected(self):
        with pytest.raises(SolverError, match="mode"):
            NoiseConfig(device="fez", mode="exact")

    def test_rates_must_be_probabilities(self):
        with pytest.raises(SolverError, match="two_qubit_error"):
            NoiseConfig(two_qubit_error=1.5)

    def test_empty_config_rejected(self):
        with pytest.raises(SolverError, match="device profile name or"):
            NoiseConfig()

    def test_profile_resolution_overrides_device_rates(self):
        profile = NoiseConfig(device="fez", two_qubit_error=0.05).profile()
        assert profile.two_qubit_error == 0.05
        assert profile.single_qubit_error == IBM_FEZ.single_qubit_error

    def test_readout_toggle_wins_over_explicit_rate(self):
        profile = NoiseConfig(device="osaka", readout_error=0.3, readout=False).profile()
        assert profile.readout_error == 0.0

    def test_custom_profile_without_device(self):
        profile = NoiseConfig(two_qubit_error=0.01).profile()
        assert profile.name == "custom"
        assert profile.single_qubit_error == 0.0
        assert profile.two_qubit_error == 0.01

    def test_as_noise_config_spellings(self):
        from_name = as_noise_config("FEZ")
        assert from_name == NoiseConfig(device="FEZ")
        assert as_noise_config(None) is None
        config = NoiseConfig(device="fez")
        assert as_noise_config(config) is config
        assert as_noise_config(config.to_dict()) == config
        with pytest.raises(SolverError, match="noise must be"):
            as_noise_config(3)

    def test_build_model_is_seed_deterministic(self):
        config = NoiseConfig(device="osaka", trajectories=4)
        circuit = bell_circuit()
        first = config.build_model(seed=7).sample(circuit, shots=64, trajectories=4)
        second = config.build_model(seed=7).sample(circuit, shots=64, trajectories=4)
        assert first.counts == second.counts

    def test_noise_seed_sequence_is_stable_and_distinct(self):
        derived = noise_seed_sequence(11)
        again = noise_seed_sequence(11)
        assert derived.entropy == again.entropy
        assert derived.spawn_key == again.spawn_key
        # The reserved child never collides with the raw engine seed stream.
        raw = np.random.default_rng(11).integers(1 << 30, size=4)
        noisy = np.random.default_rng(noise_seed_sequence(11)).integers(1 << 30, size=4)
        assert not np.array_equal(raw, noisy)


# ---------------------------------------------------------------------------
# Threading through solver configs, EngineOptions and the facade
# ---------------------------------------------------------------------------


class TestNoiseThreading:
    def test_solver_config_coerces_device_name_and_dict(self):
        assert ChocoQConfig(noise="fez").noise == NoiseConfig(device="fez")
        assert HEAConfig(noise={"device": "osaka"}).noise == NoiseConfig(device="osaka")
        assert ChocoQConfig().noise is None

    def test_solver_config_round_trip_keeps_noise(self):
        config = ChocoQConfig(num_layers=2, noise=NoiseConfig(device="fez", trajectories=4))
        data = config.to_dict()
        json.dumps(data)
        assert data["noise"]["device"] == "fez"
        assert ChocoQConfig.from_dict(data) == config

    def test_facade_noise_runs_and_annotates_metadata(self, paper_example_problem):
        result = repro.solve(
            paper_example_problem, solver="choco-q", num_layers=1, noise="fez",
            optimizer=FAST_OPTIMIZER, options=EngineOptions(shots=64, seed=3),
        )
        assert result.outcomes.shots == 64
        assert result.exact_distribution is None
        assert result.metadata["noise"]["device"] == "fez"

    def test_facade_noise_rejected_with_solver_instance(self, paper_example_problem):
        from repro.solvers import ChocoQSolver

        solver = ChocoQSolver(config=ChocoQConfig(num_layers=1))
        with pytest.raises(SolverError, match="configure it directly"):
            repro.solve(paper_example_problem, solver=solver, noise="fez")

    def test_noisy_run_is_seed_deterministic(self, paper_example_problem):
        def run():
            return repro.solve(
                paper_example_problem, solver="penalty-qaoa", num_layers=1,
                noise={"device": "osaka", "trajectories": 2},
                optimizer=FAST_OPTIMIZER, options=EngineOptions(shots=64, seed=9),
            )

        assert run().outcomes.counts == run().outcomes.counts

    def test_analytical_mode_runs_deterministically(self, paper_example_problem):
        noise = NoiseConfig(device="osaka", mode="analytical")

        def run():
            # 2 RY layers of 4 qubits: COBYLA's minimum budget is 8 + 2.
            return repro.solve(
                paper_example_problem, solver="hea", num_layers=1, noise=noise,
                optimizer=CobylaOptimizer(max_iterations=10),
                options=EngineOptions(shots=128, seed=5),
            )

        first, second = run(), run()
        assert first.outcomes.shots == 128
        assert first.outcomes.counts == second.outcomes.counts
        assert first.metadata["noise"]["mode"] == "analytical"

    def test_elimination_pipeline_conserves_shots_under_noise(self, paper_example_problem):
        result = repro.solve(
            paper_example_problem, solver="choco-q",
            config={"num_layers": 1, "num_eliminated_variables": 1},
            noise={"device": "fez", "trajectories": 2},
            optimizer=FAST_OPTIMIZER, options=EngineOptions(shots=33, seed=2),
        )
        assert result.outcomes.shots == 33
        # The merged elimination result carries the same annotation every
        # single-instance noisy run does.
        assert result.metadata["noise"]["device"] == "fez"

    def test_over_wide_noisy_target_refused_before_optimizing(self, monkeypatch):
        from repro.problems.k_partition import k_partition_problem, random_k_partition
        from repro.solvers.optimizer import Optimizer

        calls = []
        monkeypatch.setattr(Optimizer, "minimize", lambda *args: calls.append(args))
        # 24 variables fit the subspace layout; the transpiled circuit's two
        # ancillas take the noisy target to 26 qubits.
        problem = k_partition_problem(random_k_partition(12, 14, seed=0))
        assert problem.num_variables == 24
        with pytest.raises(SolverError, match="26-qubit transpiled circuit"):
            repro.solve(problem, solver="choco-q", backend="subspace", noise="fez")
        assert calls == []


# ---------------------------------------------------------------------------
# RunSpec and the batch runner
# ---------------------------------------------------------------------------


def tiny_problem():
    from repro.core.problem import ConstrainedBinaryProblem, LinearConstraint, Objective

    return ConstrainedBinaryProblem(
        num_variables=3,
        objective=Objective.from_linear([2.0, 1.0, 3.0]),
        constraints=[LinearConstraint((1.0, 1.0, 1.0), 1.0)],
        sense="min",
        name="tiny-noise-bench",
    )


@pytest.fixture
def tiny_benchmark():
    register_benchmark("tiny-noise-bench", tiny_problem, replace=True)
    yield "tiny-noise-bench"
    unregister_benchmark("tiny-noise-bench")


def noisy_plan(benchmark: str) -> ExperimentPlan:
    return ExperimentPlan.grid(
        solvers=("choco-q", "penalty-qaoa"),
        benchmarks=[benchmark],
        seeds=(0, 1),
        configs={name: {"num_layers": 1} for name in ("choco-q", "penalty-qaoa")},
        shots=64,
        max_iterations=6,
        noise={"device": "fez", "trajectories": 4},
        name="tiny-noisy-grid",
    )


class TestNoisyRunSpecs:
    def test_noise_separates_content_hash(self):
        ideal = RunSpec(solver="hea", benchmark="F1", seed=1)
        noisy = RunSpec(solver="hea", benchmark="F1", seed=1, noise={"device": "fez"})
        assert ideal.content_hash() != noisy.content_hash()
        # Distinct scenarios hash apart too.
        other = RunSpec(solver="hea", benchmark="F1", seed=1, noise={"device": "osaka"})
        assert noisy.content_hash() != other.content_hash()

    def test_noiseless_hash_unchanged_by_noise_field_introduction(self):
        # The pre-noise payload must hash identically, so JSONL caches written
        # before the field existed stay valid.  The same convention covers
        # every later optional field (optimization_level): None is dropped.
        spec = RunSpec(solver="hea", benchmark="F1", seed=1)
        payload = {
            key: value
            for key, value in spec.to_dict().items()
            if key in plan_module.HASHED_FIELDS
            and key not in ("noise", "optimization_level")
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        import hashlib

        assert spec.content_hash() == hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def test_equivalent_noise_spellings_hash_identically(self):
        # Partial dict, mixed-case device name, and full canonical dict are
        # one scenario — one spec, one content hash, one cache entry.
        partial = RunSpec(solver="hea", benchmark="F1", seed=1, noise={"device": "Fez"})
        named = RunSpec(solver="hea", benchmark="F1", seed=1, noise="fez")
        full = RunSpec(
            solver="hea", benchmark="F1", seed=1, noise=NoiseConfig(device="fez").to_dict()
        )
        assert partial == named == full
        assert partial.content_hash() == named.content_hash() == full.content_hash()

    def test_noise_inside_config_is_rejected(self):
        # A config-level noise key would run the same computation as the
        # noise field under a different content hash (the store caches it
        # twice), and beside the field it would be silently overridden.
        with pytest.raises(SolverError, match="'noise' field"):
            RunSpec(solver="hea", benchmark="F1", seed=1, config={"noise": "fez"})
        with pytest.raises(SolverError, match="'noise' field"):
            RunSpec(
                solver="hea", benchmark="F1", seed=1,
                config={"num_layers": 1, "noise": "osaka"}, noise="fez",
            )
        with pytest.raises(SolverError, match="'noise' field"):
            RunSpec.from_dict({"solver": "hea", "benchmark": "F1", "config": {"noise": None}})

    def test_noisy_spec_round_trips(self):
        spec = RunSpec(
            solver="choco-q", benchmark="F1", config={"num_layers": 1},
            seed=3, shots=128, noise={"device": "fez", "trajectories": 8},
        )
        data = spec.to_dict()
        json.dumps(data)
        assert RunSpec.from_dict(data) == spec

    def test_grid_noise_validates_and_stamps_every_spec(self, tiny_benchmark):
        plan = noisy_plan(tiny_benchmark)
        assert all(spec.noise["device"] == "fez" for spec in plan.specs)
        with pytest.raises(SolverError, match="unknown device"):
            ExperimentPlan.grid(["hea"], [tiny_benchmark], noise="quito")

    def test_noisy_parallel_matches_sequential_bit_for_bit(self, tiny_benchmark):
        plan = noisy_plan(tiny_benchmark)
        sequential = run_plan(plan)
        parallel = run_plan(plan, max_workers=2)
        assert [r.to_dict() for r in sequential] == [r.to_dict() for r in parallel]

    def test_cached_noisy_plan_executes_zero_specs(self, tiny_benchmark, tmp_path, monkeypatch):
        plan = noisy_plan(tiny_benchmark)
        path = tmp_path / "noisy.jsonl"
        first = run_plan(plan, jsonl_path=path)
        assert all(not record.cached for record in first)

        def forbidden(spec):  # pragma: no cover - failing is the assertion
            raise AssertionError(f"cached noisy spec was re-executed: {spec}")

        monkeypatch.setattr(plan_module, "execute_spec", forbidden)
        second = run_plan(plan, jsonl_path=path)
        assert all(record.cached for record in second)
        assert [r.to_dict() for r in first] == [r.to_dict() for r in second]

    def test_noisy_record_solver_result_reconstruction(self, tiny_benchmark):
        plan = ExperimentPlan(
            specs=[RunSpec(
                solver="choco-q", benchmark=tiny_benchmark,
                config={"num_layers": 1}, seed=0, shots=64, max_iterations=6,
                noise={"device": "fez", "trajectories": 2},
            )]
        )
        record = run_plan(plan)[0]
        result = record.solver_result()
        assert result.outcomes.shots == 64
        assert result.metadata["noise"]["device"] == "fez"


# ---------------------------------------------------------------------------
# Shot conservation and the circuit cloning API
# ---------------------------------------------------------------------------


class TestShotConservation:
    @pytest.mark.parametrize("shots", [1, 2, 5, 15, 16, 17, 100, 1000])
    def test_sample_delivers_exactly_n_shots(self, shots):
        # Regression: 1000 shots / 16 trajectories used to deliver 992.
        model = NoiseModel(IBM_FEZ, seed=11)
        result = model.sample(bell_circuit(), shots=shots, trajectories=16)
        assert result.shots == shots
        assert sum(result.counts.values()) == shots

    def test_remainder_spread_over_leading_trajectories(self):
        model = NoiseModel(IBM_OSAKA, seed=5)
        result = model.sample(bell_circuit(), shots=10, trajectories=3)
        assert result.shots == 10

    def test_invalid_trajectories_rejected(self):
        from repro.exceptions import NoiseModelError

        with pytest.raises(NoiseModelError, match="trajectories"):
            NoiseModel(IBM_FEZ).sample(bell_circuit(), shots=8, trajectories=0)

    def test_analytical_sampling_conserves_shots(self):
        model = NoiseModel(IBM_OSAKA, seed=3)
        result = model.sample_analytical(bell_circuit(), shots=257)
        assert result.shots == 257
        assert all(len(key) == 2 for key in result.counts)


class TestAppendInstruction:
    def test_appends_gates_and_directives(self):
        source = QuantumCircuit(2)
        source.h(0).cx(0, 1).barrier().measure_all()
        clone = QuantumCircuit(2)
        for instruction in source:
            clone.append_instruction(instruction)
        assert [inst.name for inst in clone] == [inst.name for inst in source]
        gate = Instruction(standard_gate("x"), (0,))
        assert QuantumCircuit(1).append_instruction(gate).size() == 1

    def test_validates_register_bounds(self):
        big = QuantumCircuit(3)
        big.x(2)
        small = QuantumCircuit(2)
        with pytest.raises(CircuitError, match="out of range"):
            small.append_instruction(big[0])

    def test_extend_carries_directives(self):
        source = QuantumCircuit(2)
        source.h(0).barrier()
        target = QuantumCircuit(2)
        target.extend(source)
        assert [inst.name for inst in target] == ["h", "barrier"]
