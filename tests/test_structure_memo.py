"""The process-wide structure memo (:mod:`repro.solvers.structure`).

Every test starts from an empty memo (the autouse fixture in conftest.py).
The memo must be invisible in results: a warm solve equals a cold one, no
two structures share an entry, and nothing a caller does to a returned spec
reaches a later solve.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.core.problem import ConstrainedBinaryProblem, LinearConstraint, Objective
from repro.memo import LruMemo
from repro.problems import make_benchmark
from repro.run.plan import RunSpec, execute_spec
from repro.run.registry import make_solver
from repro.solvers.chocoq import ChocoQConfig, ChocoQSolver
from repro.solvers.config import NoiseConfig
from repro.solvers.cyclic_qaoa import CyclicQAOAConfig, CyclicQAOASolver
from repro.solvers.structure import (
    MEMO_CAPACITY,
    clear_structure_cache,
    problem_digest,
    structure_cache_info,
)

def _problem(
    objective=(3.0, 2.0, 3.0, 1.0),
    rows=((1.0, 0.0, -1.0, 0.0), (1.0, 1.0, 0.0, 1.0)),
    rhs=(0.0, 1.0),
    sense="max",
    name="memo-probe",
) -> ConstrainedBinaryProblem:
    """The paper's Fig. 2(a) example, one field at a time adjustable."""
    return ConstrainedBinaryProblem(
        num_variables=4,
        objective=Objective.from_linear(list(objective)),
        constraints=[LinearConstraint(row, value) for row, value in zip(rows, rhs)],
        sense=sense,
        name=name,
    )


def _run_spec(solver: str, backend: str, seed: int, case: str = "K1") -> RunSpec:
    return RunSpec(solver=solver, benchmark=case, config={"num_layers": 2, "backend": backend},
                   seed=seed, shots=256, max_iterations=12)


class TestKey:
    @pytest.mark.parametrize(
        "variant",
        [
            {"objective": (3.0, 2.0, 3.0, 1.5)},
            {"rows": ((1.0, 0.0, -1.0, 0.0), (1.0, 1.0, 1.0, 1.0))},
            {"rhs": (0.0, 2.0)},
            {"sense": "min"},
        ],
        ids=["objective", "coefficient", "rhs", "sense"],
    )
    def test_problems_differing_in_one_field_never_share_an_entry(self, variant):
        base, other = _problem(), _problem(**variant)
        assert problem_digest(base) != problem_digest(other)
        solver = ChocoQSolver(config=ChocoQConfig(num_layers=1))
        solver.build_spec(base)
        solver.build_spec(other)
        assert structure_cache_info() == (0, 2, 2)

    def test_name_is_not_part_of_the_structure(self):
        solver = ChocoQSolver(config=ChocoQConfig(num_layers=1))
        solver.build_spec(_problem(name="a"))
        solver.build_spec(_problem(name="b"))
        assert structure_cache_info() == (1, 1, 1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_layers", 2),
            ("nullspace_mode", "full"),
            ("max_support", 3),
            ("use_equivalent_decomposition", False),
            ("backend", "subspace"),
            ("subspace_limit", 64),
        ],
    )
    def test_configs_differing_in_one_field_never_share_an_entry(self, field, value):
        problem = _problem()
        base = ChocoQConfig(num_layers=1)
        ChocoQSolver(config=base).build_spec(problem)
        ChocoQSolver(config=base.replace(**{field: value})).build_spec(problem)
        assert structure_cache_info() == (0, 2, 2)

    def test_configs_differing_only_in_noise_share_one_entry(self):
        problem = _problem()
        base = ChocoQConfig(num_layers=1)
        ChocoQSolver(config=base).build_spec(problem)
        for device in ("fez", "osaka", "sherbrooke"):
            ChocoQSolver(config=base.replace(noise=NoiseConfig(device=device))).build_spec(problem)
        assert structure_cache_info() == (3, 1, 1)

    def test_a_numpy_scalar_config_field_is_keyed_not_rejected(self):
        problem = _problem()
        ChocoQSolver(config=ChocoQConfig(num_layers=np.int64(2))).build_spec(problem)
        ChocoQSolver(config=ChocoQConfig(num_layers=2)).build_spec(problem)
        assert structure_cache_info() == (0, 2, 2)

    def test_solver_classes_never_share_an_entry(self):
        problem = _problem()
        ChocoQSolver(config=ChocoQConfig(num_layers=2)).build_spec(problem)
        CyclicQAOASolver(config=CyclicQAOAConfig(num_layers=2)).build_spec(problem)
        assert structure_cache_info() == (0, 2, 2)

    def test_the_seed_is_not_part_of_the_structure(self):
        execute_spec(_run_spec("choco-q", "dense", seed=1))
        execute_spec(_run_spec("choco-q", "dense", seed=2))
        assert structure_cache_info() == (1, 1, 1)


class TestBound:
    def test_the_memo_keeps_its_capacity_least_recently_used_out(self):
        solver = ChocoQSolver(config=ChocoQConfig(num_layers=1))
        problems = [_problem(objective=(float(k), 2.0, 3.0, 1.0)) for k in range(MEMO_CAPACITY + 1)]
        for problem in problems:
            solver.build_spec(problem)
        assert structure_cache_info() == (0, MEMO_CAPACITY + 1, MEMO_CAPACITY)
        solver.build_spec(problems[-1])
        assert structure_cache_info().hits == 1
        solver.build_spec(problems[0])  # evicted first
        assert structure_cache_info().misses == MEMO_CAPACITY + 2


class TestMutation:
    def test_cached_arrays_are_read_only(self):
        spec, _ = ChocoQSolver(config=ChocoQConfig(backend="subspace")).build_spec(_problem())
        arrays = (spec.initial_state, spec.cost_diagonal, spec.initial_parameters,
                  spec.backend.subspace_map.basis)
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    @pytest.mark.parametrize("solver", ["choco-q", "cyclic-qaoa"])
    def test_a_caller_mutating_a_spec_or_result_cannot_change_a_later_solve(self, solver):
        spec = _run_spec(solver, "subspace", seed=4)
        clean = execute_spec(spec).to_dict()
        clear_structure_cache()
        direct = make_solver(spec.solver, spec.config)
        problem = make_benchmark(spec.benchmark)
        built = direct.build_spec(problem)
        handed = built[0] if isinstance(built, tuple) else built
        for metadata in (direct.solve(problem).metadata, handed.metadata):
            for value in metadata.values():
                if isinstance(value, list):
                    value.append(99)
            metadata["poison"] = True
        handed.initial_parameters = np.zeros_like(handed.initial_parameters)
        assert structure_cache_info().misses == 1
        assert execute_spec(spec).to_dict() == clean


class TestThreads:
    def test_two_threads_missing_on_one_key_both_get_correct_specs(self, monkeypatch):
        problem = make_benchmark("K1")
        config = ChocoQConfig(num_layers=2, backend="subspace")
        reference, _ = ChocoQSolver(config=config).build_spec(problem)
        parameters = np.array([0.3, 0.7, 0.2, 0.9])
        expected = reference.evolve(parameters).tobytes()
        clear_structure_cache()

        # Both threads must be inside the build at once, so both missed.
        barrier = threading.Barrier(2, timeout=30)
        compile_spec = ChocoQSolver.__dict__["_compile_spec"].__func__

        def rendezvous(cls, *args):
            barrier.wait()
            return compile_spec(cls, *args)

        monkeypatch.setattr(ChocoQSolver, "_compile_spec", classmethod(rendezvous))
        specs: list = [None, None]

        def build(slot: int) -> None:
            specs[slot] = ChocoQSolver(config=config).build_spec(problem)[0]

        threads = [threading.Thread(target=build, args=(slot,)) for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert structure_cache_info() == (0, 2, 1)
        for spec in specs:
            assert spec.evolve(parameters).tobytes() == expected
            assert spec.metadata == reference.metadata

    def test_lru_memo_keeps_its_counts_and_bound_under_contention(self):
        """Eight threads (more than cores) hammer a small memo with a short
        switch interval: no lookup is lost from the counts, the bound holds
        and every value matches its key."""
        memo = LruMemo(capacity=4)
        lookups, threads_count = 300, 8
        wrong: list = []

        def worker(offset: int) -> None:
            for index in range(lookups):
                key = (index + offset) % 7
                if memo.get_or_build(key, lambda: key * key) != key * key:
                    wrong.append(key)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(threads_count)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        info = memo.info()
        assert wrong == []
        assert info.hits + info.misses == lookups * threads_count
        assert info.entries == 4


class TestWarmEqualsCold:
    @pytest.mark.parametrize("backend", ["dense", "subspace"])
    @pytest.mark.parametrize(
        "solver, case",
        [("choco-q", "K1"), ("choco-q", "F1"), ("cyclic-qaoa", "K1"), ("cyclic-qaoa", "G1")],
    )
    def test_warm_solve_records_equal_cold_ones(self, solver, case, backend):
        """A warm solve of seed 5 (its structure compiled by seed 3) equals a
        cold solve of seed 5, modeled latency included."""
        cold = execute_spec(_run_spec(solver, backend, 5, case)).to_dict()
        clear_structure_cache()
        execute_spec(_run_spec(solver, backend, 3, case))
        warm = execute_spec(_run_spec(solver, backend, 5, case)).to_dict()
        assert structure_cache_info() == (1, 1, 1)
        assert warm == cold

    def test_noisy_solves_reuse_the_noise_free_structure(self):
        """K1 solved noise-free, then under three device profiles, compiles
        once; each noisy record equals its cold solve."""
        devices = ("fez", "osaka", "sherbrooke")
        noisy = [
            replace(_run_spec("choco-q", "dense", 5), noise={"device": device, "mode": "analytical"})
            for device in devices
        ]
        cold = []
        for spec in noisy:
            clear_structure_cache()
            cold.append(execute_spec(spec).to_dict())
        clear_structure_cache()
        execute_spec(_run_spec("choco-q", "dense", 5))
        warm = [execute_spec(spec).to_dict() for spec in noisy]
        assert structure_cache_info() == (3, 1, 1)
        assert warm == cold

    @pytest.mark.parametrize(
        "solver, config",
        [
            ("penalty-qaoa", {"num_layers": 2}),
            ("penalty-qaoa", {"num_layers": 2, "linear_ramp_init": False}),
            ("hea", {"num_layers": 2}),
        ],
    )
    def test_baselines_draw_seeded_starts_per_call(self, solver, config):
        # HEA's 3 x 8 RY angles need COBYLA's minimum budget of 24 + 2.
        budget = 26 if solver == "hea" else 12

        def spec(seed):
            return RunSpec(solver=solver, benchmark="K1", config=config, seed=seed,
                           shots=256, max_iterations=budget)

        cold = execute_spec(spec(5)).to_dict()
        clear_structure_cache()
        execute_spec(spec(3))
        warm = execute_spec(spec(5)).to_dict()
        assert structure_cache_info() == (1, 1, 1)
        assert warm == cold
