"""Tests for the classical optimizers shared by the variational loops."""

from __future__ import annotations

import types
import warnings

import numpy as np
import pytest

import repro
from repro.exceptions import SolverError
from repro.run.plan import RunSpec, execute_spec
from repro.solvers import optimizer as optimizer_module
from repro.solvers.optimizer import (
    CobylaOptimizer,
    NelderMeadOptimizer,
    SpsaOptimizer,
    make_optimizer,
)


def quadratic_bowl(x: np.ndarray) -> float:
    return float(np.sum((x - np.array([1.0, -2.0])) ** 2))


class TestOptimizers:
    @pytest.mark.parametrize(
        "optimizer",
        [
            CobylaOptimizer(max_iterations=200),
            NelderMeadOptimizer(max_iterations=300),
            SpsaOptimizer(max_iterations=300, seed=0),
        ],
    )
    def test_minimizes_quadratic_bowl(self, optimizer):
        result = optimizer.minimize(quadratic_bowl, [0.0, 0.0])
        assert result.cost < 0.3
        assert result.trace.num_iterations > 0

    @pytest.mark.parametrize("name", ["cobyla", "nelder-mead", "spsa"])
    @pytest.mark.parametrize("max_iterations", [8, 20, 21])
    def test_evaluations_stay_within_the_budget(self, name, max_iterations):
        # max_iterations counts cost evaluations: Nelder-Mead ran 34 and SPSA
        # 61 of a 20-evaluation budget on this 6-parameter cost.
        def cost(x):
            return float(np.sum((x - np.arange(6.0)) ** 2))

        kwargs = {"seed": 0} if name == "spsa" else {}
        optimizer = make_optimizer(name, max_iterations=max_iterations, **kwargs)
        result = optimizer.minimize(cost, np.zeros(6))
        assert 0 < result.num_iterations <= max_iterations
        assert len(result.trace.costs) == result.num_iterations

    def test_trace_records_every_evaluation(self):
        optimizer = CobylaOptimizer(max_iterations=30)
        result = optimizer.minimize(quadratic_bowl, [0.0, 0.0])
        assert len(result.trace.costs) == result.num_iterations
        assert result.trace.best_cost <= result.trace.costs[0]

    def test_invalid_iterations(self):
        with pytest.raises(SolverError):
            CobylaOptimizer(max_iterations=0)

    def test_cobyla_rejects_a_budget_below_num_parameters_plus_two(self):
        # SciPy would silently raise 3 to 4 and report 4 evaluations.
        with pytest.raises(SolverError, match=r"num_parameters \+ 2 = 4, got 3"):
            CobylaOptimizer(max_iterations=3).minimize(quadratic_bowl, [0.0, 0.0])

    def test_cobyla_minimum_budget_runs_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = CobylaOptimizer(max_iterations=4).minimize(quadratic_bowl, [0.0, 0.0])
        assert result.num_iterations <= 4

    def test_solve_rejects_a_budget_below_the_ansatz_minimum(self):
        # HEA on F1 has 4 RY layers of 6 qubits: 24 parameters.
        with pytest.raises(SolverError, match=r"= 26, got 8"):
            repro.solve("F1", "hea", optimizer=CobylaOptimizer(max_iterations=8))

    def test_cobyla_answers_a_repeated_point_from_the_last_value(self, monkeypatch):
        # SciPy's ScalarFunction memo: x0 is evaluated once, and a point equal
        # to the last evaluated one is not evaluated again.
        def fake_core(calcfc, m_nlcon, x, *args, f0=None, **kwargs):
            values = [calcfc(point)[0] for point in (x, x + 1.0, x + 1.0, x)]
            assert values[0] == f0
            return types.SimpleNamespace(x=x, f=values[-1], cstrv=0.0, info=0)

        monkeypatch.setattr(optimizer_module, "_prima_cobyla", fake_core)
        calls = []
        result = CobylaOptimizer(max_iterations=10).minimize(
            lambda x: calls.append(x) or quadratic_bowl(x), [0.0, 0.0]
        )
        assert [p.tolist() for p in calls] == [[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]]
        assert result.num_iterations == 3 and result.converged

    @pytest.mark.parametrize(
        "settings",
        [
            {"rhobeg": -1.0},
            {"rhobeg": 0.0},
            {"rhobeg": float("nan")},
            {"rhobeg": float("inf")},
            {"rhobeg": True},
            {"rhobeg": "0.5"},
            {"tolerance": 0.0},
            {"tolerance": -1e-4},
            {"tolerance": float("nan")},
            {"tolerance": None},
            {"tolerance": 1.0, "rhobeg": 0.1},
        ],
    )
    def test_cobyla_rejects_invalid_radii(self, settings):
        # PRIMA would swap in its defaults (rhobeg 1.0, rhoend 1e-6) and warn.
        with pytest.raises(SolverError, match="rhobeg"):
            CobylaOptimizer(**settings)

    def test_cobyla_accepts_equal_radii_and_integers(self):
        result = CobylaOptimizer(max_iterations=20, tolerance=1, rhobeg=1).minimize(
            quadratic_bowl, [0.0, 0.0]
        )
        assert result.num_iterations <= 20

    def test_factory(self):
        assert isinstance(make_optimizer("cobyla"), CobylaOptimizer)
        assert isinstance(make_optimizer("SPSA", seed=1), SpsaOptimizer)
        with pytest.raises(SolverError):
            make_optimizer("adam")

    def test_trace_iterations_to_reach(self):
        optimizer = CobylaOptimizer(max_iterations=100)
        result = optimizer.minimize(quadratic_bowl, [5.0, 5.0])
        first = result.trace.iterations_to_reach(1.0)
        assert first is not None
        assert result.trace.costs[first] <= 1.0


class TestSpsaSeeding:
    def test_run_spec_with_spsa_is_deterministic(self):
        spec = RunSpec(
            solver="penalty-qaoa",
            benchmark="F1",
            optimizer="spsa",
            max_iterations=6,
            shots=256,
            seed=5,
        )
        first, second = execute_spec(spec), execute_spec(spec)
        assert first.spec_hash == second.spec_hash
        assert first.result["trace"] == second.result["trace"]
        assert first.result["outcomes"] == second.result["outcomes"]
        assert first.metrics == second.metrics

    def test_run_seed_selects_the_spsa_stream(self):
        def trace(seed):
            spec = RunSpec(
                solver="penalty-qaoa",
                benchmark="F1",
                optimizer="spsa",
                max_iterations=4,
                shots=16,
                seed=seed,
            )
            return execute_spec(spec).result["trace"]["parameters"]

        assert trace(5) != trace(6)

    def test_reused_instance_repeats_its_trajectory(self):
        optimizer = SpsaOptimizer(max_iterations=10, seed=3)
        first = optimizer.minimize(quadratic_bowl, [0.0, 0.0])
        second = optimizer.minimize(quadratic_bowl, [0.0, 0.0])
        assert first.trace.to_dict() == second.trace.to_dict()

    def test_seeded_copy_leaves_the_instance_alone(self):
        optimizer = SpsaOptimizer(max_iterations=10, seed=3)
        run = optimizer.seeded(np.random.SeedSequence(7))
        assert run is not optimizer and optimizer.seed == 3
        assert run.minimize(quadratic_bowl, [0.0, 0.0]).trace.to_dict() != (
            optimizer.minimize(quadratic_bowl, [0.0, 0.0]).trace.to_dict()
        )

    def test_gain_offset_is_a_tenth_of_the_iterations_run(self):
        # On f(x) = x the two-sided estimate is exactly 1 for either sign of
        # delta, so the first step is -a / (1 + A) ** alpha with A = 0.1 * 33
        # for 100 evaluations (33 iterations), not 0.1 * 100.
        optimizer = SpsaOptimizer(max_iterations=100, seed=0)
        result = optimizer.minimize(lambda x: float(x[0]), [0.0])
        step = -optimizer.a / (1 + 0.1 * 33) ** optimizer.alpha
        assert result.trace.parameters[3][0] == pytest.approx(step, rel=1e-12)

    def test_deterministic_optimizers_ignore_the_stream(self):
        optimizer = CobylaOptimizer()
        assert optimizer.seeded(np.random.SeedSequence(7)) is optimizer
