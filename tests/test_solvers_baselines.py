"""Tests for the baseline solvers: penalty QAOA, cyclic QAOA, HEA."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import expm

from reference import pauli_matrix
from solver_factories import make_cyclic_solver, make_one_hot_problem
from repro.core.problem import ConstrainedBinaryProblem, LinearConstraint, Objective
from repro.exceptions import SolverError
from repro.solvers.chocoq import ChocoQConfig, ChocoQSolver
from repro.solvers.config import NoiseConfig
from repro.solvers.cyclic_qaoa import (
    CyclicQAOAConfig,
    CyclicQAOASolver,
    chain_hop_edges,
    summation_chains,
)
from repro.solvers.hea import HEAConfig, HEASolver
from repro.solvers.optimizer import CobylaOptimizer
from repro.solvers.penalty_qaoa import PenaltyQAOAConfig, PenaltyQAOASolver
from repro.solvers.variational import EngineOptions

FAST = EngineOptions(shots=1024, seed=7)
FAST_OPTIMIZER = CobylaOptimizer(max_iterations=60)


class TestPenaltyQAOA:
    def test_solves_small_problem(self, small_min_problem):
        solver = PenaltyQAOASolver(
            config=PenaltyQAOAConfig(num_layers=3),
            optimizer=FAST_OPTIMIZER,
            options=FAST,
        )
        result = solver.solve(small_min_problem)
        metrics = result.metrics(small_min_problem)
        # The soft-constraint encoding should put non-trivial mass on the
        # optimum of a 3-variable instance.
        assert metrics.success_rate > 0.1
        assert 0.0 <= metrics.in_constraints_rate <= 1.0

    def test_in_constraints_below_one_in_general(self, paper_example_problem):
        solver = PenaltyQAOASolver(
            config=PenaltyQAOAConfig(num_layers=2),
            optimizer=FAST_OPTIMIZER,
            options=FAST,
        )
        result = solver.solve(paper_example_problem)
        metrics = result.metrics(paper_example_problem)
        # Soft constraints leak probability outside the feasible space.
        assert metrics.in_constraints_rate < 1.0

    def test_result_bookkeeping(self, small_min_problem):
        solver = PenaltyQAOASolver(
            config=PenaltyQAOAConfig(num_layers=2),
            optimizer=FAST_OPTIMIZER,
            options=FAST,
        )
        result = solver.solve(small_min_problem)
        assert result.solver_name == "penalty-qaoa"
        assert result.num_qubits == 3
        assert result.transpiled_depth >= result.circuit_depth > 0
        assert result.metadata["iterations"] == result.trace.num_iterations
        assert result.latency.total > 0.0

    def test_invalid_layers(self):
        with pytest.raises(SolverError):
            PenaltyQAOASolver(config=PenaltyQAOAConfig(num_layers=0))

    def test_frozen_hotspots_reduce_search(self, paper_example_problem):
        solver = PenaltyQAOASolver(
            config=PenaltyQAOAConfig(num_layers=2, freeze_hotspots=1),
            optimizer=FAST_OPTIMIZER,
            options=FAST,
        )
        result = solver.solve(paper_example_problem)
        assert len(result.metadata["frozen_variables"]) == 1

    def test_penalty_weight_override(self, small_min_problem):
        solver = PenaltyQAOASolver(
            config=PenaltyQAOAConfig(num_layers=2, penalty_weight=3.0),
            optimizer=FAST_OPTIMIZER,
            options=FAST,
        )
        result = solver.solve(small_min_problem)
        assert result.metadata["penalty_weight"] == pytest.approx(3.0)

    def test_circuit_uses_rx_mixer(self, small_min_problem):
        solver = PenaltyQAOASolver(
            config=PenaltyQAOAConfig(num_layers=2),
            optimizer=FAST_OPTIMIZER,
            options=FAST,
        )
        result = solver.solve(small_min_problem)
        assert result.num_two_qubit_gates > 0


class TestCyclicQAOA:
    def test_summation_chain_detection(self, paper_example_problem):
        chains, unencoded = summation_chains(paper_example_problem)
        # x0 - x2 = 0 is not summation format; x0 + x1 + x3 = 1 is.
        assert chains == [[0, 1, 3]]
        assert unencoded == [0]

    def test_chains_cannot_share_variables(self):
        problem = ConstrainedBinaryProblem(
            3,
            Objective.from_linear([1.0, 1.0, 1.0]),
            [
                LinearConstraint((1.0, 1.0, 0.0), 1.0),
                LinearConstraint((0.0, 1.0, 1.0), 1.0),
            ],
        )
        chains, unencoded = summation_chains(problem)
        assert chains == [[0, 1]]
        assert unencoded == [1]

    def test_preserves_encoded_constraint(self):
        """With a single summation constraint the driver conserves it exactly."""
        problem = make_one_hot_problem()
        solver = CyclicQAOASolver(
            config=CyclicQAOAConfig(num_layers=3),
            optimizer=FAST_OPTIMIZER,
            options=FAST,
        )
        result = solver.solve(problem)
        metrics = result.metrics(problem)
        assert metrics.in_constraints_rate == pytest.approx(1.0)
        assert metrics.success_rate > 0.2

    def test_ring_closure_edges(self):
        """Chains of >= 3 close into a ring; a length-2 chain stays one edge.

        The degenerate 2-ring's edges coincide, so a naive closure would
        emit the same hop twice per layer and double the mixing angle.
        """
        assert chain_hop_edges([4, 7]) == [(4, 7)]
        assert chain_hop_edges([0, 1, 3]) == [(0, 1), (1, 3), (3, 0)]
        assert chain_hop_edges([2, 4, 5, 6]) == [(2, 4), (4, 5), (5, 6), (6, 2)]

    def test_two_qubit_hop_matches_matrix_exponential(self):
        """Regression: the 2-qubit hop is e^{-i b (XX+YY)}, applied once.

        Under the old treat-as-cyclic behavior the length-2 chain picked up
        its wrap-around twin edge, squaring the hop unitary per layer.
        """
        problem = make_one_hot_problem(weights=(1.0, 2.0), name="pair")
        spec = CyclicQAOASolver(
            config=CyclicQAOAConfig(num_layers=1),
            optimizer=FAST_OPTIMIZER,
            options=FAST,
        ).build_spec(
            problem
        )
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        y = np.array([[0, -1j], [1j, 0]], dtype=complex)
        hop = np.kron(x, x) + np.kron(y, y)
        for beta in (0.3, -1.1, 2.4):
            # gamma = 0 isolates the driver layer from the phase separation.
            evolved = spec.evolve(np.array([0.0, beta]))
            expected = expm(-1j * beta * hop) @ spec.initial_state
            assert np.max(np.abs(evolved - expected)) < 1e-12

    @pytest.mark.parametrize("size, rhs", [(3, 1), (4, 1), (4, 2), (5, 2), (6, 3)])
    def test_ring_layer_is_product_of_xy_hops(self, size, rhs):
        """A ring layer applies ``e^{-i b (X_a X_b + Y_a Y_b)}`` edge by edge.

        The hops are serialized (Lemma 1), so the layer is the ordered
        product over :func:`chain_hop_edges`, not the exponential of the
        summed ring Hamiltonian; either way it conserves the chain's
        excitation number.
        """
        problem = make_one_hot_problem(
            weights=tuple(range(1, size + 1)), rhs=float(rhs), name=f"ring-{size}-{rhs}"
        )
        spec = CyclicQAOASolver(
            config=CyclicQAOAConfig(num_layers=1),
            optimizer=FAST_OPTIMIZER,
            options=FAST,
        ).build_spec(problem)
        beta = 0.7
        expected = spec.initial_state
        for qubit_a, qubit_b in chain_hop_edges(list(range(size))):
            hop = 0
            for pauli in "XY":
                label = ["I"] * size
                label[qubit_a] = label[qubit_b] = pauli
                hop = hop + pauli_matrix(label)
            expected = expm(-1j * beta * hop) @ expected
        # gamma = 0 isolates the driver layer from the phase separation.
        evolved = spec.evolve(np.array([0.0, beta]))
        assert np.max(np.abs(evolved - expected)) < 1e-12
        populated = np.nonzero(np.abs(evolved) > 1e-12)[0]
        assert len(populated) > 1
        assert all(bin(int(index)).count("1") == rhs for index in populated)

    @pytest.mark.parametrize("backend", ["subspace", "auto"])
    def test_subspace_backend_matches_dense(self, paper_example_problem, backend):
        """At any fixed parameters the two layouts give the same distribution.

        (Post-optimization states are compared in
        test_cross_backend_equivalence.py; here we pin the layout-level
        invariant that does not depend on the optimizer's trajectory.)
        """
        from repro.solvers.variational import DenseStateBackend

        dense_spec = make_cyclic_solver("dense").build_spec(paper_example_problem)
        sub_spec = make_cyclic_solver(backend).build_spec(paper_example_problem)
        assert sub_spec.backend is not None
        rng = np.random.default_rng(3)
        for _ in range(3):
            parameters = rng.uniform(-np.pi, np.pi, size=4)
            dense_dist = DenseStateBackend(4).exact_distribution(dense_spec.evolve(parameters))
            sub_dist = sub_spec.backend.exact_distribution(sub_spec.evolve(parameters))
            keys = set(dense_dist) | set(sub_dist)
            for key in keys:
                assert dense_dist.get(key, 0.0) == pytest.approx(
                    sub_dist.get(key, 0.0), abs=1e-9
                )

    def test_subspace_size_is_encoded_sector(self, paper_example_problem):
        """The map covers the encoded rows only, not the full feasible set.

        For the paper example the chain x0 + x1 + x3 = 1 is encoded and
        x0 - x2 = 0 is not, so |F_enc| = 3 choices x 2 free values of x2.
        """
        result = make_cyclic_solver("subspace").solve(paper_example_problem)
        assert result.metadata["subspace_size"] == 6
        assert result.metadata["encoded_chains"] == [[0, 1, 3]]

    def test_subspace_falls_back_without_encodable_chain(self):
        problem = ConstrainedBinaryProblem(
            3,
            Objective.from_linear([1.0, 2.0, 3.0]),
            [LinearConstraint((1.0, -1.0, 0.0), 0.0)],
            sense="min",
        )
        with pytest.warns(UserWarning, match="falls back to dense"):
            result = make_cyclic_solver("subspace").solve(problem)
        assert result.metadata["state_backend"] == "dense"

    def test_invalid_backend_rejected(self):
        with pytest.raises(SolverError):
            CyclicQAOASolver(config=CyclicQAOAConfig(backend="sparse"))

    def test_metadata_reports_encoding(self, paper_example_problem):
        solver = CyclicQAOASolver(
            config=CyclicQAOAConfig(num_layers=2),
            optimizer=FAST_OPTIMIZER,
            options=FAST,
        )
        result = solver.solve(paper_example_problem)
        assert result.metadata["encoded_chains"] == [[0, 1, 3]]
        assert result.metadata["unencoded_constraints"] == [0]

    def test_circuit_contains_xy_terms(self, paper_example_problem):
        solver = CyclicQAOASolver(
            config=CyclicQAOAConfig(num_layers=1),
            optimizer=FAST_OPTIMIZER,
            options=FAST,
        )
        result = solver.solve(paper_example_problem)
        assert result.circuit_depth > 0

    def test_invalid_layers(self):
        with pytest.raises(SolverError):
            CyclicQAOASolver(config=CyclicQAOAConfig(num_layers=0))


class TestHEA:
    def test_solves_tiny_problem(self, small_min_problem):
        solver = HEASolver(
            config=HEAConfig(num_layers=2),
            optimizer=CobylaOptimizer(max_iterations=150),
            options=FAST,
        )
        result = solver.solve(small_min_problem)
        metrics = result.metrics(small_min_problem)
        assert metrics.success_rate >= 0.0
        assert result.solver_name == "hea"
        assert result.num_qubits == 3

    def test_parameter_count(self, small_min_problem):
        solver = HEASolver(
            config=HEAConfig(num_layers=3),
            optimizer=FAST_OPTIMIZER,
            options=FAST,
        )
        result = solver.solve(small_min_problem)
        assert result.optimal_parameters is not None
        assert len(result.optimal_parameters) == 3 * (3 + 1)

    def test_shallow_depth_compared_to_qaoa(self, paper_example_problem):
        hea = HEASolver(
            config=HEAConfig(num_layers=2),
            optimizer=FAST_OPTIMIZER,
            options=FAST,
        ).solve(
            paper_example_problem
        )
        qaoa = PenaltyQAOASolver(
            config=PenaltyQAOAConfig(num_layers=7),
            optimizer=FAST_OPTIMIZER,
            options=FAST,
        ).solve(
            paper_example_problem
        )
        assert hea.transpiled_depth < qaoa.transpiled_depth

    def test_invalid_layers(self):
        with pytest.raises(SolverError):
            HEASolver(config=HEAConfig(num_layers=0))


class TestGoldenSolves:
    """Fixed-seed K1 solves of every solver, pinned bit for bit.

    ``tests/data/golden_baseline_solves.json`` holds the trace costs, the
    optimal parameters (as ``repr`` strings, exact) and the sampled counts.
    The penalty-QAOA and HEA entries were recorded with the per-call
    index-mask evolution these solvers used before they compiled their
    index arrays once per spec.  The choco-q entries cover the ``dense``,
    ``subspace`` and ``auto`` layouts and Opt3 elimination, the cyclic ones
    ``dense`` and ``subspace``, and the noisy entries sample through a
    config ``NoiseConfig``.
    Elimination results carry no optimal parameters, so those entries pin
    trace costs and counts only.
    """

    @staticmethod
    def _payload(result) -> dict:
        payload = {
            "trace_costs": [repr(float(cost)) for cost in result.trace.costs],
            "counts": dict(sorted(result.outcomes.counts.items())),
        }
        if result.optimal_parameters is not None:
            payload["optimal_parameters"] = [
                repr(float(p)) for p in result.optimal_parameters
            ]
        return payload

    @pytest.fixture(scope="class")
    def golden(self) -> dict:
        import json
        import os

        fixture = os.path.join(
            os.path.dirname(__file__), "data", "golden_baseline_solves.json"
        )
        with open(fixture) as handle:
            return json.load(handle)

    @pytest.mark.parametrize(
        "name, solver_cls, config",
        [
            ("penalty-qaoa", PenaltyQAOASolver, PenaltyQAOAConfig(num_layers=3)),
            ("hea", HEASolver, HEAConfig(num_layers=2)),
            ("choco-q[dense]", ChocoQSolver, ChocoQConfig(backend="dense")),
            ("choco-q[subspace]", ChocoQSolver, ChocoQConfig(backend="subspace")),
            ("choco-q[auto]", ChocoQSolver, ChocoQConfig(backend="auto")),
            (
                "choco-q[eliminate=1]",
                ChocoQSolver,
                ChocoQConfig(num_eliminated_variables=1),
            ),
            (
                "cyclic-qaoa[dense]",
                CyclicQAOASolver,
                CyclicQAOAConfig(num_layers=3, backend="dense"),
            ),
            (
                "cyclic-qaoa[subspace]",
                CyclicQAOASolver,
                CyclicQAOAConfig(num_layers=3, backend="subspace"),
            ),
            (
                "choco-q[fez]",
                ChocoQSolver,
                ChocoQConfig(noise=NoiseConfig(device="fez", trajectories=2)),
            ),
            (
                "choco-q[eliminate=1,fez]",
                ChocoQSolver,
                ChocoQConfig(
                    num_eliminated_variables=1,
                    noise=NoiseConfig(device="fez", trajectories=2),
                ),
            ),
            (
                "hea[osaka,analytical]",
                HEASolver,
                HEAConfig(
                    num_layers=2, noise=NoiseConfig(device="osaka", mode="analytical")
                ),
            ),
            (
                "penalty-qaoa[fez]",
                PenaltyQAOASolver,
                PenaltyQAOAConfig(
                    num_layers=3, noise=NoiseConfig(device="fez", trajectories=2)
                ),
            ),
        ],
    )
    def test_k1_solve_matches_golden(self, golden, name, solver_cls, config):
        from repro.problems import make_benchmark

        result = solver_cls(
            config=config,
            optimizer=CobylaOptimizer(max_iterations=60),
            options=EngineOptions(shots=1024, seed=7),
        ).solve(make_benchmark("K1"))
        assert self._payload(result) == golden[name]
