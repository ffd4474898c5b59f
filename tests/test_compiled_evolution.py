"""Compile-once evolution programs: caching invariants and bit-identity.

The compiled path must be a pure restructuring: identical arithmetic over
precomputed pair indices.  These tests pin

* the vectorised ``subspace_pairing`` against the per-row loop reference
  (element for element, including the rejection paths);
* compiled final states as *bit-identical* (``np.array_equal``, not a
  tolerance) to rebuilding every pairing per call, on dense and subspace
  layouts, scalar and batched — and the penalty and HEA specs to reference
  copies of the per-call index-mask closures they replaced;
* batched evolution and batched expectations bit-identical to the
  sequential path;
* the compile-once guarantee — a call-count spy shows ``subspace_pairing``
  runs exactly once per (term, map) across a full ``VariationalEngine.run``,
  including one compilation per Opt3 sub-instance;
* the ``abs_squared`` hot-path helper.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

from solver_factories import make_chocoq_solver, make_cyclic_solver, make_one_hot_problem
from repro.core.subspace import SubspaceMap
from repro.exceptions import (
    HamiltonianError,
    InfeasibleError,
    ProblemError,
)
from repro.hamiltonian.commute import (
    CommuteDriver,
    CommuteHamiltonianTerm,
    dense_term_pairing,
    rotate_pairs_cs,
    subspace_pairing_loop,
)
from repro.hamiltonian.compiled import (
    EvolutionProgram,
    apply_diagonal_phase,
    diagonal_levels,
    prepare_ansatz_state,
)
from repro.problems import make_benchmark
from repro.qcircuit.statevector import (
    Statevector,
    abs_squared,
    state_support_size,
)
from repro.solvers.cyclic_qaoa import chain_hop_edges, summation_chains
from repro.solvers.hea import HEAConfig, HEASolver
from repro.solvers.penalty_qaoa import PenaltyQAOAConfig, PenaltyQAOASolver
from repro.solvers.variational import batched_expectations, evolve_parameter_sets

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks"))

SEED_PROBLEMS = ("F1", "G1", "K1", "K2")


def _driver_and_map(case: str):
    problem = make_benchmark(case)
    driver = make_chocoq_solver("subspace").build_driver(problem)
    return driver, SubspaceMap.from_problem(problem)


# ---------------------------------------------------------------------------
# Vectorised pairing == per-row loop reference
# ---------------------------------------------------------------------------


class TestVectorizedPairing:
    @pytest.mark.parametrize("case", SEED_PROBLEMS)
    def test_matches_loop_reference_on_seed_problems(self, case):
        driver, subspace_map = _driver_and_map(case)
        for term in driver.terms:
            a_fast, b_fast = term.subspace_pairing(subspace_map)
            a_loop, b_loop = subspace_pairing_loop(term, subspace_map)
            assert np.array_equal(a_fast, a_loop)
            assert np.array_equal(b_fast, b_loop)

    def test_rejects_non_nullspace_term(self):
        subspace_map = SubspaceMap.from_problem(make_one_hot_problem())
        term = CommuteHamiltonianTerm((1, 0, 0))
        with pytest.raises(HamiltonianError):
            term.subspace_pairing(subspace_map)
        with pytest.raises(HamiltonianError):
            subspace_pairing_loop(term, subspace_map)

    def test_rejects_surplus_v_bar_state(self):
        # F = {11}: u = (-1, -1) pairs no v-side state, but |11> matches v̄
        # with an infeasible partner — both implementations must refuse.
        lonely_map = SubspaceMap.from_constraints([[1.0, 1.0]], [2.0])
        term = CommuteHamiltonianTerm((-1, -1))
        with pytest.raises(HamiltonianError):
            term.subspace_pairing(lonely_map)
        with pytest.raises(HamiltonianError):
            subspace_pairing_loop(term, lonely_map)


class TestCoordinatesOfRows:
    def test_roundtrips_every_basis_row(self):
        _, subspace_map = _driver_and_map("K2")
        shuffled = np.random.default_rng(0).permutation(subspace_map.size)
        rows = subspace_map.basis[shuffled]
        coordinates = subspace_map.coordinates_of_rows(rows)
        assert np.array_equal(coordinates, shuffled)
        assert coordinates.dtype == np.int64

    def test_matches_coordinate_of(self):
        _, subspace_map = _driver_and_map("K1")
        rows = subspace_map.basis[::2]
        expected = [subspace_map.coordinate_of(row) for row in rows]
        assert list(subspace_map.coordinates_of_rows(rows)) == expected

    def test_empty_batch(self):
        _, subspace_map = _driver_and_map("F1")
        rows = np.empty((0, subspace_map.num_variables), dtype=np.uint8)
        assert subspace_map.coordinates_of_rows(rows).shape == (0,)

    def test_infeasible_row_raises(self):
        subspace_map = SubspaceMap.from_problem(make_one_hot_problem())
        infeasible = np.ones((1, subspace_map.num_variables), dtype=np.uint8)
        with pytest.raises(InfeasibleError):
            subspace_map.coordinates_of_rows(infeasible)

    def test_wrong_width_raises(self):
        subspace_map = SubspaceMap.from_problem(make_one_hot_problem())
        with pytest.raises(ProblemError):
            subspace_map.coordinates_of_rows(np.zeros((2, 99), dtype=np.uint8))

    def test_non_binary_row_raises_despite_key_alias(self):
        # (2, 0, 0) packs to the same int64 key as the feasible row (0, 1, 0);
        # the lookup must not be fooled by the collision — coordinate_of
        # raises on this row, so the batch path must too.
        subspace_map = SubspaceMap.from_problem(make_one_hot_problem())
        aliased = np.array([[2, 0, 0]], dtype=np.uint8)
        with pytest.raises(InfeasibleError):
            subspace_map.coordinates_of_rows(aliased)
        with pytest.raises(InfeasibleError):
            subspace_map.coordinate_of(aliased[0])


# ---------------------------------------------------------------------------
# Compiled-vs-uncompiled equivalence (bit-identical, not approximate)
# ---------------------------------------------------------------------------


def _legacy_chocoq_evolve(spec, driver, num_layers, subspace_map=None):
    """The recompute-every-call inner loop for a Choco-Q spec.

    Rebuilds the diagonal's level table, every term's pairing and the
    angle's cosine and sine per term and per call.
    """

    def evolve(parameters):
        parameters, state = prepare_ansatz_state(spec.initial_state, parameters)
        for layer in range(num_layers):
            gamma = parameters[..., 2 * layer]
            beta = parameters[..., 2 * layer + 1]
            state = apply_diagonal_phase(state, gamma, *diagonal_levels(spec.cost_diagonal))
            for term in driver.terms:
                pairing = (
                    dense_term_pairing(term)
                    if subspace_map is None
                    else term.subspace_pairing(subspace_map)
                )
                rotate_pairs_cs(state, np.cos(beta), np.sin(beta), *pairing)
        return state

    return evolve


def _mask_pairs(num_states: int, qubit: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis indices with bit ``qubit`` clear, and their partners with it set."""
    indices = np.arange(num_states)
    zero_indices = indices[(indices >> qubit) & 1 == 0]
    return zero_indices, zero_indices | (1 << qubit)


def _legacy_penalty_evolve(spec, num_layers):
    """Reference copy of the penalty mixer that rebuilt its masks per call."""
    num_qubits = spec.num_qubits

    def evolve(parameters):
        state = spec.initial_state.copy()
        for layer in range(num_layers):
            gamma = parameters[2 * layer]
            beta = parameters[2 * layer + 1]
            state = state * np.exp(-1j * gamma * spec.cost_diagonal)
            cos_b, off_diagonal = np.cos(beta), -1j * np.sin(beta)
            for qubit in range(num_qubits):
                zero_indices, one_indices = _mask_pairs(len(state), qubit)
                new_state = state.copy()
                amplitude_zero = state[zero_indices]
                amplitude_one = state[one_indices]
                new_state[zero_indices] = cos_b * amplitude_zero + off_diagonal * amplitude_one
                new_state[one_indices] = cos_b * amplitude_one + off_diagonal * amplitude_zero
                state = new_state
        return state

    return evolve


def _legacy_hea_evolve(spec, num_layers):
    """Reference copy of the HEA closure that rebuilt its masks per call."""
    num_qubits = spec.num_qubits

    def apply_ry(state, qubit, theta):
        zero_indices, one_indices = _mask_pairs(len(state), qubit)
        cos_t, sin_t = np.cos(theta / 2.0), np.sin(theta / 2.0)
        new_state = state.copy()
        amplitude_zero = state[zero_indices]
        amplitude_one = state[one_indices]
        new_state[zero_indices] = cos_t * amplitude_zero - sin_t * amplitude_one
        new_state[one_indices] = sin_t * amplitude_zero + cos_t * amplitude_one
        return new_state

    def apply_cz_chain(state):
        indices = np.arange(len(state))
        phase = np.ones(len(state), dtype=complex)
        for qubit in range(num_qubits - 1):
            both_one = (((indices >> qubit) & 1) == 1) & (((indices >> (qubit + 1)) & 1) == 1)
            phase[both_one] *= -1.0
        return state * phase

    def evolve(parameters):
        state = spec.initial_state.copy()
        angles = parameters.reshape(num_layers + 1, num_qubits)
        for qubit in range(num_qubits):
            state = apply_ry(state, qubit, angles[0, qubit])
        for layer in range(num_layers):
            state = apply_cz_chain(state)
            for qubit in range(num_qubits):
                state = apply_ry(state, qubit, angles[layer + 1, qubit])
        return state

    return evolve


class TestCompiledEquivalence:
    @pytest.mark.parametrize("case", SEED_PROBLEMS)
    @pytest.mark.parametrize("backend", ["dense", "subspace"])
    def test_chocoq_states_bit_identical(self, case, backend):
        problem = make_benchmark(case)
        solver = make_chocoq_solver(backend, num_layers=2)
        spec, driver = solver.build_spec(problem)
        subspace_map = SubspaceMap.from_problem(problem) if backend == "subspace" else None
        legacy = _legacy_chocoq_evolve(spec, driver, 2, subspace_map)
        rng = np.random.default_rng(11)
        for _ in range(4):
            parameters = rng.uniform(-np.pi, np.pi, size=4)
            assert np.array_equal(spec.evolve(parameters), legacy(parameters))
        batch = rng.uniform(-np.pi, np.pi, size=(3, 4))
        assert np.array_equal(spec.evolve(batch), legacy(batch))

    @pytest.mark.parametrize("backend", ["dense", "subspace"])
    def test_cyclic_states_bit_identical(self, backend):
        problem = make_one_hot_problem((2.0, 1.0, 3.0, 0.5))
        solver = make_cyclic_solver(backend, num_layers=2)
        spec = solver.build_spec(problem)
        # Rebuild the ring-hop driver exactly as the solver does.
        chains, _ = summation_chains(problem)
        terms = []
        for chain in chains:
            for qubit_a, qubit_b in chain_hop_edges(chain):
                u = [0] * problem.num_variables
                u[qubit_a] = 1
                u[qubit_b] = -1
                terms.append(CommuteHamiltonianTerm(tuple(u)))
        driver = CommuteDriver(terms)
        if backend == "subspace":
            matrix, rhs = problem.constraint_matrix()
            subspace_map = SubspaceMap.from_constraints(matrix, rhs)
            pairings = driver.pairings(subspace_map)
        else:
            pairings = [dense_term_pairing(term) for term in driver.terms]

        def legacy(parameters):
            parameters, state = prepare_ansatz_state(spec.initial_state, parameters)
            for layer in range(2):
                gamma = parameters[..., 2 * layer]
                beta = parameters[..., 2 * layer + 1]
                state = apply_diagonal_phase(
                    state, gamma, *diagonal_levels(spec.cost_diagonal)
                )
                for a_indices, b_indices in pairings:
                    rotate_pairs_cs(
                        state, np.cos(2.0 * beta), np.sin(2.0 * beta), a_indices, b_indices
                    )
            return state

        rng = np.random.default_rng(23)
        for _ in range(4):
            parameters = rng.uniform(-np.pi, np.pi, size=4)
            assert np.array_equal(spec.evolve(parameters), legacy(parameters))

    @pytest.mark.parametrize("case", ("F1", "K1", "K2", "G2"))
    @pytest.mark.parametrize("freeze_hotspots", [0, 1])
    def test_penalty_states_bit_identical(self, case, freeze_hotspots):
        config = PenaltyQAOAConfig(num_layers=3, freeze_hotspots=freeze_hotspots)
        spec = PenaltyQAOASolver(config=config).build_spec(make_benchmark(case))
        legacy = _legacy_penalty_evolve(spec, 3)
        rng = np.random.default_rng(31)
        for _ in range(3):
            parameters = rng.uniform(-np.pi, np.pi, size=6)
            assert spec.evolve(parameters).tobytes() == legacy(parameters).tobytes()

    @pytest.mark.parametrize("case", ("F1", "K1", "K2", "G2"))
    def test_hea_states_bit_identical(self, case):
        problem = make_benchmark(case)
        spec = HEASolver(config=HEAConfig(num_layers=2)).build_spec(problem)
        legacy = _legacy_hea_evolve(spec, 2)
        rng = np.random.default_rng(37)
        for _ in range(3):
            parameters = rng.uniform(-np.pi, np.pi, size=3 * problem.num_variables)
            assert spec.evolve(parameters).tobytes() == legacy(parameters).tobytes()

    def test_full_solve_unchanged_by_compilation(self):
        """End-to-end pin: compiled runs reproduce the recorded pre-PR answer.

        The whole run (optimizer trajectory, sampling) must be unaffected by
        compilation because every cost evaluation is bit-identical; dense and
        subspace solves of the same seeded problem still agree exactly.
        """
        problem = make_benchmark("K1")
        dense = make_chocoq_solver("dense", num_layers=2).solve(problem)
        subspace = make_chocoq_solver("subspace", num_layers=2).solve(problem)
        keys = set(dense.exact_distribution) | set(subspace.exact_distribution)
        for key in keys:
            assert dense.exact_distribution.get(key, 0.0) == pytest.approx(
                subspace.exact_distribution.get(key, 0.0), abs=1e-9
            )


class TestEvolutionProgramValidation:
    def test_requires_a_layer(self):
        with pytest.raises(HamiltonianError):
            EvolutionProgram(0, np.zeros(4), [])

    def test_rejects_matrix_diagonal(self):
        with pytest.raises(HamiltonianError):
            EvolutionProgram(1, np.zeros((2, 2)), [])

    def test_rejects_mismatched_pairs(self):
        with pytest.raises(HamiltonianError):
            EvolutionProgram(1, np.zeros(4), [(np.array([0, 1]), np.array([2]))])

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(HamiltonianError):
            EvolutionProgram(1, np.zeros(4), [(np.array([0]), np.array([7]))])

    @pytest.mark.parametrize(
        "a_side, b_side",
        [([0, 0], [1, 2]), ([0, 1], [1, 2]), ([0], [0])],
        ids=["repeated-index", "overlapping-sides", "self-pair"],
    )
    def test_rejects_overlapping_or_repeated_coordinates(self, a_side, b_side):
        # Rotating such sides is not unitary: ([0, 0], [1, 2]) took |0> to
        # a state of norm^2 1.415.
        with pytest.raises(HamiltonianError):
            EvolutionProgram(1, np.zeros(4), [(np.array(a_side), np.array(b_side))])

    @pytest.mark.parametrize(
        "a_side, b_side, dimension",
        [
            ((Ellipsis, 0), (Ellipsis, 1), 4),
            ((0, slice(None)), (1, slice(None)), 4),
            ((Ellipsis, 2, slice(None)), (Ellipsis, 0, slice(None)), 4),
            ((Ellipsis, -1, slice(None)), (Ellipsis, 0, slice(None)), 4),
            ((Ellipsis, True, slice(None)), (Ellipsis, False, slice(None)), 4),
            ((Ellipsis, slice(0, 1), 0), (Ellipsis, slice(0, 1), 1), 4),
            ((Ellipsis, 0, slice(None)), (Ellipsis, 0, slice(None)), 4),
            ((Ellipsis, 0, slice(None)), (Ellipsis, slice(None), 1), 4),
            ((Ellipsis, 0, slice(None)), (Ellipsis, 1, 1), 4),
            ((Ellipsis, 0, slice(None)), (Ellipsis, 1, slice(None)), 6),
            ((Ellipsis, 0, slice(None)), np.array([2, 3]), 4),
        ],
        ids=[
            "too-few-axes",
            "no-ellipsis",
            "bit-2",
            "bit-minus-1",
            "bool-bits",
            "partial-slice",
            "identical-sides",
            "different-free-axes",
            "different-shapes",
            "not-a-qubit-register",
            "key-with-array",
        ],
    )
    def test_rejects_malformed_dense_keys(self, a_side, b_side, dimension):
        with pytest.raises(HamiltonianError):
            EvolutionProgram(1, np.zeros(dimension), [(a_side, b_side)])

    def test_rejects_mixed_side_kinds(self):
        keys = CommuteHamiltonianTerm((1, -1)).dense_sides()
        arrays = (np.array([0]), np.array([3]))
        with pytest.raises(HamiltonianError):
            EvolutionProgram(1, np.zeros(4), [keys, arrays])

    def test_accepts_controlled_dense_keys(self):
        # Sides may share a fixed bit as long as they differ on another axis.
        program = EvolutionProgram(
            1, np.zeros(8), [((Ellipsis, 1, 0, slice(None)), (Ellipsis, 1, 1, slice(None)))]
        )
        state = np.arange(8, dtype=complex)
        reference = state.copy()
        rotate_pairs_cs(reference, np.cos(0.3), np.sin(0.3), np.array([4, 5]), np.array([6, 7]))
        assert program.execute(state, np.array([0.0, 0.3])).tobytes() == reference.tobytes()

    def test_dense_term_pairing_program_matches_direct_rotation(self):
        from scipy.linalg import expm

        term = CommuteHamiltonianTerm((1, 0, -1))
        a_indices, b_indices = dense_term_pairing(term)
        state = np.arange(8, dtype=complex) / np.linalg.norm(np.arange(8))
        program = EvolutionProgram(1, np.zeros(8), [(a_indices, b_indices)])
        compiled = program.execute(state, np.array([0.0, 0.4]))
        direct = state.copy()
        rotate_pairs_cs(direct, np.cos(0.4), np.sin(0.4), a_indices, b_indices)
        assert np.array_equal(compiled, direct)
        np.testing.assert_allclose(
            compiled, expm(-0.4j * term.to_matrix()) @ state, atol=1e-12
        )

    def test_program_reports_shape(self):
        program = EvolutionProgram(2, np.zeros(8), [dense_term_pairing(CommuteHamiltonianTerm((1, -1, 0)))])
        assert program.dimension == 8
        assert program.num_terms == 1
        assert program.num_layers == 2


# ---------------------------------------------------------------------------
# Batched evolution == sequential evolution, bit for bit
# ---------------------------------------------------------------------------


class TestBatchedBitIdentity:
    """A service sweep's scores must not depend on what it was batched with.

    K2 dense with k = 5 is the case that matters: five rows of 4096
    amplitudes make a batch temporary past numpy's 256 KiB in-place reuse
    threshold, while one row stays under it.
    """

    @pytest.mark.parametrize(
        "make_solver",
        [
            lambda: make_chocoq_solver("dense", num_layers=2),
            lambda: make_cyclic_solver("dense", num_layers=2),
            lambda: PenaltyQAOASolver(config=PenaltyQAOAConfig(num_layers=2)),
            lambda: HEASolver(config=HEAConfig(num_layers=2)),
        ],
        ids=["choco-q", "cyclic-qaoa", "penalty-qaoa", "hea"],
    )
    def test_k2_dense_batch_matches_sequential(self, make_solver):
        built = make_solver().build_spec(make_benchmark("K2"))
        spec = built[0] if isinstance(built, tuple) else built
        batch = np.random.default_rng(41).uniform(
            -np.pi, np.pi, size=(5, spec.initial_parameters.size)
        )
        states = evolve_parameter_sets(spec, batch)
        assert states.shape == (5, 4096)
        sequential = np.stack([spec.evolve(parameters) for parameters in batch])
        assert states.tobytes() == sequential.tobytes()
        costs = [
            float(np.dot(np.abs(spec.evolve(parameters)) ** 2, spec.cost_diagonal))
            for parameters in batch
        ]
        assert batched_expectations(spec, batch).tolist() == costs


# ---------------------------------------------------------------------------
# Compile-once guarantee (call-count spy over a full engine run)
# ---------------------------------------------------------------------------


class TestPairingComputedOnce:
    def _install_spy(self, monkeypatch):
        calls: dict[tuple, int] = {}
        keepalive: list = []  # pin maps so id() keys stay unique
        original = CommuteHamiltonianTerm.subspace_pairing

        def spy(self, subspace_map):
            keepalive.append(subspace_map)
            key = (self.u, id(subspace_map))
            calls[key] = calls.get(key, 0) + 1
            return original(self, subspace_map)

        monkeypatch.setattr(CommuteHamiltonianTerm, "subspace_pairing", spy)
        return calls

    def test_once_per_term_and_map_across_full_run(self, monkeypatch):
        calls = self._install_spy(monkeypatch)
        result = make_chocoq_solver("subspace", num_layers=2, max_iterations=25).solve(
            make_benchmark("K1")
        )
        # The run did iterate — so an uncompiled path would have recomputed
        # the pairing (terms x layers) times per iteration.
        assert result.metadata["iterations"] > 1
        assert calls, "the subspace run never resolved a pairing"
        assert all(count == 1 for count in calls.values()), calls

    def test_once_per_sub_instance_under_elimination(self, monkeypatch):
        calls = self._install_spy(monkeypatch)
        result = make_chocoq_solver(
            "subspace", num_layers=1, max_iterations=15, num_eliminated_variables=1
        ).solve(make_benchmark("K1"))
        assert result.metadata["num_circuits"] >= 2
        assert calls
        assert all(count == 1 for count in calls.values()), calls
        # Each Opt3 sub-instance compiled its own program over its own map.
        num_maps = len({key[1] for key in calls})
        assert num_maps == result.metadata["num_circuits"]


# ---------------------------------------------------------------------------
# abs_squared hot-path helper
# ---------------------------------------------------------------------------


class TestAbsSquared:
    def test_matches_abs_power_for_complex(self, rng):
        amplitudes = rng.normal(size=64) + 1j * rng.normal(size=64)
        np.testing.assert_allclose(
            abs_squared(amplitudes), np.abs(amplitudes) ** 2, rtol=1e-15
        )

    def test_real_input(self):
        np.testing.assert_allclose(abs_squared(np.array([-2.0, 3.0])), [4.0, 9.0])
        assert abs_squared(np.array([1, 2])).dtype == float

    def test_support_size_unchanged(self, rng):
        amplitudes = rng.normal(size=32) + 1j * rng.normal(size=32)
        amplitudes[::3] = 0.0
        assert state_support_size(amplitudes) == int(
            np.count_nonzero(np.abs(amplitudes) ** 2 > 1e-9)
        )

    def test_statevector_probabilities_normalised(self):
        state = Statevector.uniform_superposition(4)
        probabilities = state.probabilities()
        assert probabilities.sum() == pytest.approx(1.0)
        np.testing.assert_allclose(probabilities, np.abs(state.data) ** 2)


# ---------------------------------------------------------------------------
# Throughput benchmark smoke (the slow gate runs in the marked tier)
# ---------------------------------------------------------------------------


class TestThroughputBenchSmoke:
    def test_bench_runs_small_case_and_writes_json(self, tmp_path):
        from bench_iteration_throughput import BENCH_NAME, run_iteration_throughput
        from harness import load_bench_json, write_bench_json

        rows = run_iteration_throughput(cases=("F1",), repeats=2)
        assert rows[0]["bit_identical"]
        assert rows[0]["subspace_compiled_ms/iter"] > 0
        path = write_bench_json(BENCH_NAME, rows, path=str(tmp_path / "bench.json"))
        payload = load_bench_json(BENCH_NAME, path=path)
        assert payload["benchmark"] == BENCH_NAME
        assert payload["rows"][0]["case"] == "F1"

    @pytest.mark.slow
    def test_gate_case_clears_target(self):
        from bench_iteration_throughput import (
            GATE_CASES,
            TARGET_SPEEDUP,
            check_rows,
            run_iteration_throughput,
        )

        rows = run_iteration_throughput(cases=GATE_CASES)
        check_rows(rows)
        assert rows[0]["subspace_speedup"] >= TARGET_SPEEDUP
