"""Reference implementations the tests and benchmarks pin the library against.

None of these run on a solve path.  The hop pairings are the int64
gather/scatter forms the compiled evolution replaced: the tests compare the
fast paths against them element for element, and
``benchmarks/bench_iteration_throughput.py`` times them as the
recompute-every-call baseline.  The comparison helpers are phase-insensitive,
because transpiled circuits equal their sources only up to a global phase
(an RZ-based Toffoli differs from the textbook one by a constant factor).
``pauli_matrix`` writes out the Pauli products that Eq. (3) and Eq. (5) are
stated in, for the tests that check the library's dense forms against them.
The dense term helpers (``term_evolution_operator``, ``term_eigenstate``)
and the two commutation checks verify Eq. (5), Theorem 1 and Lemma 2 on
small registers.  ``engine_cost`` spells out the variational engine's cost
closure, for the tests and ``benchmarks/bench_cobyla_core.py`` that drive
an optimizer on it outside a solve.  ``clone_then_simulate_sample`` is the
noisy trajectory sampler as a circuit rebuild: each trajectory clones the
circuit with its drawn Paulis inserted, then simulates the clone; the noise
model's one-pass sampler must give its histograms exactly.

Tests import this module as ``reference`` (``tests/conftest.py`` puts this
directory on ``sys.path``); the benchmark adds the directory itself.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.exceptions import HamiltonianError
from repro.hamiltonian.commute import CommuteDriver, CommuteHamiltonianTerm
from repro.hamiltonian.constraint_operator import constraint_operator_diagonal
from repro.hamiltonian.evolution import dense_evolution_operator
from repro.problems.benchmark_suite import make_benchmark
from repro.qcircuit.circuit import QuantumCircuit
from repro.qcircuit.gates import standard_gate
from repro.qcircuit.noise import DeviceProfile
from repro.qcircuit.sampling import sample_histogram, split_shots
from repro.qcircuit.statevector import StatevectorSimulator, bits_index, index_bits
from repro.run.registry import make_solver


def dense_term_pairing(term: CommuteHamiltonianTerm) -> tuple[np.ndarray, np.ndarray]:
    """The dense ``(a, b)`` hop index pair of one commute term.

    ``a`` enumerates the basis indices whose support bits read ``v`` and
    ``b = a XOR support_mask`` their ``v̄`` partners: the int64
    gather/scatter reference for :meth:`CommuteHamiltonianTerm.dense_sides`.
    """
    support_mask = sum(1 << qubit for qubit in term.support)
    v_pattern = sum(bit << qubit for qubit, bit in zip(term.support, term.v_bits))
    indices = np.arange(2**term.num_qubits)
    a_indices = indices[(indices & support_mask) == v_pattern]
    return a_indices, a_indices ^ support_mask


def subspace_pairing_loop(
    term: CommuteHamiltonianTerm, subspace_map
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row reference for :meth:`CommuteHamiltonianTerm.subspace_pairing`.

    The pre-vectorisation pairing: a Python loop doing one single-row
    ``coordinate_of`` lookup per ``v``-side row, raising the same
    :class:`HamiltonianError` on a missing partner.
    """
    basis = subspace_map.basis
    support = np.array(term.support, dtype=int)
    v_bits = np.array(term.v_bits, dtype=np.uint8)
    in_v = np.all(basis[:, support] == v_bits, axis=1)
    in_v_bar = np.all(basis[:, support] == 1 - v_bits, axis=1)
    a_coordinates = np.nonzero(in_v)[0]
    b_coordinates = np.empty(len(a_coordinates), dtype=int)
    for k, coordinate in enumerate(a_coordinates):
        partner = basis[coordinate].copy()
        partner[support] = 1 - v_bits
        try:
            b_coordinates[k] = subspace_map.coordinate_of(partner)
        except Exception as error:
            raise HamiltonianError(
                "the hop partner of a feasible state is missing from the "
                "subspace map; the term's u vector is not a nullspace "
                "solution of the map's constraint system"
            ) from error
    if int(np.count_nonzero(in_v_bar)) != len(a_coordinates):
        raise HamiltonianError(
            "a feasible state matching the v̄ pattern has no feasible hop "
            "partner; the term's u vector is not a nullspace solution of "
            "the map's constraint system"
        )
    return a_coordinates, b_coordinates


def term_evolution_operator(term: CommuteHamiltonianTerm, beta: float) -> np.ndarray:
    """Exact dense unitary ``e^{-i beta H_c(u)}`` of a single commute term."""
    return dense_evolution_operator(term.to_matrix(), beta)


def term_eigenstate(term: CommuteHamiltonianTerm, sign: int) -> np.ndarray:
    """The dense eigenstate ``|x+->`` (sign=+1) or ``|x-->`` (sign=-1) of a term.

    Non-support qubits are placed in ``|0>``.
    """
    rows = np.zeros((2, term.num_qubits), dtype=np.int64)
    rows[:, list(term.support)] = (term.v_bits, term.v_bar_bits)
    state = np.zeros(2**term.num_qubits, dtype=complex)
    state[bits_index(rows)] = (1 / math.sqrt(2), sign / math.sqrt(2))
    return state


def commutes_with_constraint(
    driver: CommuteDriver, coefficients: Sequence[float], tolerance: float = 1e-9
) -> bool:
    """``[H_c(u), C_hat] = 0`` for every term against one constraint row (dense, exact)."""
    diagonal = constraint_operator_diagonal(coefficients, driver.num_qubits)
    c_matrix = np.diag(diagonal.astype(complex))
    for term in driver.terms:
        h_matrix = term.to_matrix()
        commutator = h_matrix @ c_matrix - c_matrix @ h_matrix
        if np.max(np.abs(commutator)) > tolerance:
            return False
    return True


def commutes_with_constraint_subspace(driver: CommuteDriver, subspace_map) -> bool:
    """Every term's hops stay inside the feasible subspace of ``subspace_map``."""
    try:
        for term in driver.terms:
            term.subspace_pairing(subspace_map)
    except HamiltonianError:
        return False
    return True


def engine_cost(solver: str, benchmark: str):
    """A solver's cost closure on a benchmark instance, and its initial point.

    The closure is :class:`~repro.solvers.variational.VariationalEngine`'s:
    ``|evolve(theta)|^2 . cost_diagonal`` on the solver's compiled spec.
    """
    spec = make_solver(solver).build_spec(make_benchmark(benchmark, 0))
    if solver == "choco-q":
        spec, _driver = spec

    def cost(parameters: np.ndarray) -> float:
        probabilities = np.abs(spec.evolve(parameters)) ** 2
        return float(np.dot(probabilities, spec.cost_diagonal))

    return cost, np.asarray(spec.initial_parameters, dtype=float)


_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_matrix(label) -> np.ndarray:
    """Dense matrix of a Pauli product; ``label[q]`` acts on qubit ``q``.

    Little-endian like the simulator: qubit 0 is the least significant bit
    of a basis index, so ``"XZ"`` is ``kron(Z, X)``.
    """
    matrix = np.ones((1, 1), dtype=complex)
    for character in reversed(tuple(label)):
        matrix = np.kron(matrix, _PAULI[character])
    return matrix


def global_phase_equal(a: np.ndarray, b: np.ndarray, atol: float = 1e-8) -> bool:
    """True when two statevectors are equal up to a single global phase."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    index = int(np.argmax(np.abs(a)))
    if abs(a[index]) < 1e-12:
        return bool(np.allclose(a, b, atol=atol))
    phase = b[index] / a[index]
    if abs(abs(phase) - 1.0) > 1e-6:
        return False
    return bool(np.allclose(a * phase, b, atol=atol))


def random_statevector(num_qubits: int, seed: int | None = None) -> np.ndarray:
    """A Haar-ish random normalized statevector (Gaussian components)."""
    rng = np.random.default_rng(seed)
    state = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return state / np.linalg.norm(state)


def operators_equal_up_to_phase(a: np.ndarray, b: np.ndarray, atol: float = 1e-8) -> bool:
    """True when two unitaries are equal up to a single global phase."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    flat_index = int(np.argmax(np.abs(a)))
    row, col = np.unravel_index(flat_index, a.shape)
    if abs(a[row, col]) < 1e-12:
        return bool(np.allclose(a, b, atol=atol))
    phase = b[row, col] / a[row, col]
    if abs(abs(phase) - 1.0) > 1e-6:
        return False
    return bool(np.allclose(a * phase, b, atol=atol))


def clone_then_simulate_sample(
    profile: DeviceProfile, seed, circuit: QuantumCircuit, shots: int, trajectories: int
) -> dict[str, int]:
    """Trajectory-sampled noisy histogram of ``circuit``, one rebuilt circuit per trajectory.

    Draws from ``np.random.default_rng(seed)`` in the order
    :meth:`~repro.qcircuit.noise.NoiseModel.sample` does: per trajectory, a
    ``random()`` per gate operand (and a Pauli ``choice`` on a hit), the
    shot draw, then a ``random()`` per measured bit for readout.
    """
    rng = np.random.default_rng(seed)
    p1 = profile.single_qubit_error
    p2 = profile.effective_two_qubit_error()
    totals: dict[str, int] = {}
    for per_trajectory in split_shots(shots, trajectories):
        if per_trajectory == 0:
            continue
        noisy = QuantumCircuit(circuit.num_qubits)
        for instruction in circuit:
            if instruction.is_directive:
                noisy.append_instruction(instruction)
                continue
            noisy.append(instruction.gate, instruction.qubits)
            error_probability = p2 if len(instruction.qubits) >= 2 else p1
            for qubit in instruction.qubits:
                if rng.random() < error_probability:
                    noisy.append(standard_gate(rng.choice(["x", "y", "z"])), [qubit])
        state = StatevectorSimulator().statevector(noisy)
        counts = sample_histogram(
            state.probabilities(),
            per_trajectory,
            lambda indices: index_bits(indices, circuit.num_qubits),
            rng=rng,
        )
        for key, value in counts.items():
            for _ in range(value):
                if profile.readout_error > 0.0:
                    key_read = "".join(
                        str(1 - int(ch)) if rng.random() < profile.readout_error else ch
                        for ch in key
                    )
                else:
                    key_read = key
                totals[key_read] = totals.get(key_read, 0) + 1
    return totals
