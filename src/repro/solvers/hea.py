"""Hardware-efficient ansatz (HEA) baseline.

Reproduces the non-QAOA variational baseline of Kandala et al. [28] as the
paper configures it (Section V-A): layers of single-qubit RY rotations
interleaved with a linear chain of CZ entanglers, trained against the
penalty-augmented objective so the output "satisfies the constraints as much
as possible".  The ansatz is problem-agnostic — which is precisely why, as
the paper notes, it struggles to converge to constrained optima — but its
shallow depth makes it fast on hardware (visible in the Fig. 11 latency
comparison).

The per-qubit RY angles are not (gamma, beta) layers, so the ansatz keeps
its own evolve closure rather than an
:class:`~repro.hamiltonian.compiled.EvolutionProgram`; like the compiled
path it resolves its pair indices and the CZ-chain phase vector once in
:meth:`HEASolver.build_spec`, not on every cost evaluation.  It offers no
batched evolution, so parameter sweeps loop over ``evolve``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.encoding import default_penalty_weight, penalty_objective
from repro.core.problem import ConstrainedBinaryProblem
from repro.hamiltonian.commute import CommuteDriver, dense_term_pairing
from repro.hamiltonian.diagonal import DiagonalHamiltonian
from repro.qcircuit.circuit import QuantumCircuit
from repro.solvers.base import QuantumSolver, SolverResult
from repro.solvers.config import NoiseConfig, SolverConfig
from repro.solvers.variational import AnsatzSpec, VariationalEngine


@dataclass(frozen=True)
class HEAConfig(SolverConfig):
    """Algorithmic knobs of the hardware-efficient-ansatz baseline.

    Attributes:
        num_layers: number of CZ-entangler blocks (each followed by an RY
            layer; one extra RY layer opens the circuit).
        penalty_weight: penalty multiplier folding the constraints into the
            trained objective; ``None`` derives the default weight.
        noise: serializable device-noise scenario
            (:class:`~repro.solvers.config.NoiseConfig`, a device name, or
            its dict form) applied at the final sampling step.
    """

    num_layers: int = 3
    penalty_weight: float | None = None
    noise: NoiseConfig | str | dict | None = None


class HEASolver(QuantumSolver):
    """Hardware-efficient ansatz with RY layers and CZ-chain entanglers."""

    name = "hea"
    config_cls = HEAConfig
    default_max_iterations = 200

    def solve(self, problem: ConstrainedBinaryProblem) -> SolverResult:
        engine = VariationalEngine(self.optimizer, self.options, self.config.noise)
        # The engine folds spec.metadata (penalty weight) into the result's
        # metadata.
        return engine.run(self.build_spec(problem), problem)

    def build_spec(self, problem: ConstrainedBinaryProblem) -> AnsatzSpec:
        """The :class:`AnsatzSpec` for one problem, its index arrays built once.

        Public so benchmarks and the service's expectation sweeps can time
        or evaluate the prepared evolution without running the optimizer —
        the same spec :meth:`solve` executes.
        """
        num_qubits = problem.num_variables
        num_layers = self.config.num_layers
        weight = (
            self.config.penalty_weight
            if self.config.penalty_weight is not None
            else default_penalty_weight(problem)
        )
        qubo = penalty_objective(problem, weight)
        hamiltonian = DiagonalHamiltonian.from_polynomial(qubo.terms, num_qubits)
        # One initial RY layer plus one RY layer per entangling block.
        num_parameters = num_qubits * (num_layers + 1)

        # RY_j rotates the basis pairs that differ in bit j: the hop pairs of
        # the single-bit flip u = -e_j, resolved once here.
        flips = CommuteDriver.from_solutions(-np.eye(num_qubits, dtype=int))
        pairings = [dense_term_pairing(term) for term in flips.terms]
        # The CZ chain is diagonal: -1 once per adjacent pair of set bits.
        indices = np.arange(2**num_qubits)
        cz_chain_phase = np.ones(2**num_qubits, dtype=complex)
        for qubit in range(num_qubits - 1):
            both_one = (((indices >> qubit) & 1) == 1) & (((indices >> (qubit + 1)) & 1) == 1)
            cz_chain_phase[both_one] *= -1.0
        initial_state = np.eye(1, 2**num_qubits, 0, dtype=complex).ravel()

        def apply_ry_layer(state: np.ndarray, angles: np.ndarray) -> np.ndarray:
            for (zero_indices, one_indices), theta in zip(pairings, angles):
                cos_t = np.cos(theta / 2.0)
                sin_t = np.sin(theta / 2.0)
                new_state = state.copy()
                amplitude_zero = state[zero_indices]
                amplitude_one = state[one_indices]
                new_state[zero_indices] = cos_t * amplitude_zero - sin_t * amplitude_one
                new_state[one_indices] = sin_t * amplitude_zero + cos_t * amplitude_one
                state = new_state
            return state

        def evolve(parameters: np.ndarray) -> np.ndarray:
            angles = parameters.reshape(num_layers + 1, num_qubits)
            state = apply_ry_layer(initial_state.copy(), angles[0])
            for layer in range(num_layers):
                state = state * cz_chain_phase
                state = apply_ry_layer(state, angles[layer + 1])
            return state

        def build_circuit(parameters: np.ndarray) -> QuantumCircuit:
            circuit = QuantumCircuit(num_qubits, name="hea")
            angles = np.asarray(parameters, dtype=float).reshape(num_layers + 1, num_qubits)
            for qubit in range(num_qubits):
                circuit.ry(float(angles[0, qubit]), qubit)
            for layer in range(num_layers):
                for qubit in range(num_qubits - 1):
                    circuit.cz(qubit, qubit + 1)
                for qubit in range(num_qubits):
                    circuit.ry(float(angles[layer + 1, qubit]), qubit)
            return circuit

        rng = np.random.default_rng(self.options.seed)
        return AnsatzSpec(
            name=self.name,
            num_qubits=num_qubits,
            initial_state=initial_state,
            cost_diagonal=hamiltonian.diagonal,
            evolve=evolve,
            build_circuit=build_circuit,
            initial_parameters=rng.uniform(0.0, np.pi, size=num_parameters),
            metadata={"num_layers": num_layers, "penalty_weight": weight},
        )
