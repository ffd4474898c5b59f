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
path it resolves its hop sides and the CZ-chain phase vector once per
structure in :meth:`HEASolver._compile_spec`, under the structure memo
(:mod:`repro.solvers.structure`), not on every cost evaluation.  Its
``evolve`` takes one parameter vector or a ``(k, P)`` batch like every other
ansatz, so HEA supports parameter sweeps; a batch runs the per-vector kernel
row by row, bit-identical to evolving each vector alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.encoding import default_penalty_weight, penalty_objective
from repro.core.problem import ConstrainedBinaryProblem
from repro.hamiltonian.commute import CommuteDriver
from repro.hamiltonian.diagonal import polynomial_diagonal
from repro.qcircuit.circuit import QuantumCircuit
from repro.qcircuit.statevector import index_bits
from repro.solvers.base import QuantumSolver
from repro.solvers.config import NoiseConfig, SolverConfig
from repro.solvers.structure import memoized_spec, with_initial_parameters
from repro.solvers.variational import AnsatzSpec


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

    def build_spec(self, problem: ConstrainedBinaryProblem) -> AnsatzSpec:
        """The :class:`AnsatzSpec` for one problem, its hop sides built once.

        Public so benchmarks and the service's expectation sweeps can time
        or evaluate the prepared evolution without running the optimizer —
        the same spec :meth:`solve` executes.  Compiled once per structure
        and config in the process (:mod:`repro.solvers.structure`); each
        call draws its own initial parameters from the run seed.
        """
        config = self.config
        spec, _ = memoized_spec(
            self, problem, lambda config: (self._compile_spec(config, problem), None)
        )
        rng = np.random.default_rng(self.options.seed)
        # One initial RY layer plus one RY layer per entangling block.
        num_parameters = problem.num_variables * (config.num_layers + 1)
        return with_initial_parameters(spec, rng.uniform(0.0, np.pi, size=num_parameters))

    @classmethod
    def _compile_spec(cls, config: HEAConfig, problem: ConstrainedBinaryProblem) -> AnsatzSpec:
        """Compile the ansatz of ``problem``; it carries no initial parameters
        (an empty array), since HEA draws them from the seed."""
        num_qubits = problem.num_variables
        num_layers = config.num_layers
        weight = (
            config.penalty_weight
            if config.penalty_weight is not None
            else default_penalty_weight(problem)
        )
        qubo = penalty_objective(problem, weight)
        cost_diagonal = polynomial_diagonal(qubo.terms, num_qubits)

        # RY_j rotates the basis pairs that differ in bit j: the hop sides of
        # the single-bit flip u = -e_j, resolved once here.
        pairings = CommuteDriver.from_solutions(-np.eye(num_qubits, dtype=int)).pairings()
        # The CZ chain is diagonal: -1 once per adjacent pair of set bits.
        bits = index_bits(np.arange(2**num_qubits), num_qubits)
        cz_chain_phase = np.ones(2**num_qubits, dtype=complex)
        for qubit in range(num_qubits - 1):
            both_one = (bits[:, qubit] == 1) & (bits[:, qubit + 1] == 1)
            cz_chain_phase[both_one] *= -1.0
        initial_state = np.eye(1, 2**num_qubits, 0, dtype=complex).ravel()

        def apply_ry_layer(state: np.ndarray, angles: np.ndarray) -> np.ndarray:
            # In place through the (2,)*n view: both sides are computed from
            # contiguous operands before either is written.
            shaped = state.reshape((2,) * num_qubits)
            for (zero_side, one_side), theta in zip(pairings, angles):
                cos_t = np.cos(theta / 2.0)
                sin_t = np.sin(theta / 2.0)
                amplitude_zero, amplitude_one = shaped[zero_side], shaped[one_side]
                if not amplitude_zero.flags.c_contiguous:
                    amplitude_zero, amplitude_one = amplitude_zero.copy(), amplitude_one.copy()
                new_zero = cos_t * amplitude_zero - sin_t * amplitude_one
                shaped[one_side] = sin_t * amplitude_zero + cos_t * amplitude_one
                shaped[zero_side] = new_zero
            return state

        def evolve_vector(parameters: np.ndarray) -> np.ndarray:
            angles = parameters.reshape(num_layers + 1, num_qubits)
            state = apply_ry_layer(initial_state.copy(), angles[0])
            for layer in range(num_layers):
                state = state * cz_chain_phase
                state = apply_ry_layer(state, angles[layer + 1])
            return state

        def evolve(parameters: np.ndarray) -> np.ndarray:
            # Row by row on purpose: broadcasting the view kernel over a
            # batch is bit-identical but, measured on 2-core x86 at k = 8,
            # slower from 12 qubits on (12: 12.9 vs 11.8 ms; 16: 355 vs
            # 231 ms); it only wins on registers of ~8 qubits.
            parameters = np.asarray(parameters, dtype=float)
            if parameters.ndim == 1:
                return evolve_vector(parameters)
            return np.stack([evolve_vector(row) for row in parameters])

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

        return AnsatzSpec(
            name=cls.name,
            num_qubits=num_qubits,
            initial_state=initial_state,
            cost_diagonal=cost_diagonal,
            evolve=evolve,
            build_circuit=build_circuit,
            initial_parameters=np.empty(0),
            metadata={"num_layers": num_layers, "penalty_weight": weight},
        )
