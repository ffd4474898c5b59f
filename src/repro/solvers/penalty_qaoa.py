"""Penalty-based QAOA baseline (soft constraints).

This reproduces the baseline of Verma & Lewis [44] as integrated in the
paper: the constraints are folded into the objective as quadratic penalty
terms (Section II-B, Fig. 2c), the resulting QUBO is encoded as a diagonal
objective Hamiltonian, and the standard transverse-field mixer
(``RX`` on every qubit) is used as the driver.  The circuit is

    |+>^n  ->  [ e^{-i gamma_l H_o+p}  ·  prod_j RX_j(2 beta_l) ] x L layers.

``RX_j(2 beta) = e^{-i beta X_j}`` and ``X_j`` is the commute term
``H_c(u)`` of the single-bit flip ``u = -e_j``, so the mixer is a
serialized commute driver and the simulation runs as the same compiled
:class:`~repro.hamiltonian.compiled.EvolutionProgram` Choco-Q uses — which
also gives the baseline the batched parameter-sweep path.

Two optional enhancements from the paper's comparison setup are included:

* **FrozenQubits** [4] — freeze the highest-degree (hotspot) variables of the
  QUBO to their locally best value and solve the reduced problem, boosting
  fidelity at the price of classical enumeration;
* **Red-QAOA-style initial parameters** [45] — a linear ramp initialisation
  of (gamma, beta) instead of random angles, which is the essence of the
  parameter-initialisation optimisation that Red-QAOA contributes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.encoding import default_penalty_weight, frozen_variables, penalty_objective
from repro.core.problem import ConstrainedBinaryProblem
from repro.exceptions import SolverError
from repro.hamiltonian.commute import CommuteDriver
from repro.hamiltonian.compiled import EvolutionProgram
from repro.hamiltonian.diagonal import DiagonalHamiltonian, phase_separation_circuit
from repro.qcircuit.circuit import QuantumCircuit
from repro.solvers.base import QuantumSolver, SolverResult
from repro.solvers.config import NoiseConfig, SolverConfig
from repro.solvers.structure import memoized_spec, with_initial_parameters
from repro.solvers.variational import AnsatzSpec, VariationalEngine, uniform_state


@dataclass(frozen=True)
class PenaltyQAOAConfig(SolverConfig):
    """Algorithmic knobs of the penalty-QAOA baseline.

    Attributes:
        num_layers: number of (phase, mixer) QAOA layers.
        penalty_weight: the quadratic penalty multiplier; ``None`` derives
            the default weight from the problem's objective range.
        freeze_hotspots: how many hotspot variables FrozenQubits freezes.
        linear_ramp_init: Red-QAOA-style linear-ramp initial parameters
            instead of seeded random angles.
        noise: serializable device-noise scenario
            (:class:`~repro.solvers.config.NoiseConfig`, a device name, or
            its dict form) applied at the final sampling step.
    """

    num_layers: int = 7
    penalty_weight: float | None = None
    freeze_hotspots: int = 0
    linear_ramp_init: bool = True
    noise: NoiseConfig | str | dict | None = None

    def _validate(self) -> None:
        if self.freeze_hotspots < 0:
            raise SolverError("freeze_hotspots must be non-negative")


class PenaltyQAOASolver(QuantumSolver):
    """Soft-constraint QAOA with the transverse-field mixer."""

    name = "penalty-qaoa"
    config_cls = PenaltyQAOAConfig
    default_max_iterations = 150

    def solve(self, problem: ConstrainedBinaryProblem) -> SolverResult:
        engine = VariationalEngine(self.optimizer, self.options, self.config.noise)
        # The engine folds spec.metadata (penalty weight, frozen variables)
        # into the result's metadata.
        return engine.run(self.build_spec(problem), problem)

    # ------------------------------------------------------------------

    @staticmethod
    def _ramp_parameters(config: PenaltyQAOAConfig) -> np.ndarray:
        """(gamma_1, beta_1, ..., gamma_L, beta_L) of the annealing-inspired ramp."""
        # Red-QAOA-style annealing-inspired ramp: gamma grows, beta shrinks.
        num_layers = config.num_layers
        layers = np.arange(1, num_layers + 1)
        gammas = 0.7 * layers / num_layers
        betas = 0.7 * (1.0 - layers / num_layers) + 0.1
        return np.ravel(np.column_stack([gammas, betas]))

    def build_spec(self, problem: ConstrainedBinaryProblem) -> AnsatzSpec:
        """The compiled :class:`AnsatzSpec` for one problem.

        Public so benchmarks and the service's expectation sweeps can time
        or evaluate the prepared evolution without running the optimizer —
        the same spec :meth:`solve` executes.  Compiled once per structure
        and config in the process (:mod:`repro.solvers.structure`); without
        ``linear_ramp_init`` each call draws its own initial parameters from
        the run seed.
        """
        config = self.config
        spec, _ = memoized_spec(self, problem, lambda: (self._compile_spec(config, problem), None))
        if config.linear_ramp_init:
            return spec
        rng = np.random.default_rng(self.options.seed)
        gammas = rng.uniform(0, np.pi, size=config.num_layers)
        betas = rng.uniform(0, np.pi / 2, size=config.num_layers)
        return with_initial_parameters(spec, np.ravel(np.column_stack([gammas, betas])))

    @classmethod
    def _compile_spec(
        cls, config: PenaltyQAOAConfig, problem: ConstrainedBinaryProblem
    ) -> AnsatzSpec:
        """Compile the penalty ansatz of ``problem``, starting from the ramp."""
        working_problem = problem
        frozen: list[tuple[int, int]] = []
        if config.freeze_hotspots > 0:
            frozen = frozen_variables(problem, config.freeze_hotspots)
            for variable, value in frozen:
                working_problem = working_problem.fix_variable(variable, value)

        weight = (
            config.penalty_weight
            if config.penalty_weight is not None
            else default_penalty_weight(problem)
        )
        qubo = penalty_objective(working_problem, weight)
        num_qubits = problem.num_variables
        num_layers = config.num_layers
        cost_diagonal = DiagonalHamiltonian.from_polynomial(qubo.terms, num_qubits).diagonal
        # H_c(-e_j) = X_j, so the transverse-field mixer prod_j e^{-i beta X_j}
        # is the serialized commute driver over the single-bit flips.
        mixer = CommuteDriver.from_solutions(-np.eye(num_qubits, dtype=int))
        initial_state = uniform_state(num_qubits)
        evolve = EvolutionProgram(num_layers, cost_diagonal, mixer.pairings()).bind(
            initial_state
        )

        def build_circuit(parameters: np.ndarray) -> QuantumCircuit:
            circuit = QuantumCircuit(num_qubits, name="penalty_qaoa")
            for qubit in range(num_qubits):
                circuit.h(qubit)
            for layer in range(num_layers):
                gamma = float(parameters[2 * layer])
                beta = float(parameters[2 * layer + 1])
                phase_circuit = phase_separation_circuit(qubo.terms, num_qubits, gamma)
                circuit.compose(phase_circuit, qubits=range(num_qubits))
                for qubit in range(num_qubits):
                    circuit.rx(2.0 * beta, qubit)
            return circuit

        return AnsatzSpec(
            name=cls.name,
            num_qubits=num_qubits,
            initial_state=initial_state,
            cost_diagonal=cost_diagonal,
            evolve=evolve,
            build_circuit=build_circuit,
            initial_parameters=cls._ramp_parameters(config),
            metadata={
                "num_layers": num_layers,
                "penalty_weight": weight,
                "frozen_variables": frozen,
            },
        )
