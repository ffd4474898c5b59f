"""Cyclic-Hamiltonian QAOA baseline (hard constraints, summation format only).

Reproduces the driver-Hamiltonian design of Yoshioka et al. [47] as the paper
describes it (Section II-B, Fig. 2d):

* a constraint in **summation format** (all non-zero coefficients equal ±1,
  same sign) is encoded by the one-dimensional cyclic driver
  ``H_d = sum_i X_i X_{i+1} + Y_i Y_{i+1}`` over the ring of its variables
  (``i+1`` taken cyclically), which conserves the number of excited qubits
  within that ring;
* the initial state is one feasible solution of the constraint system;
* constraints that are *not* in summation format — or that share variables
  with another encoded constraint — cannot be represented by the cyclic
  driver.  Following the paper's characterisation, they are dropped from the
  driver (left to the objective's penalty term), which is exactly why this
  baseline "may locate solutions in the non-constrained space" (Fig. 1a).

The driver evolution ``e^{-i beta (XX + YY)}`` on a pair is the hop operator
``2 * H_c(u)`` with ``u = (+1, -1)`` on that pair, so we reuse the commute
term machinery for exact dense application and emit RXX/RYY gates for the
deployable circuit.

Because every ring hop conserves the excitation number of its chain, the
evolution also never leaves the feasible subspace of the *encoded*
constraint rows.  The ``subspace`` backend exploits this exactly like
Choco-Q's: it enumerates ``F_enc = {x : C_enc x = c_enc}`` once into a
:class:`~repro.core.subspace.SubspaceMap` and applies each hop as a pairing
permutation over ``O(|F_enc|)`` amplitudes (the unencoded constraints stay
in the penalty objective, evaluated directly on the feasible basis).  For
problems with no encodable chain the solver falls back to the dense layout —
there is no invariant subspace to restrict to.

The ansatz is the layered one Choco-Q and penalty QAOA share, built by
:func:`~repro.solvers.variational.layered_ansatz`: this module supplies the
(penalised) cost terms, the feasible start bits, the ring-hop driver (angle
scale 2) with its RXX/RYY gates, and the
:func:`~repro.solvers.variational.linear_ramp` start.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

from repro.core.encoding import default_penalty_weight, penalty_objective
from repro.core.feasibility import problem_initial_assignment
from repro.core.problem import ConstrainedBinaryProblem
from repro.hamiltonian.commute import CommuteDriver, CommuteHamiltonianTerm
from repro.qcircuit.circuit import QuantumCircuit
from repro.solvers.base import QuantumSolver
from repro.solvers.config import NoiseConfig, SolverConfig
from repro.solvers.structure import memoized_spec
from repro.solvers.variational import AnsatzSpec, layered_ansatz, linear_ramp


def summation_chains(problem: ConstrainedBinaryProblem) -> tuple[list[list[int]], list[int]]:
    """Split constraints into encodable chains and the indices of the rest.

    A constraint is encodable when it is in summation format and none of its
    variables already belong to a previously encoded chain (the cyclic driver
    cannot share variables across constraints, Section III).
    Returns ``(chains, unencoded_constraint_indices)``.
    """
    chains: list[list[int]] = []
    used: set[int] = set()
    unencoded: list[int] = []
    for index, constraint in enumerate(problem.constraints):
        support = list(constraint.support)
        if (
            constraint.is_summation_format()
            and len(support) >= 2
            and not used.intersection(support)
        ):
            chains.append(support)
            used.update(support)
        else:
            unencoded.append(index)
    return chains, unencoded


def chain_hop_edges(chain: Sequence[int]) -> list[tuple[int, int]]:
    """The qubit pairs the cyclic driver hops on, for one encoded chain.

    A chain of ``k >= 3`` variables is closed into a ring: consecutive pairs
    plus the wrap-around ``(last, first)`` edge, matching ``H_d = sum_i
    X_i X_{i+1} + Y_i Y_{i+1}`` with ``i+1`` taken modulo ``k``.  A length-2
    chain is the degenerate ring whose two edges coincide — emitting the
    closing edge as well would apply the same hop twice per layer, silently
    doubling the mixing angle relative to ``e^{-i beta (XX + YY)}`` — so
    there the single edge stands alone.
    """
    edges = list(zip(chain, chain[1:]))
    if len(chain) >= 3:
        edges.append((chain[-1], chain[0]))
    return edges


@dataclass(frozen=True)
class CyclicQAOAConfig(SolverConfig):
    """Algorithmic knobs of the cyclic-QAOA baseline.

    Attributes:
        num_layers: number of (phase, ring-mixer) QAOA layers.
        penalty_weight: penalty multiplier for the constraints the cyclic
            driver cannot encode; ``None`` derives the default weight.
        backend: ``"dense"``, ``"subspace"`` (encoded-chain sector) or
            ``"auto"`` — see the "Solver / backend matrix" in README.md.
        subspace_limit: feasible-set size guard for the subspace backends.
        noise: serializable device-noise scenario
            (:class:`~repro.solvers.config.NoiseConfig`, a device name, or
            its dict form) applied at the final sampling step.
    """

    num_layers: int = 7
    penalty_weight: float | None = None
    backend: str = "dense"
    subspace_limit: int | None = None
    noise: NoiseConfig | str | dict | None = None


class CyclicQAOASolver(QuantumSolver):
    """Hard-constraint QAOA with the cyclic (XY-ring) driver Hamiltonian."""

    name = "cyclic-qaoa"

    config_cls = CyclicQAOAConfig
    default_max_iterations = 150

    # ------------------------------------------------------------------

    def build_spec(self, problem: ConstrainedBinaryProblem) -> AnsatzSpec:
        """The compiled :class:`AnsatzSpec` for one problem.

        Public so benchmarks and analyses can time or inspect the prepared
        evolution without running the optimizer — the same spec
        :meth:`solve` executes.  Compiled once per structure and config in
        the process (:mod:`repro.solvers.structure`); every call gets its
        own spec copy.
        """
        config = self.config
        if config.backend == "subspace" and not summation_chains(problem)[0]:
            warnings.warn(
                "no constraint is encodable by the cyclic driver; the "
                "subspace backend has no invariant subspace to restrict "
                "to and falls back to dense",
                stacklevel=2,
            )
        spec, _ = memoized_spec(
            self, problem, lambda config: (self._compile_spec(config, problem), None)
        )
        return spec

    @classmethod
    def _compile_spec(
        cls, config: CyclicQAOAConfig, problem: ConstrainedBinaryProblem
    ) -> AnsatzSpec:
        """Compile the ring-driver ansatz of ``problem``."""
        num_qubits = problem.num_variables
        chains, unencoded = summation_chains(problem)

        # The objective Hamiltonian carries a penalty for whatever the driver
        # cannot encode (matching how the baseline handles general systems).
        if unencoded:
            weight = (
                config.penalty_weight
                if config.penalty_weight is not None
                else default_penalty_weight(problem)
            )
            residual = ConstrainedBinaryProblem(
                num_variables=num_qubits,
                objective=problem.minimization_objective(),
                constraints=[problem.constraints[i] for i in unencoded],
                sense="min",
                name=f"{problem.name}-residual",
                variable_names=problem.variable_names,
            )
            cost_objective = penalty_objective(residual, weight)
        else:
            weight = 0.0
            cost_objective = problem.minimization_objective()

        # Each ring edge (a, b) contributes XX + YY = 2 * H_c(u) with
        # u = +1 on one qubit and -1 on the other.
        edges = [edge for chain in chains for edge in chain_hop_edges(chain)]
        pair_terms: list[CommuteHamiltonianTerm] = []
        for qubit_a, qubit_b in edges:
            u = [0] * num_qubits
            u[qubit_a] = 1
            u[qubit_b] = -1
            pair_terms.append(CommuteHamiltonianTerm(tuple(u)))
        driver = CommuteDriver(pair_terms) if pair_terms else None

        # The ring hops conserve exactly the encoded rows, so the invariant
        # subspace is F_enc = {x : C_enc x = c_enc}; the unencoded rows stay
        # soft (penalty) on either layout.  With no encodable chain there is
        # no invariant subspace and no hop term: the program degenerates to
        # the pure phase-separation sequence on the dense layout (build_spec
        # warns when that overrides a "subspace" request).
        backend = config.backend if chains else "dense"
        unencoded_set = set(unencoded)
        encoded_problem = ConstrainedBinaryProblem(
            num_variables=num_qubits,
            objective=problem.objective,
            constraints=[
                constraint
                for index, constraint in enumerate(problem.constraints)
                if index not in unencoded_set
            ],
            name=f"{problem.name}-encoded",
        )

        def mix(circuit: QuantumCircuit, beta: float) -> None:
            for qubit_a, qubit_b in edges:
                circuit.rxx(2.0 * beta, qubit_a, qubit_b)
                circuit.ryy(2.0 * beta, qubit_a, qubit_b)

        # XX + YY = 2 H_c(u), so every ring hop evolves with angle 2*beta.
        return layered_ansatz(
            cls.name,
            encoded_problem,
            backend,
            config.subspace_limit,
            cost_terms=cost_objective.terms,
            initial_bits=problem_initial_assignment(problem),
            driver=driver,
            mix=mix,
            num_layers=config.num_layers,
            initial_parameters=linear_ramp(config.num_layers),
            metadata={
                "encoded_chains": chains,
                "unencoded_constraints": unencoded,
                "penalty_weight": weight,
                "backend_requested": config.backend,
            },
            angle_scale=2.0,
        )
