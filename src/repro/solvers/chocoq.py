"""Choco-Q: commute-Hamiltonian QAOA for constrained binary optimization.

This module is the paper's primary contribution.  The solver follows the
workflow of Fig. 3 with the three optimisations of Section IV:

1. **Constraint encoding via the commute Hamiltonian** (Section III).  The
   solution set ``Delta`` of ``C u = 0`` over ``{-1, 0, 1}^n`` defines hop
   operators ``H_c(u)`` that commute with every constraint operator, so the
   evolution never leaves the feasible subspace.  The initial state is one
   feasible solution of ``C x = c``.
2. **Serialization** (Opt1, Lemma 1).  The driver unitary is replaced by the
   product of local unitaries ``prod_u e^{-i beta H_c(u)}``, which still
   conserves every constraint expectation and collapses the circuit depth.
   As in the paper's Fig. 14 ablation, Opt1 is always on: the serialized
   product, compiled once per prepare into an
   :class:`~repro.hamiltonian.compiled.EvolutionProgram`, is the only
   evolution.  Lemma 1 itself is checked against the monolithic
   ``e^{-i beta H_d}`` of
   :func:`~repro.hamiltonian.evolution.driver_evolution_operator` in the
   tests.
3. **Equivalent decomposition** (Opt2, Lemma 2 / Algorithm 1).  Each local
   unitary is compiled to ``G† P(beta) X1 P(-beta) X1 G`` — exact, linear
   time, linear depth.  The solver exposes both the decomposed circuit (for
   depth accounting and noisy runs) and a fast simulation path.
4. **Variable elimination** (Opt3, Section IV-C).  Optionally eliminate the
   variables with the most non-zeros across ``Delta``, running one (smaller)
   circuit per assignment of the eliminated variables and summing the lifted
   measurement histograms.  Every sub-instance has the same reduced
   constraint matrix, so the driver is built once per elimination plan and
   each sub-instance compiles its ansatz around it.

The ansatz for each (sub-)problem is

    |x*>  ->  [ e^{-i gamma_l H_o} · prod_u e^{-i beta_l H_c(u)} ] x L layers

with ``2 L`` trainable parameters, trained by COBYLA against the exact
expectation of the objective Hamiltonian (the constraints need no penalty —
the evolution cannot violate them).  It is the layered ansatz both QAOA
baselines share, built by :func:`~repro.solvers.variational.layered_ansatz`:
Choco-Q supplies the objective terms, the feasible start bits, the commute
driver and its decomposed (Opt2) or opaque local-unitary gates.

Simulation runs on one of two interchangeable state backends (see
``ChocoQConfig.backend`` and :mod:`repro.solvers.variational`): ``dense``
evolves the full ``2^n`` statevector, while ``subspace`` exploits the
feasible-subspace invariance to evolve only the ``|F|`` feasible amplitudes
via a :class:`~repro.core.subspace.SubspaceMap` — bitwise-identical result
format, and per-iteration cost proportional to the feasible-set size.  The
spec's ``evolve`` takes one parameter vector or a ``(k, 2L)`` batch, so the
same closure serves the optimizer and parameter sweeps.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from repro.core.feasibility import problem_initial_assignment
from repro.core.nullspace import enumerate_ternary_nullspace, ternary_nullspace_basis
from repro.core.problem import ConstrainedBinaryProblem
from repro.core.variable_elimination import (
    build_elimination_plan,
    choose_elimination_variables,
)
from repro.exceptions import SolverError
from repro.hamiltonian.commute import CommuteDriver
from repro.qcircuit.circuit import QuantumCircuit
from repro.qcircuit.sampling import SampleResult, split_shots
from repro.qcircuit.statevector import bitstring_keys
from repro.solvers.base import LatencyBreakdown, OptimizationTrace, QuantumSolver, SolverResult
from repro.solvers.config import NoiseConfig, SolverConfig
from repro.solvers.structure import matrix_digest, memoized, memoized_spec
from repro.solvers.variational import (
    AnsatzSpec,
    VariationalEngine,
    child_seed_sequence,
    interleave,
    layered_ansatz,
)


@dataclass(frozen=True)
class ChocoQConfig(SolverConfig):
    """Algorithmic knobs of the Choco-Q solver.

    Serialization (Opt1) has no knob: the driver always runs as the
    serialized product of local unitaries, the baseline every arm of the
    paper's Fig. 14 ablation builds on.  ``use_equivalent_decomposition``
    (Opt2) and ``num_eliminated_variables`` (Opt3) toggle the other two
    optimizations.

    Attributes:
        num_layers: the number L of repeated (objective, driver) blocks.  The
            paper uses a single layer for Choco-Q (Table II) because its
            driver carries the *full* solution set Delta; our default driver
            is the compact nullspace basis (see ``nullspace_mode``), which
            needs a few interleaved objective phases to cover the same search
            directions, so the default here is 3 (README, "Deviations from
            the paper").
        nullspace_mode: ``"basis"`` uses the compact generating subset of
            Delta (default, matching the paper's serialized example);
            ``"full"`` enumerates every ternary nullspace vector.
        max_support: optional cap on the support size of the u vectors.
        num_eliminated_variables: how many variables the Opt3 pass removes.
        use_equivalent_decomposition: Opt2; when False the reported circuit
            uses opaque unitaries per local Hamiltonian, reproducing the
            "direct decomposition" ablation arm of Fig. 14.
        backend: the simulation state layout.  ``"dense"`` evolves the full
            ``2^n`` statevector; ``"subspace"`` enumerates the feasible set
            once into a :class:`~repro.core.subspace.SubspaceMap` and evolves
            only the ``|F|`` feasible amplitudes — exact (the commute
            evolution never leaves the subspace) and the key scalability
            lever for constrained instances where ``|F| << 2^n``.  Under
            Opt3, every eliminated-variable sub-problem builds its own
            sub-map.  ``"auto"`` tries the subspace map first and falls back
            to dense as soon as the streaming enumeration passes
            ``subspace_limit``, so callers need not know ``|F|`` up front.
        subspace_limit: size guard for the feasible-set enumeration.  With
            ``backend="subspace"`` exceeding it raises
            :class:`~repro.exceptions.SubspaceOverflowError`; with
            ``backend="auto"`` it is the dense-fallback threshold
            (``None`` means :data:`~repro.solvers.variational
            .DEFAULT_SUBSPACE_AUTO_LIMIT`).
        noise: serializable device-noise scenario
            (:class:`~repro.solvers.config.NoiseConfig`, a device name such
            as ``"fez"``, or its dict form) applied at the final sampling
            step; ``None`` samples ideally.  Under Opt3 every eliminated-
            variable sub-circuit samples through its own deterministically
            seeded model.
    """

    num_layers: int = 3
    nullspace_mode: str = "basis"
    max_support: int | None = None
    num_eliminated_variables: int = 0
    use_equivalent_decomposition: bool = True
    backend: str = "dense"
    subspace_limit: int | None = None
    noise: NoiseConfig | str | dict | None = None

    def _validate(self) -> None:
        # num_layers and (backend, subspace_limit) are checked by SolverConfig.
        if self.nullspace_mode not in ("basis", "full"):
            raise SolverError("nullspace_mode must be 'basis' or 'full'")
        if self.num_eliminated_variables < 0:
            raise SolverError("num_eliminated_variables must be non-negative")


class ChocoQSolver(QuantumSolver):
    """The commute-Hamiltonian QAOA solver (the paper's contribution)."""

    name = "choco-q"

    config_cls = ChocoQConfig
    default_max_iterations = 100

    # ------------------------------------------------------------------
    # Driver construction
    # ------------------------------------------------------------------

    def build_driver(self, problem: ConstrainedBinaryProblem) -> CommuteDriver:
        """Construct the commute driver for a problem's constraint matrix."""
        return self._driver(self.config, problem)

    @classmethod
    def _driver(cls, config: ChocoQConfig, problem: ConstrainedBinaryProblem) -> CommuteDriver:
        solutions = cls._moves(config, problem.constraint_matrix()[0])
        if not solutions:
            raise SolverError("the constraint system admits no commute-Hamiltonian moves")
        return CommuteDriver.from_solutions(solutions)

    @staticmethod
    def _moves(config: ChocoQConfig, matrix: np.ndarray) -> list[tuple[int, ...]]:
        """The ``nullspace_mode`` solution vectors of ``C u = 0`` (may be empty)."""
        if matrix.size == 0:
            raise SolverError(
                "Choco-Q requires at least one constraint; use penalty QAOA for "
                "unconstrained problems"
            )
        if config.nullspace_mode == "full":
            return enumerate_ternary_nullspace(matrix, max_support=config.max_support)
        return ternary_nullspace_basis(matrix, max_support=config.max_support)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def solve(self, problem: ConstrainedBinaryProblem) -> SolverResult:
        if self.config.num_eliminated_variables == 0:
            return self._solve_single(problem)
        return self._solve_with_elimination(problem)

    # ------------------------------------------------------------------
    # Single-instance pipeline
    # ------------------------------------------------------------------

    def _solve_single(self, problem: ConstrainedBinaryProblem) -> SolverResult:
        spec, driver = self.build_spec(problem)
        engine = VariationalEngine(self.optimizer, self.options, self.config.noise)
        result = engine.run(spec, problem)
        result.metadata["total_nonzeros"] = driver.total_nonzeros
        return result

    def build_spec(self, problem: ConstrainedBinaryProblem) -> tuple[AnsatzSpec, CommuteDriver]:
        """The compiled ``(AnsatzSpec, CommuteDriver)`` for one problem.

        Public so benchmarks and analyses can time or inspect the prepared
        evolution (cost evaluations, backend agreement) without running the
        optimizer — the same spec :meth:`solve` executes.  Compiled once per
        structure and config in the process (:mod:`repro.solvers.structure`);
        every call gets its own spec copy.
        """
        def build(config: ChocoQConfig) -> tuple[AnsatzSpec, CommuteDriver]:
            driver = self._driver(config, problem)
            return self._compile_spec(config, problem, driver), driver

        return memoized_spec(self, problem, build)

    @classmethod
    def _compile_spec(
        cls, config: ChocoQConfig, problem: ConstrainedBinaryProblem, driver: CommuteDriver
    ) -> AnsatzSpec:
        """Compile the ansatz of ``problem`` around a ready ``driver``."""
        register = range(problem.num_variables)
        initial_bits = problem_initial_assignment(problem)
        if config.use_equivalent_decomposition:

            def mix(circuit: QuantumCircuit, beta: float) -> None:
                circuit.compose(driver.serialized_circuit(beta), qubits=register)

        else:
            from scipy.linalg import expm

            def mix(circuit: QuantumCircuit, beta: float) -> None:
                for term in driver.terms:
                    circuit.unitary(
                        expm(-1j * beta * term.local_matrix()), term.support, label="local_hc"
                    )

        num_layers = config.num_layers
        layers = np.arange(1, num_layers + 1)
        return layered_ansatz(
            cls.name,
            problem,
            config.backend,
            config.subspace_limit,
            cost_terms=problem.minimization_objective().terms,
            initial_bits=initial_bits,
            driver=driver,
            mix=mix,
            num_layers=num_layers,
            initial_parameters=interleave(
                0.4 * layers / num_layers, np.full(num_layers, np.pi / 4)
            ),
            metadata={
                "initial_assignment": initial_bits,
                "num_driver_terms": len(driver.terms),
                "nullspace_mode": config.nullspace_mode,
                "backend_requested": config.backend,
            },
        )

    # ------------------------------------------------------------------
    # Variable-elimination pipeline (Opt3)
    # ------------------------------------------------------------------

    @classmethod
    def _elimination_plan(
        cls, config: ChocoQConfig, problem: ConstrainedBinaryProblem
    ) -> tuple[tuple[int, ...], CommuteDriver | None]:
        """The variables Opt3 eliminates and the driver of the reduced matrix.

        Both depend on the constraint matrix alone.  Fixing variables only
        moves the right-hand sides, so every sub-instance shares the reduced
        matrix (the kept columns) and one driver serves the whole plan.
        Without moves the driver is ``None``: every sub-instance is then a
        single feasible point.
        """
        matrix, _ = problem.constraint_matrix()
        variables = choose_elimination_variables(
            problem, config.num_eliminated_variables, solutions=cls._moves(config, matrix)
        )
        if not variables:
            return (), None
        kept = [
            variable for variable in range(problem.num_variables) if variable not in variables
        ]
        # "+ 0.0" turns a -0.0 coefficient into the 0.0 a reduced
        # sub-instance stores, so the moves match its own matrix bit for bit.
        moves = cls._moves(config, matrix[:, kept] + 0.0)
        return tuple(variables), CommuteDriver.from_solutions(moves) if moves else None

    def _solve_with_elimination(self, problem: ConstrainedBinaryProblem) -> SolverResult:
        start = time.perf_counter()
        planned, driver = memoized(
            "elimination-plan",
            self,
            matrix_digest(problem.constraint_matrix()[0]),
            lambda config: self._elimination_plan(config, problem),
        )
        if not planned:
            return self._solve_single(problem)
        variables = list(planned)
        plan = build_elimination_plan(problem, variables)

        # Split the shot budget without losing the remainder: the first
        # (shots mod num_circuits) instances take one extra shot, so the
        # merged histogram carries exactly options.shots samples.  When the
        # budget is smaller than the circuit count some instances get zero
        # shots and their feasible region is absent from the sampled
        # histogram (the ideal-path exact_distribution still covers it).
        if 0 < self.options.shots < plan.num_circuits:
            warnings.warn(
                f"shot budget {self.options.shots} is smaller than the "
                f"{plan.num_circuits} elimination sub-circuits; some "
                "sub-instances will not be sampled",
                stacklevel=2,
            )
        shot_allocation = split_shots(self.options.shots, plan.num_circuits)
        sub_results: list[SolverResult] = []
        for index, instance in enumerate(plan.instances):
            shots = shot_allocation[index]
            if driver is None:
                sub_results.append(_trivial_result(instance.problem, shots))
                continue
            # Independent, reproducible RNG streams per sub-instance (explicit
            # child derivation — a caller-owned SeedSequence is never mutated).
            options = replace(
                self.options, shots=shots, seed=child_seed_sequence(self.options.seed, index)
            )
            engine = VariationalEngine(self.optimizer, options, self.config.noise)
            sub_problem = instance.problem
            spec, _ = memoized_spec(
                self,
                sub_problem,
                lambda config: (self._compile_spec(config, sub_problem, driver), driver),
            )
            sub_results.append(engine.run(spec, instance.problem))

        weight = 1.0 / plan.num_circuits
        merged_counts: dict[str, int] = {}
        assignments: list[dict] = []
        merged_distribution: dict[str, float] = {}
        trace = OptimizationTrace()
        latency = LatencyBreakdown()
        for instance, shots, sub_result in zip(plan.instances, shot_allocation, sub_results):
            counts = sub_result.outcomes.counts
            _accumulate(merged_counts, instance.lift_keys(counts), counts.values())
            assignments.append({"assignment": dict(instance.assignment), "shots": shots})
            distribution = sub_result.exact_distribution
            if distribution is not None:
                _accumulate(
                    merged_distribution,
                    instance.lift_keys(distribution),
                    (weight * probability for probability in distribution.values()),
                )
            for cost, parameters in zip(sub_result.trace.costs, sub_result.trace.parameters):
                trace.record(cost, parameters)
            latency.compilation += sub_result.latency.compilation
            latency.quantum_execution += sub_result.latency.quantum_execution
            latency.classical_processing += sub_result.latency.classical_processing

        # Report the layouts the sub-instances ran, as a single solve does
        # ("dense+subspace" when an auto run splits across its limit), and
        # the deepest sub-circuit's transpile report (the last on a tie).  A
        # plan of single points ran no circuit and reports neither.
        ran = sub_results if driver is not None else []
        backends = sorted({sub.metadata["state_backend"] for sub in ran})
        deepest = max(reversed(ran), key=lambda sub: sub.transpiled_depth, default=None)
        noise = self.config.noise
        elapsed = time.perf_counter() - start
        return SolverResult(
            solver_name=self.name,
            problem_name=problem.name,
            outcomes=SampleResult.from_counts(
                merged_counts, metadata={"eliminated_assignments": assignments}
            ),
            exact_distribution=merged_distribution or None,
            optimal_parameters=None,
            trace=trace,
            circuit_depth=max(sub.circuit_depth for sub in sub_results),
            transpiled_depth=max(sub.transpiled_depth for sub in sub_results),
            num_qubits=problem.num_variables - len(variables),
            num_two_qubit_gates=max(sub.num_two_qubit_gates for sub in sub_results),
            latency=latency,
            metadata={
                "eliminated_variables": variables,
                "num_circuits": plan.num_circuits,
                "iterations": sum(sub.metadata["iterations"] for sub in sub_results),
                "wall_clock_s": elapsed,
                "sub_problem_qubits": problem.num_variables - len(variables),
                "backend_requested": self.config.backend,
                **({"state_backend": "+".join(backends)} if backends else {}),
                "shot_allocation": shot_allocation,
                # The same noise annotation every single-instance noisy run carries.
                **({"noise": noise.to_dict()} if noise is not None else {}),
                **(
                    {"transpile_report": deepest.metadata["transpile_report"]}
                    if deepest is not None
                    else {}
                ),
            },
        )


def _accumulate(totals: dict, keys: Iterable[str], values: Iterable) -> dict:
    """Add each value into ``totals`` under its key; repeated keys sum."""
    for key, value in zip(keys, values):
        totals[key] = totals.get(key, 0) + value
    return totals


def _trivial_result(problem: ConstrainedBinaryProblem, shots: int) -> SolverResult:
    """Result for a sub-problem whose feasible set is a single classical point."""
    bits = problem_initial_assignment(problem)
    key = bitstring_keys(np.array([bits]))[0]
    outcomes = SampleResult.from_counts({key: shots} if shots else {})
    return SolverResult(
        solver_name="choco-q",
        problem_name=problem.name,
        outcomes=outcomes,
        exact_distribution={key: 1.0},
        num_qubits=problem.num_variables,
        metadata={"iterations": 0, "trivial": True},
    )
