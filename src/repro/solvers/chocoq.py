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
3. **Equivalent decomposition** (Opt2, Lemma 2 / Algorithm 1).  Each local
   unitary is compiled to ``G† P(beta) X1 P(-beta) X1 G`` — exact, linear
   time, linear depth.  The solver exposes both the decomposed circuit (for
   depth accounting and noisy runs) and a fast dense simulation path.
4. **Variable elimination** (Opt3, Section IV-C).  Optionally eliminate the
   variables with the most non-zeros across ``Delta``, running one (smaller)
   circuit per assignment of the eliminated variables and merging the lifted
   measurement histograms.

The ansatz for each (sub-)problem is

    |x*>  ->  [ e^{-i gamma_l H_o} · prod_u e^{-i beta_l H_c(u)} ] x L layers

with ``2 L`` trainable parameters, trained by COBYLA against the exact
expectation of the objective Hamiltonian (the constraints need no penalty —
the evolution cannot violate them).

Simulation runs on one of two interchangeable state backends (see
``ChocoQConfig.backend`` and :mod:`repro.solvers.variational`): ``dense``
evolves the full ``2^n`` statevector, while ``subspace`` exploits the
feasible-subspace invariance to evolve only the ``|F|`` feasible amplitudes
via a :class:`~repro.core.subspace.SubspaceMap` — bitwise-identical result
format, and per-iteration cost proportional to the feasible-set size.
"""

from __future__ import annotations

import time
import warnings
from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from repro.core.feasibility import problem_initial_assignment
from repro.core.nullspace import (
    enumerate_ternary_nullspace,
    ternary_nullspace_basis,
    total_nonzeros,
)
from repro.core.problem import ConstrainedBinaryProblem
from repro.core.variable_elimination import (
    build_elimination_plan,
    choose_elimination_variables,
)
from repro.exceptions import SolverError
from repro.hamiltonian.commute import CommuteDriver, CommuteHamiltonianTerm
from repro.hamiltonian.compiled import EvolutionProgram, diagonal_levels
from repro.hamiltonian.diagonal import phase_separation_circuit
from repro.qcircuit.circuit import QuantumCircuit
from repro.qcircuit.sampling import SampleResult, merge_results, split_shots
from repro.solvers.base import LatencyBreakdown, OptimizationTrace, QuantumSolver, SolverResult
from repro.solvers.config import NoiseConfig, SolverConfig
from repro.solvers.variational import (
    AnsatzSpec,
    VariationalEngine,
    apply_diagonal_phase,
    child_seed_sequence,
    prepare_ansatz_state,
    resolve_state_layout,
)


@dataclass(frozen=True)
class ChocoQConfig(SolverConfig):
    """Algorithmic knobs of the Choco-Q solver.

    Attributes:
        num_layers: the number L of repeated (objective, driver) blocks.  The
            paper uses a single layer for Choco-Q (Table II) because its
            driver carries the *full* solution set Delta; our default driver
            is the compact nullspace basis (see ``nullspace_mode``), which
            needs a few interleaved objective phases to cover the same search
            directions, so the default here is 3 (documented in DESIGN.md).
        nullspace_mode: ``"basis"`` uses the compact generating subset of
            Delta (default, matching the paper's serialized example);
            ``"full"`` enumerates every ternary nullspace vector.
        max_support: optional cap on the support size of the u vectors.
        num_eliminated_variables: how many variables the Opt3 pass removes.
        serialize_driver: Opt1; when False the driver is applied as the
            monolithic matrix exponential (slow, verification only).
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
    serialize_driver: bool = True
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


#: Entry cap of the monolithic-ablation unitary cache.  Each entry is a dense
#: ``2^n x 2^n`` (or ``|F| x |F|``) matrix — one per distinct rounded beta the
#: optimizer visits — so an unbounded dict grows with the iteration count;
#: COBYLA revisits recent angles far more often than old ones, so a small LRU
#: window keeps the hit rate without the memory creep.
MONOLITHIC_UNITARY_CACHE_SIZE = 16


class BoundedUnitaryCache:
    """A small LRU cache of monolithic driver unitaries keyed by angle.

    Used only on the ``serialize_driver=False`` ablation path, where each
    distinct beta costs a matrix exponential worth caching but holding every
    one ever seen would grow without limit over a long optimization.
    """

    def __init__(self, max_entries: int = MONOLITHIC_UNITARY_CACHE_SIZE) -> None:
        if max_entries < 1:
            raise SolverError("the unitary cache needs at least one entry")
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[float, np.ndarray]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: float) -> "np.ndarray | None":
        unitary = self._entries.get(key)
        if unitary is not None:
            self._entries.move_to_end(key)
        return unitary

    def put(self, key: float, unitary: np.ndarray) -> None:
        self._entries[key] = unitary
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)


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
        matrix, _ = problem.constraint_matrix()
        if matrix.size == 0:
            raise SolverError(
                "Choco-Q requires at least one constraint; use penalty QAOA for "
                "unconstrained problems"
            )
        if self.config.nullspace_mode == "full":
            solutions = enumerate_ternary_nullspace(matrix, max_support=self.config.max_support)
        else:
            solutions = ternary_nullspace_basis(matrix, max_support=self.config.max_support)
        if not solutions:
            raise SolverError("the constraint system admits no commute-Hamiltonian moves")
        return CommuteDriver.from_solutions(solutions)

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
        result.metadata["num_driver_terms"] = len(driver.terms)
        result.metadata["total_nonzeros"] = driver.total_nonzeros
        return result

    def build_spec(self, problem: ConstrainedBinaryProblem) -> tuple[AnsatzSpec, CommuteDriver]:
        """The compiled ``(AnsatzSpec, CommuteDriver)`` for one problem.

        Public so benchmarks and analyses can time or inspect the prepared
        evolution (cost evaluations, backend agreement) without running the
        optimizer — the same spec :meth:`solve` executes.
        """
        num_qubits = problem.num_variables
        driver = self.build_driver(problem)
        objective = problem.minimization_objective()
        initial_bits = problem_initial_assignment(problem)
        num_layers = self.config.num_layers
        serialize = self.config.serialize_driver
        use_decomposition = self.config.use_equivalent_decomposition
        # The backends share one ansatz loop; they differ only in the state
        # layout and the pair indices / unitaries it compiles.
        layout = resolve_state_layout(
            problem,
            self.config.backend,
            self.config.subspace_limit,
            cost_terms=objective.terms,
            initial_bits=initial_bits,
            driver=driver,
        )
        initial_state = layout.initial_state
        cost_diagonal = layout.cost_diagonal

        if serialize:
            # Compile once per prepare: every cost evaluation afterwards runs
            # over cached pair indices with zero structural recomputation,
            # broadcasting unchanged over the batched (k, 2L) sweep path.
            evolve = EvolutionProgram(num_layers, cost_diagonal, layout.pairings).bind(
                initial_state
            )
        else:
            # Monolithic ablation (Opt1 off): one dense matrix exponential
            # per distinct beta, LRU-bounded so a long optimization cannot
            # accumulate unboundedly many 2^n x 2^n (or |F| x |F|) unitaries.
            monolithic_unitary_cache = BoundedUnitaryCache()
            levels, level_index = diagonal_levels(cost_diagonal)

            def evolve(parameters: np.ndarray) -> np.ndarray:
                parameters, state = prepare_ansatz_state(initial_state, parameters)
                for layer in range(num_layers):
                    gamma = parameters[..., 2 * layer]
                    beta = parameters[..., 2 * layer + 1]
                    state = apply_diagonal_phase(state, gamma, levels, level_index)
                    key = round(float(beta), 12)
                    unitary = monolithic_unitary_cache.get(key)
                    if unitary is None:
                        unitary = layout.driver_unitary(float(beta))
                        monolithic_unitary_cache.put(key, unitary)
                    state = unitary @ state
                return state

        def build_circuit(parameters: np.ndarray) -> QuantumCircuit:
            circuit = QuantumCircuit(num_qubits, name="choco_q")
            for qubit, bit in enumerate(initial_bits):
                if bit:
                    circuit.x(qubit)
            for layer in range(num_layers):
                gamma = float(parameters[2 * layer])
                beta = float(parameters[2 * layer + 1])
                phase_circuit = phase_separation_circuit(objective.terms, num_qubits, gamma)
                circuit.compose(phase_circuit, qubits=range(num_qubits))
                if use_decomposition:
                    driver_circuit = driver.serialized_circuit(beta)
                    circuit.compose(driver_circuit, qubits=range(num_qubits))
                else:
                    from scipy.linalg import expm

                    for term in driver.terms:
                        local = _local_hamiltonian_matrix(term)
                        circuit.unitary(
                            expm(-1j * beta * local), term.support, label="local_hc"
                        )
            return circuit

        metadata = {
            "num_layers": num_layers,
            "initial_assignment": initial_bits,
            "num_driver_terms": len(driver.terms),
            "nullspace_mode": self.config.nullspace_mode,
            "backend_requested": self.config.backend,
            # The serialized path runs as a compiled EvolutionProgram; the
            # monolithic ablation keeps the per-beta unitary cache instead.
            "compiled_evolution": serialize,
        }
        if layout.subspace_map is not None:
            metadata["subspace_size"] = layout.subspace_map.size
        spec = AnsatzSpec(
            name=self.name,
            num_qubits=num_qubits,
            initial_state=initial_state,
            cost_diagonal=cost_diagonal,
            evolve=evolve,
            build_circuit=build_circuit,
            initial_parameters=self._initial_parameters(),
            metadata=metadata,
            backend=layout.backend,
            # The monolithic ablation caches one dense unitary per scalar
            # beta, which does not broadcast; only the serialized product
            # supports the (k, 2L) sweep path.
            evolve_batch=evolve if serialize else None,
        )
        return spec, driver

    def _initial_parameters(self) -> np.ndarray:
        layers = np.arange(1, self.config.num_layers + 1)
        gammas = 0.4 * layers / self.config.num_layers
        betas = np.full(self.config.num_layers, np.pi / 4)
        return np.ravel(np.column_stack([gammas, betas]))

    # ------------------------------------------------------------------
    # Variable-elimination pipeline (Opt3)
    # ------------------------------------------------------------------

    def _solve_with_elimination(self, problem: ConstrainedBinaryProblem) -> SolverResult:
        start = time.perf_counter()
        matrix, _ = problem.constraint_matrix()
        if matrix.size == 0:
            raise SolverError("variable elimination requires constraints")
        base_solutions = (
            enumerate_ternary_nullspace(matrix, max_support=self.config.max_support)
            if self.config.nullspace_mode == "full"
            else ternary_nullspace_basis(matrix, max_support=self.config.max_support)
        )
        variables = choose_elimination_variables(
            problem, self.config.num_eliminated_variables, solutions=base_solutions
        )
        if not variables:
            return self._solve_single(problem)
        plan = build_elimination_plan(problem, variables)

        sub_config = self.config.replace(num_eliminated_variables=0)
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
        # Independent, reproducible RNG streams per sub-instance (explicit
        # child derivation — a caller-owned SeedSequence is never mutated).
        instance_seeds = [
            child_seed_sequence(self.options.seed, index)
            for index in range(plan.num_circuits)
        ]

        merged_counts: list[SampleResult] = []
        merged_distribution: dict[str, float] = {}
        trace = OptimizationTrace()
        latency = LatencyBreakdown()
        max_depth = 0
        max_transpiled_depth = 0
        max_two_qubit = 0
        total_iterations = 0
        sub_results: list[SolverResult] = []
        # The merged result reports the *deepest* sub-circuit's depth, so it
        # carries that sub-instance's transpile report too.
        deepest_transpile_report: dict | None = None

        for index, instance in enumerate(plan.instances):
            instance_shots = shot_allocation[index]
            sub_options = replace(
                self.options, shots=instance_shots, seed=instance_seeds[index]
            )
            sub_solver = ChocoQSolver(config=sub_config, optimizer=self.optimizer, options=sub_options)
            try:
                sub_result = sub_solver._solve_single(instance.problem)
            except SolverError:
                # A sub-instance whose reduced constraints admit no moves is a
                # single feasible point; report it directly.
                sub_result = _trivial_result(instance.problem, instance_shots)
            sub_results.append(sub_result)

            lifted_counts: dict[str, int] = {}
            for key, count in sub_result.outcomes.counts.items():
                reduced_bits = [int(ch) for ch in key[: instance.problem.num_variables]]
                lifted = instance.lift(reduced_bits)
                lifted_key = "".join(str(b) for b in lifted)
                lifted_counts[lifted_key] = lifted_counts.get(lifted_key, 0) + count
            merged_counts.append(
                SampleResult.from_counts(
                    lifted_counts,
                    metadata={
                        "eliminated_assignments": [
                            {
                                "assignment": dict(instance.assignment),
                                "shots": instance_shots,
                            }
                        ]
                    },
                )
            )

            if sub_result.exact_distribution is not None:
                weight = 1.0 / plan.num_circuits
                for key, probability in sub_result.exact_distribution.items():
                    reduced_bits = [int(ch) for ch in key[: instance.problem.num_variables]]
                    lifted = instance.lift(reduced_bits)
                    lifted_key = "".join(str(b) for b in lifted)
                    merged_distribution[lifted_key] = (
                        merged_distribution.get(lifted_key, 0.0) + weight * probability
                    )

            for cost, parameters in zip(sub_result.trace.costs, sub_result.trace.parameters):
                trace.record(cost, parameters)
            latency.compilation += sub_result.latency.compilation
            latency.quantum_execution += sub_result.latency.quantum_execution
            latency.classical_processing += sub_result.latency.classical_processing
            max_depth = max(max_depth, sub_result.circuit_depth)
            if (
                sub_result.transpiled_depth >= max_transpiled_depth
                and sub_result.metadata.get("transpile_report") is not None
            ):
                deepest_transpile_report = sub_result.metadata["transpile_report"]
            max_transpiled_depth = max(max_transpiled_depth, sub_result.transpiled_depth)
            max_two_qubit = max(max_two_qubit, sub_result.num_two_qubit_gates)
            total_iterations += sub_result.metadata.get("iterations", 0)

        elapsed = time.perf_counter() - start
        outcomes = merge_results(merged_counts)
        # The merged result carries the same noise annotation every
        # single-instance noisy run does.
        noise = self.config.noise
        noise_metadata = {"noise": noise.to_dict()} if noise is not None else {}
        report_metadata = (
            {"transpile_report": deepest_transpile_report}
            if deepest_transpile_report is not None
            else {}
        )
        return SolverResult(
            solver_name=self.name,
            problem_name=problem.name,
            outcomes=outcomes,
            exact_distribution=merged_distribution or None,
            optimal_parameters=None,
            trace=trace,
            circuit_depth=max_depth,
            transpiled_depth=max_transpiled_depth,
            num_qubits=problem.num_variables - len(variables),
            num_two_qubit_gates=max_two_qubit,
            latency=latency,
            metadata={
                "eliminated_variables": variables,
                "num_circuits": plan.num_circuits,
                "iterations": total_iterations,
                "wall_clock_s": elapsed,
                "sub_problem_qubits": problem.num_variables - len(variables),
                "state_backend": self.config.backend,
                "shot_allocation": shot_allocation,
                **noise_metadata,
                **report_metadata,
            },
        )


def _local_hamiltonian_matrix(term: CommuteHamiltonianTerm) -> np.ndarray:
    """The local H_c(u) restricted to its support qubits (for the Opt2 ablation)."""
    sigma = {
        +1: np.array([[0, 0], [1, 0]], dtype=complex),
        -1: np.array([[0, 1], [0, 0]], dtype=complex),
    }
    matrix = np.array([[1.0]], dtype=complex)
    for qubit in reversed(term.support):
        matrix = np.kron(matrix, sigma[term.u[qubit]])
    return matrix + matrix.conj().T


def _trivial_result(problem: ConstrainedBinaryProblem, shots: int) -> SolverResult:
    """Result for a sub-problem whose feasible set is a single classical point."""
    bits = problem_initial_assignment(problem)
    key = "".join(str(b) for b in bits)
    outcomes = SampleResult.from_counts({key: shots} if shots else {})
    return SolverResult(
        solver_name="choco-q",
        problem_name=problem.name,
        outcomes=outcomes,
        exact_distribution={key: 1.0},
        num_qubits=problem.num_variables,
        metadata={"iterations": 0, "trivial": True},
    )
