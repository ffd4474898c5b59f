"""Shared variational execution engine.

Every solver in this package (penalty QAOA, cyclic QAOA, HEA, Choco-Q) is a
variational algorithm: a parameterised state-preparation routine, a diagonal
cost observable, a classical optimizer, and a final sampling step.  To keep
the individual solver modules focused on *what the ansatz is*, this module
implements the shared *how it runs*:

* :class:`AnsatzSpec` — the contract a solver provides through its
  ``build_spec(problem)``: how to evolve a statevector for given parameters
  (fast simulation path), how to build the gate-level circuit for the same
  parameters (depth accounting, noisy execution), the cost diagonal, the
  initial state, and parameter metadata.  Every ``evolve`` takes one
  ``(P,)`` parameter vector or a ``(k, P)`` batch, so the optimizer loop and
  the parameter-sweep path (:func:`batched_expectations`, multistart, the
  service's coalesced sweeps) share one closure for every solver.  Choco-Q,
  cyclic and penalty QAOA evolve through a compiled
  :class:`~repro.hamiltonian.compiled.EvolutionProgram`, which broadcasts
  over a batch; HEA keeps its own RY/CZ kernel over hop sides built once
  per spec and evolves a batch row by row.
* :class:`StateBackend` — the pluggable state layout the ansatz evolves
  over.  :class:`DenseStateBackend` indexes amplitudes by the full ``2^n``
  computational basis; :class:`SubspaceStateBackend` indexes them by the
  compact coordinates of a feasible :class:`~repro.core.subspace.SubspaceMap`
  (length ``|F|``), so a COBYLA iteration scales with the feasible-set size
  instead of the Hilbert-space dimension.  ``AnsatzSpec.evolve``,
  ``initial_state`` and ``cost_diagonal`` must all live in the backend's
  layout; the backend converts final states to bitstring distributions and
  shot histograms.
* :func:`layered_ansatz` — the one builder of the layered QAOA ansatz that
  Choco-Q, cyclic QAOA and penalty QAOA share (paper §II-B, Fig. 3): a
  start state, then ``L`` layers of the objective phase separator and a
  driver.  It makes the one dense-vs-subspace decision (``dense``,
  ``subspace`` or ``auto``), compiles the evolution program and emits the
  matching circuit; each solver supplies only its cost terms, start bits,
  driver, mixer gates and metadata.  :func:`interleave` and
  :func:`linear_ramp` spell the ``(gamma_l, beta_l)`` parameter order.
* :class:`VariationalEngine` — the run loop: compile the reference circuit,
  drive the classical optimizer against the exact expectation value, then
  sample the optimal state (ideally or through the solver config's
  :class:`~repro.solvers.config.NoiseConfig`), and assemble a
  :class:`~repro.solvers.base.SolverResult` with depth accounting and the
  modeled latency.  A spec from the structure memo
  (:mod:`repro.solvers.structure`) carries its seed-free
  :class:`CompileReport`, so a warm run neither rebuilds nor walks its
  reference circuit.  :class:`EngineOptions` carries run settings only
  (shots, seed, multistart, optimization level); noise is a config field,
  so a noisy run is defined by its config and seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.problem import ConstrainedBinaryProblem
from repro.core.subspace import SubspaceMap
from repro.exceptions import SolverError
from repro.hamiltonian.commute import CommuteDriver
from repro.hamiltonian.compiled import EvolutionProgram
from repro.hamiltonian.diagonal import phase_separation_circuit, polynomial_diagonal
from repro.qcircuit.circuit import QuantumCircuit
from repro.qcircuit.sampling import SampleResult, outcome_distribution, sample_histogram
from repro.qcircuit.statevector import MAX_DENSE_QUBITS, Statevector, abs_squared, index_bits
from repro.qcircuit.passes.manager import MAX_OPTIMIZATION_LEVEL
from repro.qcircuit.transpile import (
    TranspileOptions,
    transpile,
    transpile_with_report,
    unitary_synthesis_penalty,
)
from repro.serialization import is_integer
from repro.solvers.base import SolverResult
from repro.solvers.config import NoiseConfig
from repro.solvers.latency import LatencyModel
from repro.solvers.optimizer import Optimizer

EvolveFunction = Callable[[np.ndarray], np.ndarray]
CircuitBuilder = Callable[[np.ndarray], QuantumCircuit]
#: Appends one layer's driver gates for angle ``beta`` to a circuit.
MixerGates = Callable[[QuantumCircuit, float], None]

#: Feasible-set size past which ``backend="auto"`` solvers abandon the
#: subspace map and fall back to the dense statevector.  At 2^16 entries the
#: map build and per-term pairing work start to rival a dense evolution on
#: the register sizes this package simulates, so beyond it the subspace
#: layout no longer pays for its construction.
DEFAULT_SUBSPACE_AUTO_LIMIT = 1 << 16

STATE_BACKEND_NAMES = ("dense", "subspace", "auto")


def validate_backend_choice(backend: str, subspace_limit: int | None) -> None:
    """Validate the (backend, subspace_limit) pair every solver config takes."""
    if backend not in STATE_BACKEND_NAMES:
        raise SolverError("backend must be 'dense', 'subspace' or 'auto'")
    if subspace_limit is not None and subspace_limit < 1:
        raise SolverError("subspace_limit must be positive")


class StateBackend:
    """How the simulated state is laid out, measured and sampled.

    A backend fixes the meaning of the amplitude vectors that
    ``AnsatzSpec.evolve`` consumes and produces, and converts the final
    state into the bitstring-keyed artefacts every solver reports.  Its
    only layout-specific part of that conversion is :meth:`bits_of`; the
    distribution and the histogram come from
    :func:`~repro.qcircuit.sampling.outcome_distribution` and
    :func:`~repro.qcircuit.sampling.sample_histogram`.
    """

    name: str = "backend"

    @property
    def dimension(self) -> int:
        """Length of the amplitude vectors this backend evolves."""
        raise NotImplementedError

    def bits_of(self, indices: np.ndarray) -> np.ndarray:
        """``(k, n)`` uint8 bit rows of ascending, distinct state indices."""
        raise NotImplementedError

    def exact_distribution(self, state: np.ndarray) -> dict[str, float]:
        """Exact bitstring distribution of a final state."""
        raise NotImplementedError

    def sample(
        self, state: np.ndarray, shots: int, rng: np.random.Generator
    ) -> SampleResult:
        """Shot-sampled bitstring histogram of a final state."""
        raise NotImplementedError


class DenseStateBackend(StateBackend):
    """Amplitudes indexed by the full ``2^n`` computational basis."""

    name = "dense"

    def __init__(self, num_qubits: int) -> None:
        self.num_qubits = num_qubits

    @property
    def dimension(self) -> int:
        return 2**self.num_qubits

    def bits_of(self, indices: np.ndarray) -> np.ndarray:
        return index_bits(indices, self.num_qubits)

    def exact_distribution(self, state: np.ndarray) -> dict[str, float]:
        return outcome_distribution(abs_squared(state), self.bits_of)

    def sample(
        self, state: np.ndarray, shots: int, rng: np.random.Generator
    ) -> SampleResult:
        return SampleResult.from_counts(
            sample_histogram(abs_squared(state), shots, self.bits_of, rng)
        )


class SubspaceStateBackend(StateBackend):
    """Amplitudes indexed by the coordinates of a feasible subspace.

    Evolution, expectation and sampling all run over ``|F|`` entries; the
    :class:`~repro.core.subspace.SubspaceMap` lifts measured coordinates
    back to full-register bitstrings, so results are indistinguishable in
    format from the dense backend's.
    """

    name = "subspace"

    def __init__(self, subspace_map) -> None:
        self.subspace_map = subspace_map

    @property
    def dimension(self) -> int:
        return self.subspace_map.size

    def bits_of(self, indices: np.ndarray) -> np.ndarray:
        return self.subspace_map.basis[indices]

    def exact_distribution(self, state: np.ndarray) -> dict[str, float]:
        return outcome_distribution(abs_squared(state), self.bits_of)

    def sample(
        self, state: np.ndarray, shots: int, rng: np.random.Generator
    ) -> SampleResult:
        return SampleResult.from_counts(
            sample_histogram(abs_squared(state), shots, self.bits_of, rng)
        )


@dataclass(frozen=True)
class CompileReport:
    """The seed-free products of compiling a spec's reference circuit.

    ``reference_circuit`` is ``build_circuit(initial_parameters)``;
    ``transpiled_depth`` and ``circuit_duration`` (the default
    :class:`~repro.solvers.latency.LatencyModel`'s) describe its transpile
    under one :class:`~repro.qcircuit.transpile.TranspileOptions`.
    """

    reference_circuit: QuantumCircuit
    transpiled_depth: int
    circuit_duration: float


@dataclass
class AnsatzSpec:
    """Everything the engine needs to run one variational ansatz.

    ``initial_state``, ``cost_diagonal`` and the vectors ``evolve`` maps
    between all live in the layout of ``backend`` (dense ``2^n`` when
    ``backend`` is None).  ``evolve`` maps one ``(P,)`` parameter vector to
    one ``(dimension,)`` state, or a ``(k, P)`` batch to the ``(k,
    dimension)`` batch whose rows are bit-identical to evolving each vector
    alone.  ``build_circuit`` always targets the full gate-level register
    regardless of backend.

    ``compile_reports`` maps transpile options to the :class:`CompileReport`
    of this spec's reference circuit.  A spec from the structure memo
    (:mod:`repro.solvers.structure`) shares one dict with every copy of its
    entry, which the engine fills on first use; ``None`` means the engine
    compiles the reference circuit on every run.
    """

    name: str
    num_qubits: int
    initial_state: np.ndarray
    cost_diagonal: np.ndarray
    evolve: EvolveFunction
    build_circuit: CircuitBuilder
    initial_parameters: np.ndarray
    metadata: dict | None = None
    backend: StateBackend | None = None
    compile_reports: "dict[TranspileOptions, CompileReport] | None" = None


def require_dense_register(num_qubits: int) -> None:
    """Refuse a dense ``2^n`` layout past :data:`MAX_DENSE_QUBITS`, before
    any array of that size is allocated."""
    if num_qubits > MAX_DENSE_QUBITS:
        raise SolverError(
            f"a dense statevector of {num_qubits} qubits exceeds the {MAX_DENSE_QUBITS}-qubit "
            "dense cap; only a feasible-subspace layout (backend='subspace') runs past it"
        )


def _choose_subspace_map(
    problem: ConstrainedBinaryProblem, backend: str, subspace_limit: int | None
) -> SubspaceMap | None:
    """The feasible-subspace map a ``backend`` choice calls for, or None.

    ``None`` means "run dense": either the choice says so, or ``auto``
    found the feasible set past its fallback threshold while streaming the
    enumeration (``subspace_limit``, or :data:`DEFAULT_SUBSPACE_AUTO_LIMIT`
    when unset).
    """
    if backend == "dense":
        return None
    if backend == "subspace":
        return SubspaceMap.from_problem(problem, limit=subspace_limit)
    if subspace_limit is None:
        subspace_limit = DEFAULT_SUBSPACE_AUTO_LIMIT
    return SubspaceMap.try_from_problem(problem, limit=subspace_limit)


def interleave(gammas, betas) -> np.ndarray:
    """The layered parameter vector ``(gamma_1, beta_1, ..., gamma_L, beta_L)``."""
    return np.ravel(np.column_stack([gammas, betas]))


def linear_ramp(num_layers: int) -> np.ndarray:
    """Annealing-inspired start over ``num_layers``: gamma grows, beta shrinks."""
    layers = np.arange(1, num_layers + 1)
    gammas = 0.7 * layers / num_layers
    betas = 0.7 * (1.0 - layers / num_layers) + 0.1
    return interleave(gammas, betas)


def layered_ansatz(
    name: str,
    problem: ConstrainedBinaryProblem,
    backend: str,
    subspace_limit: int | None,
    *,
    cost_terms: Mapping[tuple[int, ...], float],
    initial_bits: Sequence[int] | None,
    driver: CommuteDriver | None,
    mix: MixerGates,
    num_layers: int,
    initial_parameters: np.ndarray,
    metadata: dict,
    angle_scale: float = 1.0,
) -> AnsatzSpec:
    """The :class:`AnsatzSpec` of one layered QAOA ansatz.

    A start state, then ``num_layers`` repetitions of the phase separator
    ``e^{-i gamma_l H_o}`` of ``cost_terms`` and the driver with angle
    ``beta_l``; parameters come as :func:`interleave` orders them.  The
    start is the basis state of ``initial_bits`` (the circuit opens with X
    on its set bits) or, for ``None``, the uniform superposition (H on
    every qubit; dense only).

    ``backend`` (``dense``, ``subspace`` or ``auto``) and ``subspace_limit``
    choose the state layout.  ``problem``'s constraints define the invariant
    subspace: every row the driver conserves, and no other (cyclic QAOA
    passes only its encoded rows).  ``driver``'s hop terms, rotated by
    ``angle_scale * beta_l``, make the simulated driver (``None``: no hops,
    a pure phase sequence); ``mix(circuit, beta_l)`` appends its gates.  The
    spec's metadata is ``num_layers``, then ``metadata``, then
    ``subspace_size`` when a map is used.
    """
    num_qubits = problem.num_variables
    subspace_map = _choose_subspace_map(problem, backend, subspace_limit)
    if subspace_map is None:
        require_dense_register(num_qubits)
        initial_state = (
            uniform_state(num_qubits)
            if initial_bits is None
            else basis_state(num_qubits, initial_bits)
        )
        cost_diagonal = polynomial_diagonal(cost_terms, num_qubits)
    elif initial_bits is None:
        raise SolverError("a uniform start state runs on the dense layout only")
    else:
        # Every per-iteration object has length |F|; nothing of size 2^n is
        # materialised.
        initial_state = subspace_map.basis_state(initial_bits)
        cost_diagonal = subspace_map.evaluate_polynomial(cost_terms)
    pairings = () if driver is None else driver.pairings(subspace_map)
    # Compile once per prepare: every cost evaluation afterwards runs over
    # cached hop sides, broadcasting unchanged over a (k, 2L) sweep batch.
    evolve = EvolutionProgram(
        num_layers, cost_diagonal, pairings, angle_scale=angle_scale
    ).bind(initial_state)
    register = range(num_qubits)

    def build_circuit(parameters: np.ndarray) -> QuantumCircuit:
        circuit = QuantumCircuit(num_qubits, name=name.replace("-", "_"))
        for qubit in register:
            if initial_bits is None:
                circuit.h(qubit)
            elif initial_bits[qubit]:
                circuit.x(qubit)
        for layer in range(num_layers):
            gamma = float(parameters[2 * layer])
            beta = float(parameters[2 * layer + 1])
            phase_circuit = phase_separation_circuit(cost_terms, num_qubits, gamma)
            circuit.compose(phase_circuit, qubits=register)
            mix(circuit, beta)
        return circuit

    metadata = {"num_layers": num_layers, **metadata}
    if subspace_map is not None:
        metadata["subspace_size"] = subspace_map.size
    return AnsatzSpec(
        name=name,
        num_qubits=num_qubits,
        initial_state=initial_state,
        cost_diagonal=cost_diagonal,
        evolve=evolve,
        build_circuit=build_circuit,
        initial_parameters=initial_parameters,
        metadata=metadata,
        backend=None if subspace_map is None else SubspaceStateBackend(subspace_map),
    )


@dataclass
class EngineOptions:
    """Execution options shared by every solver.

    ``seed`` accepts anything :func:`np.random.default_rng` does — in
    particular a :class:`np.random.SeedSequence`, which the elimination
    pipeline uses to hand each sub-instance its own independent stream.

    ``shots`` is a non-negative integer; ``0`` is valid (an elimination
    sub-instance whose share of the budget rounded to nothing).  ``seed``,
    ``multistart`` and ``optimization_level`` are integers too: a float, a
    bool or a negative value is rejected here, where a run spec's fields
    (which may come from a TCP client's JSON) are consumed.

    ``multistart`` enables the batched initial-parameter picker: the engine
    scores that many candidate initial parameter vectors (the ansatz default
    plus ``multistart - 1`` random draws from a dedicated seed stream) in one
    :func:`batched_expectations` sweep and hands the best basin to the
    optimizer.  ``1`` (the default) keeps the ansatz default untouched.

    ``optimization_level`` selects the transpiler's optimization pipeline
    for both depth accounting and noisy execution (``None`` means the
    package default, :data:`~repro.qcircuit.passes.manager.
    DEFAULT_OPTIMIZATION_LEVEL`); ``0`` reproduces the pre-pass-stack
    lowering bit for bit.
    """

    shots: int = 4096
    seed: int | np.random.SeedSequence | None = None
    multistart: int = 1
    optimization_level: int | None = None

    def __post_init__(self) -> None:
        if not is_integer(self.shots) or self.shots < 0:
            raise SolverError(f"shots must be a non-negative integer, got {self.shots!r}")
        if not (
            self.seed is None
            or isinstance(self.seed, np.random.SeedSequence)
            or (is_integer(self.seed) and self.seed >= 0)
        ):
            raise SolverError(
                "seed must be None, a SeedSequence or a non-negative integer, "
                f"got {self.seed!r}"
            )
        if not is_integer(self.multistart) or self.multistart < 1:
            raise SolverError(
                f"multistart must be an integer of at least 1, got {self.multistart!r}"
            )
        if self.optimization_level is not None and not (
            is_integer(self.optimization_level)
            and 0 <= self.optimization_level <= MAX_OPTIMIZATION_LEVEL
        ):
            raise SolverError(
                "optimization_level must be None or an integer between 0 and "
                f"{MAX_OPTIMIZATION_LEVEL}, got {self.optimization_level!r}"
            )

    def transpile_options(self) -> TranspileOptions:
        """The transpiler options these engine options select."""
        if self.optimization_level is None:
            return TranspileOptions()
        return TranspileOptions(optimization_level=self.optimization_level)


#: Spawn-key component reserving an independent SeedSequence stream for the
#: multistart candidate draws, so enabling the picker never perturbs the
#: sampling RNG (which consumes ``options.seed`` directly).
_MULTISTART_SPAWN_KEY = 0x6D73  # "ms"

#: Spawn-key component reserving an independent SeedSequence stream for the
#: noise model built from the solver config's ``noise``, so noisy
#: trajectories and readout flips are reproducible without perturbing the
#: sampling RNG.
_NOISE_SPAWN_KEY = 0x6E7A  # "nz"

#: Spawn-key component reserving an independent SeedSequence stream for a
#: stochastic optimizer (SPSA's perturbations), so its trajectory is fixed
#: by the run seed without perturbing the sampling RNG.
_OPTIMIZER_SPAWN_KEY = 0x6F70  # "op"


def child_seed_sequence(
    seed: "int | np.random.SeedSequence | None", key: int
) -> np.random.SeedSequence:
    """An independent SeedSequence child of ``seed`` for stream ``key``.

    Built explicitly — never via ``spawn()``, which advances a caller-owned
    sequence's child counter and would make repeated runs diverge.  The one
    derivation behind every reserved stream in the package: the multistart
    candidate draws, the noise model, the optimizer's draws, and the
    elimination pipeline's per-sub-instance streams.
    """
    base = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return np.random.SeedSequence(
        entropy=base.entropy,
        spawn_key=tuple(base.spawn_key) + (key,),
    )


def noise_seed_sequence(
    seed: "int | np.random.SeedSequence | None",
) -> np.random.SeedSequence:
    """The SeedSequence child reserved for the run's noise model, so the
    same run seed always yields the same noise stream, in-process or on a
    plan worker."""
    return child_seed_sequence(seed, _NOISE_SPAWN_KEY)


class VariationalEngine:
    """Runs the optimize-then-sample loop for one :class:`AnsatzSpec`.

    ``noise`` is the solver config's :class:`~repro.solvers.config.NoiseConfig`
    (``None`` samples ideally).  The engine builds its model at run time,
    seeded from a SeedSequence child of ``options.seed``, so a noisy run
    reproduces bit for bit in any process.
    """

    def __init__(
        self,
        optimizer: Optimizer,
        options: EngineOptions | None = None,
        noise: NoiseConfig | None = None,
    ) -> None:
        self.optimizer = optimizer
        self.options = options or EngineOptions()
        self.noise = noise

    def _pick_multistart_basin(self, spec: AnsatzSpec) -> tuple[np.ndarray, dict]:
        """Score k candidate initial vectors in one batched sweep; keep the best.

        Candidate 0 is always the ansatz default, so multistart can only
        improve on (never regress below) the single-start initial cost.  The
        random candidates come from a reserved :func:`child_seed_sequence`
        stream, so enabling the picker never perturbs the sampling RNG.
        """
        k = self.options.multistart
        rng = np.random.default_rng(
            child_seed_sequence(self.options.seed, _MULTISTART_SPAWN_KEY)
        )
        default = np.asarray(spec.initial_parameters, dtype=float)
        candidates = np.vstack(
            [default[np.newaxis, :], rng.uniform(-np.pi, np.pi, size=(k - 1, default.size))]
        )
        scores = batched_expectations(spec, candidates)
        best = int(np.argmin(scores))
        metadata = {
            "multistart": k,
            "multistart_best_index": best,
            "multistart_scores": [float(score) for score in scores],
        }
        return candidates[best], metadata

    # ------------------------------------------------------------------

    def run(self, spec: AnsatzSpec, problem: ConstrainedBinaryProblem) -> SolverResult:
        """Compile, optimize, sample and account for one ansatz on ``problem``.

        The compile step builds the reference circuit, transpiles it for
        depth accounting and models its duration; the depths and the
        two-qubit count are read off the transpile report's ``source`` and
        ``optimized`` stats, so the step walks no circuit after the
        transpile.  A spec from the structure memo (e.g. a second seed of
        the same problem and config) takes its reference circuit, transpiled
        depth and modeled duration from its entry's :class:`CompileReport`,
        and its transpile is a lookup in the transpile memo.  ``latency`` is
        :meth:`LatencyModel.estimate` of that duration, the iteration count
        and the shot budget, so the whole result is the same whichever
        path compiled it.
        """
        rng = np.random.default_rng(self.options.seed)
        backend = spec.backend or DenseStateBackend(spec.num_qubits)

        # ---- compilation (circuit construction + lowering) --------------
        transpile_options = self.options.transpile_options()
        reports = spec.compile_reports
        compiled = None if reports is None else reports.get(transpile_options)
        reference_circuit = (
            spec.build_circuit(spec.initial_parameters)
            if compiled is None
            else compiled.reference_circuit
        )
        transpiled, transpile_report = transpile_with_report(
            reference_circuit, transpile_options
        )
        if compiled is None:
            compiled = CompileReport(
                reference_circuit,
                transpiled_depth=transpile_report.optimized.depth
                + unitary_synthesis_penalty(transpiled),
                circuit_duration=LatencyModel().circuit_duration(transpiled),
            )
            if reports is not None:
                reports.setdefault(transpile_options, compiled)

        # The noisy run simulates the transpiled final circuit, whose width
        # (ancillas included) is this one's: ancillas depend on control
        # counts, not on angles.  Refuse it now, not after the optimizer.
        noise = self.noise
        if noise is not None and self.options.shots > 0 and transpiled.num_qubits > MAX_DENSE_QUBITS:
            raise SolverError(
                f"a noisy run simulates the {transpiled.num_qubits}-qubit transpiled circuit "
                f"(ancillas included), past the {MAX_DENSE_QUBITS}-qubit dense cap"
            )

        # ---- classical optimization against the exact expectation -------
        def cost(parameters: np.ndarray) -> float:
            state = spec.evolve(parameters)
            # Deliberately np.abs(...)**2, not abs_squared: the two round
            # differently in the last ulp, and the optimizer trajectory is
            # pinned bit-for-bit by the cross-backend equivalence tests —
            # the hot-path micro-opt is reserved for the sampling/support
            # reductions, which no trajectory depends on.
            probabilities = np.abs(state) ** 2
            return float(np.dot(probabilities, spec.cost_diagonal))

        initial_parameters = spec.initial_parameters
        multistart_metadata: dict = {}
        if self.options.multistart > 1:
            initial_parameters, multistart_metadata = self._pick_multistart_basin(spec)

        optimizer = self.optimizer.seeded(
            child_seed_sequence(self.options.seed, _OPTIMIZER_SPAWN_KEY)
        )
        optimizer_result = optimizer.minimize(cost, initial_parameters)

        # ---- final state and sampling -----------------------------------
        if noise is not None:
            # A zero-shot run (e.g. an elimination sub-instance whose share of
            # the budget rounded to nothing) has an empty histogram; the noise
            # model rejects shots=0, so short-circuit it.
            if self.options.shots > 0:
                # Materialise the scenario here, seeded from a dedicated
                # SeedSequence child of the run seed: a plan worker executing
                # this spec reproduces the sequential run bit for bit.
                model = noise.build_model(
                    seed=noise_seed_sequence(self.options.seed)
                )
                final_circuit = spec.build_circuit(optimizer_result.parameters)
                # Simulate the circuit a device would actually run: the same
                # optimization pipeline the depth accounting used, so the
                # noise cost tracks the *optimized* gate counts.
                noisy_target = transpile(final_circuit, transpile_options)
                if noise.mode == "analytical":
                    outcomes = model.sample_analytical(
                        noisy_target, shots=self.options.shots
                    )
                else:
                    outcomes = model.sample(
                        noisy_target,
                        shots=self.options.shots,
                        trajectories=noise.trajectories,
                    )
            else:
                outcomes = SampleResult()
            reported_distribution = None
        else:
            # The final evolve lives here on purpose: the noise branch
            # re-simulates at the gate level, so computing the fast-path
            # state there would be pure waste.
            final_state_vector = spec.evolve(optimizer_result.parameters)
            outcomes = backend.sample(final_state_vector, self.options.shots, rng)
            reported_distribution = backend.exact_distribution(final_state_vector)

        metadata = dict(spec.metadata or {})
        metadata.update(multistart_metadata)
        metadata.update(
            {
                "iterations": optimizer_result.num_iterations,
                "optimizer": self.optimizer.name,
                "final_cost": optimizer_result.cost,
                "circuit_duration_s": compiled.circuit_duration,
                "state_backend": backend.name,
            }
        )
        metadata["transpile_report"] = transpile_report.to_dict()
        if noise is not None:
            metadata["noise"] = noise.to_dict()
        return SolverResult(
            solver_name=spec.name,
            problem_name=problem.name,
            outcomes=outcomes,
            exact_distribution=reported_distribution,
            optimal_parameters=optimizer_result.parameters,
            trace=optimizer_result.trace,
            circuit_depth=transpile_report.source.depth,
            transpiled_depth=compiled.transpiled_depth,
            num_qubits=spec.num_qubits,
            num_two_qubit_gates=transpile_report.optimized.two_qubit_gates,
            latency=LatencyModel().estimate(
                compiled.circuit_duration,
                iterations=max(optimizer_result.num_iterations, 1),
                shots=self.options.shots,
            ),
            metadata=metadata,
        )


# ---------------------------------------------------------------------------
# Batched evolution over parameter sets (COBYLA restarts / parameter sweeps)
# ---------------------------------------------------------------------------


def evolve_parameter_sets(spec: AnsatzSpec, parameter_sets: np.ndarray) -> np.ndarray:
    """Evolve several parameter vectors at once into a ``(k, dim)`` batch.

    ``parameter_sets`` is ``(k, num_parameters)`` (a single vector is
    promoted to ``k = 1``) and goes to ``spec.evolve`` whole.  A compiled
    program runs the sweep as one stack of array operations over the
    backend layout — for the subspace backend that is ``(k, |F|)`` work per
    term, so vectorising COBYLA restarts or a parameter grid costs one
    evolution's worth of Python overhead instead of ``k``.  Rows of the
    result are bit-identical to calling ``spec.evolve`` on each vector.
    """
    parameter_sets = np.atleast_2d(np.asarray(parameter_sets, dtype=float))
    if parameter_sets.ndim != 2:
        raise SolverError("parameter_sets must be a (k, num_parameters) array")
    return np.asarray(spec.evolve(parameter_sets))


def batched_expectations(spec: AnsatzSpec, parameter_sets: np.ndarray) -> np.ndarray:
    """Exact cost expectation of every parameter vector in one sweep.

    Returns a length-``k`` array; entry ``j`` equals the sequential cost
    ``<psi(theta_j)| H_o |psi(theta_j)>`` the optimizer loop computes,
    bit for bit.
    """
    states = evolve_parameter_sets(spec, parameter_sets)
    probabilities = np.abs(states) ** 2
    # Reduce row-by-row with the same np.dot the optimizer's cost function
    # uses: a (k, d) @ (d,) matvec may route through a differently-rounded
    # BLAS kernel, which would break the bit-for-bit guarantee above.
    return np.array(
        [float(np.dot(row, spec.cost_diagonal)) for row in probabilities]
    )


# ---------------------------------------------------------------------------
# Shared dense-simulation helpers used by the solver front-ends
# ---------------------------------------------------------------------------


def basis_state(num_qubits: int, bits: "list[int] | tuple[int, ...]") -> np.ndarray:
    """Dense basis state from a bit assignment (qubit i = bits[i])."""
    if len(bits) != num_qubits:
        raise SolverError("bit assignment length must equal the register size")
    return Statevector.from_bitstring(list(bits)).data


def uniform_state(num_qubits: int) -> np.ndarray:
    """Dense uniform superposition (|+>^n)."""
    return Statevector.uniform_superposition(num_qubits).data

