"""Noise models for NISQ device emulation.

The paper evaluates Choco-Q on three IBM devices — **Fez** (Heron r2, native
CZ with 99.7% two-qubit fidelity), **Osaka** and **Sherbrooke** (Eagle r3,
single-direction ECR with 99.3% fidelity, so a CZ costs three ECRs).  We have
no access to the hardware, so this module provides the closest synthetic
equivalent: a Monte-Carlo Pauli-error noise model parameterised by the gate
fidelities quoted in Section V-A plus readout error.

The noise simulation works by stochastic trajectory sampling: each
trajectory walks the circuit once over a dense state, applying every gate
and, with probability derived from the per-gate error rate, a random Pauli on
each of its qubits right after it; its shots then flip readout bits with the
readout error probability.  Averaging over trajectories converges to the
depolarizing-channel result while keeping the cost of a statevector
simulation.

For larger circuits an analytical *success-probability scaling* shortcut is
also offered (:meth:`NoiseModel.fidelity_factor`), which multiplies ideal
outcome probabilities by the product of per-gate fidelities and renormalises
with a uniform error floor — the standard first-order model of depolarizing
noise.  Both paths expose the same knobs the paper's hardware discussion
turns on: two-qubit gate count, depth, and readout quality.

Outcomes come from the one function per kind of outcome in
:mod:`repro.qcircuit.sampling`: every trajectory and the analytical model's
noisy distribution are drawn by :func:`~repro.qcircuit.sampling.sample_histogram`
with the dense layout's ``bits_of`` (``index_bits(indices, n)``).  Both paths
refuse a circuit wider than
:data:`~repro.qcircuit.statevector.MAX_DENSE_QUBITS` before any state is
allocated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Mapping

import numpy as np

from repro.exceptions import NoiseModelError
from repro.qcircuit.circuit import QuantumCircuit
from repro.qcircuit.gates import standard_gate
from repro.qcircuit.sampling import SampleResult, sample_histogram, split_shots
from repro.qcircuit.statevector import (
    Statevector,
    StatevectorSimulator,
    abs_squared,
    apply_matrix,
    index_bits,
    require_simulable,
)


@dataclass(frozen=True)
class DeviceProfile:
    """Calibration summary of a quantum device.

    Attributes:
        name: device identifier.
        single_qubit_error: depolarizing error probability per 1-qubit gate.
        two_qubit_error: depolarizing error probability per 2-qubit gate.
        readout_error: probability of flipping each measured bit.
        two_qubit_gate: native entangling gate (``"cz"`` or ``"ecr"``).
        cz_cost: number of native two-qubit gates needed to realise one CZ/CX
            (3 for single-direction ECR devices, 1 for native-CZ devices).
        single_qubit_time: duration of a 1-qubit gate in seconds.
        two_qubit_time: duration of a 2-qubit gate in seconds.
        readout_time: measurement duration in seconds.
    """

    name: str
    single_qubit_error: float
    two_qubit_error: float
    readout_error: float
    two_qubit_gate: str = "cz"
    cz_cost: int = 1
    single_qubit_time: float = 35e-9
    two_qubit_time: float = 90e-9
    readout_time: float = 1200e-9

    def effective_two_qubit_error(self) -> float:
        """Error of one logical CZ/CX once translated to native gates."""
        native_fidelity = 1.0 - self.two_qubit_error
        return 1.0 - native_fidelity**self.cz_cost


# Device profiles parameterised from the fidelities quoted in Section V-A.
IBM_FEZ = DeviceProfile(
    name="fez",
    single_qubit_error=3e-4,
    two_qubit_error=0.003,  # 99.7% CZ fidelity
    readout_error=0.01,
    two_qubit_gate="cz",
    cz_cost=1,
    two_qubit_time=90e-9,
)

IBM_OSAKA = DeviceProfile(
    name="osaka",
    single_qubit_error=4e-4,
    two_qubit_error=0.007,  # 99.3% ECR fidelity
    readout_error=0.02,
    two_qubit_gate="ecr",
    cz_cost=3,
    two_qubit_time=330e-9,
)

IBM_SHERBROOKE = DeviceProfile(
    name="sherbrooke",
    single_qubit_error=4e-4,
    two_qubit_error=0.007,
    readout_error=0.015,
    two_qubit_gate="ecr",
    cz_cost=3,
    two_qubit_time=330e-9,
)

DEVICE_PROFILES: dict[str, DeviceProfile] = {
    profile.name: profile for profile in (IBM_FEZ, IBM_OSAKA, IBM_SHERBROOKE)
}


def get_device_profile(name: str) -> DeviceProfile:
    """Look up a device profile by name (case-insensitive)."""
    key = name.lower()
    if key not in DEVICE_PROFILES:
        raise NoiseModelError(
            f"unknown device {name!r}; available: {sorted(DEVICE_PROFILES)}"
        )
    return DEVICE_PROFILES[key]


class NoiseModel:
    """Depolarizing + readout noise derived from a :class:`DeviceProfile`.

    ``seed`` accepts anything :func:`numpy.random.default_rng` does — in
    particular a :class:`numpy.random.SeedSequence`, which the variational
    engine derives from its run seed so noisy executions are bit-identical
    across sequential and parallel plan execution.  The serializable
    counterpart of this class is
    :class:`~repro.solvers.config.NoiseConfig`, whose ``build_model``
    constructs one from pure data.
    """

    def __init__(
        self,
        profile: DeviceProfile,
        seed: "int | np.random.SeedSequence | None" = None,
    ) -> None:
        self.profile = profile
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    # Analytical shortcut
    # ------------------------------------------------------------------

    def fidelity_factor(self, circuit: QuantumCircuit) -> float:
        """Estimated probability that the circuit executes without any error.

        Callers should pass the circuit a device would actually run — i.e.
        the *optimized transpiled* circuit — so the estimate tracks circuit
        quality, not the raw high-level instruction list.  An opaque
        ``k``-qubit ``unitary`` (``k >= 2``) is charged its synthesized gate
        cost of ``4**k - 1`` two-qubit gates, consistent with the exponential
        penalty :func:`~repro.qcircuit.transpile.unitary_synthesis_penalty`
        applies to depth; before this, a 5-qubit Trotter step was priced like
        a single CX.
        """
        single = 0
        double = 0
        for instruction in circuit:
            if instruction.is_directive:
                continue
            k = len(instruction.qubits)
            if instruction.gate.name == "unitary" and k >= 2:
                double += 4**k - 1
            elif k >= 2:
                double += 1
            else:
                single += 1
        p_ok_gates = (1 - self.profile.single_qubit_error) ** single
        p_ok_gates *= (1 - self.profile.effective_two_qubit_error()) ** double
        p_ok_readout = (1 - self.profile.readout_error) ** circuit.num_qubits
        return float(p_ok_gates * p_ok_readout)

    def apply_analytical(
        self, ideal_probabilities: np.ndarray, circuit: QuantumCircuit
    ) -> np.ndarray:
        """First-order depolarizing model: mix the ideal distribution with
        the uniform distribution weighted by the circuit failure probability."""
        fidelity = self.fidelity_factor(circuit)
        dim = len(ideal_probabilities)
        uniform = np.full(dim, 1.0 / dim)
        return fidelity * ideal_probabilities + (1 - fidelity) * uniform

    # ------------------------------------------------------------------
    # Monte-Carlo trajectory sampling
    # ------------------------------------------------------------------

    def sample(
        self, circuit: QuantumCircuit, shots: int, trajectories: int = 16
    ) -> SampleResult:
        """Sample the circuit under noise via Pauli-error trajectories.

        ``trajectories`` independent noisy executions are simulated; the shot
        budget is divided between them *exactly* — the first ``shots mod
        trajectories`` trajectories take one extra shot, so the summed
        histogram always carries ``shots`` samples (a trajectory whose share
        rounds to zero is skipped entirely).  Each trajectory inserts a
        random Pauli after every gate with the corresponding error
        probability and applies independent readout bit-flips when sampling.
        A circuit wider than :data:`~repro.qcircuit.statevector.MAX_DENSE_QUBITS`
        raises :class:`~repro.exceptions.SimulationError` before any state
        is allocated.
        """
        if shots < 1:
            raise NoiseModelError("shots must be positive")
        if trajectories < 1:
            raise NoiseModelError("trajectories must be positive")
        require_simulable(circuit.num_qubits)
        bits_of = partial(index_bits, num_qubits=circuit.num_qubits)
        totals: dict[str, int] = {}
        for per_trajectory in split_shots(shots, trajectories):
            if per_trajectory == 0:
                continue
            probabilities = abs_squared(self._trajectory_state(circuit))
            counts = sample_histogram(probabilities, per_trajectory, bits_of, rng=self._rng)
            for key, value in self._apply_readout_error(counts).items():
                totals[key] = totals.get(key, 0) + value
        result = SampleResult.from_counts(totals)
        self._check_shot_conservation(result, shots)
        return result

    def sample_analytical(self, circuit: QuantumCircuit, shots: int) -> SampleResult:
        """Sample under the first-order analytical depolarizing model.

        One ideal statevector simulation, the :meth:`apply_analytical`
        uniform-mixing correction, and a single ``shots``-sized draw — the
        cheap counterpart of :meth:`sample` for deep circuits, with the same
        exact-shot-conservation contract and width cap.
        """
        if shots < 1:
            raise NoiseModelError("shots must be positive")
        state = StatevectorSimulator().statevector(circuit)
        noisy_probabilities = self.apply_analytical(state.probabilities(), circuit)
        counts = sample_histogram(
            noisy_probabilities,
            shots,
            partial(index_bits, num_qubits=circuit.num_qubits),
            rng=self._rng,
        )
        result = SampleResult.from_counts(counts)
        self._check_shot_conservation(result, shots)
        return result

    @staticmethod
    def _check_shot_conservation(result: SampleResult, shots: int) -> None:
        """Enforce the exact-delivery contract (a real check, not an assert,
        so it survives ``python -O``)."""
        if result.shots != shots:
            raise NoiseModelError(
                f"shot conservation violated: delivered {result.shots} of {shots}"
            )

    def _trajectory_state(self, circuit: QuantumCircuit) -> np.ndarray:
        """One trajectory's final dense state, from ``|0...0>``.

        Each gate is applied, then each of its qubits draws ``random()``
        against the gate's error probability and, on a hit, ``choice`` of a
        Pauli, which is applied at once.  These draws, in gate order, are
        the generator's only use here: the pinned noisy histograms depend on
        that order.
        """
        num_qubits = circuit.num_qubits
        p1 = self.profile.single_qubit_error
        p2 = self.profile.effective_two_qubit_error()
        state = Statevector.zero_state(num_qubits).data
        for instruction in circuit:
            if instruction.is_directive:
                continue
            qubits = instruction.qubits
            state = apply_matrix(state, instruction.gate.to_matrix(), qubits, num_qubits)
            error_probability = p2 if len(qubits) >= 2 else p1
            for qubit in qubits:
                if self._rng.random() < error_probability:
                    pauli = standard_gate(self._rng.choice(["x", "y", "z"]))
                    state = apply_matrix(state, pauli.to_matrix(), (qubit,), num_qubits)
        return state

    def _apply_readout_error(self, counts: Mapping[str, int]) -> dict[str, int]:
        """Flip each measured bit independently with the readout error rate."""
        p = self.profile.readout_error
        if p <= 0.0:
            return dict(counts)
        flipped: dict[str, int] = {}
        for key, value in counts.items():
            for _ in range(value):
                bits = [
                    (1 - int(ch)) if self._rng.random() < p else int(ch) for ch in key
                ]
                new_key = "".join(str(b) for b in bits)
                flipped[new_key] = flipped.get(new_key, 0) + 1
        return flipped
