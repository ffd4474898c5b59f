"""End-to-end latency model (Fig. 11, Table I).

The paper reports end-to-end latency as compilation time plus the iterative
execution time (quantum circuit execution per iteration plus the classical
parameter-update time), excluding data communication.  We cannot run on the
IBM cloud, so this module provides an analytical substitute parameterised by
the device profiles of :mod:`repro.qcircuit.noise`:

* **circuit duration** — the critical-path duration of the transpiled
  circuit, computed exactly like circuit depth but weighting every gate with
  its device-calibrated duration (CZ-based devices run two-qubit gates
  natively; ECR devices pay the 3x translation cost) plus the readout time;
* **quantum execution time per iteration** — shots x circuit duration plus a
  fixed per-job overhead (control-electronics latency);
* **end-to-end latency** — measured compilation time + iterations x
  (quantum execution + classical update time).

The compilation term is the *measured* host time of the run's own compile
step, not a model.  A run whose structure was compiled recently in the
process — another seed of the same problem and config — reuses its
reference circuit, depth and duration (:mod:`repro.solvers.structure`) and
answers its transpile from the transpile memo
(:mod:`repro.qcircuit.transpile`), so it reports about a millisecond where a
cold run reports the full compile time.  Everything else in the estimate is
unaffected.

A variable-elimination (Opt3) run is a set of independent sub-runs, one per
assignment of the eliminated variables, each estimated as above with its own
circuit, shot share and iteration count.  Its modeled latency is their sum:
iterations, compilation, quantum execution and classical time all add up.

The absolute numbers depend on our calibration constants, but the *ratios*
between solvers are driven by exactly what drives them in the paper:
iteration count and circuit depth.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.qcircuit.circuit import QuantumCircuit
from repro.qcircuit.gates import DEFAULT_GATE_DURATIONS
from repro.qcircuit.noise import DeviceProfile, IBM_FEZ


@dataclass(frozen=True)
class LatencyEstimate:
    """Latency components for one solver run (seconds)."""

    compilation: float
    quantum_execution: float
    classical_processing: float
    circuit_duration: float
    iterations: int
    shots: int

    @property
    def total(self) -> float:
        return self.compilation + self.quantum_execution + self.classical_processing


class LatencyModel:
    """Analytical latency model calibrated against a device profile."""

    def __init__(
        self,
        profile: DeviceProfile = IBM_FEZ,
        per_job_overhead: float = 5e-3,
        classical_update_time: float = 2e-3,
    ) -> None:
        self.profile = profile
        self.per_job_overhead = per_job_overhead
        self.classical_update_time = classical_update_time

    # ------------------------------------------------------------------

    def gate_duration(self, name: str, num_qubits: int) -> float:
        """Duration of one gate on this device."""
        if name in ("measure",):
            return self.profile.readout_time
        if num_qubits >= 2:
            return self.profile.two_qubit_time * self.profile.cz_cost
        return DEFAULT_GATE_DURATIONS.get(name, self.profile.single_qubit_time)

    def circuit_duration(self, circuit: QuantumCircuit) -> float:
        """Critical-path duration of a circuit plus one readout."""
        frontier = [0.0] * circuit.num_qubits
        for instruction in circuit:
            if instruction.name == "barrier":
                if instruction.qubits:
                    level = max(frontier[q] for q in instruction.qubits)
                    for qubit in instruction.qubits:
                        frontier[qubit] = level
                continue
            duration = self.gate_duration(instruction.name, len(instruction.qubits))
            level = max(frontier[q] for q in instruction.qubits) + duration
            for qubit in instruction.qubits:
                frontier[qubit] = level
        critical_path = max(frontier) if frontier else 0.0
        return critical_path + self.profile.readout_time

    # ------------------------------------------------------------------

    def execution_time(self, circuit: QuantumCircuit, shots: int) -> float:
        """Quantum execution time of one iteration (one parameter setting)."""
        return self.per_job_overhead + shots * self.circuit_duration(circuit)

    def estimate(
        self,
        circuit: QuantumCircuit,
        iterations: int,
        shots: int,
        compilation_seconds: float,
        circuit_duration: float | None = None,
    ) -> LatencyEstimate:
        """End-to-end latency for a full variational run of one circuit.

        ``compilation_seconds`` is passed through as measured by the caller;
        see the module docstring for what it covers.  ``circuit_duration``
        is this model's :meth:`circuit_duration` of ``circuit`` when the
        caller already holds it (the engine keeps it once per compiled
        structure); ``None`` walks the circuit.
        """
        if circuit_duration is None:
            circuit_duration = self.circuit_duration(circuit)
        quantum = iterations * (self.per_job_overhead + shots * circuit_duration)
        classical = iterations * self.classical_update_time
        return LatencyEstimate(
            compilation=compilation_seconds,
            quantum_execution=quantum,
            classical_processing=classical,
            circuit_duration=circuit_duration,
            iterations=iterations,
            shots=shots,
        )
