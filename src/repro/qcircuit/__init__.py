"""Gate-level quantum circuit substrate.

This subpackage is a self-contained replacement for the circuit construction
and simulation features the paper obtains from Qiskit: a gate library, a
circuit IR over real rotation angles, a dense statevector simulator, a
transpiler to a NISQ basis gate set, sampling helpers, and noise models of
the IBM devices used in the evaluation.
"""

from repro.qcircuit.circuit import Instruction, QuantumCircuit
from repro.qcircuit.gates import (
    BASIS_GATES,
    DEFAULT_GATE_DURATIONS,
    Gate,
    mcp_gate,
    mcx_gate,
    standard_gate,
    unitary_gate,
)
from repro.qcircuit.noise import (
    DEVICE_PROFILES,
    IBM_FEZ,
    IBM_OSAKA,
    IBM_SHERBROOKE,
    DeviceProfile,
    NoiseModel,
    get_device_profile,
)
from repro.qcircuit.passes import (
    DEFAULT_OPTIMIZATION_LEVEL,
    MAX_OPTIMIZATION_LEVEL,
    CircuitPass,
    CircuitStats,
    CommuteDiagonalPass,
    InverseCancellationPass,
    LadderResynthesisPass,
    PassManager,
    PassRecord,
    RotationFusionPass,
    TranspileReport,
    default_pipeline,
)
from repro.qcircuit.sampling import (
    SampleResult,
    exact_distribution,
    subspace_exact_distribution,
)
from repro.qcircuit.statevector import (
    DEFAULT_SUPPORT_TOLERANCE,
    SimulationResult,
    Statevector,
    StatevectorSimulator,
    state_support_size,
)
from repro.qcircuit.transpile import (
    TranspileOptions,
    Transpiler,
    depth_after_transpile,
    transpile,
    transpile_with_report,
    unitary_synthesis_penalty,
)

__all__ = [
    "BASIS_GATES",
    "DEFAULT_OPTIMIZATION_LEVEL",
    "MAX_OPTIMIZATION_LEVEL",
    "CircuitPass",
    "CircuitStats",
    "CommuteDiagonalPass",
    "InverseCancellationPass",
    "LadderResynthesisPass",
    "PassManager",
    "PassRecord",
    "RotationFusionPass",
    "TranspileReport",
    "default_pipeline",
    "transpile_with_report",
    "unitary_synthesis_penalty",
    "DEFAULT_SUPPORT_TOLERANCE",
    "DEFAULT_GATE_DURATIONS",
    "DEVICE_PROFILES",
    "DeviceProfile",
    "Gate",
    "IBM_FEZ",
    "IBM_OSAKA",
    "IBM_SHERBROOKE",
    "Instruction",
    "NoiseModel",
    "QuantumCircuit",
    "SampleResult",
    "SimulationResult",
    "Statevector",
    "StatevectorSimulator",
    "TranspileOptions",
    "Transpiler",
    "depth_after_transpile",
    "exact_distribution",
    "get_device_profile",
    "mcp_gate",
    "mcx_gate",
    "state_support_size",
    "subspace_exact_distribution",
    "standard_gate",
    "transpile",
    "unitary_gate",
]
