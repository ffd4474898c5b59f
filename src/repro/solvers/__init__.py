"""Quantum and classical solvers for constrained binary optimization.

Contains the paper's contribution (:class:`ChocoQSolver`) and the three
baselines it is evaluated against (penalty QAOA, cyclic-Hamiltonian QAOA,
hardware-efficient ansatz), along with the classical optimizers shared by
the variational loops and the latency model.  The exact ground truth is
:meth:`ConstrainedBinaryProblem.brute_force_optimum
<repro.core.problem.ConstrainedBinaryProblem.brute_force_optimum>`.
"""

from repro.solvers.base import (
    LatencyBreakdown,
    OptimizationTrace,
    QuantumSolver,
    SolverResult,
)
from repro.solvers.chocoq import ChocoQConfig, ChocoQSolver
from repro.solvers.config import NoiseConfig, SolverConfig, as_noise_config
from repro.solvers.cyclic_qaoa import CyclicQAOAConfig, CyclicQAOASolver, summation_chains
from repro.solvers.hea import HEAConfig, HEASolver
from repro.solvers.latency import LatencyEstimate, LatencyModel
from repro.solvers.optimizer import (
    CobylaOptimizer,
    NelderMeadOptimizer,
    Optimizer,
    OptimizerResult,
    SpsaOptimizer,
    make_optimizer,
)
from repro.solvers.penalty_qaoa import PenaltyQAOAConfig, PenaltyQAOASolver
from repro.solvers.variational import (
    AnsatzSpec,
    DenseStateBackend,
    EngineOptions,
    StateBackend,
    SubspaceStateBackend,
    VariationalEngine,
)

__all__ = [
    "AnsatzSpec",
    "DenseStateBackend",
    "StateBackend",
    "SubspaceStateBackend",
    "ChocoQConfig",
    "ChocoQSolver",
    "CobylaOptimizer",
    "CyclicQAOAConfig",
    "CyclicQAOASolver",
    "EngineOptions",
    "HEAConfig",
    "HEASolver",
    "LatencyBreakdown",
    "LatencyEstimate",
    "LatencyModel",
    "NelderMeadOptimizer",
    "NoiseConfig",
    "OptimizationTrace",
    "Optimizer",
    "OptimizerResult",
    "PenaltyQAOAConfig",
    "PenaltyQAOASolver",
    "QuantumSolver",
    "SolverConfig",
    "SolverResult",
    "SpsaOptimizer",
    "VariationalEngine",
    "as_noise_config",
    "make_optimizer",
    "summation_chains",
]
