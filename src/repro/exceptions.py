"""Exception hierarchy for the repro package.

All library-specific errors derive from :class:`ReproError` so callers can
catch a single base class.  Subclasses are grouped by subsystem: circuit
construction, simulation, Hamiltonian construction, problem modelling, and
solver execution.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class CircuitError(ReproError):
    """Raised for invalid circuit construction or manipulation."""


class GateError(CircuitError):
    """Raised when a gate is instantiated or applied with invalid arguments."""


class SimulationError(ReproError):
    """Raised when a simulator cannot execute the requested circuit."""


class TranspileError(ReproError):
    """Raised when a circuit cannot be lowered to the target basis."""


class HamiltonianError(ReproError):
    """Raised for invalid Hamiltonian construction."""


class ProblemError(ReproError):
    """Raised for ill-formed constrained binary optimization problems."""


class InfeasibleError(ProblemError):
    """Raised when a problem has no feasible assignment."""


class SubspaceOverflowError(ProblemError):
    """Raised when a feasible set exceeds the configured subspace limit."""


class SolverError(ReproError):
    """Raised when a solver fails to run or is misconfigured."""


class PlanExecutionError(SolverError):
    """One or more specs of an experiment plan failed to execute.

    Carries every failure the batch runner observed before re-raising, so a
    farm operator can tell *which* runs died without replaying the plan.
    ``failures`` is a list of dicts with ``display_name``, ``spec_hash`` and
    ``error`` (the original exception, stringified); the first underlying
    exception is chained as ``__cause__``.
    """

    def __init__(self, failures: "list[dict]") -> None:
        self.failures = list(failures)
        lines = [
            f"{failure['display_name']} [{failure['spec_hash']}]: {failure['error']}"
            for failure in self.failures
        ]
        summary = f"{len(self.failures)} spec(s) failed: " + "; ".join(lines)
        super().__init__(summary)


class NoiseModelError(ReproError):
    """Raised for invalid noise model definitions."""


class ServiceError(ReproError):
    """Raised for solve-service protocol or configuration failures."""


class ServiceClosedError(ServiceError):
    """Raised when a request reaches a service that is not running."""


class ServiceTimeoutError(ServiceError):
    """Raised when a service request exceeds its per-request timeout.

    The underlying execution is *not* cancelled — it finishes and lands in
    the result store, so a retry of the same spec is answered from cache.
    """
