"""String-addressable solver registry.

Mirrors :func:`repro.solvers.optimizer.make_optimizer`: every solver is
registered under its canonical name together with its config dataclass, so
experiment specs can name solvers as plain strings and the
:func:`~repro.run.facade.solve` facade / :mod:`~repro.run.plan` batch runner
can construct them uniformly.

The four solvers of the paper's evaluation are registered at import time;
downstream code can add its own with :func:`register_solver`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import SolverError
from repro.solvers.base import QuantumSolver
from repro.solvers.chocoq import ChocoQConfig, ChocoQSolver
from repro.solvers.config import SolverConfig
from repro.solvers.cyclic_qaoa import CyclicQAOAConfig, CyclicQAOASolver
from repro.solvers.hea import HEAConfig, HEASolver
from repro.solvers.optimizer import Optimizer, make_optimizer
from repro.solvers.penalty_qaoa import PenaltyQAOAConfig, PenaltyQAOASolver
from repro.solvers.variational import EngineOptions


@dataclass(frozen=True)
class SolverEntry:
    """One registered solver: its class, config class and a description."""

    name: str
    solver_cls: type[QuantumSolver]
    config_cls: type[SolverConfig]
    description: str = ""


_REGISTRY: dict[str, SolverEntry] = {}


def register_solver(
    name: str,
    solver_cls: type[QuantumSolver],
    config_cls: type[SolverConfig],
    description: str = "",
    *,
    replace: bool = False,
) -> SolverEntry:
    """Register a solver class under a string name.

    ``solver_cls`` must accept ``(config=..., optimizer=..., options=...)``
    — the constructor every built-in solver inherits from
    :class:`~repro.solvers.base.QuantumSolver`.
    Re-registering an existing name raises unless ``replace=True``.
    """
    key = name.lower()
    if key in _REGISTRY and not replace:
        raise SolverError(f"solver {name!r} is already registered (pass replace=True to override)")
    entry = SolverEntry(name=key, solver_cls=solver_cls, config_cls=config_cls, description=description)
    _REGISTRY[key] = entry
    return entry


def unregister_solver(name: str) -> None:
    """Remove a registered solver (mainly for tests tearing down fixtures)."""
    _REGISTRY.pop(name.lower(), None)


def available_solvers() -> list[str]:
    """Sorted names of every registered solver."""
    return sorted(_REGISTRY)


def get_solver_entry(name: str) -> SolverEntry:
    """Look up one registry entry by name."""
    key = name.lower()
    if key not in _REGISTRY:
        raise SolverError(f"unknown solver {name!r}; available: {available_solvers()}")
    return _REGISTRY[key]


def resolve_config(entry: SolverEntry, config, overrides: dict) -> SolverConfig:
    """Normalise ``(config, overrides)`` into one validated config instance.

    ``config`` may be a config instance of the entry's class, a plain dict
    (the serialized form an experiment spec carries), or ``None`` for the
    solver defaults; ``overrides`` are field overrides applied on top.
    """
    if config is None:
        base = entry.config_cls()
    elif isinstance(config, entry.config_cls):
        base = config
    elif isinstance(config, SolverConfig):
        raise SolverError(
            f"solver {entry.name!r} expects a {entry.config_cls.__name__}, "
            f"got {type(config).__name__}"
        )
    elif isinstance(config, dict):
        base = entry.config_cls.from_dict(config)
    else:
        raise SolverError(
            f"config must be a {entry.config_cls.__name__}, a dict or None, "
            f"got {type(config).__name__}"
        )
    return base.replace(**overrides) if overrides else base


def make_solver(
    name: str,
    config=None,
    *,
    optimizer: Optimizer | str | None = None,
    options: EngineOptions | None = None,
    **overrides,
) -> QuantumSolver:
    """Construct a registered solver from its name.

    ``optimizer`` accepts an :class:`~repro.solvers.optimizer.Optimizer`
    instance or an optimizer name for :func:`make_optimizer`; ``overrides``
    are config-field overrides merged into ``config`` — including ``noise``,
    which every registered config carries (a
    :class:`~repro.solvers.config.NoiseConfig`, a device name, or its dict
    form; the config normalises it on construction).
    """
    entry = get_solver_entry(name)
    resolved = resolve_config(entry, config, overrides)
    if isinstance(optimizer, str):
        optimizer = make_optimizer(optimizer)
    return entry.solver_cls(config=resolved, optimizer=optimizer, options=options)


# ---------------------------------------------------------------------------
# The paper's evaluation line-up
# ---------------------------------------------------------------------------

register_solver(
    "choco-q", ChocoQSolver, ChocoQConfig,
    "commute-Hamiltonian QAOA (the paper's contribution)",
)
register_solver(
    "penalty-qaoa", PenaltyQAOASolver, PenaltyQAOAConfig,
    "soft-constraint QAOA with the transverse-field mixer",
)
register_solver(
    "cyclic-qaoa", CyclicQAOASolver, CyclicQAOAConfig,
    "hard-constraint QAOA with the cyclic XY-ring driver",
)
register_solver(
    "hea", HEASolver, HEAConfig,
    "hardware-efficient ansatz trained on the penalty objective",
)
