"""Ablation harness for the three Choco-Q optimizations (Fig. 14).

The paper ablates its optimization passes on top of the always-on
serialization pass (Opt1):

* **Opt1**       — serialization only: local Hamiltonians are deployed as
  opaque unitaries (generic synthesis), no variable elimination;
* **Opt1+2**     — plus the equivalent (Lemma 2) decomposition;
* **Opt1+3**     — plus variable elimination (without Lemma 2);
* **Opt1+2+3**   — everything.

For each configuration the harness reports the transpiled circuit depth and
the success rate under a device noise scenario, mirroring the two panels of
Fig. 14.  The scenario is optional: without one, the ideal success rate is
reported (the depth comparison is unaffected).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.problem import ConstrainedBinaryProblem
from repro.solvers.chocoq import ChocoQConfig, ChocoQSolver
from repro.solvers.config import NoiseConfig
from repro.solvers.optimizer import CobylaOptimizer
from repro.solvers.variational import EngineOptions


@dataclass(frozen=True)
class AblationArm:
    """One configuration of the ablation study."""

    label: str
    use_equivalent_decomposition: bool
    num_eliminated_variables: int


ABLATION_ARMS: tuple[AblationArm, ...] = (
    AblationArm("Opt1", use_equivalent_decomposition=False, num_eliminated_variables=0),
    AblationArm("Opt1+2", use_equivalent_decomposition=True, num_eliminated_variables=0),
    AblationArm("Opt1+3", use_equivalent_decomposition=False, num_eliminated_variables=1),
    AblationArm("Opt1+2+3", use_equivalent_decomposition=True, num_eliminated_variables=1),
)


@dataclass(frozen=True)
class AblationRow:
    """Result of one ablation arm on one problem."""

    label: str
    transpiled_depth: int
    success_rate: float
    in_constraints_rate: float
    num_circuits: int


def run_ablation(
    problem: ConstrainedBinaryProblem,
    arms: "tuple[AblationArm, ...]" = ABLATION_ARMS,
    num_layers: int = 2,
    shots: int = 2048,
    seed: int | None = 7,
    noise: NoiseConfig | str | dict | None = None,
    max_iterations: int = 60,
    eliminated_variables: int | None = None,
) -> list[AblationRow]:
    """Run every ablation arm on ``problem`` and collect depth + success rate.

    ``noise`` is every arm's device-noise scenario (a
    :class:`~repro.solvers.config.NoiseConfig`, device name or dict; ``None``
    samples ideally), seeded from ``seed``.  ``eliminated_variables``
    overrides the per-arm elimination count (the paper's Fig. 14 eliminates
    two variables); ``None`` keeps the arm defaults.
    """
    _, optimal_value = problem.brute_force_optimum()
    rows: list[AblationRow] = []
    for arm in arms:
        eliminate = (
            arm.num_eliminated_variables
            if eliminated_variables is None or arm.num_eliminated_variables == 0
            else eliminated_variables
        )
        config = ChocoQConfig(
            num_layers=num_layers,
            use_equivalent_decomposition=arm.use_equivalent_decomposition,
            num_eliminated_variables=eliminate,
            noise=noise,
        )
        solver = ChocoQSolver(
            config=config,
            optimizer=CobylaOptimizer(max_iterations=max_iterations),
            options=EngineOptions(shots=shots, seed=seed),
        )
        result = solver.solve(problem)
        metrics = result.metrics(problem, optimal_value)
        rows.append(
            AblationRow(
                label=arm.label,
                transpiled_depth=result.transpiled_depth,
                success_rate=metrics.success_rate,
                in_constraints_rate=metrics.in_constraints_rate,
                num_circuits=result.metadata.get("num_circuits", 1),
            )
        )
    return rows
