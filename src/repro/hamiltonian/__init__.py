"""Hamiltonian machinery: commute Hamiltonians (the paper's contribution),
their compiled evolution, the objective and constraint operators as
diagonals, and the Trotter baseline."""

from repro.hamiltonian.commute import (
    CommuteDriver,
    CommuteHamiltonianTerm,
    rotate_pairs_cs,
)
from repro.hamiltonian.compiled import (
    EvolutionProgram,
    apply_diagonal_phase,
    diagonal_levels,
    prepare_ansatz_state,
)
from repro.hamiltonian.constraint_operator import constraint_operator_diagonal
from repro.hamiltonian.diagonal import (
    phase_separation_circuit,
    polynomial_diagonal,
    split_polynomial,
)
from repro.hamiltonian.evolution import (
    dense_evolution_operator,
    driver_evolution_operator,
)
from repro.hamiltonian.trotter import TrotterDecomposer, TrotterReport

__all__ = [
    "CommuteDriver",
    "CommuteHamiltonianTerm",
    "EvolutionProgram",
    "TrotterDecomposer",
    "TrotterReport",
    "apply_diagonal_phase",
    "diagonal_levels",
    "prepare_ansatz_state",
    "rotate_pairs_cs",
    "constraint_operator_diagonal",
    "dense_evolution_operator",
    "driver_evolution_operator",
    "phase_separation_circuit",
    "polynomial_diagonal",
    "split_polynomial",
]
