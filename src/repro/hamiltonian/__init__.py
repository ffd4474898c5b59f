"""Hamiltonian machinery: Pauli algebra, objective/constraint operators,
commute Hamiltonians (the paper's contribution), and the Trotter baseline."""

from repro.hamiltonian.commute import (
    CommuteDriver,
    CommuteHamiltonianTerm,
    dense_term_pairing,
    rotate_pairs_cs,
    subspace_pairing_loop,
)
from repro.hamiltonian.compiled import (
    EvolutionProgram,
    apply_diagonal_phase,
    diagonal_levels,
    prepare_ansatz_state,
)
from repro.hamiltonian.constraint_operator import (
    constraint_expectations,
    constraint_operator,
    constraint_operator_diagonal,
    constraint_system_operators,
)
from repro.hamiltonian.diagonal import (
    DiagonalHamiltonian,
    phase_separation_circuit,
    split_polynomial,
)
from repro.hamiltonian.evolution import (
    dense_evolution_operator,
    driver_evolution_operator,
    pauli_sum_evolution,
    term_evolution_operator,
)
from repro.hamiltonian.pauli import (
    PauliString,
    PauliSum,
    cyclic_driver_terms,
    ising_from_quadratic,
    single_pauli,
    two_pauli,
)
from repro.hamiltonian.trotter import TrotterDecomposer, TrotterReport

__all__ = [
    "CommuteDriver",
    "CommuteHamiltonianTerm",
    "DiagonalHamiltonian",
    "EvolutionProgram",
    "PauliString",
    "PauliSum",
    "TrotterDecomposer",
    "TrotterReport",
    "apply_diagonal_phase",
    "dense_term_pairing",
    "diagonal_levels",
    "prepare_ansatz_state",
    "rotate_pairs_cs",
    "subspace_pairing_loop",
    "constraint_expectations",
    "constraint_operator",
    "constraint_operator_diagonal",
    "constraint_system_operators",
    "cyclic_driver_terms",
    "dense_evolution_operator",
    "driver_evolution_operator",
    "ising_from_quadratic",
    "pauli_sum_evolution",
    "phase_separation_circuit",
    "single_pauli",
    "split_polynomial",
    "term_evolution_operator",
    "two_pauli",
]
