"""Tests for Pauli-string algebra."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import HamiltonianError
from repro.hamiltonian.pauli import (
    PauliString,
    PauliSum,
    cyclic_driver_terms,
    single_pauli,
    two_pauli,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


class TestPauliString:
    def test_invalid_label_rejected(self):
        with pytest.raises(HamiltonianError):
            PauliString("XQ")

    def test_matrix_little_endian(self):
        # "XZ" = X on qubit 0, Z on qubit 1 -> kron(Z, X)
        assert np.allclose(PauliString("XZ").to_matrix(), np.kron(Z, X))

    def test_support_and_diagonality(self):
        string = PauliString("IZXI")
        assert string.support == (1, 2)
        assert not string.is_diagonal
        assert PauliString("IZZI").is_diagonal

    def test_product_phases(self):
        xy = PauliString("X") * PauliString("Y")
        assert xy.label == "Z"
        assert xy.coefficient == pytest.approx(1j)
        yx = PauliString("Y") * PauliString("X")
        assert yx.coefficient == pytest.approx(-1j)

    def test_product_matches_matrix_product(self):
        a = PauliString("XYZ", 0.5)
        b = PauliString("ZZX", 2.0)
        product = a * b
        assert np.allclose(product.to_matrix(), a.to_matrix() @ b.to_matrix())

    def test_commutation_rule(self):
        assert PauliString("XX").commutes_with(PauliString("ZZ"))
        assert not PauliString("XI").commutes_with(PauliString("ZI"))

    def test_scalar_multiplication(self):
        doubled = 2.0 * PauliString("Z", 1.5)
        assert doubled.coefficient == pytest.approx(3.0)


class TestPauliSum:
    def test_empty_requires_size(self):
        with pytest.raises(HamiltonianError):
            PauliSum([])

    def test_mixed_sizes_rejected(self):
        with pytest.raises(HamiltonianError):
            PauliSum([PauliString("X"), PauliString("XX")])

    def test_simplify_merges_terms(self):
        total = PauliSum([PauliString("Z", 1.0), PauliString("Z", 2.0), PauliString("X", 0.0)])
        simplified = total.simplify()
        assert len(simplified) == 1
        assert simplified.terms[0].coefficient == pytest.approx(3.0)

    def test_diagonal_extraction(self):
        # Z0 has eigenvalues (+1, -1, +1, -1) over indices 0..3
        total = PauliSum([single_pauli(2, 0, "Z")])
        assert np.allclose(total.diagonal(), [1, -1, 1, -1])

    def test_diagonal_rejected_for_off_diagonal(self):
        with pytest.raises(HamiltonianError):
            PauliSum([PauliString("X")]).diagonal()

    def test_commutator_of_commuting_sums_is_zero(self):
        a = PauliSum([PauliString("ZI"), PauliString("IZ")])
        b = PauliSum([PauliString("ZZ")])
        assert a.commutes_with(b)

    def test_commutator_of_anticommuting(self):
        a = PauliSum([PauliString("X")])
        b = PauliSum([PauliString("Z")])
        assert not a.commutes_with(b)
        commutator = a.commutator(b)
        assert np.allclose(
            commutator.to_matrix(), a.to_matrix() @ b.to_matrix() - b.to_matrix() @ a.to_matrix()
        )

    def test_matrix_addition(self):
        a = PauliSum([PauliString("X", 0.5)])
        b = PauliSum([PauliString("Z", 1.5)])
        assert np.allclose((a + b).to_matrix(), 0.5 * X + 1.5 * Z)


class TestConstructors:
    def test_single_pauli_bounds(self):
        with pytest.raises(HamiltonianError):
            single_pauli(2, 5, "Z")
        with pytest.raises(HamiltonianError):
            single_pauli(2, 0, "Q")

    def test_two_pauli_distinct(self):
        with pytest.raises(HamiltonianError):
            two_pauli(3, 1, "X", 1, "Y")

    def test_cyclic_driver_structure(self):
        driver = cyclic_driver_terms(4, [0, 1, 3])
        labels = sorted(term.label for term in driver.terms)
        assert labels == ["IXIX", "IYIY", "XXII", "YYII"]

    def test_cyclic_driver_needs_two_qubits(self):
        with pytest.raises(HamiltonianError):
            cyclic_driver_terms(4, [2])

    def test_cyclic_driver_conserves_excitation_number(self):
        # The driver must commute with sum_i Z_i over its chain.
        driver = cyclic_driver_terms(3, [0, 1, 2])
        number_operator = PauliSum(
            [single_pauli(3, q, "Z") for q in range(3)], num_qubits=3
        )
        assert driver.commutes_with(number_operator)


@settings(max_examples=30, deadline=None)
@given(
    label_a=st.text(alphabet="IXYZ", min_size=1, max_size=4),
    label_b=st.text(alphabet="IXYZ", min_size=1, max_size=4),
)


def test_property_pauli_product_matches_matrices(label_a, label_b):
    """Symbolic Pauli products agree with explicit matrix products."""
    size = max(len(label_a), len(label_b))
    label_a = label_a.ljust(size, "I")
    label_b = label_b.ljust(size, "I")
    a, b = PauliString(label_a), PauliString(label_b)
    assert np.allclose((a * b).to_matrix(), a.to_matrix() @ b.to_matrix(), atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(
    label_a=st.text(alphabet="IXYZ", min_size=2, max_size=4),
    label_b=st.text(alphabet="IXYZ", min_size=2, max_size=4),
)


def test_property_commutes_with_matches_matrices(label_a, label_b):
    """The symbolic commutation test agrees with the matrix commutator."""
    size = max(len(label_a), len(label_b))
    a = PauliString(label_a.ljust(size, "I"))
    b = PauliString(label_b.ljust(size, "I"))
    commutator = a.to_matrix() @ b.to_matrix() - b.to_matrix() @ a.to_matrix()
    assert a.commutes_with(b) == bool(np.allclose(commutator, 0.0, atol=1e-10))
