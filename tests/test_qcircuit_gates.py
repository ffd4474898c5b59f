"""Tests for the gate library: matrices, unitarity, inverses and arities."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import GateError
from repro.qcircuit.gates import (
    Gate,
    mcp_gate,
    mcx_gate,
    standard_gate,
    unitary_gate,
)

SINGLE_QUBIT_NAMES = ["id", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx"]
ROTATION_NAMES = ["rx", "ry", "rz", "p"]
TWO_QUBIT_NAMES = ["cx", "cz", "swap"]
TWO_QUBIT_ROTATIONS = ["cp", "rxx", "ryy", "rzz"]


def is_unitary(matrix: np.ndarray) -> bool:
    return np.allclose(matrix @ matrix.conj().T, np.eye(matrix.shape[0]), atol=1e-10)


class TestStandardGates:
    @pytest.mark.parametrize("name", SINGLE_QUBIT_NAMES)
    def test_single_qubit_gates_are_unitary(self, name):
        gate = standard_gate(name)
        assert gate.num_qubits == 1
        assert is_unitary(gate.to_matrix())

    @pytest.mark.parametrize("name", ROTATION_NAMES)
    def test_rotations_are_unitary(self, name):
        gate = standard_gate(name, 0.7)
        assert is_unitary(gate.to_matrix())

    @pytest.mark.parametrize("name", TWO_QUBIT_NAMES + TWO_QUBIT_ROTATIONS)
    def test_two_qubit_gates_are_unitary(self, name):
        params = (0.5,) if name in TWO_QUBIT_ROTATIONS else ()
        gate = standard_gate(name, *params)
        assert gate.num_qubits == 2
        assert is_unitary(gate.to_matrix())

    def test_unknown_gate_raises(self):
        with pytest.raises(GateError):
            standard_gate("frobnicate")

    def test_wrong_parameter_count_raises(self):
        with pytest.raises(GateError):
            standard_gate("rx")
        with pytest.raises(GateError):
            standard_gate("h", 0.3)

    def test_x_matrix(self):
        assert np.allclose(standard_gate("x").to_matrix(), [[0, 1], [1, 0]])

    def test_h_matrix(self):
        h = standard_gate("h").to_matrix()
        assert np.allclose(h, np.array([[1, 1], [1, -1]]) / np.sqrt(2))

    def test_rz_is_diagonal(self):
        rz = standard_gate("rz", 0.9).to_matrix()
        assert np.allclose(rz, np.diag(np.diag(rz)))

    def test_cx_flips_target_when_control_set(self):
        # local index = control + 2 * target
        cx = standard_gate("cx").to_matrix()
        state = np.zeros(4)
        state[1] = 1.0  # control=1, target=0
        out = cx @ state
        assert np.argmax(np.abs(out)) == 3  # control=1, target=1

    def test_rx_rotation_angle(self):
        rx = standard_gate("rx", np.pi).to_matrix()
        # RX(pi) = -i X
        assert np.allclose(rx, -1j * np.array([[0, 1], [1, 0]]), atol=1e-10)


class TestMultiControlledGates:
    def test_mcx_matrix_flips_only_all_ones_controls(self):
        gate = mcx_gate(2)
        matrix = gate.to_matrix()
        assert matrix.shape == (8, 8)
        # controls are local bits 0,1; target bit 2
        state = np.zeros(8)
        state[3] = 1.0  # both controls set, target 0
        assert np.argmax(np.abs(matrix @ state)) == 7
        state = np.zeros(8)
        state[1] = 1.0  # only one control set
        assert np.argmax(np.abs(matrix @ state)) == 1

    def test_mcp_phases_only_all_ones(self):
        gate = mcp_gate(2, 0.8)
        matrix = gate.to_matrix()
        diag = np.diag(matrix)
        assert np.allclose(matrix, np.diag(diag))
        assert np.isclose(diag[-1], np.exp(1j * 0.8))
        assert np.allclose(diag[:-1], 1.0)

    def test_mcx_requires_controls(self):
        with pytest.raises(GateError):
            mcx_gate(0)


class TestInverses:
    @pytest.mark.parametrize(
        "name,params",
        [("h", ()), ("x", ()), ("s", ()), ("t", ()), ("rz", (0.4,)), ("rx", (1.1,)),
         ("cx", ()), ("cz", ()), ("cp", (0.6,)), ("rzz", (0.8,)), ("swap", ())],
    )
    def test_gate_times_inverse_is_identity(self, name, params):
        gate = standard_gate(name, *params)
        product = gate.to_matrix() @ gate.inverse().to_matrix()
        assert np.allclose(product, np.eye(product.shape[0]), atol=1e-10)

    def test_mcp_inverse_negates_angle(self):
        gate = mcp_gate(2, 0.5)
        product = gate.to_matrix() @ gate.inverse().to_matrix()
        assert np.allclose(product, np.eye(8), atol=1e-10)

    def test_unitary_gate_inverse(self):
        rng = np.random.default_rng(0)
        random = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, _ = np.linalg.qr(random)
        gate = unitary_gate(q)
        product = gate.to_matrix() @ gate.inverse().to_matrix()
        assert np.allclose(product, np.eye(4), atol=1e-10)


class TestUnitaryGate:
    def test_rejects_non_unitary(self):
        with pytest.raises(GateError):
            unitary_gate(np.array([[1.0, 2.0], [3.0, 4.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(GateError):
            unitary_gate(np.ones((2, 3)))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(GateError):
            unitary_gate(np.eye(3))

    def test_accepts_identity(self):
        gate = unitary_gate(np.eye(8))
        assert gate.num_qubits == 3


class TestGateDataclass:
    def test_zero_qubit_gate_rejected(self):
        with pytest.raises(GateError):
            Gate("x", 0)

    def test_unitary_without_matrix_rejected(self):
        with pytest.raises(GateError):
            Gate("unitary", 1)

    @pytest.mark.parametrize(
        "angle",
        ["0.3", 0.3 + 0j, np.complex128(0.3), None, [0.3]],
        ids=["str", "complex", "numpy-complex", "none", "list"],
    )
    def test_non_real_angle_rejected_at_construction(self, angle):
        with pytest.raises(GateError, match="real angles"):
            standard_gate("rz", angle)
        with pytest.raises(GateError, match="real angles"):
            mcp_gate(2, angle)

    @pytest.mark.parametrize(
        "angle",
        [1, 0.3, np.int64(2), np.float32(0.3), np.float64(-0.0)],
        ids=["int", "float", "numpy-int64", "numpy-float32", "numpy-negative-zero"],
    )
    def test_real_angle_kept_as_passed(self, angle):
        assert standard_gate("rz", angle).params[0] is angle
        assert mcp_gate(1, angle).params[0] is angle
