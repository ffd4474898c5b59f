"""Tests for the statevector simulator, including property-based checks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ProblemError, SimulationError
from repro.qcircuit.circuit import QuantumCircuit
from repro.qcircuit.statevector import (
    Statevector,
    StatevectorSimulator,
    apply_matrix,
    bits_index,
    bitstring_keys,
    index_bits,
    key_bits,
)


def bitstring_to_index(bits) -> int:
    """A little-endian bitstring (qubit 0 first) as its basis index."""
    index = 0
    for qubit, bit in enumerate(bits):
        index |= int(bit) << qubit
    return index


class TestStatevectorConstruction:
    def test_zero_state(self):
        state = Statevector.zero_state(3)
        assert state.data[0] == 1.0
        assert np.sum(np.abs(state.data)) == pytest.approx(1.0)

    def test_from_bitstring_little_endian(self):
        state = Statevector.from_bitstring([1, 0, 1])
        assert np.argmax(np.abs(state.data)) == 0b101  # q0=1, q2=1 -> index 5

    @pytest.mark.parametrize("bits", [[0, 2], [0.5, 1], [1, "1"]])
    def test_from_bitstring_rejects_non_binary(self, bits):
        with pytest.raises(SimulationError, match="0/1"):
            Statevector.from_bitstring(bits)

    def test_uniform_superposition(self):
        state = Statevector.uniform_superposition(3)
        assert np.allclose(state.probabilities(), 1.0 / 8)

    def test_bitstring_roundtrip(self):
        for index in range(16):
            bits = bitstring_keys(index_bits(index, 4))[0]
            assert bitstring_to_index(bits) == index


CODEC_WIDTHS = [1, 8, 62, 63, 64, 70]


class TestBitRowCodec:
    """``index_bits``, ``bits_index``, ``bitstring_keys`` and ``key_bits``: the one bit order."""

    @pytest.mark.parametrize("width", CODEC_WIDTHS)
    def test_keys_round_trip_through_rows(self, width):
        rows = np.random.default_rng(width).integers(0, 2, size=(9, width), dtype=np.uint8)
        rows[0] = 0
        rows[1] = 1
        keys = bitstring_keys(rows)
        assert all(len(key) == width and set(key) <= {"0", "1"} for key in keys)
        assert np.array_equal(key_bits(keys, width), rows)

    @pytest.mark.parametrize("width", CODEC_WIDTHS)
    def test_character_q_is_bit_q_of_the_index(self, width):
        rng = np.random.default_rng(width)
        indices = [0, 1, 5, int(rng.integers(0, 2**62)), 2**62 - 1, 2**63 - 1]
        keys = bitstring_keys(index_bits(indices, width))
        for index, key in zip(indices, keys):
            assert key == "".join(str((index >> q) & 1) for q in range(width))

    @pytest.mark.parametrize("width", [1, 8, 62, 63])
    def test_bits_index_inverts_index_bits(self, width):
        rng = np.random.default_rng(width)
        top = 2**width - 1
        indices = np.array([0, 1, int(rng.integers(0, min(top, 2**62))), top], dtype=np.int64)
        rows = index_bits(indices, width)
        assert bits_index(rows).tolist() == indices.tolist()
        assert np.array_equal(index_bits(bits_index(rows), width), rows)
        # One row gives one (0-d) index.
        assert bits_index(rows[-1]).shape == () and int(bits_index(rows[-1])) == top

    def test_index_bits_shape_and_dtype(self):
        rows = index_bits(np.arange(8), 3)
        assert rows.dtype == np.uint8 and rows.shape == (8, 3)
        assert rows[6].tolist() == [0, 1, 1]
        assert index_bits(6, 3).shape == (1, 3)

    def test_empty_batches(self):
        assert bitstring_keys(np.zeros((0, 5), dtype=np.uint8)) == []
        assert key_bits([], 5).shape == (0, 5)

    def test_key_bits_truncates_ancilla_characters(self):
        assert key_bits(["0110" + "1" * 70], 4).tolist() == [[0, 1, 1, 0]]

    @pytest.mark.parametrize("keys", [["01"], ["0x1"], ["012"], ["", "011"]])
    def test_key_bits_rejects_malformed_keys(self, keys):
        with pytest.raises(ProblemError, match="binary digits"):
            key_bits(keys, 3)


class TestStatevectorOperations:
    def test_support_size(self):
        state = Statevector.uniform_superposition(3)
        assert state.support_size() == 8
        assert Statevector.zero_state(3).support_size() == 1

    def test_support_size_shares_simulator_tolerance(self):
        from repro.qcircuit.statevector import (
            DEFAULT_SUPPORT_TOLERANCE,
            state_support_size,
        )

        amplitudes = np.array([1.0, np.sqrt(DEFAULT_SUPPORT_TOLERANCE) / 2], dtype=complex)
        # The raw-array helper and the Statevector method apply one rule.
        state = Statevector(data=amplitudes, num_qubits=1)
        assert state_support_size(amplitudes) == state.support_size() == 1
        assert state_support_size(amplitudes, tolerance=0.0) == 2

    def test_sample_counts_total(self, rng):
        state = Statevector.uniform_superposition(2)
        counts = state.sample_counts(100, rng=rng)
        assert sum(counts.values()) == 100

    def test_fidelity_of_identical_states(self):
        state = Statevector.uniform_superposition(2)
        assert state.fidelity(state) == pytest.approx(1.0)

    def test_to_dict_sparse(self):
        state = Statevector.from_bitstring([1, 0])
        assert state.to_dict() == {"10": pytest.approx(1.0 + 0j)}


class TestSimulator:
    def test_bell_state(self, simulator):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1)
        state = simulator.statevector(circuit)
        expected = np.zeros(4, dtype=complex)
        expected[0] = expected[3] = 1 / np.sqrt(2)
        assert np.allclose(state.data, expected, atol=1e-10)

    def test_ghz_state(self, simulator):
        circuit = QuantumCircuit(3)
        circuit.h(0).cx(0, 1).cx(1, 2)
        probabilities = simulator.statevector(circuit).probabilities()
        assert probabilities[0] == pytest.approx(0.5)
        assert probabilities[7] == pytest.approx(0.5)

    def test_gate_on_nonadjacent_qubits(self, simulator):
        circuit = QuantumCircuit(3)
        circuit.x(0).cx(0, 2)
        state = simulator.statevector(circuit)
        assert np.argmax(np.abs(state.data)) == 0b101

    def test_initial_state_bits(self, simulator):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        state = simulator.statevector(circuit, initial_state=[1, 0])
        assert np.argmax(np.abs(state.data)) == 3

    @pytest.mark.parametrize("name", ["rx", "ry", "rz", "p"])
    def test_numpy_scalar_angle_simulates_like_a_python_float(self, simulator, name):
        states = []
        for angle in (0.7, np.float64(0.7)):
            circuit = QuantumCircuit(1)
            circuit.h(0)
            getattr(circuit, name)(angle, 0)
            states.append(simulator.statevector(circuit).data)
        np.testing.assert_array_equal(states[0], states[1])

    def test_qubit_limit_enforced(self):
        simulator = StatevectorSimulator(max_qubits=3)
        with pytest.raises(SimulationError):
            simulator.run(QuantumCircuit(4))

    def test_support_trace_recording(self):
        simulator = StatevectorSimulator(record_support=True)
        circuit = QuantumCircuit(2)
        circuit.h(0).h(1)
        result = simulator.run(circuit)
        assert result.support_trace == [2, 4]

    def test_measure_and_barrier_are_ignored(self, simulator):
        circuit = QuantumCircuit(1)
        circuit.h(0).barrier().measure_all()
        state = simulator.statevector(circuit)
        assert state.probabilities()[0] == pytest.approx(0.5)

    def test_norm_preserved_by_random_circuit(self, simulator, rng):
        circuit = QuantumCircuit(4)
        for _ in range(30):
            kind = rng.integers(0, 4)
            qubit = int(rng.integers(0, 4))
            other = int((qubit + 1 + rng.integers(0, 3)) % 4)
            if kind == 0:
                circuit.h(qubit)
            elif kind == 1:
                circuit.rz(float(rng.normal()), qubit)
            elif kind == 2:
                circuit.cx(qubit, other)
            else:
                circuit.rx(float(rng.normal()), qubit)
        state = simulator.statevector(circuit)
        assert np.linalg.norm(state.data) == pytest.approx(1.0, abs=1e-9)


class TestApplyMatrix:
    def test_matches_full_kron_for_single_qubit(self, rng):
        state = rng.normal(size=8) + 1j * rng.normal(size=8)
        state /= np.linalg.norm(state)
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        # Apply H on qubit 1 of 3.
        result = apply_matrix(state, h, [1], 3)
        full = np.kron(np.eye(2), np.kron(h, np.eye(2)))
        assert np.allclose(result, full @ state, atol=1e-10)

    def test_matches_full_kron_for_two_qubit_reversed_operands(self, rng):
        state = rng.normal(size=8) + 1j * rng.normal(size=8)
        state /= np.linalg.norm(state)
        cx = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex)
        # control = qubit 2, target = qubit 0.
        result = apply_matrix(state, cx, [2, 0], 3)
        # Build the expected operator by explicit basis mapping.
        full = np.zeros((8, 8), dtype=complex)
        for index in range(8):
            control = (index >> 2) & 1
            target = index & 1
            new_target = target ^ control
            new_index = (index & 0b010) | (control << 2) | new_target
            full[new_index, index] = 1.0
        assert np.allclose(result, full @ state, atol=1e-10)

    def test_shape_mismatch_raises(self):
        with pytest.raises(SimulationError):
            apply_matrix(np.zeros(4, dtype=complex), np.eye(2), [0, 1], 2)


@settings(max_examples=25, deadline=None)
@given(
    angles=st.lists(st.floats(-np.pi, np.pi, allow_nan=False), min_size=3, max_size=3),
    qubit=st.integers(min_value=0, max_value=2),
)


def test_property_rotation_composition(angles, qubit):
    """Applying RZ rotations sequentially equals applying their sum."""
    simulator = StatevectorSimulator()
    circuit_a = QuantumCircuit(3)
    circuit_a.h(qubit)
    for angle in angles:
        circuit_a.rz(angle, qubit)
    circuit_b = QuantumCircuit(3)
    circuit_b.h(qubit)
    circuit_b.rz(float(sum(angles)), qubit)
    state_a = simulator.statevector(circuit_a).data
    state_b = simulator.statevector(circuit_b).data
    assert np.allclose(state_a, state_b, atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(bits=st.lists(st.integers(0, 1), min_size=2, max_size=6))
def test_property_basis_state_roundtrip(bits):
    """from_bitstring puts all probability mass on the encoded index."""
    state = Statevector.from_bitstring(bits)
    index = bitstring_to_index(bits)
    probabilities = state.probabilities()
    assert probabilities[index] == pytest.approx(1.0)
    assert np.sum(probabilities) == pytest.approx(1.0)
