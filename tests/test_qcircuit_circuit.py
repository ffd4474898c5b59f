"""Tests for the QuantumCircuit IR: building, depth, composition, binding."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import CircuitError
from repro.qcircuit.circuit import QuantumCircuit
from repro.qcircuit.parameters import Parameter
from repro.qcircuit.statevector import StatevectorSimulator


class TestConstruction:
    def test_requires_positive_qubits(self):
        with pytest.raises(CircuitError):
            QuantumCircuit(0)

    def test_out_of_range_qubit_rejected(self):
        circuit = QuantumCircuit(2)
        with pytest.raises(CircuitError):
            circuit.h(2)

    def test_duplicate_qubits_rejected(self):
        circuit = QuantumCircuit(2)
        with pytest.raises(CircuitError):
            circuit.cx(1, 1)

    def test_builder_methods_chain(self):
        circuit = QuantumCircuit(3)
        returned = circuit.h(0).cx(0, 1).rz(0.3, 2)
        assert returned is circuit
        assert len(circuit) == 3

    def test_count_ops(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).h(1).cx(0, 1).rz(0.1, 0)
        assert circuit.count_ops() == {"h": 2, "cx": 1, "rz": 1}

    def test_size_excludes_directives(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).barrier().measure_all()
        assert circuit.size() == 1

    def test_qubits_used(self):
        circuit = QuantumCircuit(4)
        circuit.h(0).cx(1, 3)
        assert circuit.qubits_used() == frozenset({0, 1, 3})


class TestDirectiveRegisterCheck:
    """Barriers and composed directives pass the same register check as
    gates, with their qubits normalised to ``int``."""

    def test_barrier_out_of_range_rejected(self):
        circuit = QuantumCircuit(2)
        with pytest.raises(CircuitError, match="out of range"):
            circuit.barrier([5])
        assert len(circuit) == 0

    def test_barrier_negative_index_rejected(self):
        with pytest.raises(CircuitError, match="out of range"):
            QuantumCircuit(2).barrier([-1])

    def test_barrier_qubits_normalised_to_int(self):
        from repro.qcircuit.transpile import _circuit_digest

        numpy_indices = QuantumCircuit(2).h(0).barrier(np.array([0, 1]))
        plain = QuantumCircuit(2).h(0).barrier([0, 1])
        assert all(type(qubit) is int for qubit in numpy_indices[1].qubits)
        assert _circuit_digest(numpy_indices) == _circuit_digest(plain)

    def test_compose_maps_directives_through_the_register_check(self):
        inner = QuantumCircuit(2)
        inner.barrier()
        with pytest.raises(CircuitError, match="out of range"):
            QuantumCircuit(3).compose(inner, qubits=[0, 7])

    def test_compose_keeps_in_range_directives(self):
        inner = QuantumCircuit(2)
        inner.h(0).barrier().measure_all()
        outer = QuantumCircuit(3).compose(inner, qubits=[2, 0])
        assert [(inst.name, inst.qubits) for inst in outer] == [
            ("h", (2,)),
            ("barrier", (2, 0)),
            ("measure", (2, 0)),
        ]

    def test_append_instruction_shares_the_instance(self):
        source = QuantumCircuit(2).cx(0, 1).barrier()
        copy = QuantumCircuit(2).extend(source)
        assert all(a is b for a, b in zip(copy, source))
        with pytest.raises(CircuitError, match="out of range"):
            QuantumCircuit(1).append_instruction(source[0])


class TestDepth:
    def test_parallel_gates_share_a_layer(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).h(1).h(2)
        assert circuit.depth() == 1

    def test_sequential_gates_stack(self):
        circuit = QuantumCircuit(1)
        circuit.h(0).x(0).h(0)
        assert circuit.depth() == 3

    def test_two_qubit_gate_synchronises(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1).h(1)
        assert circuit.depth() == 3

    def test_barrier_synchronises_depth(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.barrier()
        circuit.h(1)
        # The barrier aligns qubit 1's frontier to qubit 0's, so the second H
        # lands in layer 2.
        assert circuit.depth() == 2

    def test_empty_circuit_depth_zero(self):
        assert QuantumCircuit(2).depth() == 0

    def test_two_qubit_gate_count(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1).cz(1, 2).h(0)
        assert circuit.num_two_qubit_gates() == 2


class TestParameters:
    def test_parameter_collection(self):
        beta, gamma = Parameter("beta"), Parameter("gamma")
        circuit = QuantumCircuit(2)
        circuit.rz(gamma, 0).rx(beta, 1).rz(0.5, 0)
        assert circuit.parameters == frozenset({beta, gamma})
        assert circuit.is_parameterized

    def test_bind_produces_concrete_circuit(self):
        beta = Parameter("beta")
        circuit = QuantumCircuit(1)
        circuit.rx(beta, 0)
        bound = circuit.bind({beta: 0.7})
        assert not bound.is_parameterized
        assert bound[0].gate.params == (0.7,)
        # Original untouched.
        assert circuit.is_parameterized

    def test_mcp_with_negated_parameter(self):
        beta = Parameter("beta")
        circuit = QuantumCircuit(3)
        circuit.mcp(-beta, [0, 1], 2)
        bound = circuit.bind({beta: 0.4})
        assert bound[0].gate.params[0] == pytest.approx(-0.4)


class TestComposition:
    def test_compose_identity_mapping(self):
        inner = QuantumCircuit(2)
        inner.h(0).cx(0, 1)
        outer = QuantumCircuit(3)
        outer.compose(inner)
        assert outer.count_ops() == {"h": 1, "cx": 1}

    def test_compose_with_mapping(self):
        inner = QuantumCircuit(2)
        inner.cx(0, 1)
        outer = QuantumCircuit(3)
        outer.compose(inner, qubits=[2, 0])
        assert outer[0].qubits == (2, 0)

    def test_compose_size_mismatch_raises(self):
        inner = QuantumCircuit(4)
        outer = QuantumCircuit(2)
        with pytest.raises(CircuitError):
            outer.compose(inner)

    def test_compose_bad_mapping_length(self):
        inner = QuantumCircuit(2)
        outer = QuantumCircuit(3)
        with pytest.raises(CircuitError):
            outer.compose(inner, qubits=[0])


class TestInverse:
    def test_inverse_reverses_and_inverts(self, simulator):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1).rz(0.3, 1).rx(0.9, 0)
        roundtrip = circuit.copy()
        roundtrip.compose(circuit.inverse())
        state = simulator.statevector(roundtrip)
        expected = np.zeros(4, dtype=complex)
        expected[0] = 1.0
        assert np.allclose(state.data, expected, atol=1e-10)

    def test_inverse_drops_directives(self):
        circuit = QuantumCircuit(1)
        circuit.h(0).measure_all()
        assert all(not inst.is_directive for inst in circuit.inverse())


class TestCopySemantics:
    def test_copy_is_shallow_but_independent_list(self):
        circuit = QuantumCircuit(1)
        circuit.h(0)
        duplicate = circuit.copy()
        duplicate.x(0)
        assert len(circuit) == 1
        assert len(duplicate) == 2

    def test_remove_directives(self):
        circuit = QuantumCircuit(1)
        circuit.h(0).barrier().measure_all()
        stripped = circuit.remove_directives()
        assert len(stripped) == 1

    def test_summary_mentions_ops(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1)
        text = circuit.summary()
        assert "cx:1" in text and "h:1" in text
