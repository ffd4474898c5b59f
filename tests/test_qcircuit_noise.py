"""Tests for device profiles and the noise model."""

from __future__ import annotations

import numpy as np
import pytest

from reference import clone_then_simulate_sample
from repro.exceptions import NoiseModelError, SimulationError
from repro.qcircuit import statevector
from repro.qcircuit.circuit import QuantumCircuit
from repro.qcircuit.noise import (
    DEVICE_PROFILES,
    IBM_FEZ,
    IBM_OSAKA,
    IBM_SHERBROOKE,
    NoiseModel,
    get_device_profile,
)
from repro.qcircuit.transpile import transpile
from repro.run import make_solver
from repro.run.problems import resolve_benchmark
from repro.solvers.config import NoiseConfig


class TestDeviceProfiles:
    def test_three_devices_registered(self):
        assert set(DEVICE_PROFILES) == {"fez", "osaka", "sherbrooke"}

    def test_lookup_case_insensitive(self):
        assert get_device_profile("FEZ") is IBM_FEZ

    def test_unknown_device_raises(self):
        with pytest.raises(NoiseModelError):
            get_device_profile("quito")

    def test_fez_is_best_two_qubit_device(self):
        # Section V-A: Fez features native CZ at 99.7% fidelity, the ECR
        # devices need three native gates per CZ.
        assert IBM_FEZ.effective_two_qubit_error() < IBM_OSAKA.effective_two_qubit_error()
        assert IBM_FEZ.effective_two_qubit_error() < IBM_SHERBROOKE.effective_two_qubit_error()

    def test_ecr_translation_cost(self):
        assert IBM_OSAKA.cz_cost == 3
        assert IBM_FEZ.cz_cost == 1


class TestAnalyticalModel:
    def test_fidelity_decreases_with_depth(self):
        shallow = QuantumCircuit(2)
        shallow.h(0).cx(0, 1)
        deep = QuantumCircuit(2)
        for _ in range(20):
            deep.cx(0, 1)
        model = NoiseModel(IBM_FEZ, seed=0)
        assert model.fidelity_factor(deep) < model.fidelity_factor(shallow)

    def test_fez_beats_osaka_on_same_circuit(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).cx(0, 1).cx(1, 2).cx(0, 2)
        assert NoiseModel(IBM_FEZ).fidelity_factor(circuit) > NoiseModel(IBM_OSAKA).fidelity_factor(circuit)

    def test_analytical_distribution_mixes_towards_uniform(self):
        circuit = QuantumCircuit(2)
        for _ in range(10):
            circuit.cx(0, 1)
        ideal = np.array([1.0, 0.0, 0.0, 0.0])
        model = NoiseModel(IBM_OSAKA)
        noisy = model.apply_analytical(ideal, circuit)
        assert noisy[0] < 1.0
        assert np.all(noisy > 0.0)
        assert np.sum(noisy) == pytest.approx(1.0)

    def test_opaque_unitary_charged_synthesized_cost(self):
        # Regression: a k-qubit ``unitary`` used to be priced like a single
        # CX.  It must carry its synthesized cost of 4**k - 1 two-qubit
        # gates, matching the depth penalty of unitary_synthesis_penalty.
        model = NoiseModel(IBM_FEZ)
        opaque = QuantumCircuit(3)
        opaque.unitary(np.eye(8), [0, 1, 2])
        e2 = IBM_FEZ.effective_two_qubit_error()
        expected = (1 - e2) ** (4**3 - 1) * (1 - IBM_FEZ.readout_error) ** 3
        assert model.fidelity_factor(opaque) == pytest.approx(expected)
        single_cx = QuantumCircuit(3)
        single_cx.cx(0, 1)
        assert model.fidelity_factor(opaque) < model.fidelity_factor(single_cx)

    def test_single_qubit_unitary_still_charged_single(self):
        model = NoiseModel(IBM_FEZ)
        circuit = QuantumCircuit(1)
        circuit.unitary(np.eye(2), [0])
        expected = (1 - IBM_FEZ.single_qubit_error) * (1 - IBM_FEZ.readout_error)
        assert model.fidelity_factor(circuit) == pytest.approx(expected)

    def test_fig10_analytical_path_pins_unitary_charge(self):
        # The fig10 grid's analytical mode mixes the ideal distribution with
        # uniform weighted by fidelity_factor; pin that mix for a circuit
        # holding an opaque 2-qubit unitary so the 4**k - 1 charge is
        # observable end-to-end.
        model = NoiseModel(IBM_OSAKA)
        circuit = QuantumCircuit(2)
        circuit.unitary(np.eye(4), [0, 1])
        fidelity = model.fidelity_factor(circuit)
        e2 = IBM_OSAKA.effective_two_qubit_error()
        assert fidelity == pytest.approx(
            (1 - e2) ** 15 * (1 - IBM_OSAKA.readout_error) ** 2
        )
        ideal = np.array([1.0, 0.0, 0.0, 0.0])
        noisy = model.apply_analytical(ideal, circuit)
        assert noisy == pytest.approx(fidelity * ideal + (1 - fidelity) * 0.25)


class TestTrajectorySampling:
    def test_sampling_shape_and_shots(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1)
        model = NoiseModel(IBM_FEZ, seed=11)
        result = model.sample(circuit, shots=64, trajectories=4)
        # Exact shot conservation, not just "at least the rounded share".
        assert sum(result.counts.values()) == 64
        assert result.shots == 64
        assert all(len(key) == 2 for key in result.counts)

    def test_seed_sequence_seeding_reproduces(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1)
        seed = np.random.SeedSequence(entropy=42, spawn_key=(7,))
        first = NoiseModel(IBM_FEZ, seed=seed).sample(circuit, shots=64, trajectories=4)
        second = NoiseModel(IBM_FEZ, seed=seed).sample(circuit, shots=64, trajectories=4)
        assert first.counts == second.counts

    def test_noise_perturbs_deterministic_circuit(self):
        circuit = QuantumCircuit(3)
        for _ in range(15):
            circuit.cx(0, 1)
            circuit.cx(1, 2)
        model = NoiseModel(IBM_OSAKA, seed=5)
        result = model.sample(circuit, shots=256, trajectories=16)
        # With ~90 noisy 2-qubit gate slots something should flip eventually.
        assert len(result.counts) > 1

    def test_zero_shots_rejected(self):
        model = NoiseModel(IBM_FEZ)
        with pytest.raises(NoiseModelError):
            model.sample(QuantumCircuit(1), shots=0)

    def test_readout_error_only_flips_bits(self):
        profile = IBM_FEZ
        model = NoiseModel(profile, seed=3)
        flipped = model._apply_readout_error({"0000": 100})
        assert sum(flipped.values()) == 100
        assert all(len(key) == 4 for key in flipped)


def _hand_built_circuit() -> QuantumCircuit:
    """Directives between 1-qubit, 2-qubit and multi-controlled gates."""
    circuit = QuantumCircuit(4)
    circuit.h(0).h(1).barrier().rx(0.3, 2).cx(0, 1).mcx([0, 1, 2], 3)
    circuit.cz(1, 2).barrier([2, 3]).ry(0.7, 3).rzz(0.4, 0, 3).measure_all()
    return circuit


def _chocoq_k1_target() -> QuantumCircuit:
    """The transpiled choco-q K1 reference circuit, ancillas included."""
    spec, _driver = make_solver("choco-q").build_spec(resolve_benchmark("K1"))
    target = transpile(spec.build_circuit(spec.initial_parameters))
    assert target.num_qubits > spec.num_qubits
    return target


class TestOnePassTrajectories:
    """Each trajectory applies its drawn Paulis as it walks the circuit; the
    histograms equal rebuilding the circuit with the Paulis inserted and
    simulating the rebuild, key order included."""

    @pytest.fixture(scope="class")
    def circuits(self) -> dict[str, QuantumCircuit]:
        return {"hand-built": _hand_built_circuit(), "choco-q-K1": _chocoq_k1_target()}

    @pytest.mark.parametrize("name", ["hand-built", "choco-q-K1"])
    @pytest.mark.parametrize("device", ["fez", "osaka"])
    @pytest.mark.parametrize("readout", [True, False])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_circuit_rebuild(self, circuits, name, device, readout, seed):
        circuit = circuits[name]
        model = NoiseConfig(device=device, readout=readout).build_model(seed=seed)
        result = model.sample(circuit, shots=64, trajectories=3)
        expected = clone_then_simulate_sample(model.profile, seed, circuit, 64, 3)
        assert list(result.counts.items()) == list(expected.items())
        assert result.shots == 64


class TestWidthCap:
    def test_both_modes_refuse_a_circuit_past_the_dense_cap(self, monkeypatch):
        def refuse(num_qubits):
            raise AssertionError(f"a {num_qubits}-qubit state was allocated")

        monkeypatch.setattr(
            statevector.Statevector, "zero_state", classmethod(lambda cls, n: refuse(n))
        )
        circuit = QuantumCircuit(statevector.MAX_DENSE_QUBITS + 1)
        circuit.h(0)
        model = NoiseModel(IBM_FEZ, seed=0)
        with pytest.raises(SimulationError, match="25 qubits"):
            model.sample(circuit, shots=8, trajectories=2)
        with pytest.raises(SimulationError, match="25 qubits"):
            model.sample_analytical(circuit, shots=8)
