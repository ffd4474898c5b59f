"""Tests for the transpile structure memo inside ``transpile_with_report``.

``repro.qcircuit.transpile`` resolves to the *function* re-exported by the
package, so the module itself is imported with ``importlib``.  Every test
runs against a fresh, empty memo so the process-wide one (and the order
tests run in) cannot decide whether a call hits.
"""

from __future__ import annotations

import importlib
import sys
import threading

import numpy as np
import pytest

from repro.exceptions import GateError
from repro.memo import LruMemo
from repro.qcircuit.circuit import QuantumCircuit
from repro.qcircuit.gates import BASIS_GATES, Gate
from repro.qcircuit.passes.manager import PassManager
from repro.run.plan import RunSpec, execute_spec

transpile_module = importlib.import_module("repro.qcircuit.transpile")
TranspileOptions = transpile_module.TranspileOptions
transpile_with_report = transpile_module.transpile_with_report
transpile_cache_info = transpile_module.transpile_cache_info


@pytest.fixture(autouse=True)
def fresh_memo(monkeypatch):
    monkeypatch.setattr(transpile_module, "_MEMO", LruMemo(transpile_module.MEMO_CAPACITY))


@pytest.fixture
def pipeline_runs(monkeypatch):
    """Count ``PassManager.run`` calls: one per transpile that really ran."""
    calls = []
    original = PassManager.run

    def counting_run(self, circuit):
        calls.append(circuit.name)
        return original(self, circuit)

    monkeypatch.setattr(PassManager, "run", counting_run)
    return calls


def ladder(name: str = "ladder", theta: float = 0.3) -> QuantumCircuit:
    circuit = QuantumCircuit(4, name=name)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.rz(theta, 1)
    circuit.cx(0, 1)
    circuit.mcx([0, 1, 2], 3)
    circuit.cp(theta / 2, 2, 3)
    return circuit


def one_gate(name: str, build) -> QuantumCircuit:
    circuit = QuantumCircuit(2, name=name)
    build(circuit)
    return circuit


def assert_same_transpile(first, second) -> None:
    (circuit_a, report_a), (circuit_b, report_b) = first, second
    assert circuit_a.num_qubits == circuit_b.num_qubits
    assert circuit_a.name == circuit_b.name
    assert circuit_a.instructions == circuit_b.instructions
    assert report_a == report_b


# ---------------------------------------------------------------------------
# (a) a repeated circuit runs the pipeline once
# ---------------------------------------------------------------------------


def test_repeated_circuit_runs_the_pipeline_once(pipeline_runs):
    first = transpile_with_report(ladder())
    second = transpile_with_report(ladder())
    assert len(pipeline_runs) == 1
    assert transpile_cache_info() == (1, 1)
    assert_same_transpile(first, second)
    assert first[0] is not second[0]


# ---------------------------------------------------------------------------
# (b) circuits or options that differ never share an entry
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "build_a, build_b",
    [
        pytest.param(
            lambda c: c.unitary(np.array([[0, 1], [1, 0]]), [0]),
            lambda c: c.unitary(np.array([[1, 0], [0, -1]]), [0]),
            id="unitary-matrix",
        ),
        pytest.param(lambda c: c.rz(-0.0, 0), lambda c: c.rz(0.0, 0), id="signed-zero"),
        pytest.param(lambda c: c.rz(0.5, 0), lambda c: c.rz(np.float32(0.5), 0),
                     id="numpy-scalar"),
        pytest.param(lambda c: c.rz(1, 0), lambda c: c.rz(1.0, 0), id="int-and-float"),
    ],
)
def test_circuits_differing_in_content_miss(build_a, build_b):
    transpile_with_report(one_gate("content", build_a))
    transpile_with_report(one_gate("content", build_b))
    assert transpile_cache_info() == (0, 2)


def test_unitary_matrix_comes_from_its_own_circuit():
    x_matrix = np.array([[0, 1], [1, 0]], dtype=complex)
    z_matrix = np.array([[1, 0], [0, -1]], dtype=complex)
    for matrix in (x_matrix, z_matrix):
        circuit = one_gate("opaque", lambda c: c.unitary(matrix, [0]))
        (instruction,) = transpile_with_report(circuit)[0]
        np.testing.assert_array_equal(instruction.gate.matrix, matrix)


def test_circuit_name_is_part_of_the_key():
    first = transpile_with_report(ladder(name="alpha"))
    second = transpile_with_report(ladder(name="beta"))
    assert transpile_cache_info().misses == 2
    assert (first[1].circuit_name, second[1].circuit_name) == ("alpha", "beta")


@pytest.mark.parametrize(
    "options",
    [
        pytest.param(TranspileOptions(optimization_level=0), id="optimization_level"),
        pytest.param(TranspileOptions(basis_gates=BASIS_GATES | {"rzz"}), id="basis_gates"),
    ],
)
def test_options_are_part_of_the_key(options):
    circuit = ladder()
    default = transpile_with_report(circuit)
    varied = transpile_with_report(circuit, options)
    assert transpile_cache_info() == (0, 2)
    assert varied[1] != default[1]
    # a hit with the varied options answers with the varied result
    assert_same_transpile(transpile_with_report(circuit, options), varied)


def test_unsupported_parameter_type_raises():
    # A param the memo could not fingerprint never reaches it: the gate
    # rejects it when built.
    with pytest.raises(GateError, match="complex"):
        Gate("rz", 1, params=(1 + 2j,))


# ---------------------------------------------------------------------------
# (c) copy on return
# ---------------------------------------------------------------------------


def test_appending_to_a_result_does_not_change_a_later_hit():
    circuit = ladder()
    first, _report = transpile_with_report(circuit)
    pristine = first.instructions
    first.h(0)
    first.name = "renamed"
    second, _report = transpile_with_report(circuit)
    assert second.instructions == pristine
    assert second.name == "ladder_t"


# ---------------------------------------------------------------------------
# (d) bounded LRU
# ---------------------------------------------------------------------------


def test_fifth_distinct_circuit_evicts_the_least_recently_used():
    circuits = [ladder(name=f"c{index}") for index in range(5)]
    for circuit in circuits[:4]:
        transpile_with_report(circuit)
    transpile_with_report(circuits[0])  # c0 becomes most recently used
    transpile_with_report(circuits[4])  # evicts c1, the least recently used
    assert transpile_cache_info() == (1, 5)
    for circuit in (circuits[0], *circuits[2:]):
        transpile_with_report(circuit)
    assert transpile_cache_info() == (5, 5)
    transpile_with_report(circuits[1])
    assert transpile_cache_info() == (5, 6)


# ---------------------------------------------------------------------------
# (e) threads
# ---------------------------------------------------------------------------


def test_two_threads_transpiling_one_circuit_agree():
    circuit = ladder()
    start = threading.Barrier(2)
    results: list = [None, None]

    def worker(slot: int) -> None:
        start.wait(timeout=10.0)
        results[slot] = transpile_with_report(circuit)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert_same_transpile(*results)
    assert_same_transpile(results[0], transpile_with_report(circuit))
    info = transpile_cache_info()
    assert info.hits + info.misses == 3


# ---------------------------------------------------------------------------
# (f, g) whole solves
# ---------------------------------------------------------------------------


def _deterministic_part(record) -> dict:
    payload = record.to_dict()
    payload["metrics"] = {k: v for k, v in payload["metrics"].items() if k != "latency_s"}
    payload["result"] = {k: v for k, v in payload["result"].items() if k != "latency"}
    return payload


@pytest.mark.parametrize(
    "solver, config",
    [
        ("choco-q", {"num_layers": 1, "backend": "subspace"}),
        ("cyclic-qaoa", {"num_layers": 1, "backend": "dense"}),
        ("penalty-qaoa", {"num_layers": 1}),
    ],
)
def test_cold_and_warm_solves_record_the_same_result(solver, config):
    spec = RunSpec(solver=solver, benchmark="K2", config=config, seed=3, shots=256,
                   max_iterations=8)
    cold = execute_spec(spec)
    warm = execute_spec(spec)
    assert transpile_cache_info() == (1, 1)
    assert _deterministic_part(warm) == _deterministic_part(cold)


def test_seed_only_variants_transpile_once(pipeline_runs):
    for seed in (11, 12, 13):
        execute_spec(RunSpec(solver="choco-q", benchmark="K2",
                             config={"num_layers": 1, "backend": "subspace"},
                             seed=seed, shots=64, max_iterations=4))
    assert len(pipeline_runs) == 1
    assert transpile_cache_info() == (2, 1)
