"""Transpiler optimization stack — gate-count reductions per circuit family.

The circuit-optimization passes (:mod:`repro.qcircuit.passes`) exist to cut
the gate counts the noise models charge for: every two-qubit gate removed
raises the analytical fidelity factor and shortens the Pauli-trajectory
circuits.  This benchmark records, per paper circuit family, what the default
pipeline actually removes relative to raw lowering (optimization level 0).

Two basis views per family:

* ``default`` — the package basis (``BASIS_GATES``): fusion and cancellation
  only, small wins from rotation merging at ladder junctions.
* ``+rzz`` — the basis extended with a native ``rzz`` (the myQLM
  ``cnots=False`` view, and what a pulse-level controller on Heron-class
  hardware exposes): the ladder-resynthesis pass collapses every lowered
  controlled-phase pair of CXs into one ``rzz``, the headline two-qubit
  reduction.

The acceptance gate rides the row data: the best family must clear
``TARGET_TWO_QUBIT_SPEEDUP`` (recorded as ``metadata.target_speedup`` in
``BENCH_transpile_optimization.json``, per the artifact-hygiene lint rule)
and at least one paper family must shed >= 20% of its two-qubit gates.
"""

from __future__ import annotations

from harness import write_bench_json

from repro.analysis.report import print_table
from repro.problems import make_benchmark
from repro.qcircuit import (
    BASIS_GATES,
    DEFAULT_OPTIMIZATION_LEVEL,
    QuantumCircuit,
    TranspileOptions,
    transpile_with_report,
)
from repro.solvers.chocoq import ChocoQConfig, ChocoQSolver
from repro.solvers.cyclic_qaoa import CyclicQAOAConfig, CyclicQAOASolver

#: Gate on the best family's lowered/optimized two-qubit ratio.  F1 under the
#: ``+rzz`` basis measures 1.25x (20% reduction); gate a notch below so a
#: problem-generator tweak cannot flake the benchmark.
TARGET_TWO_QUBIT_SPEEDUP = 1.2

#: Reductions are percentages of the *lowered* counts (what level 0 emits).
_PERCENT = 100.0


def _choco_circuit(case: str) -> QuantumCircuit:
    problem = make_benchmark(case)
    spec, _ = ChocoQSolver(config=ChocoQConfig(num_layers=1)).build_spec(problem)
    return spec.build_circuit(spec.initial_parameters)


def _cyclic_circuit(case: str) -> QuantumCircuit:
    problem = make_benchmark(case)
    spec = CyclicQAOASolver(config=CyclicQAOAConfig(num_layers=2)).build_spec(problem)
    return spec.build_circuit(spec.initial_parameters)


#: Family label -> circuit builder, the paper ansatz families the noise
#: models end up charging for.
FAMILIES = {
    "choco-q@F1": lambda: _choco_circuit("F1"),
    "choco-q@G1": lambda: _choco_circuit("G1"),
    "cyclic@F1": lambda: _cyclic_circuit("F1"),
}

#: Basis label -> basis gate set.
BASES = {
    "default": frozenset(BASIS_GATES),
    "+rzz": frozenset(BASIS_GATES | {"rzz"}),
}


def _rows() -> list[dict]:
    rows = []
    for family, build in FAMILIES.items():
        circuit = build()
        for basis_label, basis in BASES.items():
            options = TranspileOptions(
                basis_gates=basis, optimization_level=DEFAULT_OPTIMIZATION_LEVEL
            )
            _, report = transpile_with_report(circuit, options)
            lowered, optimized = report.lowered, report.optimized
            rows.append(
                {
                    "family": family,
                    "basis": basis_label,
                    "lowered_size": lowered.size,
                    "opt_size": optimized.size,
                    "lowered_depth": lowered.depth,
                    "opt_depth": optimized.depth,
                    "lowered_2q": lowered.two_qubit_gates,
                    "opt_2q": optimized.two_qubit_gates,
                    "size_red_%": round(_PERCENT * report.size_reduction(), 2),
                    "depth_red_%": round(_PERCENT * report.depth_reduction(), 2),
                    "two_qubit_red_%": round(
                        _PERCENT * report.two_qubit_reduction(), 2
                    ),
                    "two_qubit_speedup": round(
                        lowered.two_qubit_gates / max(optimized.two_qubit_gates, 1), 3
                    ),
                }
            )
    return rows


def _check_rows(rows: list[dict]) -> dict[str, float]:
    """Acceptance gates shared by the pytest and script entries.

    Raised explicitly (not ``assert``) so the ``__main__`` path that writes
    ``BENCH_transpile_optimization.json`` cannot record a regressed run
    under ``python -O``.
    """
    best_speedup = max(row["two_qubit_speedup"] for row in rows)
    best_reduction = max(row["two_qubit_red_%"] for row in rows)
    if best_speedup < TARGET_TWO_QUBIT_SPEEDUP:
        raise AssertionError(
            f"best two-qubit speedup {best_speedup:.3f}x below the "
            f"{TARGET_TWO_QUBIT_SPEEDUP}x gate"
        )
    if best_reduction < 20.0:
        raise AssertionError(
            f"no family sheds >= 20% two-qubit gates (best {best_reduction:.1f}%)"
        )
    for row in rows:
        if row["two_qubit_red_%"] < 0 or row["size_red_%"] < 0:
            raise AssertionError(
                f"{row['family']}/{row['basis']}: optimization made the "
                "circuit bigger"
            )
    return {"best_speedup": best_speedup, "best_reduction": best_reduction}


def bench_transpile_optimization(benchmark):
    rows = benchmark.pedantic(_rows, rounds=1, iterations=1)
    print()
    print_table(rows, title="Transpiler optimization — gate-count reductions")
    summary = _check_rows(rows)
    print(
        f"\nbest two-qubit speedup {summary['best_speedup']:.3f}x, "
        f"best reduction {summary['best_reduction']:.1f}%"
    )


if __name__ == "__main__":
    bench_rows = _rows()
    print_table(bench_rows, title="Transpiler optimization — gate-count reductions")
    bench_summary = _check_rows(bench_rows)
    print(
        f"best two-qubit speedup {bench_summary['best_speedup']:.3f}x, "
        f"best reduction {bench_summary['best_reduction']:.1f}%"
    )
    write_bench_json(
        "transpile_optimization",
        bench_rows,
        metadata={
            "optimization_level": DEFAULT_OPTIMIZATION_LEVEL,
            "families": sorted(FAMILIES),
            "bases": {label: sorted(basis) for label, basis in BASES.items()},
            "target_speedup": TARGET_TWO_QUBIT_SPEEDUP,
        },
    )
