"""The benchmark suite: F1-F4, G1-G4, K1-K4.

Section V-A evaluates the solvers on four problem scales per application
domain.  The original suite contains 400 literature-derived cases with up to
28 variables; running those requires the authors' GPU simulator, so this
module provides the laptop-scale substitute described in the README's
"Deviations from the paper": seeded synthetic generators at four scales per
domain, with the largest instances capped so that dense statevector
simulation stays tractable (<= 16 qubits).

Scales (variables / constraints):

============  ==================  ==========  ===========
benchmark     configuration        variables   constraints
============  ==================  ==========  ===========
F1            2 facilities, 1 demand        6            3
F2            2 facilities, 2 demands      10            6
F3            2 facilities, 3 demands      14            9
F4            3 facilities, 2 demands      15           11
G1            3 vertices, 1 edge, 2 colors  8            5
G2            3 vertices, 2 edges, 2 colors 10            7
G3            4 vertices, 3 edges, 2 colors 14           10
G4            4 vertices, 4 edges, 2 colors 16           12
K1            4 vertices, 3 edges, 2 blocks  8            6
K2            6 vertices, 5 edges, 2 blocks 12            8
K3            6 vertices, 8 edges, 2 blocks 12            8
K4            8 vertices, 8 edges, 2 blocks 16           10
============  ==================  ==========  ===========

Every generator is deterministic given ``(scale, case_index)`` so benchmark
tables are reproducible run-to-run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.problem import ConstrainedBinaryProblem
from repro.exceptions import ProblemError
from repro.problems.facility_location import (
    facility_location_problem,
    random_facility_location,
)
from repro.problems.graph_coloring import graph_coloring_problem, random_graph_coloring
from repro.problems.k_partition import k_partition_problem, random_k_partition
from repro.serialization import is_integer


@dataclass(frozen=True)
class BenchmarkSpec:
    """One row of the benchmark table: a named scale of one domain."""

    name: str
    domain: str
    parameters: dict
    description: str


_FLP_SCALES = {
    "F1": {"num_facilities": 2, "num_demands": 1},
    "F2": {"num_facilities": 2, "num_demands": 2},
    "F3": {"num_facilities": 2, "num_demands": 3},
    "F4": {"num_facilities": 3, "num_demands": 2},
}

_GCP_SCALES = {
    "G1": {"num_vertices": 3, "num_edges": 1, "num_colors": 2},
    "G2": {"num_vertices": 3, "num_edges": 2, "num_colors": 2},
    "G3": {"num_vertices": 4, "num_edges": 3, "num_colors": 2},
    "G4": {"num_vertices": 4, "num_edges": 4, "num_colors": 2},
}

_KPP_SCALES = {
    "K1": {"num_vertices": 4, "num_edges": 3, "num_blocks": 2},
    "K2": {"num_vertices": 6, "num_edges": 5, "num_blocks": 2},
    "K3": {"num_vertices": 6, "num_edges": 8, "num_blocks": 2},
    "K4": {"num_vertices": 8, "num_edges": 8, "num_blocks": 2},
}


def benchmark_specs() -> list[BenchmarkSpec]:
    """All twelve benchmark scales in Table-II order."""
    specs: list[BenchmarkSpec] = []
    for name, parameters in _FLP_SCALES.items():
        specs.append(
            BenchmarkSpec(
                name=name,
                domain="flp",
                parameters=dict(parameters),
                description=f"{parameters['num_facilities']}F-{parameters['num_demands']}D",
            )
        )
    for name, parameters in _GCP_SCALES.items():
        specs.append(
            BenchmarkSpec(
                name=name,
                domain="gcp",
                parameters=dict(parameters),
                description=(
                    f"{parameters['num_vertices']}V-{parameters['num_edges']}E-"
                    f"{parameters['num_colors']}C"
                ),
            )
        )
    for name, parameters in _KPP_SCALES.items():
        specs.append(
            BenchmarkSpec(
                name=name,
                domain="kpp",
                parameters=dict(parameters),
                description=(
                    f"{parameters['num_vertices']}V-{parameters['num_edges']}E-"
                    f"{parameters['num_blocks']}B"
                ),
            )
        )
    return specs


def get_spec(name: str) -> BenchmarkSpec:
    """Look up one benchmark scale by its Table-II name (F1 ... K4)."""
    for spec in benchmark_specs():
        if spec.name == name.upper():
            return spec
    raise ProblemError(f"unknown benchmark {name!r}; expected F1-F4, G1-G4 or K1-K4")


def _build(spec: BenchmarkSpec, seed: int) -> ConstrainedBinaryProblem:
    if spec.domain == "flp":
        instance = random_facility_location(seed=seed, **spec.parameters)
        return facility_location_problem(instance, name=f"{spec.name}:{spec.description}#{seed}")
    if spec.domain == "gcp":
        instance = random_graph_coloring(seed=seed, **spec.parameters)
        return graph_coloring_problem(instance, name=f"{spec.name}:{spec.description}#{seed}")
    if spec.domain == "kpp":
        instance = random_k_partition(seed=seed, **spec.parameters)
        return k_partition_problem(instance, name=f"{spec.name}:{spec.description}#{seed}")
    raise ProblemError(f"unknown domain {spec.domain!r}")


def make_benchmark(name: str, case_index: int = 0) -> ConstrainedBinaryProblem:
    """Instantiate one reproducible case of a benchmark scale.

    ``case_index`` selects which of the (arbitrarily many) seeded cases to
    build, mirroring the paper's per-scale case collections; it must be a
    non-negative integer.
    """
    if not is_integer(case_index) or case_index < 0:
        raise ProblemError(f"case_index must be a non-negative integer, got {case_index!r}")
    spec = get_spec(name)
    seed = _case_seed(spec, case_index)
    return _build(spec, seed)


def _case_seed(spec: BenchmarkSpec, case_index: int) -> int:
    base = {"flp": 1000, "gcp": 2000, "kpp": 3000}[spec.domain]
    scale_offset = int(spec.name[1:]) * 100
    return base + scale_offset + case_index


SCALE_NAMES: tuple[str, ...] = tuple(spec.name for spec in benchmark_specs())
