"""Application domains evaluated in the paper: facility location (FLP),
graph coloring (GCP) and k-partition (KPP), plus the Table-II benchmark
suite (F1-F4, G1-G4, K1-K4)."""

from repro.problems.benchmark_suite import (
    SCALE_NAMES,
    BenchmarkSpec,
    benchmark_specs,
    get_spec,
    make_benchmark,
)
from repro.problems.facility_location import (
    FacilityLocationInstance,
    facility_location_problem,
    random_facility_location,
)
from repro.problems.graph_coloring import (
    GraphColoringInstance,
    coloring_from_assignment,
    graph_coloring_problem,
    is_proper_coloring,
    random_graph_coloring,
)
from repro.problems.k_partition import (
    KPartitionInstance,
    cut_weight,
    k_partition_problem,
    partition_from_assignment,
    random_k_partition,
)

__all__ = [
    "BenchmarkSpec",
    "FacilityLocationInstance",
    "GraphColoringInstance",
    "KPartitionInstance",
    "SCALE_NAMES",
    "benchmark_specs",
    "coloring_from_assignment",
    "cut_weight",
    "facility_location_problem",
    "get_spec",
    "graph_coloring_problem",
    "is_proper_coloring",
    "k_partition_problem",
    "make_benchmark",
    "partition_from_assignment",
    "random_facility_location",
    "random_graph_coloring",
    "random_k_partition",
]
