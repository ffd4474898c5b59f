"""Tests for the application domains (FLP, GCP, KPP) and the benchmark suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ProblemError
from repro.problems.benchmark_suite import (
    SCALE_NAMES,
    benchmark_specs,
    get_spec,
    make_benchmark,
)
from repro.problems.facility_location import (
    FacilityLocationInstance,
    facility_location_problem,
    random_facility_location,
    variable_layout as flp_layout,
)
from repro.problems.graph_coloring import (
    _dsatur_color_count,
    coloring_from_assignment,
    graph_coloring_problem,
    is_proper_coloring,
    random_graph_coloring,
)
from repro.problems.k_partition import (
    cut_weight,
    k_partition_problem,
    partition_from_assignment,
    random_k_partition,
)


class TestFacilityLocation:
    def test_instance_dimensions(self):
        instance = random_facility_location(2, 1, seed=0)
        assert instance.num_variables == 6
        assert instance.num_constraints == 3

    def test_problem_shape_matches_instance(self):
        instance = random_facility_location(2, 2, seed=1)
        problem = facility_location_problem(instance)
        assert problem.num_variables == instance.num_variables
        assert problem.num_constraints == instance.num_constraints
        assert problem.sense == "min"

    def test_optimum_serves_every_demand_from_open_facility(self):
        instance = random_facility_location(2, 2, seed=2)
        problem = facility_location_problem(instance)
        assignment, _ = problem.brute_force_optimum()
        layout = flp_layout(2, 2)
        for demand in range(2):
            served_by = [
                facility
                for facility in range(2)
                if assignment[layout[f"x{demand}_{facility}"]] == 1
            ]
            assert len(served_by) == 1
            assert assignment[layout[f"y{served_by[0]}"]] == 1

    def test_optimum_cost_matches_direct_computation(self):
        instance = random_facility_location(2, 1, seed=3)
        problem = facility_location_problem(instance)
        _, value = problem.brute_force_optimum()
        # The optimum must equal the cheapest (opening + service) choice of a
        # single facility serving the single demand point.
        direct = min(
            instance.opening_costs[j] + instance.service_costs[0][j] for j in range(2)
        )
        assert value == pytest.approx(direct)

    def test_generator_validation(self):
        with pytest.raises(ProblemError):
            random_facility_location(0, 1)

    def test_deterministic_given_seed(self):
        a = random_facility_location(2, 2, seed=5)
        b = random_facility_location(2, 2, seed=5)
        assert a == b


class TestGraphColoring:
    def test_two_color_instances_are_bipartite(self):
        instance = random_graph_coloring(4, 3, num_colors=2, seed=1)
        problem = graph_coloring_problem(instance)
        # A feasible optimum must exist because the generator guarantees
        # 2-colorability.
        assignment, _ = problem.brute_force_optimum()
        coloring = coloring_from_assignment(instance, assignment)
        assert is_proper_coloring(instance, coloring)

    def test_instance_dimensions(self):
        instance = random_graph_coloring(3, 1, num_colors=2, seed=0)
        assert instance.num_variables == 8
        assert instance.num_constraints == 5

    def test_edge_count_respected(self):
        instance = random_graph_coloring(5, 4, num_colors=2, seed=3)
        assert len(instance.edges) == 4

    def test_too_many_edges_rejected(self):
        with pytest.raises(ProblemError):
            random_graph_coloring(3, 10, num_colors=2)

    def test_one_color_rejected(self):
        with pytest.raises(ProblemError):
            random_graph_coloring(3, 1, num_colors=1)

    def test_three_color_generation(self):
        instance = random_graph_coloring(4, 5, num_colors=3, seed=2)
        problem = graph_coloring_problem(instance)
        assignment, _ = problem.brute_force_optimum()
        coloring = coloring_from_assignment(instance, assignment)
        assert is_proper_coloring(instance, coloring)

    def test_gives_up_when_no_draw_is_colorable(self):
        # Six edges on four vertices is K4, which needs four colors, so all
        # 200 draws are rejected.
        with pytest.raises(ProblemError, match="failed to generate a 3-colorable graph"):
            random_graph_coloring(4, 6, num_colors=3, seed=0)

    @pytest.mark.parametrize(
        "num_vertices, edges, expected",
        [
            (3, (), 1),
            (4, ((0, 1), (1, 2), (2, 3)), 2),
            (5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)), 3),
            (4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)), 4),
            (6, ((0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (2, 5)), 2),
        ],
        ids=["no-edges", "path", "odd-cycle", "K4", "bipartite"],
    )
    def test_dsatur_color_count_on_known_graphs(self, num_vertices, edges, expected):
        assert _dsatur_color_count(num_vertices, edges) == expected

    @pytest.mark.parametrize(
        "num_vertices, edges",
        [
            # Breaking saturation ties by index alone uses four colors.
            (6, ((0, 1), (0, 4), (1, 2), (1, 4), (2, 3), (2, 5), (3, 4), (3, 5), (4, 5))),
            # Ranking degree before saturation uses four colors.
            (7, ((0, 1), (0, 5), (1, 2), (1, 3), (1, 4), (2, 4), (2, 5), (2, 6),
                 (3, 5), (4, 6), (5, 6))),
            # Breaking full ties toward the highest index uses four colors.
            (8, ((0, 1), (0, 2), (0, 3), (1, 3), (1, 6), (2, 3), (2, 4), (2, 7),
                 (4, 6), (4, 7), (5, 6), (5, 7))),
        ],
        ids=["degree-breaks-saturation-ties", "saturation-before-degree", "lowest-index-last"],
    )
    def test_dsatur_tie_breaking_is_pinned(self, num_vertices, edges):
        assert _dsatur_color_count(num_vertices, edges) == 3

    def test_objective_prefers_cheap_colors(self):
        instance = random_graph_coloring(3, 1, num_colors=2, seed=4)
        problem = graph_coloring_problem(instance)
        assignment, value = problem.brute_force_optimum()
        coloring = coloring_from_assignment(instance, assignment)
        expected = sum(instance.color_costs[c] for c in coloring.values())
        assert value == pytest.approx(expected)


class TestKPartition:
    def test_dimensions_and_balance(self):
        instance = random_k_partition(4, 3, num_blocks=2, seed=0)
        problem = k_partition_problem(instance)
        assert problem.num_variables == 8
        assert problem.num_constraints == 6
        assignment, _ = problem.brute_force_optimum()
        partition = partition_from_assignment(instance, assignment)
        sizes = [sum(1 for b in partition.values() if b == block) for block in range(2)]
        assert sizes == [2, 2]

    def test_constraints_are_summation_format(self):
        instance = random_k_partition(4, 3, num_blocks=2, seed=1)
        problem = k_partition_problem(instance)
        assert all(constraint.is_summation_format() for constraint in problem.constraints)

    def test_objective_counts_within_block_weight(self):
        instance = random_k_partition(4, 4, num_blocks=2, seed=2)
        problem = k_partition_problem(instance)
        assignment, value = problem.brute_force_optimum()
        partition = partition_from_assignment(instance, assignment)
        total_weight = sum(instance.weights)
        assert value == pytest.approx(total_weight - cut_weight(instance, partition))

    def test_indivisible_sizes_rejected(self):
        with pytest.raises(ProblemError):
            random_k_partition(5, 3, num_blocks=2, seed=0)


class TestBenchmarkSuite:
    def test_twelve_scales(self):
        assert len(benchmark_specs()) == 12
        assert set(SCALE_NAMES) == {
            "F1", "F2", "F3", "F4", "G1", "G2", "G3", "G4", "K1", "K2", "K3", "K4",
        }

    def test_unknown_scale_rejected(self):
        with pytest.raises(ProblemError):
            get_spec("Z9")

    @pytest.mark.parametrize("name", SCALE_NAMES)
    def test_every_scale_is_feasible_and_bounded(self, name):
        problem = make_benchmark(name)
        assert problem.num_variables <= 16
        matrix, rhs = problem.constraint_matrix()
        from repro.core.feasibility import find_feasible_assignment

        assert problem.is_feasible(find_feasible_assignment(matrix, rhs))

    def test_scales_grow_within_domain(self):
        sizes = [make_benchmark(name).num_variables for name in ("F1", "F2", "F3")]
        assert sizes == sorted(sizes)

    def test_cases_are_reproducible(self):
        a = make_benchmark("G2", case_index=1)
        b = make_benchmark("G2", case_index=1)
        assert a.constraint_matrix()[0].tolist() == b.constraint_matrix()[0].tolist()
        assert a.objective.terms == b.objective.terms

    def test_distinct_cases_differ(self):
        cases = [make_benchmark("F2", case_index=index) for index in range(3)]
        assert len({str(sorted(case.objective.terms.items())) for case in cases}) >= 2


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 200))
def test_property_flp_optimum_opens_used_facilities(seed):
    """In any optimal FLP solution, a facility serving a demand is open."""
    instance = random_facility_location(2, 1, seed=seed)
    problem = facility_location_problem(instance)
    assignment, _ = problem.brute_force_optimum()
    layout = flp_layout(2, 1)
    for facility in range(2):
        if assignment[layout[f"x0_{facility}"]] == 1:
            assert assignment[layout[f"y{facility}"]] == 1


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 200))
def test_property_kpp_blocks_balanced(seed):
    """Every feasible KPP assignment has perfectly balanced blocks."""
    instance = random_k_partition(4, 3, num_blocks=2, seed=seed)
    problem = k_partition_problem(instance)
    assignment, _ = problem.brute_force_optimum()
    partition = partition_from_assignment(instance, assignment)
    sizes = [sum(1 for b in partition.values() if b == block) for block in range(2)]
    assert sizes == [instance.block_size] * 2
