"""Generated-instance goldens for the graph coloring generator.

``tests/data/golden_graph_coloring.json`` holds whole
:class:`GraphColoringInstance` records (vertices, edges, colors and color
costs):

* ``suite``: G1-G4 at the case indices that the benches, perfbench and the
  service warm-ups use (0-12, 50-60 and 90);
* ``grid``: ``random_graph_coloring`` over a seed grid with three and four
  colors, where the DSATUR color count decides which edge draws are kept
  (several of these seeds reject one or more draws before accepting).

Regenerate (only when a change means to move these instances, and say so)
with ``PYTHONPATH=src:tests python -c "import test_graph_coloring_golden as t;
t.write_golden()"``.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np
import pytest

from repro.problems import get_spec, make_benchmark
from repro.problems.graph_coloring import graph_coloring_problem, random_graph_coloring

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_graph_coloring.json")

SUITE_CASES = [
    (scale, case_index)
    for scale in ("G1", "G2", "G3", "G4")
    for case_index in [*range(13), *range(50, 61), 90]
]

#: (vertices, edges, colors) shapes dense enough that draws get rejected.
GRID_SHAPES = [
    (4, 5, 3),
    (5, 8, 3),
    (6, 10, 3),
    (6, 11, 3),
    (7, 12, 3),
    (6, 13, 4),
    (7, 17, 4),
    (8, 20, 4),
]
GRID_CASES = [(*shape, seed) for shape in GRID_SHAPES for seed in range(12)]


def _suite_key(scale: str, case_index: int) -> str:
    return f"{scale}#{case_index}"


def _grid_key(num_vertices: int, num_edges: int, num_colors: int, seed: int) -> str:
    return f"{num_vertices}V-{num_edges}E-{num_colors}C#{seed}"


def _suite_instance(scale: str, case_index: int):
    """The instance behind ``make_benchmark(scale, case_index)``.

    The suite names each problem ``<scale>:<description>#<seed>``; the
    instance regenerated from that seed must build the same problem.
    """
    problem = make_benchmark(scale, case_index)
    seed = int(problem.name.rsplit("#", 1)[1])
    instance = random_graph_coloring(seed=seed, **get_spec(scale).parameters)
    rebuilt = graph_coloring_problem(instance)
    for ours, theirs in zip(rebuilt.constraint_matrix(), problem.constraint_matrix()):
        np.testing.assert_array_equal(ours, theirs)
    assert rebuilt.objective.terms == problem.objective.terms
    return instance


def _record(instance) -> dict:
    return json.loads(json.dumps(dataclasses.asdict(instance)))


def _generate() -> dict:
    return {
        "suite": {
            _suite_key(*case): _record(_suite_instance(*case)) for case in SUITE_CASES
        },
        "grid": {
            _grid_key(*case): _record(
                random_graph_coloring(case[0], case[1], num_colors=case[2], seed=case[3])
            )
            for case in GRID_CASES
        },
    }


def write_golden() -> None:
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(_generate(), handle, sort_keys=True)
        handle.write("\n")


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_covers_every_case(golden):
    assert sorted(golden["suite"]) == sorted(_suite_key(*case) for case in SUITE_CASES)
    assert sorted(golden["grid"]) == sorted(_grid_key(*case) for case in GRID_CASES)


@pytest.mark.parametrize("scale, case_index", SUITE_CASES)
def test_suite_instance_matches_golden(golden, scale, case_index):
    assert _record(_suite_instance(scale, case_index)) == golden["suite"][
        _suite_key(scale, case_index)
    ]


@pytest.mark.parametrize("shape", GRID_SHAPES, ids=lambda shape: "{}V-{}E-{}C".format(*shape))
def test_seed_grid_matches_golden(golden, shape):
    num_vertices, num_edges, num_colors = shape
    for seed in range(12):
        instance = random_graph_coloring(num_vertices, num_edges, num_colors=num_colors, seed=seed)
        assert _record(instance) == golden["grid"][_grid_key(*shape, seed)], seed
