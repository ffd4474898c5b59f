"""Graph coloring problem (GCP) instances.

The paper's second application domain (ref. [26]): assign one of ``k`` colors
to every vertex so that adjacent vertices receive different colors, while
minimizing a per-color usage cost (a standard linear surrogate that prefers
low-index colors, making the optimum unique for generic weights).

Binary-variable formulation with slack variables (equality constraints only):

* ``x_vc``  — vertex ``v`` gets color ``c``,
* ``s_ec``  — slack for edge ``e = (u, v)`` and color ``c`` turning the
  conflict inequality ``x_uc + x_vc <= 1`` into
  ``x_uc + x_vc + s_ec = 1``.

Constraints:
  * one color per vertex: ``sum_c x_vc = 1``;
  * conflict per (edge, color): ``x_uc + x_vc + s_ec = 1``.

Note that the conflict rows mix several vertices' variables across colors,
which is exactly the "complex constraints sharing variables" regime where the
cyclic-Hamiltonian baseline loses its encoding (Section III) and Choco-Q's
generality pays off.

Generated graphs are checked with a DSATUR greedy coloring implemented in
this module (:func:`_dsatur_color_count`), so the generator needs nothing
beyond NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.problem import ConstrainedBinaryProblem, LinearConstraint, Objective
from repro.exceptions import ProblemError


@dataclass(frozen=True)
class GraphColoringInstance:
    """Raw data of one GCP instance."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    num_colors: int
    color_costs: tuple[float, ...]

    @property
    def num_variables(self) -> int:
        return self.num_vertices * self.num_colors + len(self.edges) * self.num_colors

    @property
    def num_constraints(self) -> int:
        return self.num_vertices + len(self.edges) * self.num_colors


def random_graph_coloring(
    num_vertices: int,
    num_edges: int,
    num_colors: int = 2,
    seed: int | None = None,
) -> GraphColoringInstance:
    """Generate a random graph with ``num_edges`` edges that is k-colorable.

    Edges are sampled without replacement from the complete graph (for two
    colors, only across a random split of the vertices, so the graph is
    bipartite), and a draw is kept only when :func:`_dsatur_color_count`
    colors it with at most ``num_colors`` colors, so the resulting
    optimization problem always has a feasible assignment.  DSATUR
    2-colors every bipartite graph, so a two-color draw is kept on its first
    attempt.  After 200 rejected draws the generator raises
    :class:`ProblemError`.  The color usage
    costs are small distinct integers so the optimum is generically unique.
    """
    if num_vertices < 2:
        raise ProblemError("GCP needs at least two vertices")
    max_edges = num_vertices * (num_vertices - 1) // 2
    if num_edges > max_edges:
        raise ProblemError(f"at most {max_edges} edges possible for {num_vertices} vertices")
    if num_colors < 2:
        raise ProblemError("GCP needs at least two colors")
    rng = np.random.default_rng(seed)
    all_edges = [
        (u, v) for u in range(num_vertices) for v in range(u + 1, num_vertices)
    ]
    color_costs = tuple(float(1 + c) for c in range(num_colors))
    for _attempt in range(200):
        if num_colors == 2:
            # Guarantee bipartiteness by sampling edges across a random split.
            side = rng.permutation(num_vertices)
            left = set(side[: max(1, num_vertices // 2)].tolist())
            candidates = [
                (u, v) for (u, v) in all_edges if (u in left) != (v in left)
            ]
        else:
            candidates = all_edges
        if num_edges > len(candidates):
            raise ProblemError(
                f"cannot place {num_edges} edges in a {num_colors}-colorable graph "
                f"on {num_vertices} vertices"
            )
        chosen = rng.choice(len(candidates), size=num_edges, replace=False)
        edges = tuple(candidates[i] for i in sorted(chosen))
        if _dsatur_color_count(num_vertices, edges) <= num_colors:
            return GraphColoringInstance(
                num_vertices=num_vertices,
                edges=edges,
                num_colors=num_colors,
                color_costs=color_costs,
            )
    raise ProblemError(
        f"failed to generate a {num_colors}-colorable graph with {num_edges} edges"
    )


def _dsatur_color_count(num_vertices: int, edges: tuple[tuple[int, int], ...]) -> int:
    """Number of colors the DSATUR greedy coloring uses on the graph.

    The next vertex is the uncolored one with the most distinct neighbor
    colors (saturation), then the highest degree, then the lowest index; it
    gets the smallest color no neighbor has.  The tie-breaking is pinned:
    a different vertex order can change the count, and with it which edge
    draws :func:`random_graph_coloring` keeps.
    """
    neighbors: list[set[int]] = [set() for _ in range(num_vertices)]
    for u, v in edges:
        neighbors[u].add(v)
        neighbors[v].add(u)
    seen: list[set[int]] = [set() for _ in range(num_vertices)]
    uncolored = list(range(num_vertices))
    count = 0
    while uncolored:
        vertex = max(uncolored, key=lambda w: (len(seen[w]), len(neighbors[w])))
        uncolored.remove(vertex)
        color = min(set(range(len(seen[vertex]) + 1)) - seen[vertex])
        for w in neighbors[vertex]:
            seen[w].add(color)
        count = max(count, color + 1)
    return count


def variable_layout(instance: GraphColoringInstance) -> dict[str, int]:
    """Map symbolic names (x{v}_{c}, s{e}_{c}) to register indices."""
    layout: dict[str, int] = {}
    index = 0
    for v in range(instance.num_vertices):
        for c in range(instance.num_colors):
            layout[f"x{v}_{c}"] = index
            index += 1
    for e in range(len(instance.edges)):
        for c in range(instance.num_colors):
            layout[f"s{e}_{c}"] = index
            index += 1
    return layout


def graph_coloring_problem(
    instance: GraphColoringInstance, name: str | None = None
) -> ConstrainedBinaryProblem:
    """Build the :class:`ConstrainedBinaryProblem` for a GCP instance."""
    layout = variable_layout(instance)
    num_variables = instance.num_variables

    objective = Objective()
    for v in range(instance.num_vertices):
        for c in range(instance.num_colors):
            objective.add_term((layout[f"x{v}_{c}"],), instance.color_costs[c])

    constraints: list[LinearConstraint] = []
    for v in range(instance.num_vertices):
        coefficients = [0.0] * num_variables
        for c in range(instance.num_colors):
            coefficients[layout[f"x{v}_{c}"]] = 1.0
        constraints.append(LinearConstraint(tuple(coefficients), 1.0))
    for e, (u, v) in enumerate(instance.edges):
        for c in range(instance.num_colors):
            coefficients = [0.0] * num_variables
            coefficients[layout[f"x{u}_{c}"]] = 1.0
            coefficients[layout[f"x{v}_{c}"]] = 1.0
            coefficients[layout[f"s{e}_{c}"]] = 1.0
            constraints.append(LinearConstraint(tuple(coefficients), 1.0))

    variable_names = [""] * num_variables
    for symbol, index in layout.items():
        variable_names[index] = symbol
    return ConstrainedBinaryProblem(
        num_variables=num_variables,
        objective=objective,
        constraints=constraints,
        sense="min",
        name=name or f"gcp-{instance.num_vertices}V-{len(instance.edges)}E-{instance.num_colors}C",
        variable_names=variable_names,
    )


def coloring_from_assignment(
    instance: GraphColoringInstance, assignment: "tuple[int, ...] | list[int]"
) -> dict[int, int]:
    """Decode a register assignment into a vertex -> color mapping."""
    layout = variable_layout(instance)
    coloring: dict[int, int] = {}
    for v in range(instance.num_vertices):
        for c in range(instance.num_colors):
            if assignment[layout[f"x{v}_{c}"]] == 1:
                coloring[v] = c
    return coloring


def is_proper_coloring(instance: GraphColoringInstance, coloring: dict[int, int]) -> bool:
    """Check that adjacent vertices received different colors."""
    if len(coloring) != instance.num_vertices:
        return False
    return all(coloring[u] != coloring[v] for u, v in instance.edges)
