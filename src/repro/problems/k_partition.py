"""K-partition problem (KPP) instances.

The paper's third application domain (ref. [11]): split the vertices of a
weighted graph into ``k`` equally sized blocks so that the total weight of
edges *cut* by the partition is minimal (equivalently, the within-block edge
weight is maximal).

Binary-variable formulation:

* ``x_vb`` — vertex ``v`` is placed in block ``b``.

Constraints (both in the *summation format* the cyclic baseline supports,
which is why the paper notes the cyclic Hamiltonian performs best on KPP):
  * one block per vertex:   ``sum_b x_vb = 1``;
  * balanced blocks:        ``sum_v x_vb = num_vertices / k`` for every ``b``.

Objective (maximize): the weight of edges whose endpoints share a block,
``sum_{(u,v) in E} w_uv sum_b x_ub x_vb`` — a quadratic polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.problem import ConstrainedBinaryProblem, LinearConstraint, Objective
from repro.exceptions import ProblemError


@dataclass(frozen=True)
class KPartitionInstance:
    """Raw data of one KPP instance."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    weights: tuple[float, ...]
    num_blocks: int

    def __post_init__(self) -> None:
        if self.num_vertices % self.num_blocks != 0:
            raise ProblemError("num_vertices must be divisible by num_blocks")
        if len(self.edges) != len(self.weights):
            raise ProblemError("edges and weights must have the same length")

    @property
    def block_size(self) -> int:
        return self.num_vertices // self.num_blocks

    @property
    def num_variables(self) -> int:
        return self.num_vertices * self.num_blocks

    @property
    def num_constraints(self) -> int:
        return self.num_vertices + self.num_blocks


def random_k_partition(
    num_vertices: int,
    num_edges: int,
    num_blocks: int = 2,
    seed: int | None = None,
    weight_range: tuple[int, int] = (1, 9),
) -> KPartitionInstance:
    """Generate a random weighted graph for the k-partition problem."""
    if num_vertices < 2:
        raise ProblemError("KPP needs at least two vertices")
    max_edges = num_vertices * (num_vertices - 1) // 2
    if num_edges > max_edges:
        raise ProblemError(f"at most {max_edges} edges possible for {num_vertices} vertices")
    rng = np.random.default_rng(seed)
    all_edges = [
        (u, v) for u in range(num_vertices) for v in range(u + 1, num_vertices)
    ]
    chosen = rng.choice(len(all_edges), size=num_edges, replace=False)
    edges = tuple(all_edges[i] for i in sorted(chosen))
    weights = tuple(
        float(rng.integers(weight_range[0], weight_range[1] + 1)) for _ in edges
    )
    return KPartitionInstance(
        num_vertices=num_vertices,
        edges=edges,
        weights=weights,
        num_blocks=num_blocks,
    )


def variable_index(instance: KPartitionInstance, vertex: int, block: int) -> int:
    """Register index of ``x_{vertex, block}`` (vertex-major layout)."""
    return vertex * instance.num_blocks + block


def k_partition_problem(
    instance: KPartitionInstance, name: str | None = None
) -> ConstrainedBinaryProblem:
    """Build the :class:`ConstrainedBinaryProblem` for a KPP instance."""
    num_variables = instance.num_variables

    objective = Objective()
    for (u, v), weight in zip(instance.edges, instance.weights):
        for block in range(instance.num_blocks):
            objective.add_term(
                (variable_index(instance, u, block), variable_index(instance, v, block)),
                weight,
            )

    constraints: list[LinearConstraint] = []
    for vertex in range(instance.num_vertices):
        coefficients = [0.0] * num_variables
        for block in range(instance.num_blocks):
            coefficients[variable_index(instance, vertex, block)] = 1.0
        constraints.append(LinearConstraint(tuple(coefficients), 1.0))
    for block in range(instance.num_blocks):
        coefficients = [0.0] * num_variables
        for vertex in range(instance.num_vertices):
            coefficients[variable_index(instance, vertex, block)] = 1.0
        constraints.append(LinearConstraint(tuple(coefficients), float(instance.block_size)))

    variable_names = [
        f"x{vertex}_{block}"
        for vertex in range(instance.num_vertices)
        for block in range(instance.num_blocks)
    ]
    return ConstrainedBinaryProblem(
        num_variables=num_variables,
        objective=objective,
        constraints=constraints,
        sense="max",
        name=name
        or f"kpp-{instance.num_vertices}V-{len(instance.edges)}E-{instance.num_blocks}B",
        variable_names=variable_names,
    )


def partition_from_assignment(
    instance: KPartitionInstance, assignment: "tuple[int, ...] | list[int]"
) -> dict[int, int]:
    """Decode a register assignment into a vertex -> block mapping."""
    partition: dict[int, int] = {}
    for vertex in range(instance.num_vertices):
        for block in range(instance.num_blocks):
            if assignment[variable_index(instance, vertex, block)] == 1:
                partition[vertex] = block
    return partition


def cut_weight(instance: KPartitionInstance, partition: dict[int, int]) -> float:
    """Total weight of edges crossing blocks under a partition."""
    total = 0.0
    for (u, v), weight in zip(instance.edges, instance.weights):
        if partition.get(u) != partition.get(v):
            total += weight
    return total
