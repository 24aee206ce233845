"""Discrete vertex measures and the induced weighted L2 pairing.

A weight vector (mu_1, ..., mu_N) induces the self-similar cell masses
prod_k mu_{w_k}; each cell splits its mass equally among its N corners and
a vertex collects the mass of its incident cells.  Total mass is 1 at every
level, the boundary masses decay geometrically, and the uniform choice
mu_i = 1/N reproduces the normalized Hausdorff case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainMismatchError
from .gasket import GasketGraph, VertexFunction


@dataclass(frozen=True)
class MeasureWeights:
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        w = tuple(float(x) for x in self.weights)
        if len(w) < 2:
            raise ValueError("need at least two weights")
        if not all(math.isfinite(x) and x > 0 for x in w):
            raise ValueError(f"weights must be finite and strictly positive, got {w}")
        total = sum(w)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {total}")
        object.__setattr__(self, "weights", tuple(x / total for x in w))

    @classmethod
    def uniform(cls, n: int) -> "MeasureWeights":
        return cls(tuple(1.0 / n for _ in range(n)))

    @property
    def n(self) -> int:
        return len(self.weights)


@dataclass(frozen=True, eq=False)
class VertexMeasure:
    graph: GasketGraph
    masses: np.ndarray

    def __post_init__(self) -> None:
        masses = np.asarray(self.masses, dtype=np.float64)
        if masses.shape != (self.graph.vertex_count,):
            raise DomainMismatchError("mass vector does not match the graph")
        if not np.all(masses > 0):
            raise ValueError("every vertex mass must be positive")
        if abs(float(masses.sum()) - 1.0) > 1e-12:
            raise ValueError("vertex masses must sum to 1")
        masses = masses.copy()
        masses.setflags(write=False)
        object.__setattr__(self, "masses", masses)

    def __repr__(self) -> str:
        return f"VertexMeasure(n={self.graph.n}, level={self.graph.level})"


def vertex_measure(graph: GasketGraph, weights: MeasureWeights) -> VertexMeasure:
    """Split each cell's product mass equally among its corners."""
    if weights.n != graph.n:
        raise DomainMismatchError(
            f"weights have length {weights.n}, graph has n={graph.n}"
        )
    w = np.asarray(weights.weights)
    cell_mass = np.ones(1)
    for _ in range(graph.level):  # child c*n + i of cell c has mass mass_c * w_i
        cell_mass = np.outer(cell_mass, w).ravel()
    masses = np.bincount(
        graph.cell_corners.ravel(),
        weights=np.repeat(cell_mass / graph.n, graph.n),
        minlength=graph.vertex_count,
    )
    # renormalize away the accumulated roundoff so the invariant is exact
    masses /= masses.sum()
    return VertexMeasure(graph, masses)


def _check(measure: VertexMeasure, *funcs: VertexFunction) -> None:
    for u in funcs:
        if u.graph != measure.graph:
            raise DomainMismatchError("function and measure live on different graphs")


def l2_inner(measure: VertexMeasure, u: VertexFunction, v: VertexFunction) -> float:
    _check(measure, u, v)
    return float(np.sum(measure.masses * u.values * v.values))


def l2_norm(measure: VertexMeasure, u: VertexFunction) -> float:
    _check(measure, u)
    return float(np.sqrt(np.sum(measure.masses * u.values * u.values)))


def mean(measure: VertexMeasure, u: VertexFunction) -> float:
    """Integral of u against the measure (total mass is 1)."""
    _check(measure, u)
    return float(np.sum(measure.masses * u.values))
