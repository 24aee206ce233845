"""Level-m combinatorial approximations of the N-point Sierpinski gasket.

Vertices are identified by exact integer barycentric weights, never by
floating-point coordinates, so corner sharing between cells is resolved
without tolerances.  Euclidean coordinates exist only for export and
plotting.

A graph is integer arrays: the ``(V, N)`` vertex weights, the ``(C, N)``
cell corners and the ``(E, 2)`` edges as two endpoint columns.  The word of
level-m cell c is the m base-N digits of c, so its children are the cells
c*N + i and every map between levels is index arithmetic on this cell tree.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainMismatchError, ResourceLimitError

#: byte budget for the (cells, n, n) int64 corner array that build_level
#: sorts; a build peaks at about five times this.  256 MiB admits levels
#: 0-13 for n = 3 and 0-10 for n = 4.
MAX_CORNER_BYTES = 256 * 2**20


@dataclass(frozen=True, eq=False)
class GasketGraph:
    """Immutable level-m vertex/cell/edge structure of the N-point gasket.

    ``weights[v]`` is the integer weight vector of vertex ``v``.  Vertex
    order is lexicographic on these rows, so every vector indexed by this
    graph (function values, masses, CSV columns) is reproducible.
    ``cell_corners[c, i]`` is the vertex index of the i-th corner of cell
    ``c``, i.e. the image of p_i under the cell's contraction word: the
    base-n digits of ``c``.
    """

    n: int
    level: int
    weights: np.ndarray
    cell_corners: np.ndarray
    boundary: tuple[int, ...]
    _edge_i: np.ndarray
    _edge_j: np.ndarray

    def __eq__(self, other) -> bool:
        if not isinstance(other, GasketGraph):
            return NotImplemented
        return self.n == other.n and self.level == other.level

    def __hash__(self) -> int:
        return hash((self.n, self.level))

    def __repr__(self) -> str:  # the full field dump is unreadable
        return (
            f"GasketGraph(n={self.n}, level={self.level}, "
            f"vertices={self.vertex_count}, cells={len(self.cell_corners)}, "
            f"edges={len(self._edge_i)})"
        )

    @property
    def vertex_count(self) -> int:
        return len(self.weights)

    @property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Endpoint index arrays (i, j), i < j, of all edges sorted by (i, j)."""
        return self._edge_i, self._edge_j

    def neighbors(self, i: int) -> tuple[int, ...]:
        ei, ej = self.edge_arrays
        # edges are sorted by (i, j): the lower neighbours come first
        return tuple(np.concatenate([ei[ej == i], ej[ei == i]]).tolist())

    def to_json_dict(self) -> dict:
        return {
            "N": self.n,
            "m": self.level,
            "vertices": self.weights.tolist(),
            "cells": self.cell_corners.tolist(),
            "edges": np.column_stack(self.edge_arrays).tolist(),
            "boundary": list(self.boundary),
        }


@functools.lru_cache(maxsize=None)
def build_level(n: int, m: int) -> GasketGraph:
    """Construct the canonical level-m graph of the n-point gasket.

    Cell corners are identified exactly once through their integer
    addresses; the corner of cell w in direction i carries the weights
    sum_k 2**(m-k) e_{w_k} + e_i.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    # n**m cells of n corners of n weights; n >= 2, so m > 64 is over any budget
    if m > 64 or 8 * n ** (m + 2) > MAX_CORNER_BYTES:
        raise ResourceLimitError(
            f"level {m} of the {n}-point gasket needs 8*{n}^{m + 2} bytes of "
            f"corner weights (limit {MAX_CORNER_BYTES} bytes)"
        )

    unit = np.eye(n, dtype=np.int64)
    base = np.zeros((1, n), dtype=np.int64)
    for _ in range(m):  # child c*n + i of cell c has base weights 2 * base_c + e_i
        base = (2 * base[:, None, :] + unit).reshape(-1, n)
    corners = (base[:, None, :] + unit).reshape(-1, n)
    # lexicographic row sort (lexsort's last key is primary), then one
    # vertex per run of equal rows: np.unique(axis=0) without its slow
    # structured-dtype sort
    order = np.lexsort(corners.T[::-1])
    corners = corners[order]
    first_of_run = np.empty(len(corners), dtype=bool)
    first_of_run[0] = True
    np.any(corners[1:] != corners[:-1], axis=1, out=first_of_run[1:])
    weights = corners[first_of_run]
    cells = np.empty(len(corners), dtype=np.intp)
    cells[order] = np.cumsum(first_of_run) - 1
    cells = cells.reshape(-1, n)

    # two cells share at most one vertex, so every edge lies in exactly one cell
    first, second = np.triu_indices(n, 1)
    a, b = cells[:, first].ravel(), cells[:, second].ravel()
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    order = np.lexsort((hi, lo))
    edge_i, edge_j = lo[order], hi[order]

    # p_i is corner i of the cell whose word is i repeated m times
    boundary = tuple(int(cells[i * (n**m - 1) // (n - 1), i]) for i in range(n))
    for arr in (weights, cells, edge_i, edge_j):
        arr.setflags(write=False)
    return GasketGraph(n, m, weights, cells, boundary, edge_i, edge_j)


@dataclass(frozen=True, eq=False)
class VertexFunction:
    """A real value per vertex, in the graph's canonical vertex order."""

    graph: GasketGraph
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != (self.graph.vertex_count,):
            raise DomainMismatchError(
                f"expected {self.graph.vertex_count} values, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("vertex function values must be finite")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __repr__(self) -> str:
        return f"VertexFunction(n={self.graph.n}, level={self.graph.level})"


def _check_graph(graph: GasketGraph, *owners) -> None:
    """Refuse a function, measure or form that lives on another graph."""
    for owner in owners:
        if owner.graph != graph:
            name = type(owner).__name__
            raise DomainMismatchError(f"{name} on {owner.graph} is not on {graph}")


def _check_arity(graph: GasketGraph, owner) -> None:
    """Refuse a spec or measure weights without one entry per boundary point."""
    if owner.n != graph.n:
        name = type(owner).__name__
        raise DomainMismatchError(f"{name} has {owner.n} entries, graph has n={graph.n}")


def _restriction_indices(n: int, m: int, big_level: int) -> np.ndarray:
    """Fine indices of the level-m vertices in the level-``big_level`` graph.

    Corner i of cell c is corner i of the descendant c * n**k + i * (n**k - 1)
    / (n - 1) whose word appends k = big_level - m copies of i.
    """
    coarse = build_level(n, m)
    fine = build_level(n, big_level)
    # any (cell, corner) incidence of a vertex names the same fine vertex
    incidence = np.empty(coarse.vertex_count, dtype=np.intp)
    incidence[coarse.cell_corners.ravel()] = np.arange(coarse.cell_corners.size)
    cell, corner = np.divmod(incidence, n)
    k = big_level - m
    return fine.cell_corners[cell * n**k + corner * ((n**k - 1) // (n - 1)), corner]


def restrict(u: VertexFunction, m: int) -> VertexFunction:
    """Restriction of u to the coarser vertex set (the nested subset of V_M)."""
    big = u.graph
    if m > big.level:
        raise DomainMismatchError(
            f"cannot restrict a level-{big.level} function to level {m}"
        )
    idx = _restriction_indices(big.n, m, big.level)
    return VertexFunction(build_level(big.n, m), u.values[idx])


def simplex_vertices(n: int) -> np.ndarray:
    """Vertices p_1, ..., p_n of a regular unit-edge simplex in R^(n-1).

    Built by the usual recursion: p_1 at the origin, each new vertex above
    the centroid of the previous ones at the height that restores unit
    edges.  Any isometric placement would do; this one is the canonical
    choice for all exported coordinates.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    pts = np.zeros((n, n - 1))
    for k in range(1, n):
        centroid = pts[:k].mean(axis=0)
        radius_sq = float(np.dot(pts[0] - centroid, pts[0] - centroid))
        pts[k] = centroid
        pts[k, k - 1] = np.sqrt(1.0 - radius_sq)
    return pts


def vertex_coordinates(graph: GasketGraph) -> np.ndarray:
    """(vertex_count, n-1) array of embedded coordinates in vertex order."""
    pts = simplex_vertices(graph.n)
    return (graph.weights / (2.0**graph.level)) @ pts
