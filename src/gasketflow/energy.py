"""Renormalized graph energies, semi-inner products and harmonic extension.

The level-m energy of u is

    energy(u) = ((n+2)/n)**m * sum over unordered adjacent pairs {x,y}
                of (u(x) - u(y))**2,

where x, y are adjacent iff they share an m-cell.  The renormalization
factor is exactly what makes the minimal-energy extension to level m+1
energy preserving, so the sequence of energies of a function's
restrictions is nondecreasing in m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DomainMismatchError
from .gasket import (
    GasketGraph, VertexFunction, _check_graph, _restriction_indices, build_level, restrict
)


@dataclass(frozen=True)
class EnergyForm:
    """The quadratic m-energy attached to one gasket graph."""

    graph: GasketGraph

    @property
    def renormalization(self) -> float:
        g = self.graph
        # computed as a power so successive levels differ by exactly (n+2)/n
        return ((g.n + 2) / g.n) ** g.level


def energy(form: EnergyForm, u: VertexFunction) -> float:
    """Renormalized sum of squared differences over unordered edges."""
    _check_graph(form.graph, u)
    return float(batch_energy(form, u.values))


def batch_energy(form: EnergyForm, values: np.ndarray) -> np.ndarray:
    """Energies of many functions at once; rows index samples.

    A 1-D ``values`` is one function and gives a scalar.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape[-1] != form.graph.vertex_count:
        raise DomainMismatchError(
            f"expected {form.graph.vertex_count} columns, got {values.shape[-1]}"
        )
    ei, ej = form.graph.edge_arrays
    d = values[..., ei] - values[..., ej]
    # np.sum is pairwise, safe for the ~1e4 terms of deep levels
    return form.renormalization * np.sum(d * d, axis=-1)


def inner(form: EnergyForm, u: VertexFunction, v: VertexFunction) -> float:
    """Semi-inner product; bilinear, symmetric, with inner(u, u) = 2 * energy(u)."""
    _check_graph(form.graph, u, v)
    ei, ej = form.graph.edge_arrays
    du = u.values[ei] - u.values[ej]
    dv = v.values[ei] - v.values[ej]
    return 2.0 * form.renormalization * float(np.sum(du * dv))


def stiffness_matrix(form: EnergyForm) -> sp.csr_matrix:
    """Sparse K with energy(u) = u^T K u (renormalized graph Laplacian)."""
    g = form.graph
    ei, ej = g.edge_arrays
    r = form.renormalization
    n = g.vertex_count
    data = np.concatenate([-r * np.ones(len(ei))] * 2)
    rows = np.concatenate([ei, ej])
    cols = np.concatenate([ej, ei])
    off = sp.coo_matrix((data, (rows, cols)), shape=(n, n))
    deg = np.zeros(n)
    np.add.at(deg, ei, r)
    np.add.at(deg, ej, r)
    return (sp.diags(deg) + off).tocsr()


def _extension_matrix(n: int) -> np.ndarray:
    """Per-cell solve mapping the n corner values to the n(n-1)/2 midpoints.

    Inside one cell the refined energy is a strictly convex quadratic in the
    midpoint values; its stationarity conditions give the linear system
    assembled here.  The matrix is the same for every cell of every level.
    """
    first, second = np.triu_indices(n, 1)
    b = np.eye(n)[first] + np.eye(n)[second]  # midpoint-corner incidence
    # two midpoints are coupled iff their corner pairs share one corner
    a = np.where(b @ b.T == 1, -1.0, 0.0)
    np.fill_diagonal(a, 2 * (n - 1))
    return np.linalg.solve(a, b)


def _midpoint_indices(fine: GasketGraph) -> np.ndarray:
    """Fine indices of the midpoints of each parent cell, in the pair order
    of np.triu_indices(n, 1): the midpoint of corners i and j of cell c is
    corner j of its child c * n + i."""
    first, second = np.triu_indices(fine.n, 1)
    parents = np.arange(len(fine.cell_corners) // fine.n)[:, None]
    return fine.cell_corners[parents * fine.n + first, second]


def harmonic_extend(form: EnergyForm, u: VertexFunction) -> VertexFunction:
    """Minimal-energy extension of u to the next level.

    Solved cell by cell: the new values inside a cell depend only on that
    cell's corner values.  The result satisfies
    energy_{m+1}(extension) = energy_m(u) exactly (up to roundoff).
    """
    _check_graph(form.graph, u)
    g = u.graph
    fine = build_level(g.n, g.level + 1)
    rule = _extension_matrix(g.n)
    values = np.empty(fine.vertex_count)
    values[_restriction_indices(g.n, g.level, g.level + 1)] = u.values
    corners = u.values[g.cell_corners]
    # the rule rows sum to 1, so applying it to offsets from a corner makes
    # the extension exactly translation invariant (constants stay constant)
    base = corners[:, :1]
    values[_midpoint_indices(fine)] = base + (corners - base) @ rule.T
    return VertexFunction(fine, values)


def harmonic_function(graph: GasketGraph, boundary_values) -> VertexFunction:
    """Iterated minimal-energy extension of boundary data up to graph.level.

    ``boundary_values[i]`` is the value at p_i (boundary order, which is not
    the lexicographic vertex order).
    """
    boundary_values = np.asarray(boundary_values, dtype=np.float64)
    if boundary_values.shape != (graph.n,):
        raise DomainMismatchError(
            f"expected {graph.n} boundary values, got shape {boundary_values.shape}"
        )
    base = build_level(graph.n, 0)
    values = np.empty(graph.n)
    values[list(base.boundary)] = boundary_values
    u = VertexFunction(base, values)
    for m in range(graph.level):
        u = harmonic_extend(EnergyForm(build_level(graph.n, m)), u)
    return u


def energy_profile(u: VertexFunction) -> list[float]:
    """Energies of the restrictions of u at levels 0..M (nondecreasing)."""
    g = u.graph
    out = []
    for m in range(g.level + 1):
        form = EnergyForm(build_level(g.n, m))
        out.append(energy(form, restrict(u, m)))
    return out
