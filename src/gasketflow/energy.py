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
from .gasket import GasketGraph, VertexFunction, _check_graph, build_level
from .gasket import _ancestor_corners, _cell_edges


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
    """Sparse K with energy(u) = u^T K u (renormalized graph Laplacian),
    as canonical CSR: the weighted degrees minus the symmetrized edges."""
    ei, ej = form.graph.edge_arrays
    n = form.graph.vertex_count
    upper = sp.csr_matrix((np.full(len(ei), form.renormalization), (ei, ej)), shape=(n, n))
    adjacency = upper + upper.T
    # a degree is a sum of equal r's: every summation order gives its bits
    degrees = adjacency @ np.ones(n)
    return sp.diags(degrees) - adjacency


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


def _refine(corners: np.ndarray, rule: np.ndarray) -> np.ndarray:
    """Corner values of the children of cells with the ``(C, n)`` ``corners``.

    Child c * n + i of cell c keeps corner i of its parent; its corner j != i
    is the midpoint of corners i and j, also corner i of child c * n + j.
    """
    cells, n = corners.shape
    # the rule rows sum to 1, so applying it to offsets from a corner makes
    # the extension exactly translation invariant (constants stay constant)
    base = corners[:, :1]
    mids = base + (corners - base) @ rule.T
    first, second = np.triu_indices(n, 1)
    children = np.empty((cells, n, n))
    children[:, first, second] = children[:, second, first] = mids
    children[:, np.arange(n), np.arange(n)] = corners
    return children.reshape(cells * n, n)


def harmonic_extend(form: EnergyForm, u: VertexFunction) -> VertexFunction:
    """Minimal-energy extension of u to the next level.

    Solved cell by cell: the new values inside a cell depend only on that
    cell's corner values.  The result satisfies
    energy_{m+1}(extension) = energy_m(u) exactly (up to roundoff).
    """
    _check_graph(form.graph, u)
    g = u.graph
    fine = build_level(g.n, g.level + 1)
    values = np.empty(fine.vertex_count)
    values[fine.cell_corners] = _refine(u.values[g.cell_corners], _extension_matrix(g.n))
    return VertexFunction(fine, values)


def harmonic_function(graph: GasketGraph, boundary_values) -> VertexFunction:
    """Iterated minimal-energy extension of boundary data up to graph.level.

    ``boundary_values[i]`` is the value at p_i, corner i of the level-0 cell
    (boundary order, not lexicographic), refined down the cell tree to graph.
    """
    boundary_values = np.asarray(boundary_values, dtype=np.float64)
    if boundary_values.shape != (graph.n,):
        raise DomainMismatchError(
            f"expected {graph.n} boundary values, got shape {boundary_values.shape}"
        )
    corners = boundary_values[None, :]
    rule = _extension_matrix(graph.n)
    for _ in range(graph.level):
        corners = _refine(corners, rule)
    values = np.empty(graph.vertex_count)
    values[graph.cell_corners] = corners
    return VertexFunction(graph, values)


def energy_profile(u: VertexFunction) -> list[float]:
    """Energies of the restrictions of u at levels 0..M (nondecreasing)."""
    g = u.graph
    out = []
    for k in range(g.level, -1, -1):  # level g.level - k, k steps up the cell tree
        # restriction keeps vertex order: in u's indices these are that level's edges, in order
        ei, ej = _cell_edges(_ancestor_corners(g.cell_corners, k)) if k else g.edge_arrays
        d = u.values[ei] - u.values[ej]
        # the level's EnergyForm.renormalization times batch_energy's pairwise sum
        out.append(((g.n + 2) / g.n) ** (g.level - k) * float(np.sum(d * d)))
    return out
