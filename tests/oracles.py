"""Independent oracles used by the tests.

Everything here recomputes expected values by a different route than the
library: exact rational enumeration of contraction images for the graphs,
generic dense quadratic minimization for extensions and resolvents, and
scalar minimization for proximal maps.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import defaultdict
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from gasketflow import (
    BoxIndicator,
    EnergyForm,
    FlowConfig,
    MeasureWeights,
    PiecewiseLinearQuadratic,
    Power,
    RobinSpec,
    VertexFunction,
    batch_perturbed_energy,
    build_level,
    builtin_specs,
    evolve,
    stiffness_matrix,
    vertex_measure,
)
from gasketflow.robin import dirichlet, neumann
from gasketflow.verify import _report, _stable_hash

EPS = math.ulp(1.0)


def bits(values) -> np.ndarray:
    """The float64 bit patterns of ``values``, for bitwise comparison."""
    return np.asarray(values, dtype=np.float64).view(np.int64)


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def strict_json(text: str):
    """``json.loads`` that refuses ``NaN``, ``Infinity`` and ``-Infinity``."""
    return json.loads(text, parse_constant=_refuse_constant)


@st.composite
def functionals(draw, beta=st.floats(1e-3, 1e3), min_kinks=1):
    """Every kind, with Power at p in {1, 2, 3} and in (1, 6), and plq with
    ``min_kinks`` to four breakpoints, kinks at 0 included."""
    kind = draw(st.sampled_from(["zero", "dirichlet", "quadratic", "abs", "power", "box", "plq"]))
    if kind == "zero":
        return neumann()
    if kind == "dirichlet":
        return dirichlet()
    if kind == "quadratic":
        return Power(draw(beta), 2.0)
    if kind == "abs":
        return Power(draw(beta), 1.0)
    if kind == "power":
        p = draw(st.sampled_from([1.0, 2.0, 3.0]) | st.floats(1.0, 6.0, exclude_min=True))
        return Power(draw(beta), p)
    if kind == "box":
        lower, upper = st.just(0.0) | st.floats(-10.0, 0.0), st.just(0.0) | st.floats(0.0, 10.0)
        return BoxIndicator(draw(lower), draw(upper))
    kinks = st.lists(
        st.tuples(st.just(0.0) | st.floats(0.0, 5.0), beta), min_size=min_kinks, max_size=4
    )
    return PiecewiseLinearQuadratic(draw(st.just(0.0) | st.floats(0.0, 10.0)), tuple(draw(kinks)))


def brute_force_points(n: int, m: int):
    """All level-m vertices as exact barycentric Fraction tuples.

    Iterates the contractions F_i(x) = (x + e_i)/2 on the corner points in
    exact arithmetic and deduplicates; no integer-weight formula involved.
    """
    corners = [
        tuple(Fraction(1) if j == i else Fraction(0) for j in range(n))
        for i in range(n)
    ]

    def contract(point, i):
        return tuple(
            (x + (1 if j == i else 0)) / 2 for j, x in enumerate(point)
        )

    cells = []
    for word in itertools.product(range(n), repeat=m):
        pts = []
        for corner in corners:
            x = corner
            for i in reversed(word):
                x = contract(x, i)
            pts.append(x)
        cells.append(pts)
    vertices = {p for cell in cells for p in cell}
    edges = set()
    for cell in cells:
        for a, b in itertools.combinations(sorted(cell), 2):
            edges.add((a, b))
    return vertices, [frozenset(c) for c in cells], edges


def vertex_labels(graph):
    """The graph's integer weight rows as tuples, in vertex order."""
    return [tuple(row) for row in graph.weights.tolist()]


def edge_pairs(graph):
    """The graph's edges as (i, j) index tuples, in edge order."""
    return list(zip(*(e.tolist() for e in graph.edge_arrays)))


def address_points(graph):
    """The library graph's vertices as exact barycentric Fraction tuples."""
    scale = Fraction(1, 2**graph.level)
    return {tuple(Fraction(w) * scale for w in weights) for weights in vertex_labels(graph)}


def min_energy_extension(n: int, m: int, coarse_values: np.ndarray):
    """Minimize the level-(m+1) energy over all extensions of coarse data.

    Solved as one dense linear system over every new vertex at once
    (nothing cell-local), which is independent of the per-cell rule.
    Returns the fine values and the fine energy.
    """
    coarse = build_level(n, m)
    fine = build_level(n, m + 1)
    # a coarse vertex is the fine vertex with twice its weights
    fine_index = {weights: k for k, weights in enumerate(vertex_labels(fine))}
    fixed = {}
    for i, weights in enumerate(vertex_labels(coarse)):
        fixed[fine_index[tuple(2 * w for w in weights)]] = coarse_values[i]
    free = [i for i in range(fine.vertex_count) if i not in fixed]
    pos = {f: k for k, f in enumerate(free)}
    a = np.zeros((len(free), len(free)))
    rhs = np.zeros(len(free))
    for x, y in edge_pairs(fine):
        for s, t in ((x, y), (y, x)):
            if s in pos:
                a[pos[s], pos[s]] += 1.0
                if t in pos:
                    a[pos[s], pos[t]] -= 1.0
                else:
                    rhs[pos[s]] += fixed[t]
    sol = np.linalg.solve(a, rhs)
    values = np.empty(fine.vertex_count)
    for i, val in fixed.items():
        values[i] = val
    for f, k in pos.items():
        values[f] = sol[k]
    r = ((n + 2) / n) ** (m + 1)
    ei, ej = fine.edge_arrays
    d = values[ei] - values[ej]
    return values, r * float(np.sum(d * d))


def prox_oracle(b, lam: float, s: float) -> float:
    """Minimize B(t) + (t - s)^2 / (2 lam) by generic scalar search."""
    if isinstance(b, BoxIndicator):
        return min(max(s, b.lower), b.upper)
    span = abs(s) + 1.0
    res = minimize_scalar(
        lambda t: float(b(t)) + (t - s) ** 2 / (2.0 * lam),
        bounds=(-span, span),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return float(res.x)


def scalar_prox(b, lam: float, s: float) -> float:
    """The proximal map of ``b`` at one point, by per-case Python float
    arithmetic with ``math``: the closed forms written scalar-wise, and the
    Newton iteration on log(rho) for Power at p outside {1, 2, 3}."""
    if isinstance(b, Power) and b.p == 2.0:
        return s / (1.0 + lam * b.beta)
    if isinstance(b, BoxIndicator):
        return min(max(s, b.lower), b.upper)
    if isinstance(b, Power) and b.p == 1.0:
        shift = lam * b.beta
        return s - shift if s > shift else s + shift if s < -shift else 0.0
    x = abs(s)
    if x == 0.0:
        return 0.0
    if isinstance(b, PiecewiseLinearQuadratic):
        positions = sorted({d for d, _ in b.breakpoints})
        bounds = ([0.0] if (not positions or positions[0] > 0.0) else []) + positions
        for lo, hi in zip(bounds, bounds[1:] + [math.inf]):
            slope = sum(w for d, w in b.breakpoints if d <= lo)
            rho = (x - lam * slope) / (1.0 + lam * b.kappa)
            if rho < lo:
                return math.copysign(lo, s)
            if rho <= hi:
                return math.copysign(rho, s)
    c = lam * b.beta
    if b.p == 3.0:
        return math.copysign(2.0 * x / (1.0 + math.hypot(1.0, 2.0 * math.sqrt(c) * math.sqrt(x))), s)
    q = b.p - 1.0
    log_x, log_lam, log_beta = math.log(x), math.log(lam), math.log(b.beta)
    log_u = (log_x - log_lam - log_beta) / q
    log_u += 8.0 * EPS * (abs(log_x) + abs(log_lam) + abs(log_beta) + 1.0) / q
    rho = x if log_u >= log_x else math.exp(log_u)
    while True:
        t = c * rho**q
        f = rho + t - x
        if not f > 0.0:
            break
        last = rho
        rho *= math.exp(-f / (rho + q * t))
        if not last - rho > 4.0 * EPS * last:
            break
    return math.copysign(rho, s)


def scalar_subdiff_distance(b, s: float, g: float) -> float:
    """Distance from g to the subdifferential of ``b`` at one point s (inf
    outside the domain), from the interval written out case by case."""
    if isinstance(b, Power) and b.p == 1.0:
        lo = b.beta if s > 0.0 else -b.beta
        hi = -b.beta if s < 0.0 else b.beta
    elif isinstance(b, Power):
        lo = hi = 0.0 if s == 0.0 else b.beta * abs(s) ** (b.p - 1.0) * math.copysign(1.0, s)
    elif isinstance(b, BoxIndicator):
        if s < b.lower or s > b.upper:
            return math.inf
        lo = -math.inf if s == b.lower else 0.0
        hi = math.inf if s == b.upper else 0.0
    else:
        lo = hi = b.kappa * s
        sign = math.copysign(1.0, s) if s != 0.0 else 0.0
        for d, w in b.breakpoints:
            if abs(s) > d:
                lo, hi = lo + w * sign, hi + w * sign
            elif abs(s) == d:
                lo, hi = lo - (w if s <= 0.0 else 0.0), hi + (w if s >= 0.0 else 0.0)
    return max(0.0, lo - g, g - hi)


def power_prox_oracle(b, lam: float, s: float):
    """Minimize beta*|t|^p/p + (t - s)^2/(2 lam) by bounded scalar search,
    at any scale of s and lam*beta.

    The minimizer has the sign of s and a magnitude in [0, u], with
    u = min(|s|, (|s| / (lam beta))^(1/(p-1))): beyond u the penalty's slope
    alone exceeds |s|/lam.  With t = u*w the objective, less a constant and
    divided by u|s|/lam, is

        phi(w) = k1 w^p / p - w + k2 w^2 / 2  on [0, 1],
        k1 = lam beta u^(p-1) / |s| <= 1,  k2 = u / |s| <= 1,

    which is finite for every s.  Returns phi, the search's minimizing w
    and u (which may underflow to 0).
    """
    x, q = abs(s), b.p - 1.0
    log_x, log_c = math.log(x), math.log(lam) + math.log(b.beta)
    log_u = log_x if q == 0.0 else min(log_x, (log_x - log_c) / q)
    k1 = math.exp(log_c + q * log_u - log_x)
    k2 = math.exp(log_u - log_x)

    def phi(w):
        return k1 * w**b.p / b.p - w + k2 * w * w / 2.0

    res = minimize_scalar(phi, bounds=(0.0, 1.0), method="bounded", options={"xatol": 1e-12})
    return phi, float(res.x), math.exp(log_u)


def bimonotone_oracle(values: np.ndarray, grid: np.ndarray, slack: float = 1e-12) -> bool:
    """Decreasing left of 0 and increasing right of 0, up to relative slack,
    checked one consecutive pair at a time."""
    INF = math.inf
    grid = np.asarray(grid, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(grid, kind="stable")
    grid, values = grid[order], values[order]

    def le(a, b):  # a <= b with slack and inf-awareness
        if b == INF or a == -INF:
            return True
        if a == INF or b == -INF:
            return False
        return a <= b + slack * max(1.0, abs(a), abs(b))

    for k in range(len(grid) - 1):
        s0, s1 = grid[k], grid[k + 1]
        if s1 <= 0.0 and not le(values[k + 1], values[k]):
            return False
        if s0 >= 0.0 and not le(values[k], values[k + 1]):
            return False
    return True


def dominates_on(bhat: RobinSpec, b: RobinSpec, radius: float, signs=(1.0,)) -> bool:
    """The paper's domination condition restricted to [-radius, radius]: for
    every i and every sign in ``signs``, s -> Bhat_i(s) - B_i(sign * |s|) is
    bi-monotone there (inf - inf counts as inf).  ``signs=(1.0, -1.0)`` is
    the two-sided condition of total domination.

    A flow that is L-infinity contractive never leaves [-R, R] for data
    bounded by R, so only that range matters.  The differences are taken
    one float at a time on 401 uniform points and 41 geometric ones near 0,
    and checked pairwise by ``bimonotone_oracle``.
    """
    mags = np.unique(
        np.concatenate([np.linspace(0.0, radius, 201), np.geomspace(1e-6 * radius, radius, 41)])
    )
    grid = np.concatenate([-mags[:0:-1], mags])

    def difference(bh, bb, s, sign):
        high, low = float(bh(s)), float(bb(sign * abs(s)))
        return math.inf if high == math.inf else -math.inf if low == math.inf else high - low

    return all(
        bimonotone_oracle([difference(bh, bb, s, sign) for s in grid.tolist()], grid)
        for sign in signs
        for bh, bb in zip(bhat.functionals, b.functionals, strict=True)
    )


def resolvent_oracle(form, measure, spec, u_values, tau, iters=200_000, tol=1e-12):
    """Full-space proximal gradient for the backward-Euler minimizer.

    Treats every coordinate explicitly (no interior elimination); slow but
    structurally independent of the Schur-complement path.
    """
    graph = form.graph
    k_mat = stiffness_matrix(form).toarray()
    masses = measure.masses
    hess = 2.0 * k_mat + np.diag(masses / tau)
    lip = float(np.linalg.eigvalsh(hess).max())
    eta = 1.0 / lip
    boundary = list(graph.boundary)
    v = u_values.copy()
    for i, b in zip(boundary, spec.functionals):
        v[i] = b.prox(1.0, v[i])
    for _ in range(iters):
        grad = 2.0 * (k_mat @ v) + masses * (v - u_values) / tau
        w = v - eta * grad
        for i, b in zip(boundary, spec.functionals):
            w[i] = b.prox(eta, w[i])
        if float(np.max(np.abs(w - v))) < tol:
            return w
        v = w
    return v


def cell_tree_schur(n: int, m: int, weights, tau: float) -> np.ndarray:
    """The Schur complement onto V_0, in the order p_1, ..., p_n, of the
    backward Euler operator 2K + M/tau at level m, by elimination up the
    cell tree (Kigami, Analysis on Fractals, 2001, ch. 3): the first
    return of ``_cell_tree_up`` with no load."""
    return _cell_tree_up(n, m, weights, tau, np.zeros((n**m, n)))[0]


def cell_tree_step(graph, weights, spec, u0: np.ndarray, tau: float, tol=1e-13) -> np.ndarray:
    """One backward Euler step of the Robin flow from ``u0``, the minimizer
    of u.Ku + sum_i B_i(u(p_i)) + |u - u0|_mu^2 / (2 tau), by elimination
    up the cell tree: ``_cell_tree_solve`` with the load
    (mu_c / (n tau)) u0(corners) of each level-m cell."""
    loads = _cell_masses(weights, graph.level)[:, None] / (graph.n * tau) * u0[graph.cell_corners]
    start = np.array([b.prox(1.0, u0[i]) for i, b in zip(graph.boundary, spec.functionals)])
    return _cell_tree_solve(graph, weights, spec, tau, loads, start, 1.0, tol)


def cell_tree_poisson(graph, weights, spec, f: np.ndarray, tol=1e-13) -> np.ndarray:
    """The Poisson solution, the minimizer of u.Ku / 2 + sum_i B_i(u(p_i))
    - (f, u)_mu, by elimination up the cell tree.  ``_cell_tree_up``
    eliminates 2K, so the load (mu_c / n) f(corners) and the penalties are
    doubled, and tau = inf drops the mass term.  A pure-Neumann spec needs
    a gauge, which this does not fix."""
    loads = 2.0 * _cell_masses(weights, graph.level)[:, None] / graph.n * f[graph.cell_corners]
    return _cell_tree_solve(graph, weights, spec, math.inf, loads, np.zeros(graph.n), 2.0, tol)


def _cell_tree_solve(graph, weights, spec, tau, loads, w, scale, tol) -> np.ndarray:
    """Minimize u.(2K + M/tau)u / 2 - u.loads + scale * sum_i B_i(u(p_i)).

    The loads go up the cell tree with the blocks, the n boundary values
    solve the reduced problem 1/2 w.Sw - w.b + scale * sum_i B_i(w_i) by
    dense proximal gradient from ``w``, as ``resolvent_oracle`` does, until
    a pass moves them by less than ``tol``, and the junction values are
    recovered on the way down.
    """
    s_mat, load, maps = _cell_tree_up(graph.n, graph.level, weights, tau, loads)
    eta = 1.0 / float(np.linalg.eigvalsh(s_mat).max())
    functionals = spec.functionals
    for _ in range(200_000):
        step = w - eta * (s_mat @ w - load)
        new = np.array([b.prox(scale * eta, x) for b, x in zip(functionals, step)])
        done = float(np.max(np.abs(new - w))) < tol
        w = new
        if done:
            break
    values = w[None]
    for eliminated in reversed(maps):  # from the top down
        values = _descend(values, eliminated)
    out = np.empty(graph.vertex_count)
    out[graph.cell_corners] = values
    return out


def dirichlet_eigenfunction(n: int, m: int) -> tuple[float, np.ndarray]:
    """The lowest Dirichlet eigenvalue z of the normalized Laplacian
    I - D^-1 A at level m, and its eigenfunction as the (n**m, n) corner
    values of the level-m cells, by spectral decimation (Fukushima & Shima,
    Potential Anal. 1 (1992); Strichartz, Differential Equations on
    Fractals, 2006, sec. 3.2).

    Per cell the eigen equation is (n I - J) - z (n - 1) I: ``_glue``'s
    gluing with mass coefficient -z.  The level-1 pair is the lowest of
    the junction block, each junction having mass 2 (n - 1).  Level k - 1
    is the restriction of level k with z_{k-1} = z_k (a - b z_k), a = n + 2
    and b = 2 (n - 1); the smaller root z_k = 2 z_{k-1} / (a + sqrt(a^2 -
    4 b z_{k-1})) avoids the exceptional values and the cancellation, and
    each cell is refined by solving its junction rows.
    """
    eye, a, b, no_load = np.eye(n), n + 2.0, 2.0 * (n - 1), np.zeros((n, n))
    parent, _ = _glue(np.broadcast_to(n * eye - 1.0, (n, n, n)), no_load)
    lams, vecs = np.linalg.eigh(parent[0, n:, n:] / b)
    z, values = lams[0], np.concatenate([np.zeros(n), vecs[:, 0]])[_glued(n)]
    for _ in range(m - 1):
        z = 2.0 * z / (a + math.sqrt(a * a - 4.0 * b * z))
        cell = n * eye - 1.0 - z * (n - 1) * eye
        parent, rhs = _glue(np.broadcast_to(cell, (n, n, n)), no_load)
        values = _descend(values, _eliminate(n, parent, rhs)[2])
    return z, values


def _cell_masses(weights, m: int) -> np.ndarray:
    """The level-m cell masses; child c*n + i of cell c has mass mu_c * w_i."""
    cell_mass = np.ones(1)
    for _ in range(m):
        cell_mass = np.outer(cell_mass, weights).ravel()
    return cell_mass


def _glued(n: int) -> np.ndarray:
    """glued[j, i]: the index of child j's corner i among the parent's n
    corners and then its n(n-1)/2 junctions, in the pair order of
    np.triu_indices(n, 1)."""
    first, second = np.triu_indices(n, 1)
    glued = np.diag(np.arange(n))
    glued[first, second] = glued[second, first] = n + np.arange(len(first))
    return glued


def _glue(blocks: np.ndarray, loads: np.ndarray):
    """The (parents, size, size) blocks and (parents, size) loads on the n
    corners and n(n-1)/2 junctions of each parent, summed from the
    (n * parents, n, n) ``blocks`` and (n * parents, n) ``loads`` of its
    children: child j's corner i is the parent's corner j if i = j, else
    the junction F_j(p_i) = F_i(p_j)."""
    n = blocks.shape[-1]
    glued, size = _glued(n), n * (n + 1) // 2
    children = blocks.reshape(-1, n, n, n)  # [parent, j]: cell parent * n + j
    child_loads = loads.reshape(-1, n, n)
    parent = np.zeros((len(children), size, size))
    rhs = np.zeros((len(children), size))
    for j in range(n):
        parent[:, glued[j][:, None], glued[j][None, :]] += children[:, j]
        rhs[:, glued[j]] += child_loads[:, j]
    return parent, rhs


def _eliminate(n: int, parent: np.ndarray, rhs: np.ndarray):
    """Eliminate the junctions of ``_glue``'s blocks and loads: the
    parents' n x n blocks and n loads, and the (parents, junctions, n + 1)
    solves [X | x] with junction values x - X @ corner values."""
    corners, junctions = parent[:, :n], parent[:, n:]
    right = np.concatenate([junctions[:, :, :n], rhs[:, n:, None]], axis=2)
    eliminated = np.linalg.solve(junctions[:, :, n:], right)
    blocks = corners[:, :, :n] - corners[:, :, n:] @ eliminated[:, :, :n]
    loads = rhs[:, :n] - (corners[:, :, n:] @ eliminated[:, :, n:])[:, :, 0]
    return blocks, loads, eliminated


def _descend(values: np.ndarray, eliminated: np.ndarray) -> np.ndarray:
    """The (parents * n, n) corner values of the children from the
    (parents, n) corner values of their parents and the parents' junction
    solves [X | x] (broadcast if there is one)."""
    n = values.shape[1]
    junctions = eliminated[:, :, n] - (eliminated[:, :, :n] @ values[:, :, None])[:, :, 0]
    full = np.concatenate([values, junctions], axis=1)
    return full[:, _glued(n)].reshape(-1, n)  # [parent, j, i] -> child parent * n + j


def _cell_tree_up(n: int, m: int, weights, tau: float, loads: np.ndarray):
    """Eliminate 2K + M/tau and the (n**m, n) corner ``loads`` of the
    level-m cells up to V_0.

    Cells meet only at corners, so the operator is a sum of n x n cell
    blocks: 2 r_m (n I - J) + mu_c / (n tau) I for a level-m cell of mass
    mu_c, with r_m = ((n+2)/n)**m.  One level up, the n children of each
    parent are glued and the n(n-1)/2 junctions are eliminated by one
    batched dense solve per depth.  No graph, sparse matrix or SuperLU is
    involved.  Returns the V_0 block and load and, per depth from the
    bottom up, the junction solves of ``_eliminate``.
    """
    eye = np.eye(n)
    stiffness = 2.0 * ((n + 2) / n) ** m * (n * eye - 1.0)
    blocks = stiffness + (_cell_masses(weights, m) / (n * tau))[:, None, None] * eye
    maps = []
    for _ in range(m):
        blocks, loads, eliminated = _eliminate(n, *_glue(blocks, loads))
        maps.append(eliminated)
    return blocks[0], loads[0], maps


def form_semigroup(form, measure, q: np.ndarray, t: float, pinned=()) -> np.ndarray:
    """The dense V x V semigroup T(t) = exp(-t M^-1 (2K + Q)), with Q the
    symmetric N x N ``q`` on the boundary values, by ``eigh`` of the
    symmetric M^-1/2 (2K + Q) M^-1/2.  The boundary values listed in
    ``pinned`` are held at 0 (Dirichlet): their rows and columns of T are 0."""
    boundary = list(form.graph.boundary)
    a_mat = 2.0 * stiffness_matrix(form).toarray()
    a_mat[np.ix_(boundary, boundary)] += q
    free = np.ones(form.graph.vertex_count, dtype=bool)
    free[[boundary[i] for i in pinned]] = False
    root = np.sqrt(measure.masses[free])
    lam, vecs = np.linalg.eigh(a_mat[free][:, free] / root[:, None] / root[None, :])
    out = np.zeros_like(a_mat)
    out[np.ix_(free, free)] = (vecs * np.exp(-t * lam)) @ vecs.T / root[:, None] * root[None, :]
    return out


def linear_semigroup(form, measure, spec, u0: np.ndarray, t: float) -> np.ndarray:
    """The exact flow at time t of a spec whose every functional is
    d_i s^2 / 2: ``form_semigroup`` with Q = diag(d), a pinned boundary
    value (d_i = inf) held at 0."""
    d = np.array([b.curvature for b in spec.functionals])
    pinned = np.flatnonzero(np.isinf(d))
    return form_semigroup(form, measure, np.diag(np.where(np.isinf(d), 0.0, d)), t, pinned) @ u0


def exact_load(graph, weights: MeasureWeights) -> np.ndarray:
    """b_x = integral of psi_x dmu, psi_x the level-m harmonic spline that is
    1 at x and 0 at every other level-m vertex: the exact load of f = 1.

    A_j maps the boundary values of a harmonic function to those of its
    restriction to cell j: 1 at p_j and (u_j + u_k + sum u) / (N + 2) at
    F_j(p_k).  Self-similarity of mu makes the corner integrals
    I_i = integral of h_i dmu the fixed point I = sum_j mu_j A_j^T I with
    sum I = 1, and a cell c of mass mu(c) contributes mu(c) I_i to its
    i-th corner (Kigami, Analysis on Fractals, 2001)."""
    n, mu = graph.n, np.asarray(weights.weights)
    fixed = np.zeros((n + 1, n))
    for j in range(n):
        a_j = (np.eye(n)[j] + np.eye(n) + 1.0) / (n + 2)  # row k: F_j(p_k)
        a_j[j] = np.eye(n)[j]
        fixed[:n] += mu[j] * a_j.T
    fixed[:n] -= np.eye(n)
    fixed[n] = 1.0
    corner_integrals = np.linalg.lstsq(fixed, np.eye(n + 1)[n], rcond=None)[0]
    cell_mass = np.ones(1)
    for _ in range(graph.level):  # child c*n + i of cell c has mass mass_c * mu_i
        cell_mass = np.outer(cell_mass, mu).ravel()
    return np.bincount(
        graph.cell_corners.ravel(),
        weights=np.outer(cell_mass, corner_integrals).ravel(),
        minlength=graph.vertex_count,
    )


def poisson_residual(form, measure, spec, f_values, u_values) -> float:
    """Max stationarity residual of the bilinear-energy weak form."""
    graph = form.graph
    k_mat = stiffness_matrix(form)
    r = k_mat @ u_values - measure.masses * f_values
    worst = 0.0
    boundary = set(graph.boundary)
    for i in range(graph.vertex_count):
        if i in boundary:
            b = spec.functionals[list(graph.boundary).index(i)]
            worst = max(worst, b.subdiff_distance(u_values[i], -r[i]))
        else:
            worst = max(worst, abs(float(r[i])))
    return worst


def energy_reference(form: EnergyForm, values: np.ndarray) -> float:
    """Plain-Python energy evaluation (math.fsum-free, order independent check)."""
    total = 0.0
    for a, b in edge_pairs(form.graph):
        d = float(values[a]) - float(values[b])
        total += d * d
    return form.renormalization * total


def flow_properties_reference(cfg):
    """``check_flow_properties`` as one ``evolve`` call per trajectory.

    Draws the same pairs from the same generators and reduces the same
    properties in the same order, so its reports must equal the
    ensemble-based check's exactly.
    """
    graph = build_level(3, 2)
    form = EnergyForm(graph)
    measure = vertex_measure(graph, MeasureWeights.uniform(3))
    config = FlowConfig(tau=0.1, t_end=0.5, tol=1e-9)
    neumann = RobinSpec.neumann(3)
    dirichlet = RobinSpec.dirichlet(3)

    def run(values, spec):
        return evolve(
            form, measure, spec, VertexFunction(graph, values), config
        ).values_matrix()

    properties = defaultdict(list)
    nv = graph.vertex_count
    for name, spec in sorted(builtin_specs(3).items()):
        for pair in range(cfg.sample_count):
            rng = np.random.default_rng((cfg.seed, _stable_hash(name), pair))
            u0 = rng.uniform(-1.0, 1.0, nv)
            v0 = rng.uniform(-1.0, 1.0, nv)
            gap = np.abs(rng.uniform(-1.0, 1.0, nv))

            su = run(u0, spec)
            sv = run(v0, spec)
            s_abs = run(np.abs(u0), spec)
            s_above = run(u0 + gap, spec)
            properties["positivity"].append(max(0.0, -float(s_abs.min())))
            properties["order_preservation"].append(float(np.max(su - s_above)))
            sup_d = np.max(np.abs(su - sv), axis=1)
            properties["sup_contraction"].append(float(np.max(np.diff(sup_d))))
            l2_d = np.sqrt(((su - sv) ** 2 * measure.masses).sum(axis=1))
            properties["l2_contraction"].append(float(np.max(np.diff(l2_d))))
            energies = batch_perturbed_energy(form, spec, su).tolist()
            decay = -math.inf
            for prev, nxt in zip(energies, energies[1:]):
                if math.isfinite(prev):
                    decay = max(decay, nxt - prev)
            properties["energy_decay"].append(decay)

            dominating = np.abs(u0) + gap
            s_dom = run(dominating, spec)
            s_neu = run(dominating, neumann)
            properties["domination_by_neumann"].append(float(np.max(np.abs(su) - s_neu)))
            s_dir = run(u0, dirichlet)
            properties["domination_of_dirichlet"].append(
                float(np.max(np.abs(s_dir) - s_dom))
            )

            if name == "neumann":
                means = (su * measure.masses).sum(axis=1)
                properties["mean_conservation"].append(
                    float(np.max(np.abs(means - means[0])))
                )

    return [
        _report(key, properties[key], cfg.seed, 10.0 * config.tol)
        for key in sorted(properties)
    ]
