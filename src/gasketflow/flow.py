"""Implicit-Euler subgradient flow, Robin Poisson solver, normal derivative.

One backward Euler step from u is the unique minimizer of

    perturbed_energy(v) + (1/(2 tau)) * ||v - u||^2_mu ,

the resolvent of the energy's subgradient in the measure-weighted metric.
The quadratic interior is eliminated exactly (Schur complement onto the
boundary vertices); what remains is a strictly convex problem in the N
boundary values, coupled through a dense N x N matrix and separable in the
nonsmooth penalties, solved by per-coordinate proximal sweeps.

The boundary functionals enter only that last problem, so the interior of
A = 2K + M/tau is factored once per (graph, measure, tau) and shared by
every spec and trajectory on it.  ``poisson_solve`` runs the same
operator code on K.

The iterates inherit, step by step and up to solver tolerance, the
qualitative properties of the continuous flow: positivity, order
preservation, sup-norm contraction, and domination between flows whose
boundary penalties differ bi-monotonically.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigError, ConvergenceError, DomainMismatchError
from .energy import EnergyForm, stiffness_matrix
from .gasket import GasketGraph, VertexFunction
from .measure import VertexMeasure, l2_norm, mean
from .robin import DirichletIndicator, Quadratic, RobinSpec, Zero


def _check_solver_controls(tol: float, max_inner_iters: int) -> None:
    """Stopping controls of the boundary solve, for flows and Poisson solves."""
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError(f"tol must be finite and positive, got {tol}")
    if max_inner_iters < 1:
        raise ConfigError("max_inner_iters must be >= 1")


@dataclass(frozen=True)
class FlowConfig:
    """Time step, horizon and inner-solver controls for one evolution."""

    tau: float
    t_end: float
    tol: float = 1e-9
    max_inner_iters: int = 100_000

    def __post_init__(self):
        for name in ("tau", "t_end"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and positive, got {value}")
        _check_solver_controls(self.tol, self.max_inner_iters)
        if self.tau > self.t_end * (1 + 1e-12):
            raise ConfigError("tau must not exceed t_end")

    @property
    def n_steps(self) -> int:
        steps = round(self.t_end / self.tau)
        if abs(steps * self.tau - self.t_end) > 1e-9 * max(1.0, self.t_end):
            raise ConfigError(
                f"t_end = {self.t_end} is not an integer multiple of tau = {self.tau}"
            )
        return steps


@dataclass
class StepDiagnostics:
    """``residual`` is the boundary KKT residual norm, the quantity the
    stopping test bounds; ``interior_residual`` is the norm of A v - rhs
    on the interior rows, which the exact elimination leaves at roundoff."""

    iterations: int
    residual: float
    interior_residual: float


@dataclass
class Trajectory:
    """States of one evolution at times 0, tau, 2 tau, ..., t_end."""

    graph: GasketGraph
    times: np.ndarray
    states: list[VertexFunction]
    diagnostics: list[StepDiagnostics]

    def values_matrix(self) -> np.ndarray:
        return np.stack([s.values for s in self.states])


_LINEAR_KINDS = (Zero, Quadratic, DirichletIndicator)


def _boundary_residual(
    s_mat: np.ndarray, c: np.ndarray, functionals, v: np.ndarray
) -> np.ndarray:
    """Per-coordinate distance from the negative smooth gradient to each
    subdifferential; zero exactly at the solution."""
    g = s_mat @ v - c
    return np.array(
        [b.subdiff_distance(v[i], -g[i]) for i, b in enumerate(functionals)]
    )


def _solve_boundary_inclusion(
    s_mat: np.ndarray,
    c: np.ndarray,
    functionals,
    tol: float,
    max_iters: int,
    v0: np.ndarray,
    gauge_free: bool = False,
) -> tuple[np.ndarray, int]:
    """Solve 0 in S v - c + prod_i dB_i(v_i).

    Linear kinds (none / quadratic / pinned-to-zero) reduce to one dense
    solve.  Otherwise the strictly convex objective
    G(v) = v.S v/2 - c.v + sum B_i(v_i) is minimized by cyclic exact
    coordinate proximal steps, which never increase it.  The sweeps stop
    when the norm of the boundary residual is <= tol; after ``max_iters``
    sweeps a ConvergenceError is raised.  ``gauge_free`` marks the
    all-Neumann singular case, where the constant direction is fixed by a
    rank-one augmentation.
    """
    n = len(c)
    if all(isinstance(b, _LINEAR_KINDS) for b in functionals):
        pinned = [i for i, b in enumerate(functionals) if isinstance(b, DirichletIndicator)]
        free = [i for i in range(n) if i not in pinned]
        v = np.zeros(n)
        if free:
            mat = s_mat[np.ix_(free, free)].copy()
            for k, i in enumerate(free):
                if isinstance(functionals[i], Quadratic):
                    mat[k, k] += functionals[i].beta
            if gauge_free:
                mat = mat + np.ones_like(mat)
            v[free] = np.linalg.solve(mat, c[free])
        return v, 1

    v = v0.astype(np.float64).copy()
    for i, b in enumerate(functionals):  # project onto the domain first
        v[i] = b.prox(1.0 / s_mat[i, i], v[i])
    for it in range(1, max_iters + 1):
        for i, b in enumerate(functionals):
            sii = s_mat[i, i]
            z = (c[i] - s_mat[i] @ v + sii * v[i]) / sii
            v[i] = b.prox(1.0 / sii, z)
        resid = float(np.linalg.norm(_boundary_residual(s_mat, c, functionals, v)))
        if resid <= tol:
            return v, it
    raise ConvergenceError(
        f"boundary solve did not reach tol={tol} in {max_iters} sweeps",
        residual=resid,
        iterations=max_iters,
    )


class _Operator:
    """A sparse SPD matrix with its interior block factored once.

    ``solve`` eliminates the interior exactly (Schur complement onto the
    boundary vertices), solves the boundary inclusion and recovers the
    interior; ``residuals`` measures how well the result satisfies both.
    """

    def __init__(self, a_mat: sp.spmatrix, graph: GasketGraph):
        self.a_mat = a_mat.tocsr()
        self.boundary = np.asarray(graph.boundary, dtype=np.intp)
        mask = np.ones(graph.vertex_count, dtype=bool)
        mask[self.boundary] = False
        self.interior = np.nonzero(mask)[0]
        a, i, b = self.a_mat, self.interior, self.boundary
        self.lu = spla.splu(a[i][:, i].tocsc())
        self.a_bi = a[b][:, i].tocsc()
        self.w = self.lu.solve(a[i][:, b].toarray())
        s_mat = a[b][:, b].toarray() - self.a_bi @ self.w
        self.s_mat = 0.5 * (s_mat + s_mat.T)

    def solve(self, rhs, functionals, tol, max_inner_iters, v0, gauge_free=False):
        """Values minimizing v.A v/2 - rhs.v + sum_i B_i(v(p_i)), the reduced
        right side ``c`` and the number of boundary sweeps."""
        z = self.lu.solve(rhs[self.interior])
        c = rhs[self.boundary] - self.a_bi @ z
        v_b, iters = _solve_boundary_inclusion(
            self.s_mat, c, functionals, tol, max_inner_iters, v0, gauge_free
        )
        values = np.empty(len(rhs))
        values[self.interior] = z - self.w @ v_b
        values[self.boundary] = v_b
        return values, c, iters

    def residuals(self, values, rhs, c, functionals) -> tuple[np.ndarray, float, float]:
        """Per-boundary subdifferential distances, their norm (the quantity
        the boundary stopping test bounds) and the interior residual norm."""
        boundary = _boundary_residual(self.s_mat, c, functionals, values[self.boundary])
        interior = float(np.linalg.norm((self.a_mat @ values - rhs)[self.interior]))
        return boundary, float(np.linalg.norm(boundary)), interior


@functools.lru_cache(maxsize=1)
def _resolvent(form: EnergyForm, measure: VertexMeasure, tau: float) -> _Operator:
    """The backward Euler operator 2K + M/tau, shared by every spec and
    trajectory on one (graph, measure, tau)."""
    return _Operator(
        2.0 * stiffness_matrix(form) + sp.diags(measure.masses / tau), form.graph
    )


def _check_domains(form: EnergyForm, measure: VertexMeasure, spec: RobinSpec) -> None:
    if measure.graph != form.graph:
        raise DomainMismatchError("measure and form live on different graphs")
    if spec.n != form.graph.n:
        raise DomainMismatchError("spec length does not match the graph")


def backward_euler_step(
    form: EnergyForm,
    measure: VertexMeasure,
    spec: RobinSpec,
    u: VertexFunction,
    tau: float,
    tol: float = 1e-9,
    max_inner_iters: int = 100_000,
) -> VertexFunction:
    """One implicit step: the resolvent of the perturbed energy at u."""
    return evolve(
        form, measure, spec, u, FlowConfig(tau, tau, tol, max_inner_iters)
    ).states[-1]


def evolve(
    form: EnergyForm,
    measure: VertexMeasure,
    spec: RobinSpec,
    u0: VertexFunction,
    config: FlowConfig,
) -> Trajectory:
    """Iterate the backward Euler resolvent from u0 to t_end.

    Any finite u0 is admissible; with pinned (Dirichlet-type) boundary
    functionals the first step projects the boundary values to 0, which is
    recorded plainly as the first state transition.  If an inner solve
    fails, the raised ConvergenceError carries the partial trajectory in
    its ``partial`` attribute.
    """
    if u0.graph != form.graph:
        raise DomainMismatchError("initial state does not live on the form's graph")
    steps = config.n_steps
    _check_domains(form, measure, spec)
    op = _resolvent(form, measure, config.tau)
    times = np.arange(steps + 1, dtype=np.float64) * config.tau
    states = [u0]
    diagnostics: list[StepDiagnostics] = []
    values = u0.values
    for _ in range(steps):
        rhs = measure.masses * values / config.tau
        try:
            values, c, iters = op.solve(
                rhs, spec.functionals, config.tol, config.max_inner_iters,
                values[op.boundary],
            )
        except ConvergenceError as exc:
            exc.partial = Trajectory(
                form.graph, times[: len(states)], states, diagnostics
            )
            raise
        _, kkt, interior = op.residuals(values, rhs, c, spec.functionals)
        states.append(VertexFunction(form.graph, values))
        diagnostics.append(StepDiagnostics(iters, kkt, interior))
    return Trajectory(form.graph, times, states, diagnostics)


@dataclass
class PoissonReport:
    """Solver evidence for one Robin Poisson solve."""

    iterations: int
    kkt_residual: float
    boundary_residuals: tuple[float, ...]
    interior_residual: float
    compatibility: float | None = None
    gauged: bool = False


def poisson_solve(
    form: EnergyForm,
    measure: VertexMeasure,
    spec: RobinSpec,
    f: VertexFunction,
    tol: float = 1e-9,
    max_inner_iters: int = 100_000,
) -> tuple[VertexFunction, PoissonReport]:
    """Solve the stationary Robin problem for the source f.

    The solution minimizes energy(u)/2 + sum_i B_i(u(p_i)) - (f, u)_mu, so
    its weak form pairs the bilinear energy E(u, v) = inner(u, v)/2 against
    test functions:

        E(u, v) + sum_i dB_i(u(p_i)) v(p_i)  contains  (f, v)_mu .

    Testing against a boundary coordinate shows the renormalized boundary
    difference sum satisfies  normal_derivative(u, i) + dB_i(u(p_i))
    containing  mu({p_i}) f(p_i);  with a source vanishing on the boundary
    this is the exact discrete Robin condition.

    Pure Neumann specs require a mu-mean-zero source and return the
    mu-mean-zero solution (the constant gauge is fixed).
    """
    _check_solver_controls(tol, max_inner_iters)
    _check_domains(form, measure, spec)
    if f.graph != form.graph:
        raise DomainMismatchError("source does not live on the form's graph")
    graph = form.graph
    pure_neumann = all(isinstance(b, Zero) for b in spec.functionals)
    compatibility = None
    if pure_neumann:
        compatibility = mean(measure, f)
        if abs(compatibility) > 1e-9 * (1.0 + l2_norm(measure, f)):
            raise DomainMismatchError(
                "pure Neumann problem needs a mu-mean-zero source, got mean "
                f"{compatibility}"
            )
    op = _Operator(stiffness_matrix(form), graph)
    rhs = measure.masses * f.values
    values, c, iters = op.solve(
        rhs, spec.functionals, tol, max_inner_iters, np.zeros(graph.n),
        gauge_free=pure_neumann,
    )
    if pure_neumann:
        values = values - float(np.sum(measure.masses * values))
    boundary_res, kkt, interior = op.residuals(values, rhs, c, spec.functionals)
    report = PoissonReport(
        iterations=iters,
        kkt_residual=kkt,
        boundary_residuals=tuple(float(x) for x in boundary_res),
        interior_residual=interior,
        compatibility=compatibility,
        gauged=pure_neumann,
    )
    return VertexFunction(graph, values), report


def normal_derivative(u: VertexFunction, i: int) -> float:
    """Renormalized outward difference sum at the i-th boundary vertex.

    ((n+2)/n)**m * sum over level-m neighbors y of (u(p_i) - u(y));
    positive when u exceeds its neighbors.  For minimal-energy (harmonic)
    interpolants the value is independent of the level.
    """
    g = u.graph
    if not 0 <= i < g.n:
        raise DomainMismatchError(f"boundary index must be in [0, {g.n}), got {i}")
    p = g.boundary[i]
    r = ((g.n + 2) / g.n) ** g.level
    nbrs = list(g.neighbors(p))
    return r * float(np.sum(u.values[p] - u.values[nbrs]))
