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
every spec and trajectory on it.  The solver advances an ensemble: k
trajectories of one spec as one (k, V) array, with one interior solve on
the 2-D right side and the boundary sweeps run on all members at once.  A
member stops sweeping when its own residual meets the tolerance, and the
solve reports the residual it stopped on as the step's evidence.  Every
product over the N boundary coordinates is computed one member at a time
by the same BLAS call, so a member's states, sweep counts and residuals
equal those of the trajectory run alone.  ``advance`` yields the steps and
``evolve`` collects them, from one state or a (k, V) array;
``backward_euler_step`` and ``poisson_solve`` (the operator code run on K)
are the k = 1 case.

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
import scipy.sparse.linalg as spla

from .errors import ConfigError, ConvergenceError, DomainMismatchError
from .energy import EnergyForm, stiffness_matrix
from .gasket import GasketGraph, VertexFunction, _check_arity, _check_graph
from .measure import VertexMeasure, l2_norm, mean
from .robin import RobinSpec


def _check_solver_controls(tol: float, max_inner_iters: int = 100_000) -> None:
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
        if not math.isfinite(self.t_end / self.tau):
            raise ConfigError(f"t_end / tau = {self.t_end} / {self.tau} is not a finite step count")
        # n = 0 fails too: |0 - t_end| = t_end
        if abs(self.n_steps * self.tau - self.t_end) > 1e-9 * self.t_end:
            raise ConfigError(
                f"t_end = {self.t_end} is not an integer multiple of tau = {self.tau}"
            )

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.tau)


@dataclass
class StepDiagnostics:
    """``residual`` is the norm of the boundary KKT residual the solve
    stopped on, which the stopping test bounds; ``interior_residual`` is
    the norm of A v - rhs on the interior rows, which the exact elimination
    leaves at roundoff.
    For an ensemble, ``iterations`` sums the members' boundary sweeps and
    the residuals are the largest over the members."""

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


@dataclass
class Ensemble:
    """k evolutions of one spec: ``values[j, s]`` is member j at
    ``times[s]``, a (k, steps + 1, V) array."""

    graph: GasketGraph
    times: np.ndarray
    values: np.ndarray
    diagnostics: list[StepDiagnostics]


def _rows(a) -> np.ndarray:
    """A C-ordered float copy of the (k, n) ``a``.  numpy's matmul and
    vecdot pick their BLAS call by the strides of their operands, those of
    length-1 axes included, and a column selection ``x[:, idx]`` comes
    out column-major; only on rows laid out like this does a member get
    the products it would get alone."""
    return np.array(a, dtype=np.float64, order="C")


def _norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, by the dot product ``np.linalg.norm``
    takes of one vector."""
    rows = np.ascontiguousarray(rows)
    with np.errstate(over="ignore"):  # an overflow is an inf norm, which the callers test
        return np.sqrt(np.vecdot(rows, rows))


def _boundary_residual(s_mat: np.ndarray, c: np.ndarray, functionals, v: np.ndarray) -> np.ndarray:
    """Per-coordinate distance from the negative smooth gradient to each
    subdifferential, one row per member; zero exactly at the solution."""
    descent = c - (s_mat @ v[:, :, None])[:, :, 0]  # the negative smooth gradient
    distance = np.empty_like(v)
    for i, b in enumerate(functionals):
        distance[:, i] = b.subdiff_distance(v[:, i], descent[:, i])
    return distance


def _solve_boundary_inclusion(
    s_mat: np.ndarray,
    c: np.ndarray,
    functionals,
    tol: float,
    max_iters: int,
    v0: np.ndarray,
    gauge_free: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve 0 in S v - c + prod_i dB_i(v_i) for each row of ``c``; return
    the solutions, the sweeps each took and the per-coordinate
    subdifferential distances it stopped on.

    When every B_i is d_i * s^2 / 2 (``curvature`` d_i in [0, inf], inf pins
    v_i to 0), one dense solve per member.  Otherwise the strictly convex
    objective G(v) = v.S v/2 - c.v + sum B_i(v_i) is minimized by cyclic
    exact coordinate proximal steps, which never increase it.  A member's
    sweeps stop when the norm of its boundary residual is <= tol.  A
    ConvergenceError names the first member whose residual is not finite,
    at the sweep where it overflows, or else the first member still
    sweeping after ``max_iters`` sweeps.  ``gauge_free`` marks the
    all-Neumann singular case, where the constant direction is fixed by a
    rank-one augmentation.
    """
    k, n = c.shape
    curvatures = [b.curvature for b in functionals]
    if None not in curvatures:
        free = [i for i, d in enumerate(curvatures) if d < math.inf]  # the rest stay 0
        mat = s_mat[np.ix_(free, free)]  # a copy; its diagonal is positive, so + 0.0 keeps its bits
        mat[np.diag_indices_from(mat)] += [curvatures[i] for i in free]
        if gauge_free:
            mat = mat + np.ones_like(mat)
        v = np.zeros((k, n))
        mats = np.broadcast_to(mat, (k, *mat.shape))
        v[:, free] = np.linalg.solve(mats, c[:, free, None])[:, :, 0]
        return v, np.ones(k, dtype=int), _boundary_residual(s_mat, c, functionals, v)

    coordinates = [(i, b, s_mat[i, i], 1.0 / s_mat[i, i], s_mat[i]) for i, b in enumerate(functionals)]
    v = _rows(v0)
    for i, b, _, lam, _ in coordinates:  # project onto the domain first
        v[:, i] = b.prox(lam, v[:, i])
    iterations = np.zeros(k, dtype=int)
    distances = np.empty((k, n))
    active = np.arange(k)  # members still sweeping, with their rows of v and c
    v_act, c_act = v, c
    for it in range(1, max_iters + 1):
        for i, b, sii, lam, row in coordinates:
            z = (c_act[:, i] - np.vecdot(v_act, row) + sii * v_act[:, i]) / sii
            v_act[:, i] = b.prox(lam, z)
        distance = _boundary_residual(s_mat, c_act, functionals, v_act)
        resid = _norms(distance)
        if not resid.max() < math.inf:  # one reduction: nan and inf both fail it
            j = np.flatnonzero(~np.isfinite(resid))[0]
            member = f"member {active[j]}: " if k > 1 else ""
            raise ConvergenceError(
                f"{member}boundary residual is not finite after {it} sweeps",
                residual=float(resid[j]),
                iterations=it,
            )
        done = resid <= tol
        if done.any():
            v[active[done]] = v_act[done]
            iterations[active[done]] = it
            distances[active[done]] = distance[done]
            active, v_act, c_act = active[~done], v_act[~done], c_act[~done]
            if not active.size:
                return v, iterations, distances
    member = f"member {active[0]}: " if k > 1 else ""
    raise ConvergenceError(
        f"{member}boundary solve did not reach tol={tol} in {max_iters} sweeps",
        residual=float(resid[~done][0]),
        iterations=max_iters,
    )


class _Operator:
    """scale * K + diag(shift) on one graph, its interior block factored once.

    ``solve`` eliminates the interior exactly (Schur complement onto the
    boundary vertices), solves the boundary inclusion and recovers the
    interior, and reports how well the result satisfies both.  It keeps the
    slices A_II, A_BI (A_IB is its transpose: A is exactly symmetric) and a
    dense A_BB of A = scale * K + diag(shift), the LU factors of A_II,
    W = A_II^-1 A_IB and the Schur complement; A is gone before SuperLU runs.
    The factorization uses one-column SuperLU panels: same pivots and
    fill as the default 20, a fifth less peak memory at depth.
    """

    def __init__(self, form: EnergyForm, scale: float = 1.0, shift=None):
        a = stiffness_matrix(form)  # exactly symmetric
        a.data *= scale  # exact for the scales used, 1 and 2
        if shift is not None:  # each diagonal entry becomes fl(scale * deg + shift)
            a.setdiag(a.diagonal() + shift)
        self.boundary = np.asarray(form.graph.boundary, dtype=np.intp)
        self.interior = np.setdiff1d(np.arange(a.shape[0]), self.boundary)
        b, i = self.boundary, self.interior
        self.a_ii = a[i][:, i].tocsc()
        self.a_bi = a[b][:, i].tocsc()
        self.a_ib = self.a_bi.T  # A is exactly symmetric: A_BI^T bit for bit
        self.a_bb = a[b][:, b].toarray()
        del a  # only the blocks reach SuperLU's peak
        # The gasket's supernodes are narrow, so wide panels buy nothing:
        # panel_size=1 keeps the column order, row pivots and L/U fill of
        # the default 20 and drops its panel workspace.  Measured on 2
        # vCPUs while the operator still held A: a Poisson solve at (3,10)
        # peaked at 114 instead of 143 MiB, and splu at (3,11) took 0.31
        # instead of 0.43 s.
        self.lu = spla.splu(self.a_ii, panel_size=1)
        self.w = self.lu.solve(self.a_ib.toarray())
        s_mat = self.a_bb - self.a_bi @ self.w
        self.s_mat = 0.5 * (s_mat + s_mat.T)

    def solve(self, rhs, functionals, tol, max_inner_iters, v0, gauge_free=False):
        """For each row of the (k, V) ``rhs``: the values minimizing
        v.A v/2 - rhs.v + sum_i B_i(v(p_i)), the number of boundary sweeps,
        the per-boundary subdifferential distances the sweeps stopped on
        and the interior residual norm, each stacked over the k rows."""
        z = self.lu.solve(rhs[:, self.interior].T)
        c = rhs[:, self.boundary] - (self.a_bi @ z).T
        v_b, iters, distances = _solve_boundary_inclusion(
            self.s_mat, c, functionals, tol, max_inner_iters, v0, gauge_free
        )
        v_i = z.T - (self.w @ v_b[:, :, None])[:, :, 0]
        del z
        # A_II v_I + A_IB v_B - r_I, accumulated in place: at depth these
        # vectors, not the blocks, set the solve's peak memory
        interior = self.a_ii @ v_i.T
        interior += self.a_ib @ v_b.T
        interior -= rhs[:, self.interior].T
        values = np.empty(rhs.shape)
        values[:, self.interior] = v_i
        values[:, self.boundary] = v_b
        return values, iters, distances, _norms(interior.T)


@functools.lru_cache(maxsize=1)
def _resolvent(form: EnergyForm, measure: VertexMeasure, tau: float) -> _Operator:
    """The backward Euler operator 2K + M/tau, shared by every spec and
    trajectory on one (graph, measure, tau)."""
    return _Operator(form, 2.0, measure.masses / tau)


def advance(form, measure, spec, u0: np.ndarray, config: FlowConfig):
    """Step the (k, V) ensemble ``u0`` to t_end, holding only the current
    state and yielding after each backward Euler step its values and, per
    member, the boundary sweeps, KKT residual and interior residual."""
    _check_graph(form.graph, measure)
    _check_arity(form.graph, spec)
    if u0.ndim != 2 or not len(u0) or u0.shape[1] != form.graph.vertex_count:
        raise DomainMismatchError("initial states must be a (k, V) array, k >= 1")
    if not np.all(np.isfinite(u0)):
        raise ValueError("initial states must be finite")
    steps = config.n_steps
    op = _resolvent(form, measure, config.tau)
    values = u0
    for step in range(1, steps + 1):
        rhs = measure.masses * values / config.tau
        try:
            values, iters, distances, interior = op.solve(
                rhs, spec.functionals, config.tol, config.max_inner_iters,
                values[:, op.boundary],
            )
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"step {step}: {exc}", residual=exc.residual, iterations=exc.iterations
            ) from None
        yield values, iters, _norms(distances), interior


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
    u0: VertexFunction | np.ndarray,
    config: FlowConfig,
    sink=None,
) -> Trajectory | Ensemble:
    """Iterate the backward Euler resolvent from u0 to t_end.

    ``u0`` is one VertexFunction, giving a Trajectory, or a (k, V) array
    of k initial states, giving an Ensemble whose members equal their
    trajectories run alone bit for bit.  Any finite u0 is admissible; with
    pinned (Dirichlet-type) boundary functionals the first step projects
    the boundary values to 0, which is recorded plainly as the first state
    transition.  The states are collected from ``advance``, or passed to
    ``sink`` as they are made, which leaves u0 the result's one state.  A
    failed inner solve's ConvergenceError propagates.
    """
    single = isinstance(u0, VertexFunction)
    if single:
        _check_graph(form.graph, u0)
    start = u0.values[None] if single else np.asarray(u0, dtype=np.float64)
    states = [u0 if single else start]
    diagnostics: list[StepDiagnostics] = []
    keep = states.append if sink is None else sink
    for values, iters, kkt, interior in advance(form, measure, spec, start, config):
        keep(VertexFunction(form.graph, values[0]) if single else values)
        diagnostics.append(
            StepDiagnostics(int(iters.sum()), float(kkt.max()), float(interior.max()))
        )
    times = np.arange(len(states), dtype=np.float64) * config.tau  # of the states held
    if single:
        return Trajectory(form.graph, times, states, diagnostics)
    return Ensemble(form.graph, times, np.stack(states, axis=1), diagnostics)


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

    Along the constants u = s the objective grows like
    sum_i B_i(s) - s (f, 1)_mu, so a source whose mean outgrows the sum of
    the penalties' ``slopes`` in its direction has no minimizer, and is
    refused with a DomainMismatchError before the solve.  A pure Neumann
    spec has slopes (0, 0), so it needs a mu-mean-zero source; its
    solution is returned with mu-mean zero (the constant gauge is fixed).
    """
    _check_solver_controls(tol, max_inner_iters)
    _check_graph(form.graph, measure, f)
    _check_arity(form.graph, spec)
    graph = form.graph
    pure_neumann = all(b.curvature == 0.0 for b in spec.functionals)
    total, slack = mean(measure, f), 1e-9 * (1.0 + l2_norm(measure, f))
    growth = sum(b.slopes[int(total > 0)] for b in spec.functionals)
    if growth < abs(total) - slack:
        raise DomainMismatchError(
            f"no minimizer: the source has mean {total}, but the boundary penalties "
            f"grow at slope {growth} toward {'+' if total > 0 else '-'}inf, so the "
            "objective is unbounded below along the constants"
        )
    op = _Operator(form)
    rhs = (measure.masses * f.values)[None]
    values, iters, distances, interior = op.solve(
        rhs, spec.functionals, tol, max_inner_iters, np.zeros((1, graph.n)),
        gauge_free=pure_neumann,
    )
    if pure_neumann:
        values = values - float(np.sum(measure.masses * values[0]))
    report = PoissonReport(
        iterations=int(iters[0]),
        kkt_residual=float(_norms(distances)[0]),
        boundary_residuals=tuple(distances[0].tolist()),
        interior_residual=float(interior[0]),
        compatibility=total if pure_neumann else None,
        gauged=pure_neumann,
    )
    return VertexFunction(graph, values[0]), report


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
    ei, ej = g.edge_arrays
    # edges are sorted by (i, j): the lower neighbours come first
    nbrs = np.concatenate([ei[ej == p], ej[ei == p]])
    return EnergyForm(g).renormalization * float(np.sum(u.values[p] - u.values[nbrs]))
