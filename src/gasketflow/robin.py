"""Boundary penalty functionals and the perturbed energy.

A boundary functional B maps the reals to [0, inf], vanishes at 0, and is
decreasing on the negative axis and increasing on the positive axis.  One
functional per boundary vertex turns the plain energy into

    perturbed_energy(u) = energy(u) + sum_i B_i(u(p_i)),

which encodes Neumann (B = 0), Dirichlet (B = indicator of {0}) and general
Robin-type conditions variationally.  Every built-in kind is convex and
comes with a proximal map, which is what the implicit Euler flow consumes:
closed forms everywhere except the power kind at p outside {1, 2, 3},
which takes a few Newton steps on a scalar root.  The maps work on Python
floats with ``math``, because the boundary sweeps call them one
coordinate at a time.  Evaluation has one path: every functional is an
elementwise array expression, and a scalar argument is the 0-d case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainMismatchError
from .energy import EnergyForm, _check_graph, batch_energy
from .gasket import VertexFunction

INF = math.inf
EPS = math.ulp(1.0)


def _floats(s) -> np.ndarray:
    return np.asarray(s, dtype=np.float64)


class BoundaryFunctional:
    """Base interface; subclasses are immutable, convex value types."""

    def __call__(self, s):
        """Evaluate elementwise, in [0, inf]; a scalar gives a numpy float64."""
        raise NotImplementedError

    def prox(self, lam: float, s: float) -> float:
        """Unique minimizer of B(t) + (t - s)^2 / (2 lam)."""
        if not 0.0 < lam < INF:
            raise ValueError(f"lam must be finite and positive, got {lam}")
        return self._prox(float(lam), float(s))

    def _prox(self, lam: float, s: float) -> float:
        raise NotImplementedError

    def subdifferential(self, s: float):
        """Interval (lo, hi) of subgradients at s, or None outside the domain."""
        raise NotImplementedError

    def subdiff_distance(self, s: float, g: float) -> float:
        """Distance from g to the subdifferential at s (inf if s infeasible)."""
        interval = self.subdifferential(float(s))
        if interval is None:
            return INF
        lo, hi = interval
        return max(0.0, lo - g, g - hi)


@dataclass(frozen=True)
class Zero(BoundaryFunctional):
    """No penalty; the Neumann case."""

    def __call__(self, s):
        return np.zeros_like(_floats(s))[()]

    def _prox(self, lam, s):
        return s

    def subdifferential(self, s):
        return (0.0, 0.0)


@dataclass(frozen=True)
class DirichletIndicator(BoundaryFunctional):
    """Indicator of {0}: zero at the origin, infinite elsewhere."""

    def __call__(self, s):
        return np.where(_floats(s) == 0.0, 0.0, INF)[()]

    def _prox(self, lam, s):
        return 0.0

    def subdifferential(self, s):
        return (-INF, INF) if s == 0.0 else None


@dataclass(frozen=True)
class Quadratic(BoundaryFunctional):
    """B(s) = beta * s^2 / 2, the classical linear Robin damping."""

    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be finite and positive, got {self.beta}")

    def __call__(self, s):
        s = _floats(s)
        return (0.5 * self.beta * s * s)[()]

    def _prox(self, lam, s):
        return s / (1.0 + lam * self.beta)

    def subdifferential(self, s):
        g = self.beta * s
        return (g, g)


@dataclass(frozen=True)
class AbsoluteValue(BoundaryFunctional):
    """B(s) = beta * |s|; proximal map is the soft threshold."""

    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be finite and positive, got {self.beta}")

    def __call__(self, s):
        return (self.beta * np.abs(_floats(s)))[()]

    def _prox(self, lam, s):
        shift = lam * self.beta
        if s > shift:
            return s - shift
        if s < -shift:
            return s + shift
        return 0.0

    def subdifferential(self, s):
        if s > 0:
            return (self.beta, self.beta)
        if s < 0:
            return (-self.beta, -self.beta)
        return (-self.beta, self.beta)


@dataclass(frozen=True)
class Power(BoundaryFunctional):
    """B(s) = beta * |s|^p / p for p >= 1.

    Interpolates the absolute-value (p = 1) and quadratic (p = 2) kinds.
    The proximal map has magnitude rho, the root in [0, |s|] of
    rho + lam*beta*rho^(p-1) = |s|: a closed form for p in {1, 2, 3},
    Newton steps otherwise, accurate relative to rho (not to an absolute
    tolerance, which would lose the tiny roots of p near 1).
    """

    beta: float
    p: float

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be finite and positive, got {self.beta}")
        if not (math.isfinite(self.p) and self.p >= 1):
            raise ValueError(f"p must be finite and >= 1, got {self.p}")

    def __call__(self, s):
        return (self.beta * np.abs(_floats(s)) ** self.p / self.p)[()]

    def _prox(self, lam, s):
        p = self.p
        if p == 1.0:
            return AbsoluteValue(self.beta)._prox(lam, s)
        if p == 2.0:
            return s / (1.0 + lam * self.beta)
        x = abs(s)
        if x == 0.0:
            return 0.0
        c = lam * self.beta
        if p == 3.0:
            # the positive root of c*rho^2 + rho - x, free of cancellation;
            # hypot(1, 2 sqrt(c x)) is sqrt(1 + 4 c x) without overflow
            root = math.hypot(1.0, 2.0 * math.sqrt(c) * math.sqrt(x))
            return math.copysign(2.0 * x / (1.0 + root), s)
        # f(rho) = rho + c*rho^q - x is convex and increasing in log(rho), so
        # Newton steps on log(rho) from above the root decrease monotonically
        # to it: no step can leave [root, start], and none needs a bisection
        # safeguard.  The start is min(x, (x/c)^(1/q)), taken in logs so that
        # it cannot overflow, and raised by the rounding of those logs
        # (amplified by 1/q) so that it stays above the root.
        q = p - 1.0
        log_x, log_lam, log_beta = math.log(x), math.log(lam), math.log(self.beta)
        log_u = (log_x - log_lam - log_beta) / q
        log_u += 8.0 * EPS * (abs(log_x) + abs(log_lam) + abs(log_beta) + 1.0) / q
        rho = x if log_u >= log_x else math.exp(log_u)
        while True:
            t = c * rho**q
            f = rho + t - x
            if not f > 0.0:  # at the root, up to the rounding of f
                break
            last = rho
            rho *= math.exp(-f / (rho + q * t))  # f / (df / dlog(rho))
            if not last - rho > 4.0 * EPS * last:  # a step of a few ulp
                break
        return math.copysign(rho, s)

    def subdifferential(self, s):
        if self.p == 1.0:
            return AbsoluteValue(self.beta).subdifferential(s)
        if s == 0.0:
            return (0.0, 0.0)
        g = self.beta * abs(s) ** (self.p - 1.0) * math.copysign(1.0, s)
        return (g, g)


@dataclass(frozen=True)
class BoxIndicator(BoundaryFunctional):
    """Indicator of [lower, upper] with lower <= 0 <= upper."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (self.lower <= 0.0 <= self.upper):
            raise ValueError(
                f"box must contain 0, got [{self.lower}, {self.upper}]"
            )

    def __call__(self, s):
        s = _floats(s)
        return np.where((s >= self.lower) & (s <= self.upper), 0.0, INF)[()]

    def _prox(self, lam, s):
        return min(max(s, self.lower), self.upper)

    def subdifferential(self, s):
        if s < self.lower or s > self.upper:
            return None
        lo = -INF if s == self.lower else 0.0
        hi = INF if s == self.upper else 0.0
        return (lo, hi)


@dataclass(frozen=True)
class PiecewiseLinearQuadratic(BoundaryFunctional):
    """B(s) = kappa*s^2/2 + sum_j w_j * max(|s| - d_j, 0).

    ``breakpoints`` is a tuple of (d_j, w_j) pairs with d_j >= 0 and
    w_j > 0; the kink positions are the d_j.  Convex, even, normalised.
    """

    kappa: float
    breakpoints: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if not (math.isfinite(self.kappa) and self.kappa >= 0):
            raise ValueError(f"kappa must be finite and >= 0, got {self.kappa}")
        bps = tuple(sorted((float(d), float(w)) for d, w in self.breakpoints))
        if not bps and self.kappa == 0:
            raise ValueError("need kappa > 0 or at least one breakpoint")
        for d, w in bps:
            if not (math.isfinite(d) and d >= 0):
                raise ValueError(f"breakpoint positions must be finite and >= 0, got {d}")
            if not (math.isfinite(w) and w > 0):
                raise ValueError(f"breakpoint weights must be finite and positive, got {w}")
        object.__setattr__(self, "breakpoints", bps)

    def __call__(self, s):
        a = np.abs(_floats(s))
        total = 0.5 * self.kappa * a * a
        for d, w in self.breakpoints:
            total = total + w * np.maximum(a - d, 0.0)
        return total[()]

    def _prox(self, lam, s):
        x = abs(s)
        if x == 0.0:
            return 0.0
        positions = sorted({d for d, _ in self.breakpoints})
        bounds = ([0.0] if (not positions or positions[0] > 0.0) else []) + positions + [INF]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            slope_sum = sum(w for d, w in self.breakpoints if d <= lo)
            rho = (x - lam * slope_sum) / (1.0 + lam * self.kappa)
            if rho < lo:
                # the objective's derivative jumps past zero at the kink
                return math.copysign(lo, s)
            if rho <= hi:
                return math.copysign(rho, s)
        raise AssertionError("unreachable: last interval is unbounded")

    def subdifferential(self, s):
        lo = hi = self.kappa * s
        a = abs(s)
        sign = math.copysign(1.0, s) if s != 0.0 else 0.0
        for d, w in self.breakpoints:
            if a > d:
                lo += w * sign
                hi += w * sign
            elif a == d:
                if s > 0.0:
                    hi += w
                elif s < 0.0:
                    lo -= w
                else:  # s == 0 == d
                    lo -= w
                    hi += w
        return (lo, hi)


_KINDS = {
    "zero": Zero,
    "neumann": Zero,
    "dirichlet": DirichletIndicator,
    "quadratic": Quadratic,
    "absolute_value": AbsoluteValue,
    "abs": AbsoluteValue,
    "power": Power,
    "box": BoxIndicator,
    "plq": PiecewiseLinearQuadratic,
    "piecewise_linear_quadratic": PiecewiseLinearQuadratic,
}


def _holds_bool(value) -> bool:
    if isinstance(value, (list, tuple)):
        return any(map(_holds_bool, value))
    return isinstance(value, bool)


def functional_from_json(obj) -> BoundaryFunctional:
    """Parse one boundary functional from its JSON form.

    Accepts either a bare string ("neumann", "dirichlet", ...) or a dict
    with a "kind" key plus kind-specific parameters.
    """
    if isinstance(obj, str):
        obj = {"kind": obj}
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError(f"boundary functional must be a kind string or dict, got {obj!r}")
    cls = _KINDS.get(str(obj["kind"]).lower())
    if cls is None:
        raise ValueError(f"unknown boundary functional kind {obj['kind']!r}")
    params = {k: v for k, v in obj.items() if k != "kind"}
    for key, value in params.items():
        # JSON true/false would pass as 1/0, also inside breakpoint pairs
        if _holds_bool(value):
            raise ValueError(f"{key}: a boolean is not a number, got {value!r}")
    try:
        return cls(**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for kind {obj['kind']!r}: {exc}") from exc


@dataclass(frozen=True)
class RobinSpec:
    """One boundary functional per boundary vertex."""

    functionals: tuple[BoundaryFunctional, ...]

    def __post_init__(self):
        if len(self.functionals) < 2:
            raise ValueError("a spec needs at least two boundary functionals")
        object.__setattr__(self, "functionals", tuple(self.functionals))

    @property
    def n(self) -> int:
        return len(self.functionals)

    @classmethod
    def neumann(cls, n: int) -> "RobinSpec":
        return cls(tuple(Zero() for _ in range(n)))

    @classmethod
    def dirichlet(cls, n: int) -> "RobinSpec":
        return cls(tuple(DirichletIndicator() for _ in range(n)))

    @classmethod
    def uniform(cls, b: BoundaryFunctional, n: int) -> "RobinSpec":
        return cls(tuple(b for _ in range(n)))

    @classmethod
    def from_json(cls, obj) -> "RobinSpec":
        if not isinstance(obj, (list, tuple)):
            raise ValueError("a Robin spec is a JSON list of boundary functionals")
        return cls(tuple(functional_from_json(x) for x in obj))


def perturbed_energy(form: EnergyForm, spec: RobinSpec, u: VertexFunction) -> float:
    """energy(u) plus the boundary penalties; infinity propagates."""
    _check_graph(form, u)
    return float(batch_perturbed_energy(form, spec, u.values))


def batch_perturbed_energy(form: EnergyForm, spec: RobinSpec, values: np.ndarray) -> np.ndarray:
    """Perturbed energies of many functions at once; rows index samples."""
    if spec.n != form.graph.n:
        raise DomainMismatchError(
            f"spec has {spec.n} functionals, graph has n={form.graph.n}"
        )
    total = batch_energy(form, values)
    for b, idx in zip(spec.functionals, form.graph.boundary):
        total = total + b(values[..., idx])
    return total


def extended_difference(a, b):
    """a - b elementwise on [0, inf] with the convention inf - inf = inf.

    Only used when checking bi-monotonicity of differences of boundary
    functionals; ordinary arithmetic applies everywhere else.
    """
    a, b = _floats(a), _floats(b)
    with np.errstate(invalid="ignore"):
        return np.where(a == INF, INF, np.where(b == INF, -INF, a - b))[()]


BIMONOTONE_SLACK = 1e-12


def default_check_grid() -> np.ndarray:
    """The 83-point domination grid: 0 and +-41 magnitudes spaced
    geometrically from 1e-6 to 10."""
    mags = np.geomspace(1e-6, 10.0, 41)
    return np.concatenate([-mags[::-1], [0.0], mags])


def _le(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a <= b elementwise, with relative slack, on the extended reals."""
    with np.errstate(all="ignore"):
        scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        finite_le = (a != INF) & (b != -INF) & (a <= b + BIMONOTONE_SLACK * scale)
    return (b == INF) | (a == -INF) | finite_le


def is_bimonotone(values: np.ndarray, grid: np.ndarray) -> bool:
    """Decreasing left of 0 and increasing right of 0, up to relative slack."""
    grid = _floats(grid)
    values = _floats(values)
    order = np.argsort(grid, kind="stable")
    grid, values = grid[order], values[order]
    left, right = values[:-1], values[1:]
    decreasing = ~(grid[1:] <= 0.0) | _le(right, left)
    increasing = ~(grid[:-1] >= 0.0) | _le(left, right)
    return bool(np.all(decreasing & increasing))


def _differences_bimonotone(bhat: RobinSpec, b: RobinSpec, signs) -> bool:
    """Whether s -> Bhat_i(s) - B_i(sign * |s|) is bi-monotone on the
    default check grid for every i and every sign."""
    if bhat.n != b.n:
        raise DomainMismatchError("specs have different lengths")
    grid = default_check_grid()
    mags = np.abs(grid)
    return all(
        is_bimonotone(extended_difference(bh(grid), bb(sign * mags)), grid)
        for sign in signs
        for bh, bb in zip(bhat.functionals, b.functionals)
    )


def dominates_condition(bhat: RobinSpec, b: RobinSpec) -> bool:
    """Grid check that s -> Bhat_i(s) - B_i(|s|) is bi-monotone for every i.

    This is the sufficient condition under which the flow generated by the
    Bhat-perturbed energy is dominated by the flow of the B-perturbed one.
    """
    return _differences_bimonotone(bhat, b, (1.0,))


def totally_dominates_condition(bhat: RobinSpec, b: RobinSpec) -> bool:
    """Grid check for the two-sided (total) domination condition: the
    differences against B_i(-|s|) are bi-monotone too."""
    return _differences_bimonotone(bhat, b, (1.0, -1.0))
