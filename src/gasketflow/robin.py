"""Boundary penalty functionals and the perturbed energy.

A boundary functional B maps the reals to [0, inf], vanishes at 0, and is
decreasing on the negative axis and increasing on the positive axis.  One
functional per boundary vertex turns the plain energy into

    perturbed_energy(u) = energy(u) + sum_i B_i(u(p_i)),

which encodes Neumann (B = 0, the box R), Dirichlet (B = indicator of the
box {0}) and general Robin-type conditions variationally.  A functional
d * s^2 / 2, d in [0, inf], reports d as its ``curvature``, which is all
the flow asks before a dense linear solve.  Every built-in kind is convex
and comes with a proximal map, which is what the implicit Euler flow
consumes: closed forms everywhere except the power kind at p outside
{1, 2, 3}, which takes a few Newton steps on its root.  Evaluation,
proximal map and subdifferential distance are elementwise array
expressions, of which a scalar argument is the 0-d case; only the power
kind's root at p outside {1, 2} is taken one element at a time, on Python
floats with ``math``.  The flow applies the maps to one boundary
coordinate of a whole ensemble of trajectories at once.  An element's
result never depends on the other elements, so a trajectory computed
alone and inside an ensemble agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import EnergyForm, batch_energy
from .gasket import VertexFunction, _check_arity, _check_graph

INF = math.inf
EPS = math.ulp(1.0)
LOG_MAX = math.log(1.7976931348623157e308)  # the largest finite exp argument


def _floats(s) -> np.ndarray:
    return np.asarray(s, dtype=np.float64)


class BoundaryFunctional:
    """Base interface; subclasses are immutable, convex value types."""

    #: the d in [0, inf] with B(s) = d * s^2 / 2 (inf: the indicator of {0}),
    #: or None when B is not of that form; kinds that can be override it
    curvature: float | None = None

    @property
    def slopes(self) -> tuple[float, float]:
        """The growth rates lim B(-s)/s and lim B(s)/s as s -> inf, in
        [0, inf]: a Poisson source whose mean outgrows them along the
        constants leaves the solve without a minimizer."""
        raise NotImplementedError

    def __call__(self, s):
        """Evaluate elementwise, in [0, inf]; a scalar gives a numpy float64."""
        raise NotImplementedError

    def prox(self, lam: float, s):
        """Unique minimizer of B(t) + (t - s)^2 / (2 lam), elementwise."""
        if not 0.0 < lam < INF:
            raise ValueError(f"lam must be finite and positive, got {lam}")
        s = _floats(s)
        return self._prox(float(lam), s.reshape(-1)).reshape(s.shape)[()]

    def _prox(self, lam: float, s: np.ndarray) -> np.ndarray:
        """The proximal map on a 1-D float array."""
        raise NotImplementedError

    def _subgradients(self, s: np.ndarray):
        """Ends (lo, hi) of the subdifferential at each s, arrays or
        scalars that broadcast against s; (inf, -inf) outside the domain."""
        raise NotImplementedError

    def subdiff_distance(self, s, g):
        """Distance from g to the subdifferential at s (inf if s is
        infeasible), elementwise; a zero distance may carry either sign."""
        lo, hi = self._subgradients(_floats(s))
        g = _floats(g)
        return np.maximum(np.maximum(lo - g, g - hi), 0.0)[()]


@dataclass(frozen=True)
class Power(BoundaryFunctional):
    """B(s) = beta * |s|^p / p for p >= 1.

    p = 2 is the linear Robin damping beta * s^2 / 2 (JSON kind
    ``quadratic``), p = 1 the soft-thresholding beta*|s| (``absolute_value``).
    The proximal map has magnitude rho, the root in [0, |s|] of
    rho + lam*beta*rho^(p-1) = |s|: a closed form for p in {1, 2, 3},
    Newton steps otherwise, accurate relative to rho (not to an absolute
    tolerance, which would lose the tiny roots of p near 1).  For p
    outside {1, 2} the root is computed per element on Python floats.
    """

    beta: float
    p: float

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be finite and positive, got {self.beta}")
        if not (math.isfinite(self.p) and self.p >= 1):
            raise ValueError(f"p must be finite and >= 1, got {self.p}")

    def __call__(self, s):
        s = _floats(s)
        if self.p == 2.0:
            return (0.5 * self.beta * s * s)[()]
        return (self.beta * np.abs(s) ** self.p / self.p)[()]

    def _prox(self, lam, s):
        p = self.p
        if p == 1.0:
            shift = lam * self.beta
            return np.where(np.abs(s) > shift, s - np.copysign(shift, s), 0.0)
        if p == 2.0:
            return s / (1.0 + lam * self.beta)
        return np.array([math.copysign(self._root(lam, abs(x)), x) if x else 0.0 for x in s.tolist()])

    @property
    def curvature(self):
        return self.beta if self.p == 2.0 else None

    @property
    def slopes(self):
        return (self.beta, self.beta) if self.p == 1.0 else (INF, INF)

    def _root(self, lam: float, x: float) -> float:
        """The root rho of rho + lam*beta*rho^q = x, q = p - 1, for x > 0.

        It runs on Python floats, one element at a time, with CPython's
        ``math``: np.hypot rounds differently from math.hypot on about
        0.6 % of inputs, numpy's exp, log and power differ from libm's by
        an ulp here and there, and the Newton iteration takes a different
        number of steps for each element.  A one-element call, the form
        the boundary sweeps of a single trajectory make, costs a few
        microseconds this way.

        For p = 3 the root is the positive root of c*rho^2 + rho - x, in a
        form free of cancellation; hypot(1, 2 sqrt(c x)) is sqrt(1 + 4 c x)
        without overflow.  Otherwise f(rho) = rho + c*rho^q - x is convex
        and increasing in log(rho), so Newton steps on log(rho) from above
        the root decrease monotonically to it: no step can leave
        [root, start], and none needs a bisection safeguard.  The start is
        min(x, (x/c)^(1/q)), taken in logs so that it cannot overflow, and
        raised by the rounding of those logs (amplified by 1/q) so that it
        stays above the root.  The iteration stops at the root up to the
        rounding of f, or after a step of a few ulp.  Where c is subnormal,
        rho^(q/2) can overflow as well; t is then formed in logs, whose
        rounding at arguments near 700 costs about 1e-13 relative in t and
        1e-13/q in rho.  Where t rounds past the largest double, x is within
        rounding of it, and f and its slope are formed divided by x, from
        t/x and rho/x.
        """
        q, c = self.p - 1.0, lam * self.beta
        if self.p == 3.0:
            return 2.0 * x / (1.0 + math.hypot(1.0, 2.0 * math.sqrt(c) * math.sqrt(x)))
        log_x, log_lam, log_beta = math.log(x), math.log(lam), math.log(self.beta)
        log_u = (log_x - log_lam - log_beta) / q
        log_u += 8.0 * EPS * (abs(log_x) + abs(log_lam) + abs(log_beta) + 1.0) / q
        rho = x if log_u >= log_x else math.exp(log_u)
        while True:
            try:
                t = c * rho**q
            except OverflowError:  # for c < 1, rho^q can overflow while c*rho^q <= x
                try:
                    half = rho ** (0.5 * q)
                    t = c * half * half
                except OverflowError:  # and so can rho^(q/2) when c is subnormal
                    log_t = log_lam + log_beta + q * math.log(rho)
                    t = math.exp(log_t) if log_t <= LOG_MAX else INF
            if t == INF:  # x within rounding of the largest double: f and slope over x
                try:
                    half = rho ** (0.5 * q)
                    r = c * half / x * half
                except OverflowError:
                    r = math.exp(log_lam + log_beta + q * math.log(rho) - log_x)
                f, slope = rho / x + r - 1.0, rho / x + q * r
            else:
                f, slope = rho + t - x, rho + q * t  # slope: df / dlog(rho)
            if not f > 0.0:  # at the root, up to the rounding of f
                return rho
            if slope == INF:  # for x within a factor q of the largest double
                ratio = (f / t) / (rho / t + q)
            else:
                ratio = f / slope
            last, rho = rho, rho * math.exp(-ratio)
            if not last - rho > 4.0 * EPS * last:  # a step of a few ulp
                return rho

    def _subgradients(self, s):
        beta = self.beta
        if self.p == 1.0:
            return np.where(s > 0.0, beta, -beta), np.where(s < 0.0, -beta, beta)
        g = beta * np.power(np.abs(s), self.p - 1.0) * np.sign(s)
        return g, g


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
        # an int end past the float range fails here, not in a solve
        object.__setattr__(self, "lower", float(self.lower))
        object.__setattr__(self, "upper", float(self.upper))

    def __call__(self, s):
        s = _floats(s)
        return np.where((s >= self.lower) & (s <= self.upper), 0.0, INF)[()]

    def _prox(self, lam, s):
        return np.clip(s, self.lower, self.upper)

    @property
    def curvature(self):
        return {(-INF, INF): 0.0, (0.0, 0.0): INF}.get((self.lower, self.upper))

    @property
    def slopes(self):
        return (0.0 if self.lower == -INF else INF, 0.0 if self.upper == INF else INF)

    def _subgradients(self, s):
        # below the box lo = inf and above it hi = -inf: infinitely far
        lo = np.where(s > self.lower, 0.0, np.where(s == self.lower, -INF, INF))
        hi = np.where(s < self.upper, 0.0, np.where(s == self.upper, INF, -INF))
        return lo, hi


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
        x = np.abs(s)
        # lower ends, upper ends and slope sums of the intervals of |s|
        # between kinks, as column vectors
        positions = sorted({d for d, _ in self.breakpoints})
        lower = ([0.0] if (not positions or positions[0] > 0.0) else []) + positions
        slopes = [sum(w for d, w in self.breakpoints if d <= lo) for lo in lower]
        lower, upper, slopes = (np.array(a)[:, None] for a in (lower, lower[1:] + [INF], slopes))
        # the first piece [lower, upper] of |s| whose stationary point is
        # <= upper holds the minimizer, at lower if the stationary point lies
        # below it: there the objective's derivative jumps past zero
        stationary = (x - lam * slopes) / (1.0 + lam * self.kappa)
        piece = np.argmax(stationary <= upper, axis=0)
        rho, lo = stationary[piece, np.arange(x.size)], lower[piece, 0]
        return np.where(x == 0.0, 0.0, np.copysign(np.where(rho < lo, lo, rho), s))

    @property
    def curvature(self):
        return None if self.breakpoints else self.kappa

    @property
    def slopes(self):
        slope = INF if self.kappa > 0 else sum(w for _, w in self.breakpoints)
        return (slope, slope)

    def _subgradients(self, s):
        lo = hi = self.kappa * s
        a, sign = np.abs(s), np.sign(s)
        for d, w in self.breakpoints:
            # past the kink both ends move by w*sign; at it the interval
            # widens by w on the side(s) that s does not lie beyond
            kink = a == d
            lo = lo + np.where(a > d, w * sign, np.where(kink & (s <= 0.0), -w, 0.0))
            hi = hi + np.where(a > d, w * sign, np.where(kink & (s >= 0.0), w, 0.0))
        return lo, hi


def neumann() -> BoxIndicator:
    """The JSON kinds ``neumann`` and ``zero``: B = 0, the box R."""
    return BoxIndicator(-INF, INF)


def dirichlet() -> BoxIndicator:
    """The JSON kind ``dirichlet``: the indicator of {0}, the box {0}."""
    return BoxIndicator(0.0, 0.0)


def box(lower: float | None, upper: float | None) -> BoxIndicator:
    """The JSON kind ``box``; a ``null`` end is unbounded, as a JSON
    output writes an infinite one."""
    return BoxIndicator(-INF if lower is None else lower, INF if upper is None else upper)


def quadratic(beta: float) -> Power:
    """The JSON kind ``quadratic``: beta * s^2 / 2, Power at p = 2."""
    return Power(beta, 2.0)


def absolute_value(beta: float) -> Power:
    """The JSON kinds ``absolute_value`` and ``abs``: beta * |s|, p = 1."""
    return Power(beta, 1.0)


_KINDS = {
    "zero": neumann,
    "neumann": neumann,
    "dirichlet": dirichlet,
    "quadratic": quadratic,
    "absolute_value": absolute_value,
    "abs": absolute_value,
    "power": Power,
    "box": box,
    "plq": PiecewiseLinearQuadratic,
    "piecewise_linear_quadratic": PiecewiseLinearQuadratic,
}


def _holds_bool(value, depth: int = 2) -> bool:
    # a number sits at most two lists down (in a breakpoint pair); a bool
    # deeper than that is in a list, which no kind reads as a number
    if depth and isinstance(value, (list, tuple)):
        return any(_holds_bool(x, depth - 1) for x in value)
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
    except (TypeError, OverflowError) as exc:  # OverflowError: an int past the float range
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
        return cls.uniform(neumann(), n)

    @classmethod
    def dirichlet(cls, n: int) -> "RobinSpec":
        return cls.uniform(dirichlet(), n)

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
    _check_graph(form.graph, u)
    return float(batch_perturbed_energy(form, spec, u.values))


def batch_perturbed_energy(form: EnergyForm, spec: RobinSpec, values: np.ndarray) -> np.ndarray:
    """Perturbed energies of many functions at once; rows index samples."""
    _check_arity(form.graph, spec)
    total = batch_energy(form, values)
    for b, idx in zip(spec.functionals, form.graph.boundary):
        total = total + b(values[..., idx])
    return total
