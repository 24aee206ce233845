"""Boundary penalty functionals and the perturbed energy.

A boundary functional B maps the reals to [0, inf], vanishes at 0, and is
decreasing on the negative axis and increasing on the positive axis.  One
functional per boundary vertex turns the plain energy into

    perturbed_energy(u) = energy(u) + sum_i B_i(u(p_i)),

which encodes Neumann (B = 0), Dirichlet (B = indicator of {0}) and general
Robin-type conditions variationally.  Every built-in kind is convex and
comes with a closed-form (or one scalar root-find) proximal map, which is
what the implicit Euler flow consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import DomainMismatchError, UnsupportedOperationError
from .energy import EnergyForm, batch_energy, energy
from .gasket import VertexFunction

INF = math.inf


class BoundaryFunctional:
    """Base interface; subclasses are immutable value types."""

    kind = "abstract"

    @property
    def convex(self) -> bool:
        return True

    def __call__(self, s):
        """Evaluate at a scalar or an ndarray; values lie in [0, inf]."""
        raise NotImplementedError

    def prox(self, lam: float, s: float) -> float:
        """Unique minimizer of B(t) + (t - s)^2 / (2 lam) for convex B."""
        if not self.convex:
            raise UnsupportedOperationError(
                f"proximal map needs a convex functional, {self.kind} is not"
            )
        if lam <= 0:
            raise ValueError(f"lam must be positive, got {lam}")
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

    def to_json_dict(self) -> dict:
        raise NotImplementedError

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in sorted(self.to_json_dict().items()) if k != "kind")
        return f"{type(self).__name__}({params})"


@dataclass(frozen=True, repr=False)
class Zero(BoundaryFunctional):
    """No penalty; the Neumann case."""

    kind = "zero"

    def __call__(self, s):
        return np.zeros_like(np.asarray(s, dtype=np.float64)) if np.ndim(s) else 0.0

    def _prox(self, lam, s):
        return s

    def subdifferential(self, s):
        return (0.0, 0.0)

    def to_json_dict(self):
        return {"kind": "zero"}


@dataclass(frozen=True, repr=False)
class DirichletIndicator(BoundaryFunctional):
    """Indicator of {0}: zero at the origin, infinite elsewhere."""

    kind = "dirichlet"

    def __call__(self, s):
        if np.ndim(s):
            s = np.asarray(s, dtype=np.float64)
            return np.where(s == 0.0, 0.0, INF)
        return 0.0 if s == 0.0 else INF

    def _prox(self, lam, s):
        return 0.0

    def subdifferential(self, s):
        return (-INF, INF) if s == 0.0 else None

    def to_json_dict(self):
        return {"kind": "dirichlet"}


@dataclass(frozen=True, repr=False)
class Quadratic(BoundaryFunctional):
    """B(s) = beta * s^2 / 2, the classical linear Robin damping."""

    beta: float

    kind = "quadratic"

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be finite and positive, got {self.beta}")

    def __call__(self, s):
        s = np.asarray(s, dtype=np.float64) if np.ndim(s) else s
        return 0.5 * self.beta * s * s

    def _prox(self, lam, s):
        return s / (1.0 + lam * self.beta)

    def subdifferential(self, s):
        g = self.beta * s
        return (g, g)

    def to_json_dict(self):
        return {"kind": "quadratic", "beta": self.beta}


@dataclass(frozen=True, repr=False)
class AbsoluteValue(BoundaryFunctional):
    """B(s) = beta * |s|; proximal map is the soft threshold."""

    beta: float

    kind = "absolute_value"

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be finite and positive, got {self.beta}")

    def __call__(self, s):
        return self.beta * np.abs(s) if np.ndim(s) else self.beta * abs(s)

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

    def to_json_dict(self):
        return {"kind": "absolute_value", "beta": self.beta}


@dataclass(frozen=True, repr=False)
class Power(BoundaryFunctional):
    """B(s) = beta * |s|^p / p for p >= 1.

    Interpolates the absolute-value (p = 1) and quadratic (p = 2) kinds.
    """

    beta: float
    p: float

    kind = "power"

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be finite and positive, got {self.beta}")
        if not (math.isfinite(self.p) and self.p >= 1):
            raise ValueError(f"p must be finite and >= 1, got {self.p}")

    def __call__(self, s):
        a = np.abs(s) if np.ndim(s) else abs(s)
        return self.beta * a**self.p / self.p

    def _prox(self, lam, s):
        p = self.p
        if p == 1.0:
            return AbsoluteValue(self.beta)._prox(lam, s)
        if p == 2.0:
            return s / (1.0 + lam * self.beta)
        x = abs(s)
        if x == 0.0:
            return 0.0
        # rho + lam*beta*rho^(p-1) = x has a unique root in [0, x]
        fn = lambda rho: rho + lam * self.beta * rho ** (p - 1.0) - x
        rho = brentq(fn, 0.0, x, xtol=1e-15, rtol=8.9e-16, maxiter=200)
        return math.copysign(rho, s)

    def subdifferential(self, s):
        if self.p == 1.0:
            return AbsoluteValue(self.beta).subdifferential(s)
        if s == 0.0:
            return (0.0, 0.0)
        g = self.beta * abs(s) ** (self.p - 1.0) * math.copysign(1.0, s)
        return (g, g)

    def to_json_dict(self):
        return {"kind": "power", "beta": self.beta, "p": self.p}


@dataclass(frozen=True, repr=False)
class BoxIndicator(BoundaryFunctional):
    """Indicator of [lower, upper] with lower <= 0 <= upper."""

    lower: float
    upper: float

    kind = "box"

    def __post_init__(self):
        if not (self.lower <= 0.0 <= self.upper):
            raise ValueError(
                f"box must contain 0, got [{self.lower}, {self.upper}]"
            )

    def __call__(self, s):
        if np.ndim(s):
            s = np.asarray(s, dtype=np.float64)
            return np.where((s >= self.lower) & (s <= self.upper), 0.0, INF)
        return 0.0 if self.lower <= s <= self.upper else INF

    def _prox(self, lam, s):
        return min(max(s, self.lower), self.upper)

    def subdifferential(self, s):
        if s < self.lower or s > self.upper:
            return None
        lo = -INF if s == self.lower else 0.0
        hi = INF if s == self.upper else 0.0
        return (lo, hi)

    def to_json_dict(self):
        return {"kind": "box", "lower": self.lower, "upper": self.upper}


@dataclass(frozen=True, repr=False)
class PiecewiseLinearQuadratic(BoundaryFunctional):
    """B(s) = kappa*s^2/2 + sum_j w_j * max(|s| - d_j, 0).

    ``breakpoints`` is a tuple of (d_j, w_j) pairs with d_j >= 0 and
    w_j > 0; the kink positions are the d_j.  Convex, even, normalised.
    """

    kappa: float
    breakpoints: tuple[tuple[float, float], ...]

    kind = "plq"

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
        a = np.abs(np.asarray(s, dtype=np.float64)) if np.ndim(s) else abs(s)
        total = 0.5 * self.kappa * a * a
        for d, w in self.breakpoints:
            total = total + w * np.maximum(a - d, 0.0)
        return total

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

    def to_json_dict(self):
        return {
            "kind": "plq",
            "kappa": self.kappa,
            "breakpoints": [[d, w] for d, w in self.breakpoints],
        }


_KIND_ALIASES = {
    "zero": "zero",
    "neumann": "zero",
    "dirichlet": "dirichlet",
    "quadratic": "quadratic",
    "absolute_value": "absolute_value",
    "abs": "absolute_value",
    "power": "power",
    "box": "box",
    "plq": "plq",
    "piecewise_linear_quadratic": "plq",
}


def functional_from_json(obj) -> BoundaryFunctional:
    """Parse one boundary functional from its JSON form.

    Accepts either a bare string ("neumann", "dirichlet", ...) or a dict
    with a "kind" key plus kind-specific parameters.
    """
    if isinstance(obj, str):
        obj = {"kind": obj}
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError(f"boundary functional must be a kind string or dict, got {obj!r}")
    kind = _KIND_ALIASES.get(str(obj["kind"]).lower())
    if kind is None:
        raise ValueError(f"unknown boundary functional kind {obj['kind']!r}")
    params = {k: v for k, v in obj.items() if k != "kind"}
    try:
        if kind == "zero":
            return Zero(**params)
        if kind == "dirichlet":
            return DirichletIndicator(**params)
        if kind == "quadratic":
            return Quadratic(**params)
        if kind == "absolute_value":
            return AbsoluteValue(**params)
        if kind == "power":
            return Power(**params)
        if kind == "box":
            return BoxIndicator(**params)
        if kind == "plq":
            bps = tuple((float(d), float(w)) for d, w in params.pop("breakpoints", ()))
            return PiecewiseLinearQuadratic(breakpoints=bps, **params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for kind {kind!r}: {exc}") from exc
    raise AssertionError(kind)


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

    @property
    def convex(self) -> bool:
        return all(b.convex for b in self.functionals)

    def __iter__(self):
        return iter(self.functionals)

    def __getitem__(self, i):
        return self.functionals[i]

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

    def to_json_list(self) -> list:
        return [b.to_json_dict() for b in self.functionals]


def perturbed_energy(form: EnergyForm, spec: RobinSpec, u: VertexFunction) -> float:
    """energy(u) plus the boundary penalties; infinity propagates."""
    if spec.n != form.graph.n:
        raise DomainMismatchError(
            f"spec has {spec.n} functionals, graph has n={form.graph.n}"
        )
    total = energy(form, u)
    for b, idx in zip(spec.functionals, form.graph.boundary):
        total += float(b(float(u.values[idx])))
        if total == INF:
            return INF
    return total


def batch_perturbed_energy(form: EnergyForm, spec: RobinSpec, values: np.ndarray) -> np.ndarray:
    """Vectorized perturbed energy over rows of ``values``."""
    if spec.n != form.graph.n:
        raise DomainMismatchError("spec length does not match the graph")
    total = batch_energy(form, values)
    for b, idx in zip(spec.functionals, form.graph.boundary):
        total = total + b(values[..., idx])
    return total


def extended_difference(a: float, b: float) -> float:
    """a - b on [0, inf] with the convention inf - inf = inf.

    Only used when checking bi-monotonicity of differences of boundary
    functionals; ordinary arithmetic applies everywhere else.
    """
    if a == INF:
        return INF
    if b == INF:
        return -INF
    return a - b


def default_check_grid(radius: float = 10.0, points: int = 41) -> np.ndarray:
    """Symmetric grid around 0 with geometric spacing, including 0 itself."""
    mags = np.geomspace(1e-6, radius, points)
    return np.concatenate([-mags[::-1], [0.0], mags])


def is_bimonotone(values: np.ndarray, grid: np.ndarray, slack: float = 1e-12) -> bool:
    """Decreasing left of 0 and increasing right of 0, up to relative slack."""
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


def dominates_condition(
    bhat: RobinSpec, b: RobinSpec, grid: np.ndarray | None = None
) -> bool:
    """Grid check that s -> Bhat_i(s) - B_i(|s|) is bi-monotone for every i.

    This is the sufficient condition under which the flow generated by the
    Bhat-perturbed energy is dominated by the flow of the B-perturbed one.
    """
    if bhat.n != b.n:
        raise DomainMismatchError("specs have different lengths")
    if grid is None:
        grid = default_check_grid()
    for bh, bb in zip(bhat.functionals, b.functionals):
        diffs = np.array(
            [extended_difference(float(bh(s)), float(bb(abs(s)))) for s in grid]
        )
        if not is_bimonotone(diffs, grid):
            return False
    return True


def totally_dominates_condition(
    bhat: RobinSpec, b: RobinSpec, grid: np.ndarray | None = None
) -> bool:
    """Grid check for the two-sided (total) domination condition."""
    if grid is None:
        grid = default_check_grid()
    if not dominates_condition(bhat, b, grid):
        return False
    for bh, bb in zip(bhat.functionals, b.functionals):
        diffs = np.array(
            [extended_difference(float(bh(s)), float(bb(-abs(s)))) for s in grid]
        )
        if not is_bimonotone(diffs, grid):
            return False
    return True
