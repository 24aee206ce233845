"""Property-check harness for the finite-level inequalities and the flow.

Every check is a pure function of its configuration (seed included), emits
a small report, and never raises on a mathematical violation; violations
are counted and the worst relative slack is recorded.
"""

from __future__ import annotations

import math
import zlib
from collections import defaultdict
from dataclasses import asdict, dataclass

import numpy as np

from .energy import EnergyForm, batch_energy
from .errors import ConfigError
from .flow import FlowConfig, evolve
from .gasket import build_level
from .measure import MeasureWeights, vertex_measure
from .robin import (
    BoxIndicator,
    PiecewiseLinearQuadratic,
    Power,
    RobinSpec,
    batch_perturbed_energy,
    dirichlet,
    neumann,
)

INF = math.inf


@dataclass(frozen=True)
class SampleConfig:
    """Seed and sample count of one randomized check.

    Every check draws its values uniformly from [-1, 1).
    """

    seed: int = 0
    sample_count: int = 1000

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.sample_count < 1:
            raise ConfigError(f"sample count must be >= 1, got {self.sample_count}")


@dataclass
class CheckReport:
    property: str
    samples: int
    violations: int
    max_slack: float
    seed: int


REL_TOL = 1e-12


def _stable_hash(name: str) -> int:
    """Process-independent small hash for seeding per-case generators."""
    return zlib.crc32(name.encode("utf-8")) & 0xFFFF


def _relative_slack(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Signed slack of 'lhs <= rhs' scaled by the larger magnitude.

    Infinite right sides always pass (anything <= inf, including inf);
    an infinite left side against a finite right side is an infinite
    violation.
    """
    lhs, rhs = np.broadcast_arrays(
        np.asarray(lhs, dtype=np.float64), np.asarray(rhs, dtype=np.float64)
    )
    out = np.full(lhs.shape, -INF)
    finite = np.isfinite(lhs) & np.isfinite(rhs)
    scale = np.maximum(1.0, np.maximum(np.abs(lhs[finite]), np.abs(rhs[finite])))
    out[finite] = (lhs[finite] - rhs[finite]) / scale
    out[np.isinf(lhs) & (lhs > 0) & np.isfinite(rhs)] = INF
    return out


def _report(name: str, slack: np.ndarray, seed: int, tol: float = REL_TOL) -> CheckReport:
    slack = np.atleast_1d(slack)
    return CheckReport(
        property=name,
        samples=int(slack.size),
        violations=int(np.sum(slack > tol)),
        max_slack=float(np.max(slack)),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# the two lattice inequalities


def _clamped_pair(a, b, alpha):
    low = 0.5 * (a + b - alpha)
    high = 0.5 * (a + b + alpha)
    first = np.minimum(np.maximum(a, low), high)
    second = np.maximum(np.minimum(b, high), low)
    return first, second


def _envelope_pair(a, b):
    low = np.minimum(np.abs(a), b) * np.sign(a)
    high = np.maximum(np.abs(a), b)
    return low, high


def _sample_matrix(rng, count, width):
    return rng.uniform(-1.0, 1.0, size=(count, width))


def check_energy_inequalities(form: EnergyForm, cfg: SampleConfig) -> list[CheckReport]:
    """Sampled check of the two lattice inequalities behind the flow theory,
    for the level-m energy.

    Clamp contraction: replacing (u, v) by the pair clamped between the
    midpoints (u + v -+ alpha) / 2 does not increase energy(u) + energy(v).
    Envelope domination: for w >= 0, the pair (min(|u|, w) sgn u,
    max(|u|, w)) does not either.  On ``build_level(2, 0)`` (two vertices,
    one edge, renormalization 1) these are the scalar inequalities.
    """
    rng = np.random.default_rng(cfg.seed)
    k = cfg.sample_count
    nv = form.graph.vertex_count
    u = _sample_matrix(rng, k, nv)
    v = _sample_matrix(rng, k, nv)
    alpha = rng.uniform(0.0, 2.0, size=(k, 1))
    alpha[alpha == 0.0] = 1e-9

    first, second = _clamped_pair(u, v, alpha)
    lhs = batch_energy(form, first) + batch_energy(form, second)
    rhs = batch_energy(form, u) + batch_energy(form, v)
    tag = f"[n={form.graph.n},m={form.graph.level}]"
    clamp = _report(
        "energy_clamp_contraction" + tag, _relative_slack(lhs, rhs), cfg.seed
    )

    w = np.abs(v)
    low, high = _envelope_pair(u, w)
    lhs = batch_energy(form, low) + batch_energy(form, high)
    rhs = batch_energy(form, u) + batch_energy(form, w)
    envelope = _report(
        "energy_envelope_domination" + tag, _relative_slack(lhs, rhs), cfg.seed
    )
    return [clamp, envelope]


# ---------------------------------------------------------------------------
# perturbed-energy functional criteria


def builtin_specs(n: int) -> dict[str, RobinSpec]:
    """The canonical convex specs used across suites and tests."""
    cycle = [Power(1.0, 2.0), neumann(), dirichlet()]
    mixed = RobinSpec(tuple(cycle[i % 3] for i in range(n)))
    return {
        "neumann": RobinSpec.neumann(n),
        "dirichlet": RobinSpec.dirichlet(n),
        "quadratic": RobinSpec.uniform(Power(1.0, 2.0), n),
        "absolute_value": RobinSpec.uniform(Power(1.0, 1.0), n),
        "power": RobinSpec.uniform(Power(1.0, 3.0), n),
        "box": RobinSpec.uniform(BoxIndicator(-0.5, 0.75), n),
        "plq": RobinSpec.uniform(
            PiecewiseLinearQuadratic(0.5, ((0.5, 1.0),)), n
        ),
        "mixed": mixed,
    }


def _with_feasible_boundary(values: np.ndarray, spec: RobinSpec, graph, rng) -> np.ndarray:
    """Move the boundary values of about half the samples onto the domain
    of their functional, by its prox (for an indicator, the projection), so
    those samples have finite energy and the finite branches of indicator
    kinds are exercised too."""
    out = values.copy()
    feasible = np.flatnonzero(rng.random(values.shape[0]) < 0.5)
    for b, idx in zip(spec.functionals, graph.boundary):
        column = out[feasible, idx]
        outside = np.isinf(b(column))
        column[outside] = b.prox(1.0, column[outside])
        out[feasible, idx] = column
    return out


def check_perturbed_criteria(form: EnergyForm, cfg: SampleConfig) -> list[CheckReport]:
    """Functional criteria behind order preservation, positivity, sup-norm
    contraction and domination, checked directly on sampled pairs of every
    built-in spec.  The Dirichlet spec dominates each of them, so each gets
    an envelope check against it."""
    reports = []
    graph = form.graph
    nv = graph.vertex_count
    dirichlet = RobinSpec.dirichlet(graph.n)
    for name, spec in sorted(builtin_specs(graph.n).items()):
        rng = np.random.default_rng((cfg.seed, _stable_hash(name)))
        k = cfg.sample_count
        u = _with_feasible_boundary(_sample_matrix(rng, k, nv), spec, graph, rng)
        v = _with_feasible_boundary(_sample_matrix(rng, k, nv), spec, graph, rng)

        wb_u = batch_perturbed_energy(form, spec, u)
        wb_v = batch_perturbed_energy(form, spec, v)
        lhs = batch_perturbed_energy(form, spec, np.minimum(u, v)) + batch_perturbed_energy(
            form, spec, np.maximum(u, v)
        )
        reports.append(
            _report(f"submodularity[{name}]", _relative_slack(lhs, wb_u + wb_v), cfg.seed)
        )

        lhs = batch_perturbed_energy(form, spec, np.maximum(u, 0.0))
        reports.append(
            _report(f"positive_part[{name}]", _relative_slack(lhs, wb_u), cfg.seed)
        )

        alpha = rng.uniform(0.0, 2.0, size=(k, 1))
        alpha[alpha == 0.0] = 1e-9
        first, second = _clamped_pair(u, v, alpha)
        lhs = batch_perturbed_energy(form, spec, first) + batch_perturbed_energy(
            form, spec, second
        )
        reports.append(
            _report(f"sup_clamp[{name}]", _relative_slack(lhs, wb_u + wb_v), cfg.seed)
        )

        w = np.abs(v)
        u_feas = u.copy()
        u_feas[:, list(graph.boundary)] = 0.0  # inside the pinned domain
        low, high = _envelope_pair(u_feas, w)
        lhs = batch_perturbed_energy(form, dirichlet, low) + batch_perturbed_energy(
            form, spec, high
        )
        rhs = batch_perturbed_energy(form, dirichlet, u_feas) + batch_perturbed_energy(
            form, spec, w
        )
        reports.append(
            _report(
                f"envelope_domination[dirichlet|{name}]",
                _relative_slack(lhs, rhs),
                cfg.seed,
            )
        )
    return reports


# ---------------------------------------------------------------------------
# locality


def _subtree_masks(graph, rng) -> tuple[np.ndarray, np.ndarray]:
    """Characteristic vectors of two cell families with no joining edge.

    Two distinct word prefixes select two subtrees; a vertex belongs to a
    family only if every cell containing it lies in that family, so no
    shared corner and no edge can cross between the supports.
    """
    depth = 1 if graph.level < 2 else int(rng.integers(1, 3))
    prefixes = set()
    while len(prefixes) < 2:
        prefixes.add(tuple(rng.integers(0, graph.n, size=depth).tolist()))
    if depth > graph.level:  # no cell word is that long: both families are empty
        empty = np.zeros(graph.vertex_count, dtype=bool)
        return empty, empty
    # entry k of the flattened corners belongs to cell k // n, whose word
    # starts with the word of its level-depth ancestor, cell k // n**(m-depth+1)
    prefix = np.arange(graph.cell_corners.size) // graph.n ** (graph.level - depth + 1)
    corners = graph.cell_corners.ravel()
    masks = []
    for word in sorted(prefixes):
        outside = prefix != np.ravel_multi_index(word, (graph.n,) * depth)
        masks.append(np.bincount(corners, weights=outside, minlength=graph.vertex_count) == 0)
    return masks[0], masks[1]


def check_locality(
    form: EnergyForm, spec: RobinSpec, cfg: SampleConfig, name: str = ""
) -> CheckReport:
    """Additivity of the perturbed energy on disjointly supported pairs.

    Each sample draws two cell families with ``_subtree_masks`` and then u
    on the first and v on the second; the checks reduce the stacked draws.
    The exact part is decided on the supports: no vertex has u != 0 and
    v != 0, and no edge has u != 0 at one end and v != 0 at the other.
    That is never looser than comparing the energies in exact rational
    arithmetic: with disjoint supports u + v is exact in floats; the
    identity sum (Du + Dv)^2 = sum Du^2 + sum Dv^2 fails only if
    sum Du Dv != 0, which needs an edge where both differences are
    nonzero, a joining edge; and every penalty has B(0) = 0, so it is
    additive wherever one of u, v is 0 at its vertex.  The float part
    requires the perturbed energies to agree to 1e-12 relative; a pair
    that fails the exact part has slack inf.
    """
    graph = form.graph
    rng = np.random.default_rng(cfg.seed)
    u = np.empty((cfg.sample_count, graph.vertex_count))
    v = np.empty_like(u)
    for k in range(cfg.sample_count):
        mask_a, mask_b = _subtree_masks(graph, rng)
        u[k] = rng.uniform(-1.0, 1.0, graph.vertex_count) * mask_a
        v[k] = rng.uniform(-1.0, 1.0, graph.vertex_count) * mask_b
    on_u, on_v = u != 0.0, v != 0.0
    ei, ej = graph.edge_arrays
    joined = (on_u & on_v).any(axis=1) | (
        (on_u[:, ei] & on_v[:, ej]) | (on_v[:, ei] & on_u[:, ej])
    ).any(axis=1)
    lhs = batch_perturbed_energy(form, spec, u + v)
    rhs = batch_perturbed_energy(form, spec, u) + batch_perturbed_energy(form, spec, v)
    slack = np.maximum(_relative_slack(lhs, rhs), _relative_slack(rhs, lhs))
    slack[joined] = INF
    return _report(f"locality[{name}]" if name else "locality", slack, cfg.seed)


# ---------------------------------------------------------------------------
# flow properties


#: pairs per ensemble in ``check_flow_properties``: bounds its memory,
#: whatever the sample count
FLOW_PAIRS_PER_ENSEMBLE = 256


def check_flow_properties(cfg: SampleConfig) -> list[CheckReport]:
    """Trajectory-level invariants: positivity, order preservation, sup and
    weighted-L2 contraction, energy decay, Neumann mean conservation, and
    the domination sandwich between the Neumann and pinned-boundary flows.

    Runs ``cfg.sample_count`` pairs of initial data for every builtin spec
    on level 2 of the 3-point gasket with the uniform measure, tau = 0.1,
    t_end = 0.5 and tol = 1e-9; a property is violated above 10 * tol.

    Pair ``j`` of spec ``name`` draws u0, v0 and gap from the generator
    seeded with (seed, hash of name, j).  The trajectories run as
    ensembles of up to ``FLOW_PAIRS_PER_ENSEMBLE`` pairs, each member
    equal bit for bit to its run alone: one ensemble of u0, v0, |u0|,
    u0 + gap and |u0| + gap under the spec, one Neumann ensemble from
    |u0| + gap and one Dirichlet ensemble from u0.
    """
    graph = build_level(3, 2)
    form = EnergyForm(graph)
    measure = vertex_measure(graph, MeasureWeights.uniform(3))
    config = FlowConfig(tau=0.1, t_end=0.5, tol=1e-9)
    neumann, dirichlet = RobinSpec.neumann(3), RobinSpec.dirichlet(3)

    def run(spec, *initial):
        """The trajectories from the rows of the (k, V) ``initial``, split
        back into one (k, steps + 1, V) stack per argument."""
        ensemble = evolve(form, measure, spec, np.concatenate(initial), config)
        return np.split(ensemble.values, len(initial))

    properties: dict[str, list[np.ndarray]] = defaultdict(list)
    for name, spec in sorted(builtin_specs(3).items()):
        for start in range(0, cfg.sample_count, FLOW_PAIRS_PER_ENSEMBLE):
            stop = min(start + FLOW_PAIRS_PER_ENSEMBLE, cfg.sample_count)
            pairs = [
                np.random.default_rng((cfg.seed, _stable_hash(name), pair)).uniform(
                    -1.0, 1.0, (3, graph.vertex_count)
                )
                for pair in range(start, stop)
            ]
            u0, v0, gap = np.stack(pairs, axis=1)
            gap = np.abs(gap)
            dominating = np.abs(u0) + gap  # >= |u0|: the sandwich compares these trajectories
            su, sv, s_abs, s_above, s_dom = run(spec, u0, v0, np.abs(u0), u0 + gap, dominating)
            (s_neu,) = run(neumann, dominating)
            (s_dir,) = run(dirichlet, u0)
            # each property reduces the (pairs, steps + 1, V) stacks to one
            # value per pair; positivity is max(0, -lowest), +0.0 where lowest
            # is a zero of either sign, which np.maximum does not promise
            lowest = s_abs.min(axis=(1, 2))
            l2_d = np.sqrt(((su - sv) ** 2 * measure.masses).sum(axis=2))
            energies = batch_perturbed_energy(form, spec, su)
            with np.errstate(invalid="ignore"):  # inf - inf: masked, as is every infinite start
                rises = np.diff(energies, axis=1)
            found = {
                "positivity": np.where(lowest < 0.0, -lowest, 0.0),
                "order_preservation": (su - s_above).max(axis=(1, 2)),
                "sup_contraction": np.diff(np.abs(su - sv).max(axis=2), axis=1).max(axis=1),
                "l2_contraction": np.diff(l2_d, axis=1).max(axis=1),
                "energy_decay": np.where(np.isfinite(energies[:, :-1]), rises, -INF).max(axis=1),
                "domination_by_neumann": (np.abs(su) - s_neu).max(axis=(1, 2)),
                "domination_of_dirichlet": (np.abs(s_dir) - s_dom).max(axis=(1, 2)),
            }
            if name == "neumann":
                means = (su * measure.masses).sum(axis=2)
                found["mean_conservation"] = np.abs(means - means[:, :1]).max(axis=1)
            for key, values in found.items():
                properties[key].append(values)

    return [
        _report(key, np.concatenate(properties[key]), cfg.seed, 10.0 * config.tol)
        for key in sorted(properties)
    ]


# ---------------------------------------------------------------------------
# suites


DEFAULT_SAMPLES = {
    "scalar": 100_000,
    "energy": 1000,
    "perturbed": 1000,
    "locality": 100,
    "flow": 3,
}
SUITE_NAMES = tuple(DEFAULT_SAMPLES)
#: (N, levels) of the suites that run ``check_energy_inequalities``, level
#: m with seed ``seed + m``; the scalar suite is the two-point gasket at 0
ENERGY_LEVELS = {"scalar": (2, (0,)), "energy": (3, (1, 2, 3))}


def run_suite(name: str, seed: int = 0, sample_count: int | None = None) -> dict:
    """Run one named suite and return its JSON-ready report."""
    if name not in DEFAULT_SAMPLES:
        raise ValueError(f"unknown suite {name!r}")
    cfg = SampleConfig(seed, DEFAULT_SAMPLES[name] if sample_count is None else sample_count)
    if name in ENERGY_LEVELS:
        n, levels = ENERGY_LEVELS[name]
        reports = [
            report
            for m in levels
            for report in check_energy_inequalities(
                EnergyForm(build_level(n, m)), SampleConfig(seed + m, cfg.sample_count)
            )
        ]
    elif name == "perturbed":
        reports = check_perturbed_criteria(EnergyForm(build_level(3, 2)), cfg)
    elif name == "locality":
        form = EnergyForm(build_level(3, 2))
        reports = [
            check_locality(form, builtin_specs(3)[spec_name], cfg, spec_name)
            for spec_name in ("neumann", "dirichlet", "quadratic", "mixed")
        ]
    else:
        reports = check_flow_properties(cfg)
    return {
        "suite": name,
        "seed": seed,
        "reports": [asdict(r) for r in reports],
        "violations": int(sum(r.violations for r in reports)),
    }
