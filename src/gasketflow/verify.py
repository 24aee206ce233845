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
from fractions import Fraction

import numpy as np

from .energy import EnergyForm, batch_energy
from .errors import ConfigError
from .flow import FlowConfig, evolve
from .gasket import VertexFunction, build_level
from .measure import MeasureWeights, vertex_measure
from .robin import (
    BoxIndicator,
    DirichletIndicator,
    PiecewiseLinearQuadratic,
    Power,
    RobinSpec,
    Zero,
    batch_perturbed_energy,
    perturbed_energy,
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
# scalar inequalities


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


def check_scalar_inequalities(cfg: SampleConfig) -> list[CheckReport]:
    """Sampled check of the two scalar inequalities behind the flow theory.

    Clamp contraction: replacing (a_i, b_i) by the pair clamped between the
    midpoints (a_i+b_i -+ alpha)/2 does not increase the sum of squared
    differences.  Envelope domination: for b_i >= 0, the pair
    (min(|a_i|, b_i) sgn a_i, max(|a_i|, b_i)) does not either.
    """
    rng = np.random.default_rng(cfg.seed)
    k = cfg.sample_count
    a1, a2, b1, b2 = rng.uniform(-1.0, 1.0, size=(4, k))
    alpha = rng.uniform(0.0, 2.0, size=k)
    alpha[alpha == 0.0] = 1e-9

    f1, s1 = _clamped_pair(a1, b1, alpha)
    f2, s2 = _clamped_pair(a2, b2, alpha)
    lhs = (f1 - f2) ** 2 + (s1 - s2) ** 2
    rhs = (a1 - a2) ** 2 + (b1 - b2) ** 2
    clamp = _report("scalar_clamp_contraction", _relative_slack(lhs, rhs), cfg.seed)

    nb1, nb2 = np.abs(b1), np.abs(b2)
    c1, d1 = _envelope_pair(a1, nb1)
    c2, d2 = _envelope_pair(a2, nb2)
    lhs = (c1 - c2) ** 2 + (d1 - d2) ** 2
    rhs = (a1 - a2) ** 2 + (nb1 - nb2) ** 2
    envelope = _report("scalar_envelope_domination", _relative_slack(lhs, rhs), cfg.seed)
    return [clamp, envelope]


# ---------------------------------------------------------------------------
# energy inequalities at a fixed level


def _sample_matrix(rng, count, width):
    return rng.uniform(-1.0, 1.0, size=(count, width))


def check_energy_inequalities(form: EnergyForm, cfg: SampleConfig) -> list[CheckReport]:
    """Level-m clamp-contraction and envelope-domination energy inequalities."""
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
    cycle = [Power(1.0, 2.0), Zero(), DirichletIndicator()]
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
    """Zero out boundary columns under pinned functionals for some samples
    so the finite branches of indicator kinds are exercised too."""
    out = values.copy()
    for b, idx in zip(spec.functionals, graph.boundary):
        if isinstance(b, DirichletIndicator):
            feasible = rng.random(values.shape[0]) < 0.5
            out[feasible, idx] = 0.0
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


def _exact_energy(form: EnergyForm, values: np.ndarray) -> Fraction:
    """Energy in exact rational arithmetic (floats are exact binary rationals)."""
    g = form.graph
    r = Fraction(g.n + 2, g.n) ** g.level
    total = Fraction(0)
    for a, b in zip(*(e.tolist() for e in g.edge_arrays)):
        d = Fraction(float(values[a])) - Fraction(float(values[b]))
        total += d * d
    return r * total


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

    The energy part is compared in exact rational arithmetic (zero
    tolerance); the boundary parts cancel exactly because at most one of
    the two summands is nonzero at each boundary vertex.  The float API is
    additionally required to agree to 1e-12 relative.
    """
    graph = form.graph
    rng = np.random.default_rng(cfg.seed)
    violations = 0
    worst = -INF
    for _ in range(cfg.sample_count):
        mask_a, mask_b = _subtree_masks(graph, rng)
        u = rng.uniform(-1.0, 1.0, graph.vertex_count) * mask_a
        v = rng.uniform(-1.0, 1.0, graph.vertex_count) * mask_b
        total = u + v
        exact_ok = _exact_energy(form, total) == _exact_energy(form, u) + _exact_energy(
            form, v
        )
        penalties_ok = True
        for b, idx in zip(spec.functionals, graph.boundary):
            lhs_b = float(b(float(total[idx])))
            rhs_b = float(b(float(u[idx]))) + float(b(float(v[idx])))
            if not (lhs_b == rhs_b or (math.isinf(lhs_b) and math.isinf(rhs_b))):
                penalties_ok = False
        lhs = perturbed_energy(form, spec, VertexFunction(graph, total))
        rhs = perturbed_energy(form, spec, VertexFunction(graph, u)) + perturbed_energy(
            form, spec, VertexFunction(graph, v)
        )
        if math.isinf(lhs) or math.isinf(rhs):
            float_slack = -INF if (math.isinf(lhs) and math.isinf(rhs)) else INF
        else:
            float_slack = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
        worst = max(worst, float_slack)
        if not (exact_ok and penalties_ok and float_slack <= REL_TOL):
            violations += 1
    label = f"locality[{name}]" if name else "locality"
    return CheckReport(label, cfg.sample_count, violations, worst, cfg.seed)


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

    properties: dict[str, list[float]] = defaultdict(list)
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
            runs = run(spec, u0, v0, np.abs(u0), u0 + gap, np.abs(u0) + gap)
            # |u0| <= |u0| + gap, so the sandwich compares these trajectories
            (s_neus,) = run(neumann, np.abs(u0) + gap)
            (s_dirs,) = run(dirichlet, u0)
            for su, sv, s_abs, s_above, s_dom, s_neu, s_dir in zip(*runs, s_neus, s_dirs):
                properties["positivity"].append(max(0.0, -float(s_abs.min())))
                properties["order_preservation"].append(float(np.max(su - s_above)))
                sup_d = np.max(np.abs(su - sv), axis=1)
                properties["sup_contraction"].append(float(np.max(np.diff(sup_d))))
                l2_d = np.sqrt(((su - sv) ** 2 * measure.masses).sum(axis=1))
                properties["l2_contraction"].append(float(np.max(np.diff(l2_d))))
                energies = batch_perturbed_energy(form, spec, su).tolist()
                decay = -INF
                for prev, nxt in zip(energies, energies[1:]):
                    if math.isfinite(prev):
                        decay = max(decay, nxt - prev)
                properties["energy_decay"].append(decay)

                properties["domination_by_neumann"].append(float(np.max(np.abs(su) - s_neu)))
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


def run_suite(name: str, seed: int = 0, sample_count: int | None = None) -> dict:
    """Run one named suite and return its JSON-ready report."""
    if name not in DEFAULT_SAMPLES:
        raise ValueError(f"unknown suite {name!r}")
    cfg = SampleConfig(seed, DEFAULT_SAMPLES[name] if sample_count is None else sample_count)
    if name == "scalar":
        reports = check_scalar_inequalities(cfg)
    elif name == "energy":
        reports = [
            report
            for m in (1, 2, 3)
            for report in check_energy_inequalities(
                EnergyForm(build_level(3, m)), SampleConfig(seed + m, cfg.sample_count)
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
