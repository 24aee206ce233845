import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasketflow import (
    AbsoluteValue,
    BoxIndicator,
    DirichletIndicator,
    DomainMismatchError,
    EnergyForm,
    PiecewiseLinearQuadratic,
    Power,
    Quadratic,
    RobinSpec,
    VertexFunction,
    Zero,
    build_level,
    dominates_condition,
    energy,
    functional_from_json,
    inner,
    perturbed_energy,
    totally_dominates_condition,
)
from gasketflow.robin import default_check_grid, extended_difference, is_bimonotone

from oracles import bimonotone_oracle, power_prox_oracle, prox_oracle

INF = math.inf

ALL_KINDS = [
    Zero(),
    DirichletIndicator(),
    Quadratic(2.0),
    AbsoluteValue(1.5),
    Power(1.0, 3.0),
    Power(0.7, 1.5),
    BoxIndicator(-0.5, 0.75),
    PiecewiseLinearQuadratic(0.5, ((0.5, 1.0), (1.5, 2.0))),
    PiecewiseLinearQuadratic(0.0, ((0.0, 1.0),)),  # pure soft threshold
]

FINITE_KINDS = [b for b in ALL_KINDS if not isinstance(b, (DirichletIndicator, BoxIndicator))]


def kind_id(b) -> str:
    """Test id of a functional: its fields in name order, pairs as JSON
    lists, which keeps the ids of the hand-written reprs of earlier versions."""
    fields = sorted(json.loads(json.dumps(vars(b))).items())
    return f"{type(b).__name__}({', '.join(f'{k}={v!r}' for k, v in fields)})"


# ---------------------------------------------------------------------------
# evaluation


def test_eval_examples():
    assert Zero()(123.4) == 0.0
    assert DirichletIndicator()(0.0) == 0.0
    assert DirichletIndicator()(1.0) == INF
    assert Quadratic(2.0)(3.0) == pytest.approx(9.0, abs=1e-15)
    assert AbsoluteValue(1.5)(-2.0) == pytest.approx(3.0)
    assert Power(2.0, 2.0)(3.0) == pytest.approx(Quadratic(2.0)(3.0))
    assert Power(1.5, 1.0)(-2.0) == pytest.approx(AbsoluteValue(1.5)(-2.0))
    assert BoxIndicator(-1.0, 2.0)(1.5) == 0.0
    assert BoxIndicator(-1.0, 2.0)(2.5) == INF
    plq = PiecewiseLinearQuadratic(1.0, ((1.0, 2.0),))
    assert plq(0.5) == pytest.approx(0.125)
    assert plq(2.0) == pytest.approx(2.0 + 2.0)


@pytest.mark.parametrize("b", ALL_KINDS, ids=kind_id)
def test_normalised_and_nonnegative(b):
    assert b(0.0) == 0.0
    grid = default_check_grid()
    values = np.array([float(b(s)) for s in grid])
    assert np.all(values >= 0.0)


@pytest.mark.parametrize("b", ALL_KINDS, ids=kind_id)
def test_bimonotone_by_sampling(b):
    grid = default_check_grid()
    values = np.array([float(b(s)) for s in grid])
    assert is_bimonotone(values, grid)


def test_vectorized_eval_matches_scalar():
    grid = np.linspace(-2, 2, 41)
    for b in ALL_KINDS:
        vec = np.asarray(b(grid), dtype=np.float64)
        scal = np.array([float(b(s)) for s in grid])
        np.testing.assert_array_equal(vec, scal)


def test_parameter_validation():
    with pytest.raises(ValueError):
        Quadratic(0.0)
    with pytest.raises(ValueError):
        AbsoluteValue(-1.0)
    with pytest.raises(ValueError):
        Power(1.0, 0.5)
    with pytest.raises(ValueError):
        BoxIndicator(0.5, 1.0)  # must contain 0
    with pytest.raises(ValueError):
        PiecewiseLinearQuadratic(-0.1, ((1.0, 1.0),))
    with pytest.raises(ValueError):
        PiecewiseLinearQuadratic(0.0, ())
    nan = float("nan")
    for bad in (
        lambda: Quadratic(nan),
        lambda: AbsoluteValue(nan),
        lambda: Power(nan, 2.0),
        lambda: Power(1.0, nan),
        lambda: Power(1.0, float("inf")),
        lambda: PiecewiseLinearQuadratic(nan, ((1.0, 1.0),)),
        lambda: PiecewiseLinearQuadratic(1.0, ((nan, 1.0),)),
        lambda: PiecewiseLinearQuadratic(1.0, ((1.0, nan),)),
    ):
        with pytest.raises(ValueError):
            bad()


# ---------------------------------------------------------------------------
# proximal maps


def test_prox_examples():
    assert Zero().prox(0.3, 5.0) == 5.0
    assert DirichletIndicator().prox(1.0, 5.0) == 0.0
    assert Quadratic(1.0).prox(1.0, 4.0) == pytest.approx(2.0, abs=1e-15)
    assert AbsoluteValue(2.0).prox(0.5, 3.0) == pytest.approx(2.0)
    assert AbsoluteValue(2.0).prox(0.5, 0.5) == 0.0
    assert BoxIndicator(-1.0, 1.0).prox(0.2, 7.0) == 1.0


@pytest.mark.parametrize("b", ALL_KINDS, ids=kind_id)
def test_prox_against_scalar_minimization(b):
    rng = np.random.default_rng(5)
    for _ in range(25):
        lam = float(rng.uniform(0.05, 3.0))
        s = float(rng.uniform(-4.0, 4.0))
        got = b.prox(lam, s)
        want = prox_oracle(b, lam, s)
        assert got == pytest.approx(want, abs=5e-6)


@pytest.mark.parametrize("b", ALL_KINDS, ids=kind_id)
def test_prox_optimality_by_sampling(b):
    rng = np.random.default_rng(6)
    for _ in range(20):
        lam = float(rng.uniform(0.05, 3.0))
        s = float(rng.uniform(-4.0, 4.0))
        t = b.prox(lam, s)
        obj = float(b(t)) + (t - s) ** 2 / (2 * lam)
        assert math.isfinite(obj)
        for x in np.linspace(-5, 5, 101):
            other = float(b(x)) + (x - s) ** 2 / (2 * lam)
            assert obj <= other + 1e-9


@pytest.mark.parametrize("b", ALL_KINDS, ids=kind_id)
@settings(max_examples=60, deadline=None)
@given(
    s1=st.floats(-10, 10),
    s2=st.floats(-10, 10),
    lam=st.floats(0.01, 5.0),
)
def test_prox_is_nonexpansive(b, s1, s2, lam):
    t1, t2 = b.prox(lam, s1), b.prox(lam, s2)
    assert abs(t1 - t2) <= abs(s1 - s2) + 1e-12


@settings(max_examples=400, deadline=None)
@given(
    p=st.one_of(st.sampled_from([1.0, 2.0, 3.0]), st.floats(1.0, 6.0)),
    log_lam=st.floats(-3.0, 3.0),
    log_beta=st.floats(-3.0, 3.0),
    log_x=st.floats(-300.0, 6.0),
    negative=st.booleans(),
)
def test_power_prox_root_sign_and_minimality(p, log_lam, log_beta, log_x, negative):
    lam, beta, x = 10.0**log_lam, 10.0**log_beta, 10.0**log_x
    s = -x if negative else x
    b = Power(beta, p)
    got = b.prox(lam, s)
    rho, c, q = abs(got), lam * beta, p - 1.0

    # the sign of s is kept, and the map is odd
    assert rho <= x
    assert got == 0.0 or math.copysign(1.0, got) == math.copysign(1.0, s)
    assert b.prox(lam, -s) == -got

    # rho + c*rho^q = x, solved to a few ulp relative to rho: f changes sign
    # within 16 ulp of rho, widened by the root's condition number
    # 1/min(1, q) (for q < 1 the rounding of f itself is that large)
    if q == 0.0:
        assert rho == max(x - c, 0.0)
    else:
        delta = 16 * math.ulp(rho) / min(1.0, q)
        f = lambda r: r + c * r**q - x
        assert f(rho + delta) >= 0.0
        assert rho - delta <= 0.0 or f(rho - delta) <= 0.0

    # and it minimizes B(t) + (t - s)^2 / (2 lam), by generic search
    phi, w, u = power_prox_oracle(b, lam, s)
    if u == 0.0:
        assert got == 0.0
    else:
        assert abs(rho / u - w) <= 5e-6
        assert phi(rho / u) <= phi(w) + 4 * math.ulp(1.0)


@pytest.mark.parametrize("b", ALL_KINDS, ids=kind_id)
def test_prox_fixed_point_has_zero_residual(b):
    # (s - t)/lam must be a subgradient at t = prox(lam, s)
    rng = np.random.default_rng(7)
    for _ in range(20):
        lam = float(rng.uniform(0.05, 3.0))
        s = float(rng.uniform(-4.0, 4.0))
        t = b.prox(lam, s)
        assert b.subdiff_distance(t, (s - t) / lam) <= 1e-9


@pytest.mark.parametrize("b", ALL_KINDS, ids=kind_id)
def test_prox_rejects_bad_lam(b):
    for lam in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            b.prox(lam, 1.0)


def test_subdiff_distance_infeasible_point():
    assert DirichletIndicator().subdiff_distance(1.0, 0.0) == INF
    assert BoxIndicator(-1.0, 1.0).subdiff_distance(2.0, 0.0) == INF


# ---------------------------------------------------------------------------
# spec parsing


def test_spec_json_roundtrip():
    text = """[
        {"kind": "quadratic", "beta": 2.0},
        "zero",
        {"kind": "plq", "kappa": 0.5, "breakpoints": [[0.5, 1.0]]},
        {"kind": "plq", "kappa": 1.5}
    ]"""
    expected = RobinSpec(
        (
            Quadratic(2.0),
            Zero(),
            PiecewiseLinearQuadratic(0.5, ((0.5, 1.0),)),
            PiecewiseLinearQuadratic(1.5),
        )
    )
    assert RobinSpec.from_json(json.loads(text)) == expected


def test_spec_aliases():
    spec = RobinSpec.from_json(["neumann", {"kind": "dirichlet"}, {"kind": "abs", "beta": 1.0}])
    assert isinstance(spec.functionals[0], Zero)
    assert isinstance(spec.functionals[1], DirichletIndicator)
    assert isinstance(spec.functionals[2], AbsoluteValue)


def test_spec_parse_errors():
    with pytest.raises(ValueError):
        functional_from_json({"kind": "nope"})
    with pytest.raises(ValueError):
        functional_from_json({"kind": "quadratic"})  # missing beta
    with pytest.raises(ValueError):
        functional_from_json(42)
    with pytest.raises(ValueError):
        RobinSpec.from_json({"kind": "zero"})


# ---------------------------------------------------------------------------
# perturbed energy


def _setup(m=2):
    g = build_level(3, m)
    return g, EnergyForm(g)


def test_neumann_spec_reduces_to_energy():
    g, form = _setup()
    rng = np.random.default_rng(0)
    u = VertexFunction(g, rng.uniform(-1, 1, g.vertex_count))
    assert perturbed_energy(form, RobinSpec.neumann(3), u) == energy(form, u)


def test_dirichlet_spec_on_feasible_function():
    g, form = _setup()
    rng = np.random.default_rng(1)
    vals = rng.uniform(-1, 1, g.vertex_count)
    vals[list(g.boundary)] = 0.0
    u = VertexFunction(g, vals)
    assert perturbed_energy(form, RobinSpec.dirichlet(3), u) == energy(form, u)


def test_dirichlet_spec_on_constant_is_infinite():
    g, form = _setup()
    one = VertexFunction(g, np.ones(g.vertex_count))
    assert perturbed_energy(form, RobinSpec.dirichlet(3), one) == INF


def test_ordering_between_plain_and_pinned():
    g, form = _setup()
    rng = np.random.default_rng(2)
    specs = [
        RobinSpec.uniform(Quadratic(1.0), 3),
        RobinSpec.uniform(AbsoluteValue(1.0), 3),
        RobinSpec.uniform(BoxIndicator(-0.25, 0.5), 3),
    ]
    dirichlet = RobinSpec.dirichlet(3)
    for _ in range(25):
        u = VertexFunction(g, rng.uniform(-1, 1, g.vertex_count))
        base = energy(form, u)
        top = perturbed_energy(form, dirichlet, u)
        for spec in specs:
            mid = perturbed_energy(form, spec, u)
            assert base <= mid + 1e-12
            assert mid <= top or top == INF


def test_perturbed_submodularity_with_defect_identity():
    g, form = _setup()
    rng = np.random.default_rng(3)
    spec = RobinSpec.uniform(Quadratic(1.0), 3)
    for _ in range(20):
        u = VertexFunction(g, rng.uniform(-1, 1, g.vertex_count))
        v = VertexFunction(g, rng.uniform(-1, 1, g.vertex_count))
        upper = VertexFunction(g, np.maximum(u.values, v.values))
        lower = VertexFunction(g, np.minimum(u.values, v.values))
        lhs = perturbed_energy(form, spec, upper) + perturbed_energy(form, spec, lower)
        rhs = perturbed_energy(form, spec, u) + perturbed_energy(form, spec, v)
        assert lhs <= rhs + 1e-12 * max(1.0, abs(rhs))
        # boundary terms cancel exactly; the gap is the energy defect
        w = v.values - u.values
        pos = VertexFunction(g, np.maximum(w, 0.0))
        neg = VertexFunction(g, np.maximum(-w, 0.0))
        assert lhs - rhs == pytest.approx(inner(form, pos, neg), rel=1e-9, abs=1e-11)


def test_perturbed_energy_spec_length_mismatch():
    g, form = _setup()
    u = VertexFunction(g, np.zeros(g.vertex_count))
    with pytest.raises(DomainMismatchError):
        perturbed_energy(form, RobinSpec.neumann(4), u)


# ---------------------------------------------------------------------------
# bi-monotone difference conditions


def test_extended_difference_convention():
    assert extended_difference(INF, INF) == INF
    assert extended_difference(INF, 1.0) == INF
    assert extended_difference(1.0, INF) == -INF
    assert extended_difference(3.0, 1.0) == 2.0
    a = np.array([INF, INF, 1.0, 3.0])
    b = np.array([INF, 1.0, INF, 1.0])
    np.testing.assert_array_equal(extended_difference(a, b), [INF, INF, -INF, 2.0])


@st.composite
def _bimonotone_cases(draw):
    """Small grids with signed zeros and repeated points; values at and
    one ulp either side of the slack boundary, and infinities."""
    size = draw(st.integers(0, 10))
    points = st.sampled_from([-0.0, 0.0]) | st.floats(-10.0, 10.0)
    grid = draw(st.lists(points, min_size=size, max_size=size))
    base = draw(st.floats(-1e3, 1e3))
    edge = base + 1e-12 * max(1.0, abs(base))
    pool = [base, edge, math.nextafter(edge, INF), math.nextafter(edge, -INF), INF, -INF]
    values = draw(
        st.lists(st.sampled_from(pool) | st.floats(-1e3, 1e3), min_size=size, max_size=size)
    )
    if draw(st.booleans()):  # values following |s|, mostly bi-monotone
        ranks = sorted(range(size), key=lambda k: abs(grid[k]))
        ordered = sorted(values)
        values = [0.0] * size
        for k, value in zip(ranks, ordered):
            values[k] = value
    return np.array(values), np.array(grid)


@settings(max_examples=500, deadline=None)
@given(_bimonotone_cases())
def test_is_bimonotone_matches_pairwise_oracle(case):
    values, grid = case
    assert is_bimonotone(values, grid) == bimonotone_oracle(values, grid)


def test_every_builtin_dominates_condition_vs_neumann():
    neumann = RobinSpec.neumann(3)
    for b in ALL_KINDS:
        spec = RobinSpec.uniform(b, 3)
        assert dominates_condition(spec, neumann)


def test_dirichlet_dominates_condition_vs_builtins():
    dirichlet = RobinSpec.dirichlet(3)
    for b in ALL_KINDS:
        spec = RobinSpec.uniform(b, 3)
        assert dominates_condition(dirichlet, spec)


def test_total_domination_for_even_kinds():
    neumann = RobinSpec.neumann(3)
    for b in (Quadratic(1.0), AbsoluteValue(1.0), DirichletIndicator()):
        assert totally_dominates_condition(RobinSpec.uniform(b, 3), neumann)


def test_condition_fails_in_wrong_direction():
    # Zero - Quadratic(|s|) is increasing on the negative axis: not bi-monotone
    neumann = RobinSpec.neumann(3)
    quad = RobinSpec.uniform(Quadratic(1.0), 3)
    assert not dominates_condition(neumann, quad)
