import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasketflow import (
    BoxIndicator,
    DomainMismatchError,
    EnergyForm,
    PiecewiseLinearQuadratic,
    Power,
    RobinSpec,
    VertexFunction,
    build_level,
    energy,
    functional_from_json,
    inner,
    perturbed_energy,
)
from gasketflow.robin import dirichlet, neumann

from oracles import (
    bimonotone_oracle,
    bits,
    dominates_on,
    functionals,
    power_prox_oracle,
    prox_oracle,
    scalar_prox,
    scalar_subdiff_distance,
)

INF = math.inf
EPS = math.ulp(1.0)

ALL_KINDS = [
    neumann(),
    dirichlet(),
    Power(2.0, 2.0),
    Power(1.5, 1.0),
    Power(1.0, 3.0),
    Power(0.7, 1.5),
    BoxIndicator(-0.5, 0.75),
    PiecewiseLinearQuadratic(0.5, ((0.5, 1.0), (1.5, 2.0))),
    PiecewiseLinearQuadratic(0.0, ((0.0, 1.0),)),  # pure soft threshold
]

#: 83 sample points: 0 and +-41 magnitudes spaced geometrically from 1e-6 to 10
_MAGNITUDES = np.geomspace(1e-6, 10.0, 41)
CHECK_GRID = np.concatenate([-_MAGNITUDES[::-1], [0.0], _MAGNITUDES])

FINITE_KINDS = [b for b in ALL_KINDS if np.all(np.isfinite(b(CHECK_GRID)))]


def kind_id(b) -> str:
    """Test id of a functional: its fields in name order, pairs as JSON
    lists, which keeps the ids of the hand-written reprs of earlier versions.
    Power at p = 2 and p = 1 keeps the ids of the Quadratic and
    AbsoluteValue classes it replaced, and the boxes R and {0} those of
    Zero and DirichletIndicator."""
    legacy = {neumann(): "Zero()", dirichlet(): "DirichletIndicator()"}
    if b in legacy:
        return legacy[b]
    if isinstance(b, Power) and b.p in (1.0, 2.0):
        return f"{'AbsoluteValue' if b.p == 1.0 else 'Quadratic'}(beta={b.beta!r})"
    fields = sorted(json.loads(json.dumps(vars(b))).items())
    return f"{type(b).__name__}({', '.join(f'{k}={v!r}' for k, v in fields)})"


# ---------------------------------------------------------------------------
# evaluation


def test_eval_examples():
    assert neumann()(123.4) == 0.0
    assert dirichlet()(0.0) == 0.0
    assert dirichlet()(1.0) == INF
    assert Power(2.0, 2.0)(3.0) == 9.0
    assert Power(1.5, 1.0)(-2.0) == 3.0
    assert Power(2.0, 3.0)(3.0) == pytest.approx(18.0)
    assert BoxIndicator(-1.0, 2.0)(1.5) == 0.0
    assert BoxIndicator(-1.0, 2.0)(2.5) == INF
    plq = PiecewiseLinearQuadratic(1.0, ((1.0, 2.0),))
    assert plq(0.5) == pytest.approx(0.125)
    assert plq(2.0) == pytest.approx(2.0 + 2.0)


@pytest.mark.parametrize("b", ALL_KINDS, ids=kind_id)
def test_normalised_and_nonnegative(b):
    assert b(0.0) == 0.0
    values = np.array([float(b(s)) for s in CHECK_GRID])
    assert np.all(values >= 0.0)


@pytest.mark.parametrize("b", ALL_KINDS, ids=kind_id)
def test_bimonotone_by_sampling(b):
    values = np.array([float(b(s)) for s in CHECK_GRID])
    assert bimonotone_oracle(values, CHECK_GRID)


def test_vectorized_eval_matches_scalar():
    grid = np.linspace(-2, 2, 41)
    for b in ALL_KINDS:
        vec = np.asarray(b(grid), dtype=np.float64)
        scal = np.array([float(b(s)) for s in grid])
        np.testing.assert_array_equal(vec, scal)


def test_parameter_validation():
    with pytest.raises(ValueError):
        Power(0.0, 2.0)
    with pytest.raises(ValueError):
        Power(-1.0, 1.0)
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
        lambda: Power(nan, 2.0),
        lambda: Power(nan, 1.0),
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
    assert neumann().prox(0.3, 5.0) == 5.0
    assert dirichlet().prox(1.0, 5.0) == 0.0
    assert Power(1.0, 2.0).prox(1.0, 4.0) == pytest.approx(2.0, abs=1e-15)
    assert Power(2.0, 1.0).prox(0.5, 3.0) == pytest.approx(2.0)
    assert Power(2.0, 1.0).prox(0.5, 0.5) == 0.0
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
    c, q = lam * beta, p - 1.0
    _check_power_prox_root(Power(beta, p), lam, -x if negative else x, lambda r: r + c * r**q - x)


def _exact_root_equation(b, lam, x):
    """r + c*r^q - x, c = lam*beta, in exact rational arithmetic for q = a/k
    in lowest terms: its sign is that of c^k r^a - (x - r)^k where x > r."""
    a, k = (b.p - 1.0).as_integer_ratio()
    c = Fraction(lam * b.beta)

    def f(r):
        rest = Fraction(x) - Fraction(r)
        return 1 if rest <= 0 else c**k * Fraction(r) ** a - rest**k

    return f


@pytest.mark.parametrize(
    "beta, p, lam",
    [(1.0, 4.0, 1.0), (2**-8, 4.0, 1e-6), (1e-3, 2.5, 1.0), (1e-300, 200.0, 1e-10)],
)
def test_power_prox_root_near_the_largest_double(beta, p, lam):
    # t = c*rho^q rounds past the largest double here; rho^q cannot be formed
    x, b = 1.7976931348623157e308, Power(beta, p)
    _check_power_prox_root(b, lam, x, _exact_root_equation(b, lam, x))


def _check_power_prox_root(b, lam, s, f):
    """The checks of a power prox against f(r) = r + lam*beta*r^(p-1) - |s|."""
    got = b.prox(lam, s)
    rho, q = abs(got), b.p - 1.0

    # the sign of s is kept, and the map is odd
    assert rho <= abs(s)
    assert got == 0.0 or math.copysign(1.0, got) == math.copysign(1.0, s)
    assert b.prox(lam, -s) == -got

    # rho + c*rho^q = x, solved to a few ulp relative to rho: f changes sign
    # within 16 ulp of rho, widened by the root's condition number
    # 1/min(1, q) (for q < 1 the rounding of f itself is that large)
    if q == 0.0:
        assert rho == max(abs(s) - lam * b.beta, 0.0)
    else:
        delta = 16 * math.ulp(rho) / min(1.0, q)
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


def test_curvature_of_each_kind():
    # d with B(s) = d * s^2 / 2, inf for the indicator of {0}, None if B has no such form
    cases = [
        (neumann(), 0.0),
        (BoxIndicator(-0.0, 0.0), INF),
        (Power(2.0, 2.0), 2.0),
        (PiecewiseLinearQuadratic(1.5), 1.5),
        (Power(2.0, 1.0), None),
        (Power(2.0, 3.0), None),
        (BoxIndicator(-INF, 1.0), None),
        (BoxIndicator(-0.5, 0.75), None),
        (PiecewiseLinearQuadratic(1.5, ((0.0, 1.0),)), None),
    ]
    for b, d in cases:
        assert b.curvature == d, b
    for b in ALL_KINDS:
        if b.curvature is not None:
            grid = CHECK_GRID.tolist()
            expected = [0.0 if s == 0.0 else 0.5 * b.curvature * s * s for s in grid]
            np.testing.assert_array_equal(b(CHECK_GRID), expected)


def test_slopes_of_each_kind():
    # lim B(-s)/s and lim B(s)/s as s -> inf
    cases = [
        (neumann(), (0.0, 0.0)),
        (dirichlet(), (INF, INF)),
        (BoxIndicator(-INF, 1.0), (0.0, INF)),
        (BoxIndicator(-0.5, INF), (INF, 0.0)),
        (Power(0.25, 1.0), (0.25, 0.25)),
        (Power(0.25, 1.0 + 2**-52), (INF, INF)),
        (Power(2.0, 2.0), (INF, INF)),
        (PiecewiseLinearQuadratic(1.5), (INF, INF)),
        (PiecewiseLinearQuadratic(1e-9, ((0.5, 1.0),)), (INF, INF)),
        (PiecewiseLinearQuadratic(0.0, ((0.0, 0.5), (2.0, 0.25))), (0.75, 0.75)),
    ]
    for b, slopes in cases:
        assert b.slopes == slopes, b
        for side, slope in zip((-1.0, 1.0), slopes):
            if slope < INF:  # B(s)/s approaches it from below: within d_j w_j / s
                assert slope - 1e-8 <= b(side * 1e8) / 1e8 <= slope, b


def test_subdiff_distance_infeasible_point():
    assert dirichlet().subdiff_distance(1.0, 0.0) == INF
    assert BoxIndicator(-1.0, 1.0).subdiff_distance(2.0, 0.0) == INF


# ---------------------------------------------------------------------------
# array forms: elementwise, and equal to the 0-d case


def _points(b):
    """Signed zeros, tiny and huge magnitudes, and the kinks and box ends
    of ``b``, with their negatives, among ordinary floats."""
    special = [0.0, -0.0, 5e-324, 1e-300, 1e300, 1.0, 0.5]
    special += [d for d, _ in getattr(b, "breakpoints", ())]
    special += [getattr(b, "lower", 0.0), getattr(b, "upper", 0.0)]
    special += [-x for x in special]
    return st.sampled_from(special) | st.floats(-1e6, 1e6)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), b=functionals(), lam=st.floats(1e-6, 1e6))
def test_array_prox_equals_the_scalar_case(data, b, lam):
    s = np.array(data.draw(st.lists(_points(b), max_size=40)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = b.prox(lam, s)
        alone = [b.prox(lam, float(x)) for x in s]
        grid = b.prox(lam, np.stack([s, s[::-1]]))
    assert got.shape == s.shape
    np.testing.assert_array_equal(bits(got), bits(alone))
    np.testing.assert_array_equal(bits(grid), bits([got, got[::-1]]))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # |1e300|^(p-1)
@settings(max_examples=300, deadline=None)
@given(data=st.data(), b=functionals())
def test_array_subdiff_distance_equals_the_scalar_case(data, b):
    size = data.draw(st.integers(0, 40))
    s = np.array(data.draw(st.lists(_points(b), min_size=size, max_size=size)))
    g = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=size, max_size=size)))
    got = b.subdiff_distance(s, g)
    alone = [b.subdiff_distance(float(x), float(y)) for x, y in zip(s, g)]
    assert got.shape == s.shape
    # a zero distance may carry either sign; every other bit must agree
    np.testing.assert_array_equal(got, alone)
    if isinstance(b, BoxIndicator):
        assert np.all(got[b(s) == INF] == INF)


def _moderate(b):
    """Signed zeros, kinks and box ends among floats of moderate size, where
    the scalar references cannot overflow."""
    special = [0.0, -0.0, 5e-324, 1.0, *[d for d, _ in getattr(b, "breakpoints", ())]]
    special += [getattr(b, "lower", 0.0), getattr(b, "upper", 0.0)]
    return st.sampled_from(special + [-x for x in special]) | st.floats(-1e6, 1e6)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), b=functionals(), lam=st.floats(1e-6, 1e6))
def test_array_prox_equals_the_scalar_reference(data, b, lam):
    s = np.array(data.draw(st.lists(_moderate(b), min_size=1, max_size=20)))
    got = b.prox(lam, s)
    want = [scalar_prox(b, lam, float(x)) for x in s]
    np.testing.assert_array_equal(bits(got), bits(want))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), b=functionals())
def test_array_subdiff_distance_equals_the_scalar_reference(data, b):
    size = data.draw(st.integers(1, 20))
    s = np.array(data.draw(st.lists(_moderate(b), min_size=size, max_size=size)))
    g = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=size, max_size=size)))
    got = b.subdiff_distance(s, g)
    want = np.array([scalar_subdiff_distance(b, float(x), float(y)) for x, y in zip(s, g)])
    if isinstance(b, Power) and b.p not in (1.0, 2.0):
        # np.power against libm pow: an ulp of the subgradient apart
        scale = np.abs(g) + b.beta * np.abs(s) ** (b.p - 1.0)
        assert np.all(np.abs(got - want) <= 4.0 * EPS * scale)
    else:
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("b", ALL_KINDS, ids=kind_id)
def test_array_forms_keep_empty_shapes(b):
    for shape in [(0,), (3, 0)]:
        empty = np.zeros(shape)
        assert b.prox(0.5, empty).shape == shape
        assert b.subdiff_distance(empty, empty).shape == shape


def test_power_three_root_does_not_overflow():
    # 4 c x overflows, so the root must come from hypot(1, 2 sqrt(c x))
    b = Power(1e3, 3.0)
    s = np.array([1e300, -1e300, 1e-300])
    got = b.prox(1e6, s)
    c = 1e9
    assert np.all(np.isfinite(got)) and np.all(np.sign(got) == np.sign(s))
    assert got[0] == pytest.approx(math.sqrt(1e300 / c), rel=1e-12)
    np.testing.assert_array_equal(bits(got), bits([b.prox(1e6, x) for x in s]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "beta, lam, s",
    [
        # rho^q overflows at the root (about 6.3e102 here) while c rho^q < x
        (2.0**-8, 1e-6, 1e300),
        (2.0**-8, 1e-6, -1e300),
        (2.0**-8, 1e-6, 1e290),
        # and the Newton slope rho + q c rho^q overflows as well
        (2.0**-8, 1e-6, 1.7e308),
        (2.0**-8, 1e-6, -1.7e308),
        (1.0, 1.0, 1.7e308),
    ],
)
def test_power_newton_root_does_not_overflow(beta, lam, s):
    b = Power(beta, 4.0)
    c = Fraction(lam) * Fraction(beta)
    got = b.prox(lam, s)
    assert math.isfinite(got) and math.copysign(1.0, got) == math.copysign(1.0, s)
    f = lambda r: Fraction(r) + c * Fraction(r) ** 3 - Fraction(abs(s))
    rho = abs(float(got))
    assert f(math.nextafter(rho, INF)) >= 0 >= f(math.nextafter(rho, 0.0))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "beta, p, lam, s",
    [
        # lam*beta is subnormal, so rho^q and rho^(q/2) both overflow at the root
        (1e-300, 200.0, 1e-10, 1e308),
        (1e-200, 3.5, 1e-120, 1e308),
        (1e-200, 3.5, 1e-120, -1e300),
    ],
)
def test_power_root_with_subnormal_lam_beta(beta, p, lam, s):
    b = Power(beta, p)
    got = b.prox(lam, s)
    assert math.isfinite(got) and math.copysign(1.0, got) == math.copysign(1.0, s)
    # rho + c rho^q = |s| to 1e-12 relative, in exact arithmetic: 2q is an
    # integer, so compare c^2 rho^(2q) with the squared band around |s| - rho
    rho, x = Fraction(abs(got)), Fraction(abs(s))
    c2_rho_2q = (Fraction(lam) * Fraction(beta)) ** 2 * rho ** int(2 * (p - 1.0))
    band = Fraction(1e-12) * x
    assert (x - rho - band) ** 2 <= c2_rho_2q <= (x - rho + band) ** 2
    phi, w, u = power_prox_oracle(b, lam, s)
    assert abs(float(rho) / u - w) <= 5e-6
    assert phi(float(rho) / u) <= phi(w) + 4 * math.ulp(1.0)


def test_power_roots_near_p_one():
    # roots far below 1e-15 stay accurate relative to themselves
    b = Power(811.83, 1.07)
    s = np.array([3e-3, -0.2, 1e-12, 7.0])
    got = b.prox(0.1, s)
    np.testing.assert_array_equal(bits(got), bits([b.prox(0.1, x) for x in s]))
    q, c = b.p - 1.0, 0.1 * b.beta
    rho = np.abs(got)
    assert np.all((rho > 0.0) & (rho < 1e-15))
    residual = rho + c * rho**q - np.abs(s)
    assert np.all(np.abs(residual) <= 1e-12 * np.abs(s))


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
            Power(2.0, 2.0),
            BoxIndicator(-INF, INF),
            PiecewiseLinearQuadratic(0.5, ((0.5, 1.0),)),
            PiecewiseLinearQuadratic(1.5),
        )
    )
    assert RobinSpec.from_json(json.loads(text)) == expected


def test_spec_aliases():
    spec = RobinSpec.from_json(["neumann", {"kind": "dirichlet"}, {"kind": "abs", "beta": 1.0}])
    assert spec.functionals[0] == BoxIndicator(-INF, INF)
    assert spec.functionals[1] == BoxIndicator(0.0, 0.0)
    assert spec.functionals[2] == Power(1.0, 1.0)


def test_spec_parse_errors():
    with pytest.raises(ValueError):
        functional_from_json({"kind": "nope"})
    with pytest.raises(ValueError):
        functional_from_json({"kind": "quadratic"})  # missing beta
    for fixed_p in ({"kind": "quadratic", "beta": 1, "p": 3}, {"kind": "absolute_value", "beta": 1, "p": 2}):
        with pytest.raises(ValueError, match="'p'"):
            functional_from_json(fixed_p)
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
        RobinSpec.uniform(Power(1.0, 2.0), 3),
        RobinSpec.uniform(Power(1.0, 1.0), 3),
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
    spec = RobinSpec.uniform(Power(1.0, 2.0), 3)
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


def test_spec_of_one_functional_is_refused():
    with pytest.raises(ValueError, match="at least two boundary functionals"):
        RobinSpec((neumann(),))


def test_perturbed_energy_spec_length_mismatch():
    g, form = _setup()
    u = VertexFunction(g, np.zeros(g.vertex_count))
    with pytest.raises(DomainMismatchError):
        perturbed_energy(form, RobinSpec.neumann(4), u)


# ---------------------------------------------------------------------------
# bi-monotone difference conditions


def test_every_builtin_dominates_condition_vs_neumann():
    neumann = RobinSpec.neumann(3)
    for b in ALL_KINDS:
        spec = RobinSpec.uniform(b, 3)
        assert dominates_on(spec, neumann, 10.0)


def test_dirichlet_dominates_condition_vs_builtins():
    dirichlet = RobinSpec.dirichlet(3)
    for b in ALL_KINDS:
        spec = RobinSpec.uniform(b, 3)
        assert dominates_on(dirichlet, spec, 10.0)


def test_total_domination_for_even_kinds():
    neumann = RobinSpec.neumann(3)
    for b in (Power(1.0, 2.0), Power(1.0, 1.0), dirichlet()):
        assert dominates_on(RobinSpec.uniform(b, 3), neumann, 10.0, signs=(1.0, -1.0))


def test_condition_fails_in_wrong_direction():
    # 0 - B(|s|) for B = s^2/2 is increasing on the negative axis: not bi-monotone
    neumann = RobinSpec.neumann(3)
    quad = RobinSpec.uniform(Power(1.0, 2.0), 3)
    assert not dominates_on(neumann, quad, 10.0)
