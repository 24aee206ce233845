import math
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, target
from hypothesis import strategies as st

from gasketflow import (
    BoxIndicator,
    ConfigError,
    ConvergenceError,
    DomainMismatchError,
    EnergyForm,
    FlowConfig,
    MeasureWeights,
    PiecewiseLinearQuadratic,
    Power,
    RobinSpec,
    VertexFunction,
    backward_euler_step,
    batch_perturbed_energy,
    build_level,
    builtin_specs,
    energy,
    evolve,
    harmonic_function,
    l2_norm,
    mean,
    normal_derivative,
    perturbed_energy,
    poisson_solve,
    restrict,
    stiffness_matrix,
    vertex_measure,
)

from gasketflow import flow
from gasketflow.gasket import _restriction_indices
from gasketflow.robin import dirichlet, neumann
from oracles import (
    bits,
    cell_tree_schur,
    cell_tree_step,
    dominates_on,
    exact_load,
    form_semigroup,
    functionals,
    linear_semigroup,
    poisson_residual,
    resolvent_oracle,
)

INF = math.inf


def _setup(n=3, m=2, weights=None):
    g = build_level(n, m)
    w = MeasureWeights.uniform(n) if weights is None else MeasureWeights(weights)
    return g, EnergyForm(g), vertex_measure(g, w)


def _random(g, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return VertexFunction(g, rng.uniform(-scale, scale, g.vertex_count))


# ---------------------------------------------------------------------------
# single steps


def test_config_validation():
    with pytest.raises(ConfigError):
        FlowConfig(tau=0.0, t_end=1.0)
    for tau, t_end in ((0.5, 0.25), (0.3, 0.25), (1e-10, 3.5e-10)):
        # the multiple is checked relative to t_end, also below t_end = 1
        with pytest.raises(ConfigError, match="not an integer multiple"):
            FlowConfig(tau=tau, t_end=t_end)
    with pytest.raises(ConfigError):
        FlowConfig(tau=0.1, t_end=1.0, tol=0.0)
    with pytest.raises(ConfigError):
        FlowConfig(tau=0.3, t_end=1.0).n_steps  # not a multiple
    for bad in (
        dict(tau=math.nan, t_end=1.0),
        dict(tau=0.1, t_end=math.nan),
        dict(tau=0.1, t_end=1.0, tol=math.nan),
        dict(tau=INF, t_end=INF),
        # t_end / tau is inf, which n_steps cannot round
        dict(tau=1e-320, t_end=0.5),
        dict(tau=0.1, t_end=1e308),
    ):
        with pytest.raises(ConfigError):
            FlowConfig(**bad)
    assert FlowConfig(tau=0.25, t_end=1.0).n_steps == 4
    assert FlowConfig(tau=1e-300, t_end=1.0).n_steps > 10**299


def test_neumann_step_fixes_constants():
    g, form, measure = _setup()
    c = VertexFunction(g, np.full(g.vertex_count, 2.5))
    out = backward_euler_step(form, measure, RobinSpec.neumann(3), c, tau=0.1)
    np.testing.assert_allclose(out.values, 2.5, atol=1e-13)


def test_dirichlet_step_pins_boundary_and_beats_clamping():
    g, form, measure = _setup(m=2)
    spec = RobinSpec.dirichlet(3)
    u = harmonic_function(g, [1.0, 0.0, 0.0])
    out = backward_euler_step(form, measure, spec, u, tau=0.1)
    assert all(out.values[i] == 0.0 for i in g.boundary)
    clamped_vals = u.values.copy()
    clamped_vals[list(g.boundary)] = 0.0
    clamped = VertexFunction(g, clamped_vals)
    assert perturbed_energy(form, spec, out) < perturbed_energy(form, spec, clamped)


@pytest.mark.parametrize(
    "spec_builder",
    [
        lambda: RobinSpec.neumann(3),
        lambda: RobinSpec.dirichlet(3),
        lambda: RobinSpec.uniform(Power(1.5, 2.0), 3),
        lambda: RobinSpec.uniform(Power(0.8, 1.0), 3),
        lambda: RobinSpec.uniform(BoxIndicator(-0.25, 0.5), 3),
        lambda: RobinSpec.uniform(Power(1.0, 3.0), 3),
        lambda: RobinSpec.uniform(PiecewiseLinearQuadratic(0.5, ((0.3, 1.0),)), 3),
        lambda: RobinSpec((Power(1.0, 2.0), neumann(), dirichlet())),
    ],
    ids=["neumann", "dirichlet", "quadratic", "abs", "box", "power", "plq", "mixed"],
)
def test_step_matches_full_space_oracle(spec_builder):
    g, form, measure = _setup(m=2)
    spec = spec_builder()
    u = _random(g, 3)
    got = backward_euler_step(form, measure, spec, u, tau=0.1, tol=1e-11)
    want = resolvent_oracle(form, measure, spec, u.values, tau=0.1, tol=1e-13)
    np.testing.assert_allclose(got.values, want, atol=5e-8)


def test_proximal_inequality():
    g, form, measure = _setup(m=2)
    for spec in (
        RobinSpec.uniform(Power(1.0, 2.0), 3),
        RobinSpec.uniform(Power(1.0, 1.0), 3),
        RobinSpec.neumann(3),
    ):
        for tau in (0.01, 0.1):
            u = _random(g, 11)
            out = backward_euler_step(form, measure, spec, u, tau=tau)
            diff = VertexFunction(g, out.values - u.values)
            lhs = perturbed_energy(form, spec, out) + l2_norm(measure, diff) ** 2 / (
                2 * tau
            )
            assert lhs <= perturbed_energy(form, spec, u) + 1e-10


def test_step_domain_checks():
    g, form, measure = _setup(m=2)
    other = build_level(3, 1)
    u = VertexFunction(other, np.zeros(other.vertex_count))
    with pytest.raises(DomainMismatchError):
        backward_euler_step(form, measure, RobinSpec.neumann(3), u, tau=0.1)
    with pytest.raises(ConfigError):
        backward_euler_step(form, measure, RobinSpec.neumann(3), _random(g, 1), tau=-1.0)


# ---------------------------------------------------------------------------
# trajectories


def test_trajectory_shape_and_times():
    g, form, measure = _setup()
    traj = evolve(
        form, measure, RobinSpec.neumann(3), _random(g, 5), FlowConfig(0.1, 0.5)
    )
    np.testing.assert_allclose(traj.times, [0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
    assert len(traj.states) == 6
    assert len(traj.diagnostics) == 5
    assert traj.values_matrix().shape == (6, g.vertex_count)


def test_evolution_is_deterministic():
    g, form, measure = _setup()
    spec = RobinSpec.uniform(Power(1.0, 1.0), 3)
    cfg = FlowConfig(0.1, 0.5)
    a = evolve(form, measure, spec, _random(g, 5), cfg).values_matrix()
    b = evolve(form, measure, spec, _random(g, 5), cfg).values_matrix()
    assert np.array_equal(a, b)


def test_stepping_composes_bitwise():
    # evolving tau twice equals one two-step evolution, bit for bit
    g, form, measure = _setup()
    spec = RobinSpec.uniform(Power(1.0, 2.0), 3)
    u0 = _random(g, 5)
    two = evolve(form, measure, spec, u0, FlowConfig(0.1, 0.2)).states[-1]
    one = backward_euler_step(form, measure, spec, u0, tau=0.1)
    again = backward_euler_step(form, measure, spec, one, tau=0.1)
    assert np.array_equal(two.values, again.values)


def test_one_factorization_per_graph_measure_and_tau(monkeypatch):
    """Every spec and trajectory on one (graph, measure, tau) shares one
    factored operator; another measure or another tau gets a fresh one."""
    import gasketflow.flow as flow_module

    calls = []
    original = flow_module.stiffness_matrix

    def counting(form):
        calls.append(form)
        return original(form)

    monkeypatch.setattr(flow_module, "stiffness_matrix", counting)
    g, form, measure = _setup(m=2)
    skewed = vertex_measure(g, MeasureWeights((0.5, 0.3, 0.2)))
    specs = [
        RobinSpec.uniform(Power(1.5, 2.0), 3),
        RobinSpec.uniform(Power(0.8, 1.0), 3),
        RobinSpec((Power(1.0, 2.0), neumann(), dirichlet())),
    ]
    u0 = _random(g, 17)

    def check_against_oracle(meas, spec, tau):
        traj = evolve(form, meas, spec, u0, FlowConfig(tau, 2 * tau, tol=1e-11))
        for before, after in zip(traj.states, traj.states[1:]):
            want = resolvent_oracle(form, meas, spec, before.values, tau=tau, tol=1e-13)
            np.testing.assert_allclose(after.values, want, atol=5e-8)

    for spec in specs:
        check_against_oracle(measure, spec, 0.1)
    assert len(calls) == 1
    check_against_oracle(skewed, specs[0], 0.1)
    assert len(calls) == 2
    check_against_oracle(skewed, specs[0], 0.05)
    assert len(calls) == 3


def test_power_near_one_boundary_solve_converges():
    """For p just above 1 the boundary roots lie far below 1e-15, so the
    prox must be accurate relative to the root for the sweeps to converge."""
    g, form, measure = _setup(m=2)
    spec = RobinSpec((neumann(), Power(811.83, 1.07), dirichlet()))
    u0 = _random(g, 0)
    tau = 7.2e-4
    cfg = FlowConfig(tau, 5 * tau)
    traj = evolve(form, measure, spec, u0, cfg)
    assert len(traj.states) == 6
    assert all(d.residual <= cfg.tol for d in traj.diagnostics)
    for before, after in zip(traj.states, traj.states[1:]):
        want = resolvent_oracle(form, measure, spec, before.values, tau=tau, tol=1e-13)
        np.testing.assert_allclose(after.values, want, atol=5e-8)


def test_neumann_mean_conservation():
    g, form, measure = _setup(m=3)
    traj = evolve(
        form, measure, RobinSpec.neumann(3), _random(g, 7), FlowConfig(0.05, 1.0)
    )
    means = [mean(measure, s) for s in traj.states]
    assert max(abs(x - means[0]) for x in means) <= 1e-9


def test_dirichlet_sup_norm_decays_to_zero():
    g, form, measure = _setup(m=2)
    u0 = harmonic_function(g, [1.0, 0.5, 0.25])
    traj = evolve(
        form, measure, RobinSpec.dirichlet(3), u0, FlowConfig(0.1, 1.0)
    )
    sups = np.max(np.abs(traj.values_matrix()), axis=1)
    assert np.all(np.diff(sups) <= 1e-12)
    assert sups[-1] < 0.2 * sups[0]
    assert np.all(traj.values_matrix()[1:, list(g.boundary)] == 0.0)


def test_energy_decay_along_trajectory():
    g, form, measure = _setup(m=2)
    for spec in (
        RobinSpec.uniform(Power(1.0, 2.0), 3),
        RobinSpec.uniform(PiecewiseLinearQuadratic(0.5, ((0.3, 1.0),)), 3),
        RobinSpec.dirichlet(3),
    ):
        traj = evolve(form, measure, spec, _random(g, 13), FlowConfig(0.1, 1.0))
        values = [perturbed_energy(form, spec, s) for s in traj.states]
        for prev, nxt in zip(values, values[1:]):
            if math.isfinite(prev):
                assert nxt <= prev + 1e-9


DISSIPATION_SPECS = dict(
    builtin_specs(3),
    nonsmooth=RobinSpec((Power(1.0, 1.0), Power(2.0, 3.0), BoxIndicator(-0.2, 0.5))),
)


@pytest.mark.parametrize("tau", [0.05, 0.0125, 0.003125])
@pytest.mark.parametrize("name", sorted(DISSIPATION_SPECS))
def test_dissipation_certificate_is_nonnegative(name, tau):
    # with phi the perturbed energy, the step's optimality (U^(n-1) - U^n) / tau
    # in d phi(U^n) and convexity give eps_n = phi(U^(n-1)) - phi(U^n)
    # - ||U^n - U^(n-1)||^2_mu / tau >= 0 wherever phi(U^(n-1)) is finite
    # (Nochetto, Savare & Verdi, CPAM 53, 2000)
    g, form, measure = _setup(m=3)
    spec = DISSIPATION_SPECS[name]
    u0 = np.random.default_rng(1).uniform(-1.0, 1.0, (4, g.vertex_count))
    states = evolve(form, measure, spec, u0, FlowConfig(tau, 0.5, tol=1e-9)).values
    phi = batch_perturbed_energy(form, spec, states)
    moved = (np.diff(states, axis=1) ** 2 * measure.masses).sum(axis=2)
    finite = np.isfinite(phi[:, :-1])
    assert finite.any()
    eps = phi[:, :-1][finite] - phi[:, 1:][finite] - moved[finite] / tau
    assert eps.min() >= -1e-12, eps.min()


@pytest.mark.parametrize("m, weights", [(2, (0.5, 0.3, 0.2)), (3, None)])
@pytest.mark.parametrize("name", ["neumann", "dirichlet", "quadratic", "mixed"])
def test_a_posteriori_bound_holds_at_every_node(name, m, weights):
    # ||U^n - T(t_n) u0||_mu <= (sum_(k <= n) tau eps_k)^(1/2), eps_k the
    # dissipation above and T the exact linear semigroup (Nochetto, Savare
    # & Verdi, CPAM 53, 2000); u0 is 0 where a boundary value is pinned, so
    # phi(u0) is finite.  The 1e-12 covers the roundoff of T(0) u0 = u0
    g, form, measure = _setup(m=m, weights=weights)
    spec = builtin_specs(3)[name]
    u0 = np.random.default_rng(1).uniform(-1.0, 1.0, (4, g.vertex_count))
    u0[:, [x for b, x in zip(spec.functionals, g.boundary) if b.curvature == INF]] = 0.0
    for tau in (0.05, 0.0125, 0.003125):
        run = evolve(form, measure, spec, u0, FlowConfig(tau, 0.5, tol=1e-12))
        phi = batch_perturbed_energy(form, spec, run.values)
        moved = (np.diff(run.values, axis=1) ** 2 * measure.masses).sum(axis=2)
        eps = phi[:, :-1] - phi[:, 1:] - moved / tau
        bound = np.sqrt(np.maximum(np.cumsum(tau * eps, axis=1), 0.0))
        exact = np.stack(
            [linear_semigroup(form, measure, spec, u0.T, t).T for t in run.times], axis=1
        )
        error = np.sqrt(((run.values - exact) ** 2 * measure.masses).sum(axis=2))
        assert error[:, 0].max() <= 1e-12
        assert np.all(error[:, 1:] <= bound + 1e-12), (tau, (error[:, 1:] / bound).max())


def test_l2_contraction_of_pairs():
    g, form, measure = _setup(m=2)
    cfg = FlowConfig(0.05, 0.5)
    for spec in (
        RobinSpec.uniform(Power(1.0, 2.0), 3),
        RobinSpec.uniform(Power(1.0, 1.0), 3),
        RobinSpec.uniform(BoxIndicator(-0.5, 0.75), 3),
    ):
        a = evolve(form, measure, spec, _random(g, 1), cfg).values_matrix()
        b = evolve(form, measure, spec, _random(g, 2), cfg).values_matrix()
        dist = np.sqrt(((a - b) ** 2 * measure.masses).sum(axis=1))
        assert np.all(np.diff(dist) <= 1e-8)


def test_order_positivity_sup_contraction_small_ensemble():
    g, form, measure = _setup(m=2)
    cfg = FlowConfig(0.1, 0.5)
    rng = np.random.default_rng(0)
    for spec in (
        RobinSpec.uniform(Power(1.0, 2.0), 3),
        RobinSpec((Power(1.0, 2.0), neumann(), dirichlet())),
    ):
        for _ in range(3):
            u0 = rng.uniform(-1, 1, g.vertex_count)
            gap = np.abs(rng.uniform(-1, 1, g.vertex_count))
            su = evolve(form, measure, spec, VertexFunction(g, u0), cfg).values_matrix()
            sv = evolve(
                form, measure, spec, VertexFunction(g, u0 + gap), cfg
            ).values_matrix()
            assert np.max(su - sv) <= 1e-8  # order preserved
            spos = evolve(
                form, measure, spec, VertexFunction(g, np.abs(u0)), cfg
            ).values_matrix()
            assert spos.min() >= -1e-8  # positivity
            sups = np.max(np.abs(su - sv), axis=1)
            assert np.all(np.diff(sups) <= 1e-8)  # sup-norm contraction


def test_domination_sandwich_small_ensemble():
    g, form, measure = _setup(m=2)
    cfg = FlowConfig(0.1, 0.5)
    rng = np.random.default_rng(42)
    neumann = RobinSpec.neumann(3)
    dirichlet = RobinSpec.dirichlet(3)
    for spec in (
        RobinSpec.uniform(Power(1.0, 2.0), 3),
        RobinSpec.uniform(Power(1.0, 1.0), 3),
    ):
        for _ in range(3):
            u0 = rng.uniform(-1, 1, g.vertex_count)
            v0 = np.abs(u0) + np.abs(rng.uniform(-1, 1, g.vertex_count))
            s_mid_u = evolve(form, measure, spec, VertexFunction(g, u0), cfg).values_matrix()
            s_mid_v = evolve(form, measure, spec, VertexFunction(g, v0), cfg).values_matrix()
            s_neu = evolve(form, measure, neumann, VertexFunction(g, v0), cfg).values_matrix()
            s_dir = evolve(form, measure, dirichlet, VertexFunction(g, u0), cfg).values_matrix()
            assert np.max(np.abs(s_mid_u) - s_neu) <= 1e-8
            assert np.max(np.abs(s_dir) - s_mid_v) <= 1e-8


BUILTIN_SPECS = st.sampled_from(list(builtin_specs(3).values()))


@settings(max_examples=30, deadline=None)
@given(bhat=BUILTIN_SPECS, b=BUILTIN_SPECS, seed=st.integers(0, 2**32 - 1))
@example(bhat=RobinSpec.uniform(Power(2.0, 2.0), 3), b=RobinSpec.uniform(Power(1.0, 2.0), 3), seed=0)
@example(bhat=RobinSpec.uniform(Power(1.0, 2.0), 3), b=RobinSpec.uniform(Power(2.0, 2.0), 3), seed=0)
def test_domination_condition_refereed_by_flows(bhat, b, seed):
    # |T_bhat u0| <= T_b |u0| wherever the condition holds on the range of
    # the data; where it fails the gap is only recorded, since the
    # condition is sufficient, not necessary
    g, form, measure = _setup(m=2)
    cfg = FlowConfig(tau=0.05, t_end=0.5, tol=1e-11)
    u0 = np.random.default_rng(seed).uniform(-1.0, 1.0, (16, g.vertex_count))
    s_hat = evolve(form, measure, bhat, u0, cfg).values
    s_b = evolve(form, measure, b, np.abs(u0), cfg).values
    gap = float(np.max(np.abs(s_hat) - s_b))
    if dominates_on(bhat, b, float(np.max(np.abs(u0)))):
        assert gap <= 10.0 * cfg.tol
    else:
        target(gap, label="domination gap where the condition fails")


@settings(max_examples=30, deadline=None)
@given(bhat=BUILTIN_SPECS, b=BUILTIN_SPECS, seed=st.integers(0, 2**32 - 1))
@example(bhat=builtin_specs(3)["dirichlet"], b=builtin_specs(3)["box"], seed=0)
@example(bhat=builtin_specs(3)["box"], b=builtin_specs(3)["box"], seed=0)
def test_total_domination_refereed_by_flows(bhat, b, seed):
    # where the two-sided condition holds, bhat is dominated by b and by b
    # reflected, B(-s), whose flow from |u0| is -T_b(-|u0|): so
    # |T_bhat u0| <= -T_b(-|u0|) too.  The box [-0.5, 0.75] over itself
    # meets only the one-sided condition, and its gap is recorded
    g, form, measure = _setup(m=2)
    cfg = FlowConfig(tau=0.05, t_end=0.5, tol=1e-11)
    u0 = np.random.default_rng(seed).uniform(-1.0, 1.0, (16, g.vertex_count))
    s_hat = evolve(form, measure, bhat, u0, cfg).values
    s_low = evolve(form, measure, b, -np.abs(u0), cfg).values
    gap = float(np.max(np.abs(s_hat) + s_low))
    if dominates_on(bhat, b, float(np.max(np.abs(u0))), signs=(1.0, -1.0)):
        assert gap <= 10.0 * cfg.tol
    else:
        target(gap, label="total domination gap where the condition fails")


def test_condition_depends_on_the_range_of_the_data():
    # a condition that holds on [-10, 10] holds on the narrower [-1, 1];
    # the converse fails for absolute_value over quadratic, whose difference
    # |s| - s^2/2 turns down only past 1
    specs = builtin_specs(3)
    for bhat in specs.values():
        for b in specs.values():
            assert dominates_on(bhat, b, 1.0) or not dominates_on(bhat, b, 10.0)
    assert dominates_on(specs["absolute_value"], specs["quadratic"], 1.0)
    assert not dominates_on(specs["absolute_value"], specs["quadratic"], 10.0)
    quadratic_2 = RobinSpec.uniform(Power(2.0, 2.0), 3)
    assert dominates_on(quadratic_2, specs["quadratic"], 1.0)
    assert not dominates_on(specs["quadratic"], quadratic_2, 1.0)


def test_flow_properties_tetrahedral_gasket():
    # same qualitative behavior for the four-point gasket
    g, form, measure = _setup(n=4, m=2)
    cfg = FlowConfig(0.1, 0.5)
    spec = RobinSpec((Power(1.0, 2.0), neumann(), dirichlet(), Power(0.5, 1.0)))
    rng = np.random.default_rng(77)
    u0 = rng.uniform(-1, 1, g.vertex_count)
    gap = np.abs(rng.uniform(-1, 1, g.vertex_count))
    su = evolve(form, measure, spec, VertexFunction(g, u0), cfg).values_matrix()
    sv = evolve(form, measure, spec, VertexFunction(g, u0 + gap), cfg).values_matrix()
    assert np.max(su - sv) <= 1e-8
    spos = evolve(form, measure, spec, VertexFunction(g, np.abs(u0)), cfg).values_matrix()
    assert spos.min() >= -1e-8
    s_neu = evolve(
        form, measure, RobinSpec.neumann(4), VertexFunction(g, np.abs(u0) + gap), cfg
    ).values_matrix()
    assert np.max(np.abs(su) - s_neu) <= 1e-8


def test_first_order_consistency_richardson():
    g, form, measure = _setup(m=2)
    spec = RobinSpec.uniform(Power(1.0, 2.0), 3)
    u0 = _random(g, 3)

    def final(tau):
        cfg = FlowConfig(tau, 1.0)
        return evolve(form, measure, spec, u0, cfg).values_matrix()[-1]

    coarse, mid, fine = final(0.1), final(0.05), final(0.025)
    num = np.linalg.norm(coarse - mid)
    den = np.linalg.norm(mid - fine)
    assert 1.5 <= num / den <= 3.0


@pytest.mark.parametrize("n, m", [(3, 2), (3, 4), (4, 3)])
def test_linear_flow_converges_to_the_exact_semigroup(n, m):
    # quadratic / neumann / dirichlet (and quadratic(0.5) at N = 4) has the
    # exact flow exp(-t M^-1 (2K + D)) u0: halving tau halves the error, and
    # the Richardson value 2 u_(tau/2) - u_tau is second order
    g, form, measure = _setup(n=n, m=m)
    spec = RobinSpec((Power(1.0, 2.0), neumann(), dirichlet(), Power(0.5, 2.0))[:n])
    u0 = np.random.default_rng(1).uniform(-1.0, 1.0, g.vertex_count)
    exact = linear_semigroup(form, measure, spec, u0, 0.5)
    finals = [
        evolve(form, measure, spec, VertexFunction(g, u0), FlowConfig(tau, 0.5, tol=1e-12))
        .states[-1]
        .values
        for tau in 0.0125 / 2.0 ** np.arange(5)
    ]
    errors = [np.max(np.abs(u - exact)) for u in finals]
    richardson = [np.max(np.abs(2.0 * b - a - exact)) for a, b in zip(finals, finals[1:])]
    for errs, low, high in ((errors, 1.9, 2.2), (richardson, 3.7, 4.3)):
        ratios = [a / b for a, b in zip(errs, errs[1:])]
        assert all(low <= r <= high for r in ratios), ratios


E0, E1 = np.eye(3)[:2]
SANDWICH = ("positivity", "neumann", "dirichlet")


@pytest.mark.parametrize(
    "q, holds, broken",
    [
        pytest.param(np.diag([1.0, 0.0, 2.0]), SANDWICH, {}, id="diagonal"),
        pytest.param(
            np.outer(E0 - E1, E0 - E1), ("positivity", "dirichlet"), {"neumann": 4e-2},
            id="coupling-1",
        ),
        pytest.param(
            1e-3 * np.outer(E0 - E1, E0 - E1), ("positivity", "dirichlet"), {"neumann": 5e-5},
            id="coupling-1e-3",
        ),
        pytest.param(np.outer(E0 + E1, E0 + E1), (), {"positivity": 4e-2}, id="not-positive"),
    ],
)
def test_sandwiched_linear_semigroups_are_local(q, holds, broken):
    # the semigroup T of 2K + Q, Q symmetric PSD on the boundary values, is
    # positive and sandwiched, |T_D u| <= T |u| and |T u| <= T_N |u|, iff Q
    # is diagonal: for m >= 1 no two boundary vertices share an edge, so
    # T_ij ~ -t Q_ij / mu_i while (T_N)_ij = O(t^2).  Each gap is the
    # largest entry of -T, |T| - T_N or |T_D| - T over t
    g, form, measure = _setup(m=2, weights=(0.5, 0.3, 0.2))
    zero = np.zeros((3, 3))
    gaps = dict.fromkeys(SANDWICH, -INF)
    for t in (1e-3, 1e-2, 0.1, 0.5):
        t_q = form_semigroup(form, measure, q, t)
        t_n = form_semigroup(form, measure, zero, t)
        t_d = form_semigroup(form, measure, zero, t, pinned=(0, 1, 2))
        found = (-t_q.min(), (np.abs(t_q) - t_n).max(), (np.abs(t_d) - t_q).max())
        gaps = {key: max(gaps[key], gap) for key, gap in zip(SANDWICH, found)}
    assert all(gaps[key] <= 1e-12 for key in holds), gaps
    assert all(gaps[key] >= by for key, by in broken.items()), gaps


@pytest.mark.parametrize(
    "n, m", [(n, m) for n, top in ((3, 9), (4, 5), (5, 3)) for m in range(1, top + 1)]
)
def test_boundary_schur_complement_is_the_level_0_stiffness(n, m):
    # the trace of the level-m energy on the boundary is the level-0 energy
    g = build_level(n, m)
    s_mat = flow._Operator(stiffness_matrix(EnergyForm(g)), g).s_mat
    level_0 = stiffness_matrix(EnergyForm(build_level(n, 0))).toarray()
    assert np.max(np.abs(s_mat - level_0)) <= 1e-10


@pytest.mark.parametrize(
    "n, m, weights",
    [(3, 9, (0.5, 0.3, 0.2)), (3, 10, None), (4, 6, (0.4, 0.3, 0.2, 0.1)), (5, 4, None)],
)
@pytest.mark.parametrize("tau", [1e-3, 0.1, 10.0])
def test_backward_euler_schur_complement_matches_the_cell_tree_elimination(n, m, weights, tau):
    # the deep operators of the benchmark, refereed without SuperLU; the
    # largest gap measured is 4.0e-11 at (3, 10), tau 0.1
    weights = MeasureWeights.uniform(n) if weights is None else MeasureWeights(weights)
    g = build_level(n, m)
    s_mat = flow._resolvent(EnergyForm(g), vertex_measure(g, weights), tau).s_mat
    tree = cell_tree_schur(n, m, weights.weights, tau)
    assert np.max(np.abs(tree - s_mat)) <= 1e-9 * np.max(np.abs(s_mat))


@pytest.mark.parametrize("n, m, weights", [(3, 10, (0.5, 0.3, 0.2)), (4, 6, (0.4, 0.3, 0.2, 0.1))])
def test_one_step_at_depth_matches_the_cell_tree_elimination(n, m, weights):
    # whole steps of every builtin spec, nonlinear ones included, on the
    # benchmark's depths; one measure, so the operator is factored once.
    # The largest gap measured is 1.2e-12 at (3, 10), neumann
    g, form, measure = _setup(n=n, m=m, weights=weights)
    u0 = _random(g, 0)
    gaps = {}
    for name, spec in sorted(builtin_specs(n).items()):
        step = evolve(form, measure, spec, u0, FlowConfig(0.1, 0.1, tol=1e-12)).states[-1]
        tree = cell_tree_step(g, weights, spec, u0.values, 0.1)
        gaps[name] = float(np.max(np.abs(step.values - tree)))
    assert max(gaps.values()) <= 1e-11 * np.max(np.abs(u0.values)), gaps


@pytest.mark.parametrize(
    "n, weights, top", [(3, (0.5, 0.3, 0.2), 7), (4, (0.25,) * 4, 5)]
)
@pytest.mark.parametrize(
    "name", ["dirichlet", "quadratic", "absolute_value", "power", "box", "plq", "mixed"]
)
def test_poisson_with_the_exact_load_nests_across_levels(n, weights, top, name):
    # the level-m Green's function is a level-m harmonic spline, so with the
    # exact load of f = 1 each level's solution is the top level's restricted
    # (f = 1 has no minimizer under neumann)
    gaps = _exact_load_gaps(n, weights, range(1, top + 1), name)
    assert max(gaps) <= 1e-11, gaps


@pytest.mark.parametrize(
    "name", ["dirichlet", "quadratic", "absolute_value", "power", "box", "plq", "mixed"]
)
def test_poisson_with_the_exact_load_nests_at_depth(name):
    # the same nesting on the deep rungs, levels 7 and 9 against 10
    gaps = _exact_load_gaps(3, (0.5, 0.3, 0.2), (7, 9, 10), name)
    assert max(gaps) <= 1e-9, gaps


def _exact_load_gaps(n, weights, levels, name):
    """Largest gap of each level's exact-load Poisson solution to the last
    level's restricted, one per level but the last."""
    spec, measure_weights = builtin_specs(n)[name], MeasureWeights(weights)
    solutions = []
    for m in levels:
        g, form, measure = _setup(n=n, m=m, weights=weights)
        f = VertexFunction(g, exact_load(g, measure_weights) / measure.masses)
        solutions.append(poisson_solve(form, measure, spec, f, tol=1e-13)[0].values)
    return [
        np.max(np.abs(u - solutions[-1][_restriction_indices(n, m, levels[-1])]))
        for m, u in zip(levels, solutions[:-1])
    ]


@pytest.mark.parametrize("n, top", [(3, 8), (4, 7)])
def test_level_convergence_ratio(n, top):
    """The level-m flows converge as m grows: on the level-2 vertices the
    change from level m to m + 1 shrinks by N + 2 per level, the factor by
    which the Laplacian's renormalization ((N + 2) / N)^m * N^m grows."""
    specs = [
        RobinSpec.uniform(Power(1.0, 2.0), n),
        RobinSpec((Power(1.0, 1.0), neumann()) + (dirichlet(),) * (n - 2)),
        RobinSpec.uniform(Power(1.0, 3.0), n),
    ]
    boundary = np.linspace(1.0, -0.5, n)
    for spec in specs:
        finals = []
        for m in range(4, top + 1):
            g, form, measure = _setup(n=n, m=m)
            u0 = harmonic_function(g, boundary)
            final = evolve(form, measure, spec, u0, FlowConfig(0.01, 0.1)).states[-1]
            finals.append(restrict(final, 2).values)
        deltas = [np.max(np.abs(b - a)) for a, b in zip(finals, finals[1:])]
        ratios = [a / b for a, b in zip(deltas, deltas[1:])]
        assert np.allclose(ratios, n + 2, rtol=0.02), (spec, ratios)


@pytest.mark.parametrize(
    "n, lowest",
    [
        (3, [30.0, 32.883539, 33.481408, 33.601844, 33.625966]),
        (4, [48.0, 51.011811, 51.523909, 51.609542]),
    ],
)
def test_lowest_dirichlet_eigenvalue_has_a_level_limit(n, lowest):
    """The lowest eigenvalue of 2K on the interior against M (uniform
    weights) converges in m: successive gaps shrink by a factor that tends
    to 1 / (N + 2).  Levels 1 to len(lowest), at most 514 vertices."""
    found = []
    for m in range(1, len(lowest) + 1):
        g, form, measure = _setup(n=n, m=m)
        interior = np.setdiff1d(np.arange(g.vertex_count), g.boundary)
        a_mat = 2.0 * stiffness_matrix(form).toarray()[np.ix_(interior, interior)]
        m_mat = np.diag(measure.masses[interior])
        found.append(scipy.linalg.eigh(a_mat, m_mat, subset_by_index=[0, 0])[0][0])
    np.testing.assert_allclose(found, lowest, rtol=1e-7)
    gaps = np.diff(found)
    ratios = gaps[1:] / gaps[:-1]
    assert np.all(np.abs(ratios[-2:] - 1.0 / (n + 2)) <= 0.01), ratios


def test_advance_yields_the_steps_before_a_failure():
    # the box ends hold the boundary exactly for two steps (one sweep, zero
    # residual); at step 3 it leaves them and one sweep is too few
    g, form, measure = _setup()
    spec = RobinSpec((BoxIndicator(-0.1, 0.1), BoxIndicator(-0.1, 0.1), dirichlet()))
    u0 = np.ones((1, g.vertex_count))
    steps = []
    with pytest.raises(ConvergenceError, match=r"^step 3: boundary solve did not reach") as excinfo:
        for step in flow.advance(form, measure, spec, u0, FlowConfig(0.1, 0.5, max_inner_iters=1)):
            steps.append(step)
    assert excinfo.value.iterations == 1 and excinfo.value.residual > 1e-9
    full = evolve(form, measure, spec, u0, FlowConfig(0.1, 0.5))
    assert len(steps) == 2
    for s, (values, iters, kkt, _) in enumerate(steps, 1):
        np.testing.assert_array_equal(bits(values), bits(full.values[:, s]))
        assert iters.tolist() == [1] and kkt.tolist() == [0.0]


@pytest.mark.parametrize("k", [None, 2])
def test_evolve_sink_takes_the_states_in_place_of_the_result(k):
    g, form, measure = _setup()
    spec = RobinSpec((Power(1.0, 3.0), Power(0.5, 1.0), dirichlet()))
    u0 = _random(g, 9) if k is None else np.random.default_rng(9).uniform(-1, 1, (k, g.vertex_count))
    config = FlowConfig(0.1, 0.5)
    full = evolve(form, measure, spec, u0, config)
    received = []
    streamed = evolve(form, measure, spec, u0, config, received.append)
    assert streamed.diagnostics == full.diagnostics and len(received) == config.n_steps
    assert streamed.times.tolist() == [0.0]  # the times of the states the result holds
    if k is None:
        assert len(streamed.states) == 1 and streamed.states[0] is u0
        got, want = [s.values for s in received], full.values_matrix()[1:]
    else:
        assert streamed.values.shape == (k, 1, g.vertex_count)
        got, want = received, full.values.transpose(1, 0, 2)[1:]
    np.testing.assert_array_equal(bits(np.stack(got)), bits(want))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [1, 2])
def test_non_finite_boundary_residual_fails_at_once(k):
    # the squared residual norm overflows, silently, and no sweep brings it back
    g, form, measure = _setup()
    spec = RobinSpec.uniform(Power(1.0, 1.0), 3)
    u0 = np.random.default_rng(0).uniform(-1.0, 1.0, (k, g.vertex_count))
    u0[-1] *= 1e300
    member = "member 1: " if k == 2 else ""
    with pytest.raises(ConvergenceError, match=f"^step 1: {member}boundary residual is not finite"):
        evolve(form, measure, spec, u0, FlowConfig(0.1, 0.1))
    with pytest.raises(ConvergenceError) as excinfo:
        evolve(form, measure, spec, VertexFunction(g, u0[-1]), FlowConfig(0.1, 0.1))
    assert excinfo.value.iterations < 10 and not math.isfinite(excinfo.value.residual)


def _spellings(template, *kinds):
    """The spec ``template`` with its ``None`` entries spelled as each kind."""
    return [[kind if b is None else b for b in template] for kind in kinds]


QUADRATIC_1 = {"kind": "quadratic", "beta": 1.0}


@pytest.mark.parametrize(
    "specs",
    [
        [
            [dict(kind, beta=2.0), "neumann", dict(kind, beta=0.5)]
            for kind in ({"kind": "quadratic"}, {"kind": "power", "p": 2})
        ],
        [
            [dict(kind, beta=0.02), "neumann", dict(kind, beta=0.01)]
            for kind in ({"kind": "absolute_value"}, {"kind": "abs"}, {"kind": "power", "p": 1})
        ],
        _spellings([None, "neumann", QUADRATIC_1], {"kind": "box", "lower": 0, "upper": 0}, "dirichlet"),
        _spellings(
            [None, "dirichlet", QUADRATIC_1], {"kind": "box", "lower": -INF, "upper": INF}, "neumann"
        ),
        _spellings(
            [None, "neumann", {"kind": "quadratic", "beta": 0.5}],
            {"kind": "plq", "kappa": 2.0},
            {"kind": "quadratic", "beta": 2.0},
        ),
    ],
    ids=["p2", "p1", "box-zero", "box-reals", "plq"],
)
def test_one_functional_gives_one_trajectory(specs):
    # every spelling of a functional takes the same boundary solve
    g, form, measure = _setup(m=3, weights=(0.5, 0.3, 0.2))
    u0 = VertexFunction(g, np.random.default_rng(1).uniform(-1.0, 1.0, g.vertex_count))
    runs = [evolve(form, measure, RobinSpec.from_json(spec), u0, FlowConfig(0.1, 0.5)) for spec in specs]
    for run in runs[1:]:
        np.testing.assert_array_equal(bits(run.values_matrix()), bits(runs[0].values_matrix()))
        assert [d.iterations for d in run.diagnostics] == [d.iterations for d in runs[0].diagnostics]


# ---------------------------------------------------------------------------
# ensembles: k trajectories as one (k, V) array


@st.composite
def _ensemble_cases(draw):
    """A graph, a skewed measure, a spec mixing every kind, k initial
    states and a few steps of tau in [1e-3, 1]."""
    n, m = draw(st.sampled_from([(3, 2), (4, 2), (2, 4)]))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    weights = tuple(w / sum(raw) for w in raw)
    kinds = functionals(beta=st.floats(0.1, 10.0), min_kinks=2)
    spec = RobinSpec(tuple(draw(kinds) for _ in range(n)))
    k = draw(st.sampled_from([1, 2, 7, 33]))
    tau = draw(st.floats(1e-3, 1.0))
    steps = draw(st.integers(1, 3))
    config = FlowConfig(tau, steps * tau, max_inner_iters=5000)
    return n, m, weights, spec, k, config, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=30, deadline=None)
@given(_ensemble_cases())
def test_ensemble_members_equal_their_solo_runs(case):
    n, m, weights, spec, k, config, seed = case
    g, form, measure = _setup(n, m, weights)
    u0 = np.random.default_rng(seed).uniform(-1.0, 1.0, (k, g.vertex_count))
    try:
        ensemble = evolve(form, measure, spec, u0, config)
    except ConvergenceError as exc:
        # the member named fails alone at the same step
        step, member = re.match(r"step (\d+): (?:member (\d+): )?", str(exc)).groups()
        with pytest.raises(ConvergenceError, match=f"^step {step}: boundary solve"):
            evolve(form, measure, spec, VertexFunction(g, u0[int(member or 0)]), config)
        return
    assert ensemble.values.shape == (k, config.n_steps + 1, g.vertex_count)
    steps = list(flow.advance(form, measure, spec, u0, config))
    solos = [evolve(form, measure, spec, VertexFunction(g, u0[j]), config) for j in range(k)]
    for j, solo in enumerate(solos):
        np.testing.assert_array_equal(bits(ensemble.values[j]), bits(solo.values_matrix()))
        diagnostics = [
            flow.StepDiagnostics(int(iters[j]), float(kkt[j]), float(interior[j]))
            for _, iters, kkt, interior in steps
        ]
        assert diagnostics == solo.diagnostics
    # an ensemble step sums its members' sweeps and keeps their largest residuals
    for step, d in enumerate(ensemble.diagnostics):
        members = [solo.diagnostics[step] for solo in solos]
        assert d.iterations == sum(m.iterations for m in members)
        assert d.residual == max(m.residual for m in members)
        assert d.interior_residual == max(m.interior_residual for m in members)


def test_ensemble_members_match_the_full_space_oracle():
    g, form, measure = _setup(weights=(0.6, 0.3, 0.1))
    spec = RobinSpec(
        (
            Power(0.8, 1.5),
            PiecewiseLinearQuadratic(0.5, ((0.2, 1.0), (0.6, 0.5))),
            BoxIndicator(-0.3, 0.4),
        )
    )
    u0 = np.random.default_rng(21).uniform(-1.0, 1.0, (7, g.vertex_count))
    ensemble = evolve(form, measure, spec, u0, FlowConfig(0.1, 0.1, tol=1e-11))
    for j in range(7):
        want = resolvent_oracle(form, measure, spec, u0[j], tau=0.1, tol=1e-13)
        np.testing.assert_allclose(ensemble.values[j, 1], want, atol=5e-8)


def test_ensemble_convergence_error_names_member_and_step():
    g, form, measure = _setup()
    spec = RobinSpec.uniform(Power(1.0, 1.0), 3)
    u0 = np.random.default_rng(2).uniform(-1.0, 1.0, (3, g.vertex_count))
    u0[:2] = 0.0  # these converge in their first sweep; member 2 does not
    config = FlowConfig(0.1, 0.2, max_inner_iters=1)
    with pytest.raises(ConvergenceError, match=r"^step 1: member 2: boundary solve") as excinfo:
        evolve(form, measure, spec, u0, config)
    assert excinfo.value.iterations == 1 and excinfo.value.residual > 0
    steps = flow.advance(form, measure, spec, u0, config)
    with pytest.raises(ConvergenceError, match=r"^step 1: member 2: boundary solve"):
        next(steps)  # no step comes before the error


def test_ensemble_checks_its_initial_states():
    g, form, measure = _setup()
    spec = RobinSpec.neumann(3)
    config = FlowConfig(0.1, 0.1)
    for shape in [(2, g.vertex_count + 1), (0, g.vertex_count), (g.vertex_count,)]:
        with pytest.raises(DomainMismatchError):
            evolve(form, measure, spec, np.zeros(shape), config)
    bad = np.zeros((2, g.vertex_count))
    bad[1, 4] = math.nan
    with pytest.raises(ValueError):
        evolve(form, measure, spec, bad, config)


# ---------------------------------------------------------------------------
# Poisson solves


def test_poisson_zero_source_gives_zero():
    g, form, measure = _setup(m=2)
    zero = VertexFunction(g, np.zeros(g.vertex_count))
    for spec in (RobinSpec.dirichlet(3), RobinSpec.uniform(Power(2.0, 2.0), 3)):
        u, report = poisson_solve(form, measure, spec, zero)
        np.testing.assert_allclose(u.values, 0.0, atol=1e-13)
        assert report.kkt_residual <= 1e-10


def test_poisson_neumann_weak_form_residual():
    g, form, measure = _setup(m=3)
    rng = np.random.default_rng(4)
    raw = rng.uniform(-1, 1, g.vertex_count)
    raw -= np.sum(measure.masses * raw)  # compatibility
    f = VertexFunction(g, raw)
    spec = RobinSpec.neumann(3)
    u, report = poisson_solve(form, measure, spec, f)
    assert poisson_residual(form, measure, spec, f.values, u.values) <= 1e-9
    assert abs(mean(measure, u)) <= 1e-12  # gauge fixed
    assert report.gauged


def test_poisson_neumann_incompatible_source_rejected():
    g, form, measure = _setup(m=2)
    ones = VertexFunction(g, np.ones(g.vertex_count))
    with pytest.raises(DomainMismatchError):
        poisson_solve(form, measure, RobinSpec.neumann(3), ones)


def test_poisson_rejects_bad_solver_controls():
    g, form, measure = _setup(m=2)
    spec = RobinSpec((Power(1.0, 1.0), neumann(), dirichlet()))
    f = _random(g, 0)
    for bad in (
        dict(tol=math.nan),
        dict(tol=-1.0),
        dict(tol=0.0),
        dict(tol=INF),
        dict(max_inner_iters=0),
    ):
        with pytest.raises(ConfigError):
            poisson_solve(form, measure, spec, f, **bad)


def test_poisson_robin_optimality_general_source():
    # the exact boundary stationarity: nd_i + beta u(p_i) = mu({p_i}) f(p_i)
    g, form, measure = _setup(m=3)
    beta = 2.0
    spec = RobinSpec.uniform(Power(beta, 2.0), 3)
    f = _random(g, 8)
    u, _ = poisson_solve(form, measure, spec, f)
    for i in range(3):
        p = g.boundary[i]
        lhs = normal_derivative(u, i) + beta * u.values[p]
        assert lhs == pytest.approx(measure.masses[p] * f.values[p], abs=1e-10)


def test_poisson_robin_condition_with_boundary_free_source():
    g, form, measure = _setup(m=3)
    beta = 2.0
    spec = RobinSpec.uniform(Power(beta, 2.0), 3)
    raw = _random(g, 8).values.copy()
    raw[list(g.boundary)] = 0.0
    u, _ = poisson_solve(form, measure, spec, VertexFunction(g, raw))
    for i in range(3):
        p = g.boundary[i]
        assert abs(normal_derivative(u, i) + beta * u.values[p]) <= 1e-9


def test_poisson_mixed_spec_residual():
    g, form, measure = _setup(m=2)
    spec = RobinSpec((Power(1.0, 2.0), neumann(), dirichlet()))
    f = _random(g, 12)
    u, report = poisson_solve(form, measure, spec, f)
    assert poisson_residual(form, measure, spec, f.values, u.values) <= 1e-9
    assert u.values[g.boundary[2]] == 0.0
    assert report.kkt_residual <= 1e-9


@pytest.mark.parametrize(
    "m, spec, seed, tol",
    [
        pytest.param(2, RobinSpec.uniform(Power(0.3, 1.0), 3), 15, 1e-10, id="absolute"),
        # thousands of sweeps, the last ones moving the objective only at
        # roundoff; the residual test alone must end the solve
        pytest.param(
            3,
            RobinSpec((Power(0.01, 1.0), neumann(), Power(0.01, 2.0))),
            0,
            1e-10,
            id="mixed-slow",
        ),
        # stops with a boundary residual just under tol; adding the interior
        # residual to it would report more than tol
        pytest.param(
            3,
            RobinSpec((Power(0.001, 1.0), neumann(), Power(0.001, 2.0))),
            0,
            1e-9,
            id="kkt-at-tol",
        ),
    ],
)
def test_poisson_nonlinear_spec_residual(m, spec, seed, tol):
    g, form, measure = _setup(m=m)
    f = _random(g, seed)
    u, report = poisson_solve(form, measure, spec, f, tol=tol)
    assert poisson_residual(form, measure, spec, f.values, u.values) <= 1e-9
    assert report.kkt_residual <= tol
    assert report.kkt_residual == pytest.approx(np.linalg.norm(report.boundary_residuals))
    assert 0.0 <= report.interior_residual <= tol


# ---------------------------------------------------------------------------
# normal derivative


def test_normal_derivative_of_constants_vanishes():
    for m in range(5):
        g = build_level(3, m)
        c = VertexFunction(g, np.full(g.vertex_count, 3.3))
        for i in range(3):
            assert normal_derivative(c, i) == 0.0


def test_normal_derivative_harmonic_constancy():
    for m in range(5):
        g = build_level(3, m)
        u = harmonic_function(g, [1.0, 0.0, 0.0])
        assert normal_derivative(u, 0) == pytest.approx(2.0, abs=1e-10)
    # symmetry: the other two corners each absorb half the flux
    u = harmonic_function(build_level(3, 3), [1.0, 0.0, 0.0])
    assert normal_derivative(u, 1) == pytest.approx(-1.0, abs=1e-10)
    assert normal_derivative(u, 2) == pytest.approx(-1.0, abs=1e-10)


def test_normal_derivative_flux_balance():
    # renormalized boundary sums of a harmonic function add up to zero
    for boundary in ([1.0, -0.5, 0.25], [2.0, 0.0, -1.0]):
        u = harmonic_function(build_level(3, 3), boundary)
        total = sum(normal_derivative(u, i) for i in range(3))
        assert total == pytest.approx(0.0, abs=1e-10)


def test_normal_derivative_invalid_index():
    g = build_level(3, 1)
    u = VertexFunction(g, np.zeros(g.vertex_count))
    with pytest.raises(DomainMismatchError):
        normal_derivative(u, 3)
