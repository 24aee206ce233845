import math

import numpy as np
import pytest

from gasketflow import (
    AbsoluteValue,
    BoxIndicator,
    ConfigError,
    ConvergenceError,
    DirichletIndicator,
    DomainMismatchError,
    EnergyForm,
    FlowConfig,
    MeasureWeights,
    PiecewiseLinearQuadratic,
    Power,
    Quadratic,
    RobinSpec,
    VertexFunction,
    Zero,
    backward_euler_step,
    build_level,
    energy,
    evolve,
    harmonic_function,
    l2_norm,
    mean,
    normal_derivative,
    perturbed_energy,
    poisson_solve,
    restrict,
    vertex_measure,
)

from oracles import poisson_residual, resolvent_oracle

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
    with pytest.raises(ConfigError):
        FlowConfig(tau=0.5, t_end=0.25)
    with pytest.raises(ConfigError):
        FlowConfig(tau=0.1, t_end=1.0, tol=0.0)
    with pytest.raises(ConfigError):
        FlowConfig(tau=0.3, t_end=1.0).n_steps  # not a multiple
    for bad in (
        dict(tau=math.nan, t_end=1.0),
        dict(tau=0.1, t_end=math.nan),
        dict(tau=0.1, t_end=1.0, tol=math.nan),
        dict(tau=INF, t_end=INF),
    ):
        with pytest.raises(ConfigError):
            FlowConfig(**bad)
    assert FlowConfig(tau=0.25, t_end=1.0).n_steps == 4


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
        lambda: RobinSpec.uniform(Quadratic(1.5), 3),
        lambda: RobinSpec.uniform(AbsoluteValue(0.8), 3),
        lambda: RobinSpec.uniform(BoxIndicator(-0.25, 0.5), 3),
        lambda: RobinSpec.uniform(Power(1.0, 3.0), 3),
        lambda: RobinSpec.uniform(PiecewiseLinearQuadratic(0.5, ((0.3, 1.0),)), 3),
        lambda: RobinSpec((Quadratic(1.0), Zero(), DirichletIndicator())),
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
        RobinSpec.uniform(Quadratic(1.0), 3),
        RobinSpec.uniform(AbsoluteValue(1.0), 3),
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
    spec = RobinSpec.uniform(AbsoluteValue(1.0), 3)
    cfg = FlowConfig(0.1, 0.5)
    a = evolve(form, measure, spec, _random(g, 5), cfg).values_matrix()
    b = evolve(form, measure, spec, _random(g, 5), cfg).values_matrix()
    assert np.array_equal(a, b)


def test_stepping_composes_bitwise():
    # evolving tau twice equals one two-step evolution, bit for bit
    g, form, measure = _setup()
    spec = RobinSpec.uniform(Quadratic(1.0), 3)
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
        RobinSpec.uniform(Quadratic(1.5), 3),
        RobinSpec.uniform(AbsoluteValue(0.8), 3),
        RobinSpec((Quadratic(1.0), Zero(), DirichletIndicator())),
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
    spec = RobinSpec((Zero(), Power(811.83, 1.07), DirichletIndicator()))
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
        RobinSpec.uniform(Quadratic(1.0), 3),
        RobinSpec.uniform(PiecewiseLinearQuadratic(0.5, ((0.3, 1.0),)), 3),
        RobinSpec.dirichlet(3),
    ):
        traj = evolve(form, measure, spec, _random(g, 13), FlowConfig(0.1, 1.0))
        values = [perturbed_energy(form, spec, s) for s in traj.states]
        for prev, nxt in zip(values, values[1:]):
            if math.isfinite(prev):
                assert nxt <= prev + 1e-9


def test_l2_contraction_of_pairs():
    g, form, measure = _setup(m=2)
    cfg = FlowConfig(0.05, 0.5)
    for spec in (
        RobinSpec.uniform(Quadratic(1.0), 3),
        RobinSpec.uniform(AbsoluteValue(1.0), 3),
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
        RobinSpec.uniform(Quadratic(1.0), 3),
        RobinSpec((Quadratic(1.0), Zero(), DirichletIndicator())),
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
        RobinSpec.uniform(Quadratic(1.0), 3),
        RobinSpec.uniform(AbsoluteValue(1.0), 3),
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


def test_flow_properties_tetrahedral_gasket():
    # same qualitative behavior for the four-point gasket
    g, form, measure = _setup(n=4, m=2)
    cfg = FlowConfig(0.1, 0.5)
    spec = RobinSpec((Quadratic(1.0), Zero(), DirichletIndicator(), AbsoluteValue(0.5)))
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
    spec = RobinSpec.uniform(Quadratic(1.0), 3)
    u0 = _random(g, 3)

    def final(tau):
        cfg = FlowConfig(tau, 1.0)
        return evolve(form, measure, spec, u0, cfg).values_matrix()[-1]

    coarse, mid, fine = final(0.1), final(0.05), final(0.025)
    num = np.linalg.norm(coarse - mid)
    den = np.linalg.norm(mid - fine)
    assert 1.5 <= num / den <= 3.0


@pytest.mark.parametrize("n, top", [(3, 8), (4, 7)])
def test_level_convergence_ratio(n, top):
    """The level-m flows converge as m grows: on the level-2 vertices the
    change from level m to m + 1 shrinks by N + 2 per level, the factor by
    which the Laplacian's renormalization ((N + 2) / N)^m * N^m grows."""
    specs = [
        RobinSpec.uniform(Quadratic(1.0), n),
        RobinSpec((AbsoluteValue(1.0), Zero()) + (DirichletIndicator(),) * (n - 2)),
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


def test_convergence_error_carries_partial_trajectory():
    g, form, measure = _setup(m=2)
    spec = RobinSpec.uniform(Power(1.0, 3.0), 3)
    u0 = _random(g, 9)
    cfg = FlowConfig(0.1, 0.5, tol=1e-18, max_inner_iters=2)
    with pytest.raises(ConvergenceError) as excinfo:
        evolve(form, measure, spec, u0, cfg)
    err = excinfo.value
    assert err.residual is not None and err.residual > 0
    assert err.partial is not None
    assert len(err.partial.states) >= 1
    np.testing.assert_array_equal(err.partial.states[0].values, u0.values)


# ---------------------------------------------------------------------------
# Poisson solves


def test_poisson_zero_source_gives_zero():
    g, form, measure = _setup(m=2)
    zero = VertexFunction(g, np.zeros(g.vertex_count))
    for spec in (RobinSpec.dirichlet(3), RobinSpec.uniform(Quadratic(2.0), 3)):
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
    spec = RobinSpec((AbsoluteValue(1.0), Zero(), DirichletIndicator()))
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
    spec = RobinSpec.uniform(Quadratic(beta), 3)
    f = _random(g, 8)
    u, _ = poisson_solve(form, measure, spec, f)
    for i in range(3):
        p = g.boundary[i]
        lhs = normal_derivative(u, i) + beta * u.values[p]
        assert lhs == pytest.approx(measure.masses[p] * f.values[p], abs=1e-10)


def test_poisson_robin_condition_with_boundary_free_source():
    g, form, measure = _setup(m=3)
    beta = 2.0
    spec = RobinSpec.uniform(Quadratic(beta), 3)
    raw = _random(g, 8).values.copy()
    raw[list(g.boundary)] = 0.0
    u, _ = poisson_solve(form, measure, spec, VertexFunction(g, raw))
    for i in range(3):
        p = g.boundary[i]
        assert abs(normal_derivative(u, i) + beta * u.values[p]) <= 1e-9


def test_poisson_mixed_spec_residual():
    g, form, measure = _setup(m=2)
    spec = RobinSpec((Quadratic(1.0), Zero(), DirichletIndicator()))
    f = _random(g, 12)
    u, report = poisson_solve(form, measure, spec, f)
    assert poisson_residual(form, measure, spec, f.values, u.values) <= 1e-9
    assert u.values[g.boundary[2]] == 0.0
    assert report.kkt_residual <= 1e-9


@pytest.mark.parametrize(
    "m, spec, seed, tol",
    [
        pytest.param(2, RobinSpec.uniform(AbsoluteValue(0.3), 3), 15, 1e-10, id="absolute"),
        # thousands of sweeps, the last ones moving the objective only at
        # roundoff; the residual test alone must end the solve
        pytest.param(
            3,
            RobinSpec((AbsoluteValue(0.01), Zero(), Quadratic(0.01))),
            0,
            1e-10,
            id="mixed-slow",
        ),
        # stops with a boundary residual just under tol; adding the interior
        # residual to it would report more than tol
        pytest.param(
            3,
            RobinSpec((AbsoluteValue(0.001), Zero(), Quadratic(0.001))),
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
